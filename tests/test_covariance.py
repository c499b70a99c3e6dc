"""Covariance properties of the whole cancel pipeline.

Multiplying a capture by a power of two 2**k scales every floating-point
operand and result of run_cancel exactly, barring overflow and underflow: the
estimator normalizes each block by a power of two, the renderer and the
subtraction are products and sums, and float32 rounding commutes with the
scale.  So the outputs must scale bit for bit.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from stsa import run_cancel
from stsa.blockproc import OVERLAP_MODES, StsaConfig
from stsa.iq import IqFormat, SampleStream
from stsa.siggen import add_awgn, gen_tone, mix

RATE = 2048000.0


def scaled(values: np.ndarray, k: int) -> np.ndarray:
    """values * 2**k, exact, with each part's sign kept (a complex product could flip a zero's)."""
    parts = np.ascontiguousarray(values).view(np.float64)
    return np.ldexp(parts, k).view(values.dtype)


@st.composite
def noisy_tones(draw):
    """1-3 tones of random amplitude, frequency and phase, under white noise."""
    n = draw(st.sampled_from([16, 64, 256]))
    length = n * draw(st.integers(2, 12)) + draw(st.integers(0, n - 1))
    tone = st.tuples(st.floats(0.1, 2.0), st.floats(-0.45 * RATE, 0.45 * RATE),
                     st.floats(-np.pi, np.pi))
    tones = [gen_tone(a, f, psi, length, RATE)[0]
             for a, f, psi in draw(st.lists(tone, min_size=1, max_size=3))]
    snr_db, seed = draw(st.floats(10.0, 40.0)), draw(st.integers(0, 2**32 - 1))
    return n, add_awgn(mix(tones), snr_db, (-RATE / 2, RATE / 2), seed)


@given(capture=noisy_tones(), k=st.integers(-20, 20), passes=st.integers(1, 2),
       inter_pass_format=st.sampled_from([None, IqFormat.FLOAT32]),
       strongest_only=st.booleans(), overlap=st.sampled_from(OVERLAP_MODES),
       threshold_db=st.sampled_from([6.0, 10.0]), max_peel=st.sampled_from([1, 3]))
def test_scaling_the_capture_by_a_power_of_two_scales_run_cancel_exactly(
        capture, k, passes, inter_pass_format, strongest_only, overlap, threshold_db, max_peel):
    n, stream = capture
    config = StsaConfig(block_len_n=n, overlap=overlap, detect_threshold_db=threshold_db,
                        max_peel=max_peel)
    settings = dict(passes=passes, strongest_only=strongest_only,
                    inter_pass_format=inter_pass_format)
    want = run_cancel(stream, config, **settings)
    got = run_cancel(SampleStream(scaled(stream.samples, k), RATE), config, **settings)

    assert got.residual.samples.tobytes() == scaled(want.residual.samples, k).tobytes()
    for got_est, want_est in zip(got.blocks_per_pass, want.blocks_per_pass, strict=True):
        assert got_est.amp.tobytes() == scaled(want_est.amp, k).tobytes()
        for name in ("residual_power", "noise_floor"):
            got_power, want_power = getattr(got_est, name), getattr(want_est, name)
            assert got_power.tobytes() == scaled(want_power, 2 * k).tobytes()
        for name in ("freq_hz", "phase_rad", "block_index", "peel_rank", "t_center_s"):
            assert getattr(got_est, name).tobytes() == getattr(want_est, name).tobytes()
    assert [[t.tolist() for t in p] for p in got.tracks_per_pass] == \
        [[t.tolist() for t in p] for p in want.tracks_per_pass]
