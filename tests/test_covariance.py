"""Covariance properties of the cancel pipeline.

Multiplying a capture by a power of two 2**k scales every floating-point
operand and result of run_cancel exactly, barring overflow and underflow: the
estimator normalizes each block by a power of two, the renderer and the
subtraction are products and sums, and float32 rounding commutes with the
scale.  So the outputs must scale bit for bit.

Conjugating a capture mirrors its spectrum, so the estimator must find the same
sinusoids with frequency and phase negated.  This holds to rounding, not bit
for bit: the mirrored FFT, mixer and bank products round differently.  It is
checked on the estimate table only, since track assembly breaks exact ties of
its nearest-distance and jump-limit rules by that rounding.

Shifting a capture by a whole number m of bins, x[k] * exp(2j*pi*m*k/N), maps
the coarse bins and the fine grid onto themselves, so the estimator must find
the same sinusoids m*Fs/N higher, each phase turned by the shift's phase at its
block center.  This too holds to rounding, on the estimate table.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from stsa import run_cancel
from stsa.blockproc import OVERLAP_MODES, StsaConfig, process_stream, wrap_phase
from stsa.iq import IqFormat, SampleStream
from stsa.siggen import add_awgn, gen_tone, mix

RATE = 2048000.0


def scaled(values: np.ndarray, k: int) -> np.ndarray:
    """values * 2**k, exact, with each part's sign kept (a complex product could flip a zero's)."""
    parts = np.ascontiguousarray(values).view(np.float64)
    return np.ldexp(parts, k).view(values.dtype)


@st.composite
def noisy_tones(draw, sizes=(16, 64, 256), margin_bins=0.0):
    """1-3 tones of random amplitude, frequency and phase, under white noise,
    within 0.45 Fs of 0 Hz and at least margin_bins bins inside ±Fs/2."""
    n = draw(st.sampled_from(sizes))
    length = n * draw(st.integers(2, 12)) + draw(st.integers(0, n - 1))
    f_max = min(0.45, 0.5 - margin_bins / n) * RATE
    tone = st.tuples(st.floats(0.1, 2.0), st.floats(-f_max, f_max), st.floats(-np.pi, np.pi))
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
                        max_peel=max_peel, passes=passes, strongest_only=strongest_only)
    want = run_cancel(stream, config, inter_pass_format)
    got = run_cancel(SampleStream(scaled(stream.samples, k), RATE), config, inter_pass_format)

    assert got.residual.samples.tobytes() == scaled(want.residual.samples, k).tobytes()
    for (got_est, _), (want_est, _) in zip(got.passes, want.passes, strict=True):
        assert got_est.amp.tobytes() == scaled(want_est.amp, k).tobytes()
        assert got_est.noise_floor.tobytes() == scaled(want_est.noise_floor, 2 * k).tobytes()
        for name in ("freq_hz", "phase_rad", "block_index", "peel_rank", "t_center_s"):
            assert getattr(got_est, name).tobytes() == getattr(want_est, name).tobytes()
    assert [[t.tolist() for t in p] for _, p in got.passes] == \
        [[t.tolist() for t in p] for _, p in want.passes]


# Bounds: 6-9 times the largest error seen over 6,000 random captures of this kind at
# 2.048 MHz (~150,000 estimates): 1.1e-16 Fs in frequency, 1.3e-13 relative in amplitude
# and 1.7e-13 rad in phase.
FREQ_BOUND_HZ = 1e-15 * RATE
AMP_BOUND = 1e-12
PHASE_BOUND_RAD = 1e-12


@given(capture=noisy_tones(sizes=(8, 9, 16, 17, 32, 33, 64), margin_bins=1.0),
       half_overlap=st.booleans(), threshold_db=st.sampled_from([6.0, 10.0]),
       max_peel=st.integers(1, 3))
@example(capture=(8, add_awgn(SampleStream(0.7 * np.exp(1j * (np.pi * np.arange(96) + 0.3)),
                                            RATE), 20.0, (-RATE / 2, RATE / 2), 3)),
         half_overlap=False, threshold_db=10.0, max_peel=2)  # a tone at the Nyquist frequency
def test_conjugating_the_capture_mirrors_every_estimate(capture, half_overlap, threshold_db,
                                                        max_peel):
    n, stream = capture
    config = StsaConfig(block_len_n=n, overlap="half" if half_overlap and n % 2 == 0 else "none",
                        detect_threshold_db=threshold_db, max_peel=max_peel)
    want = process_stream(stream, config)
    got = process_stream(SampleStream(np.conj(stream.samples), RATE), config)

    assert got.block_index.tolist() == want.block_index.tolist()
    assert got.peel_rank.tolist() == want.peel_rank.tolist()
    freq, phase = -want.freq_hz, -want.phase_rad
    # ±Fs/2 is one frequency, and an estimate there may mirror to either sign of it; the
    # same sinusoid then has its phase turned by pi*(N-1), as the estimator's fold turns it
    wrapped = np.abs(got.freq_hz - freq) > RATE / 2
    freq[wrapped] += np.sign(got.freq_hz[wrapped]) * RATE
    phase[wrapped] += np.pi * (n - 1)
    error = np.abs(got.freq_hz - freq)
    moved = np.flatnonzero(error > FREQ_BOUND_HZ)
    blocks, first = np.unique(got.block_index[moved], return_index=True)
    # as against the per-block oracle, a near-tie on the fine grid may move one step (the
    # bank's tie order 0, -1, +1, ... is not symmetric); later peels see another residual
    step = config.fine_grid_fraction * config.bin_width_hz(RATE)
    assert np.all(error[moved[first]] <= step * (1 + 1e-9))
    assert blocks.size <= 1e-3 * error.size
    kept = ~np.isin(got.block_index, blocks)
    assert np.all(np.abs(got.amp - want.amp)[kept] <= AMP_BOUND * want.amp[kept])
    assert np.all(np.abs(wrap_phase(got.phase_rad - phase))[kept] <= PHASE_BOUND_RAD)


# Bounds: 7-9 times the largest error seen over 12,000 random captures of this kind at
# 2.048 MHz (~620,000 estimates): 2.3e-16 Fs in frequency, 1.1e-12 relative in amplitude
# and 6.1e-13 rad in phase.
SHIFT_FREQ_BOUND_HZ = 2e-15 * RATE
SHIFT_AMP_BOUND = 8e-12
SHIFT_PHASE_BOUND_RAD = 5e-12


@given(capture=noisy_tones(sizes=(8, 9, 16, 17, 32, 33, 64), margin_bins=1.0),
       m=st.integers(0, 63), half_overlap=st.booleans(),
       threshold_db=st.sampled_from([6.0, 10.0]), max_peel=st.integers(1, 3))
def test_a_whole_bin_shift_of_the_capture_shifts_every_estimate(capture, m, half_overlap,
                                                                threshold_db, max_peel):
    n, stream = capture
    config = StsaConfig(block_len_n=n, overlap="half" if half_overlap and n % 2 == 0 else "none",
                        detect_threshold_db=threshold_db, max_peel=max_peel)
    m %= n  # the shift has period N in m
    turn = m * np.arange(len(stream)) % n  # m*k mod N, exact, so the shift is exact to rounding
    want = process_stream(stream, config)
    got = process_stream(SampleStream(stream.samples * np.exp(2j * np.pi * turn / n), RATE),
                         config)

    assert got.block_index.tolist() == want.block_index.tolist()
    assert got.peel_rank.tolist() == want.peel_rank.tolist()
    freq = want.freq_hz + m * RATE / n
    # the shift's phase at the block center: 2*pi*m*(b*hop + (N-1)/2)/N, reduced exactly
    phase = want.phase_rad + np.pi * (m * (2 * want.block_index * config.hop + n - 1) % (2 * n)) / n
    # ±Fs/2 is one frequency: a whole-Fs difference is the same sinusoid with its phase turned
    # by pi*(N-1), as the estimator's fold turns it
    folds = np.round((got.freq_hz - freq) / RATE)
    freq += folds * RATE
    phase += folds * np.pi * (n - 1)
    error = np.abs(got.freq_hz - freq)
    moved = np.flatnonzero(error > SHIFT_FREQ_BOUND_HZ)
    blocks, first = np.unique(got.block_index[moved], return_index=True)
    # a near-tie on the fine grid may move one step; later peels see another residual
    step = config.fine_grid_fraction * config.bin_width_hz(RATE)
    assert np.all(error[moved[first]] <= step * (1 + 1e-9))
    assert blocks.size <= 1e-3 * error.size
    kept = ~np.isin(got.block_index, blocks)
    assert np.all(np.abs(got.amp - want.amp)[kept] <= SHIFT_AMP_BOUND * want.amp[kept])
    assert np.all(np.abs(wrap_phase(got.phase_rad - phase))[kept] <= SHIFT_PHASE_BOUND_RAD)
