"""The in-place generators give the bytes of the whole-array ones they replaced.

siggen_reference keeps the earlier bodies.  Each property compares the
stream and both truth columns with `tobytes()`, at sizes on both sides of a
pool chunk's edge, with the worker pool limited to 1, 2 and 4 threads: the
chunk edges do not depend on the thread count, so neither may the bytes.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import siggen_reference as ref
from stsa import blockproc, siggen
from stsa.iq import SampleStream

RATE = 48000.0
CHUNK = siggen._CHUNK
SIZES = st.one_of(st.integers(0, 40),
                  st.sampled_from([255, 1001, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]))
FREQS = st.floats(-0.45 * RATE, 0.45 * RATE)
PHASES = st.floats(-50.0, 50.0)
SEEDS = st.integers(0, 2**32 - 1)
WORKERS = pytest.mark.parametrize("workers", [1, 2, 4])
PROPERTY = settings(max_examples=25)


def pool_of(workers):
    return mock.patch.object(blockproc, "worker_count", lambda jobs: max(1, min(workers, jobs)))


def assert_same_bytes(got, want):
    stream, truth = got
    samples, f_inst_hz, amplitude = want
    assert stream.samples.tobytes() == samples.tobytes()
    assert truth.f_inst_hz.tobytes() == f_inst_hz.tobytes()
    assert truth.amplitude.tobytes() == amplitude.tobytes()


@WORKERS
@PROPERTY
@given(n=SIZES, seed=SEEDS, psi0=PHASES)
def test_waveform_from_truth(workers, n, seed, psi0):
    rng = np.random.default_rng(seed)
    truth = siggen.TruthRecord(rng.uniform(-0.45, 0.45, n) * RATE, rng.uniform(0.0, 2.0, n),
                               psi0, RATE)
    with pool_of(workers):
        got = siggen.waveform_from_truth(truth)
    assert got.tobytes() == ref.waveform_from_truth(truth).tobytes()


@WORKERS
@PROPERTY
@given(n=SIZES, amp=st.floats(0.0, 10.0), f_hz=FREQS, psi=PHASES)
def test_gen_tone(workers, n, amp, f_hz, psi):
    with pool_of(workers):
        got = siggen.gen_tone(amp, f_hz, psi, n, RATE)
    assert_same_bytes(got, ref.gen_tone(amp, f_hz, psi, n, RATE))


@WORKERS
@PROPERTY
@given(n=SIZES, carrier=st.floats(-0.3 * RATE, 0.3 * RATE), a0=st.floats(0.0, 10.0),
       index=st.floats(0.0, 1.0), mod_freq=st.floats(0.0, 0.1 * RATE))
def test_gen_am(workers, n, carrier, a0, index, mod_freq):
    with pool_of(workers):
        got = siggen.gen_am(carrier, a0, index, mod_freq, n, RATE)
    assert_same_bytes(got, ref.gen_am(carrier, a0, index, mod_freq, n, RATE))


TONES = st.lists(st.tuples(st.floats(-2000.0, 2000.0), st.floats(0.0, 0.3)),
                 min_size=1, max_size=3).map(tuple)


@WORKERS
@PROPERTY
@given(n=SIZES, carrier=st.floats(-10000.0, 10000.0), dev=st.floats(0.0, 4000.0),
       amp=st.floats(0.01, 10.0), tones=TONES)
def test_gen_nbfm_tones(workers, n, carrier, dev, amp, tones):
    spec = siggen.NbfmSpec(carrier, dev, max(n, 1) / RATE, amp=amp, mod_tones=tones)
    with pool_of(workers):
        got = siggen.gen_nbfm(spec, RATE)
    assert_same_bytes(got, ref.gen_nbfm(spec, RATE))


@WORKERS
@PROPERTY
@given(n=SIZES.filter(bool), bw=st.floats(50.0, 5000.0), seed=SEEDS,
       rms=st.one_of(st.none(), st.floats(0.05, 0.95)))
def test_gen_nbfm_noise(workers, n, bw, seed, rms):
    # with only the DC bin passing, the earlier body drove a constant to an RMS
    assume(rms is None or RATE / n <= bw)
    spec = siggen.NbfmSpec(-3000.0, 4000.0, n / RATE, mod_noise_bw_hz=bw, mod_noise_seed=seed,
                           mod_noise_rms=rms)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            want = ref.gen_nbfm(spec, RATE)
        except RuntimeWarning:  # a clip saturated every sample, so the next spread was zero
            reject()
    with pool_of(workers):
        got = siggen.gen_nbfm(spec, RATE)
    assert_same_bytes(got, want)


@WORKERS
@PROPERTY
@given(n=SIZES.filter(bool), seed=SEEDS, snr_db=st.floats(-20.0, 80.0),
       band=st.tuples(FREQS, FREQS).filter(lambda b: b[0] < b[1]))
def test_add_awgn(workers, n, seed, snr_db, band):
    rng = np.random.default_rng(seed)
    stream = SampleStream(rng.standard_normal(n) + 1j * rng.standard_normal(n), RATE)
    with pool_of(workers):
        got = siggen.add_awgn(stream, snr_db, band, seed + 1)
    assert got.samples.tobytes() == ref.add_awgn(stream, snr_db, band, seed + 1).tobytes()


@WORKERS
@PROPERTY
@given(n=SIZES, k=st.integers(1, 4), seed=SEEDS)
def test_mix(workers, n, k, seed):
    rng = np.random.default_rng(seed)
    # signed zeros too: np.sum starts from +0.0, so a stream of -0.0 sums to +0.0
    parts = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], (k, 2, n)) * rng.standard_normal((k, 2, n))
    samples = np.zeros((k, n), dtype=np.complex128)
    samples.real, samples.imag = parts[:, 0], parts[:, 1]
    streams = [SampleStream(x, RATE) for x in samples]
    with pool_of(workers):
        got = siggen.mix(streams)
    assert got.samples.tobytes() == ref.mix([s.samples for s in streams]).tobytes()
