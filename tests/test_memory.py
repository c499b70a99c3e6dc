"""Traced peak memory of the generators, the estimator, the report, the IQ writer
and `stsa cancel`.

The input is built before tracing starts, so each peak counts only what
the call itself allocates.  The bounds are multiples of one complex128 copy
of the stream, so a stage that again transforms, encodes or copies the whole
stream at once fails them.
"""

import tracemalloc

import numpy as np
import pytest

from stsa import blockproc, siggen
from stsa.blockproc import StsaConfig, process_stream
from stsa.cli import main
from stsa.iq import IqFormat, SampleStream, write_iq
from stsa.metrics import suppression_report

RATE = 2048000.0
SAMPLES = 2**21
STREAM_BYTES = SAMPLES * np.dtype(np.complex128).itemsize


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(21)
    noise = rng.standard_normal((2, 2, SAMPLES))
    return [SampleStream(re + 1j * im, RATE) for re, im in noise]


def test_report_peak_is_under_a_quarter_of_the_stream(streams):
    peak = traced_peak(lambda: suppression_report(*streams, (-5000.0, 5000.0)))
    assert peak < STREAM_BYTES / 4


def test_write_peak_is_the_encoded_size(streams, tmp_path):
    encoded_bytes = SAMPLES * IqFormat.FLOAT32.bytes_per_sample
    peak = traced_peak(lambda: write_iq(streams[0], tmp_path / "x.iq", IqFormat.FLOAT32))
    assert (tmp_path / "x.iq").stat().st_size == encoded_bytes
    assert peak < encoded_bytes + 2**20


def tone_in_noise(samples) -> SampleStream:
    rng = np.random.default_rng(5)
    t = np.arange(samples) / RATE
    x = 0.5 * np.exp(2j * np.pi * 100e3 * t) + 0.01 * (
        rng.standard_normal(samples) + 1j * rng.standard_normal(samples))
    return SampleStream(x, RATE)


def test_estimator_peaks_under_a_quarter_more_than_the_stream():
    # Each batch in flight holds a few batch-sized arrays, one per thread,
    # and the table grows by a few values per block.
    samples = 2**20
    stream = tone_in_noise(samples)
    peak = traced_peak(lambda: process_stream(stream, StsaConfig()))
    assert peak < 1.25 * samples * np.dtype(np.complex128).itemsize


def test_estimator_peak_holds_at_any_worker_count(monkeypatch):
    # At N = 16,384 the fine search's bank is 201 x 16,384 complex values (50 MiB).  The call
    # builds it once, before its pool starts, so more threads share one set of tables.
    stream = tone_in_noise(2**20)
    config = StsaConfig(block_len_n=16384)
    peaks = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(blockproc, "worker_count", lambda jobs, k=workers: max(1, min(k, jobs)))
        blockproc._search_tables.cache_clear()  # so each call builds its tables while traced
        peaks.append(traced_peak(lambda: process_stream(stream, config)))
    blockproc._search_tables.cache_clear()
    assert max(peaks) < 1.1 * min(peaks), [p / 2**20 for p in peaks]


def cancel_with_estimate_peak(tmp_path, samples) -> int:
    src = tmp_path / "in.iq"
    write_iq(tone_in_noise(samples), src, IqFormat.FLOAT32)
    codes = []
    peak = traced_peak(lambda: codes.append(main([
        "cancel", "--in", str(src), "--rate", str(RATE), "--out-residual",
        str(tmp_path / "r.iq"), "--out-estimate", str(tmp_path / "e.iq")])))
    assert codes == [0]
    return peak


def test_cancel_with_estimate_peaks_under_three_stream_copies(tmp_path):
    # After the estimator the only stream-length buffers are the input and
    # the rendered waveform, which becomes the residual; the residual and
    # estimate files are encoded in chunks.  A third complex128 copy (a
    # separate residual or estimate array) goes over the bound.
    samples = 2**20
    peak = cancel_with_estimate_peak(tmp_path, samples)
    assert peak < 3 * samples * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_cancel_peak_holds_at_any_worker_count(tmp_path, monkeypatch, workers):
    # The estimator's batches and the renderer's passes split a fixed number
    # of samples in flight among their threads, so more CPUs add no temporaries.
    monkeypatch.setattr(blockproc, "worker_count", lambda jobs: max(1, min(workers, jobs)))
    samples = 2**20
    peak = cancel_with_estimate_peak(tmp_path, samples)
    assert peak < 3 * samples * np.dtype(np.complex128).itemsize


GEN_SAMPLES = 2**20
GEN_COPY = GEN_SAMPLES * np.dtype(np.complex128).itemsize
FM_SPEC = siggen.NbfmSpec(0.0, 4000.0, GEN_SAMPLES / RATE, mod_noise_bw_hz=1000.0,
                          mod_noise_seed=7, mod_noise_rms=0.9)


@pytest.fixture(scope="module")
def tone():
    return siggen.gen_tone(1.0, 1000.0, 0.5, GEN_SAMPLES, RATE)[0]


@pytest.mark.parametrize("build,copies", [
    # a generator returns the stream (one copy) and the truth's columns, half a copy each
    # unless constant: a constant column is a zero-stride view.  It builds them in place with
    # chunk-sized temporaries, so gen_tone returns one copy and gen_am one and a half
    (lambda _: siggen.gen_tone(1.0, 1000.0, 0.5, GEN_SAMPLES, RATE), 1.25),
    (lambda _: siggen.gen_am(10000.0, 1.0, 0.5, 50.0, GEN_SAMPLES, RATE), 1.75),
    # the clip-and-filter loop low-passes its waveform in place; its half-copy spectrum is
    # freed before the stream is built
    (lambda _: siggen.gen_nbfm(FM_SPEC, RATE), 1.9),
    # one copy out: no complex noise array, no stack of the mixed streams
    (lambda stream: siggen.add_awgn(stream, 30.0, (-5000.0, 5000.0), 1), 1.6),
    (lambda stream: siggen.mix([stream] * 3), 1.25),
], ids=["gen_tone", "gen_am", "gen_nbfm_rms_noise", "add_awgn", "mix_of_three"])
def test_generator_peaks_near_its_output(tone, build, copies):
    assert traced_peak(lambda: build(tone)) < copies * GEN_COPY


def test_truth_csv_peak_is_flat_in_the_row_count(tmp_path):
    # the rows are formatted 2^16 at a time, so no stream-length list of Python floats; two and
    # four chunks show it (tracing the formatting costs ~10 us a row)
    peaks = []
    for samples in (2**17, 2**18):
        amplitude = np.linspace(0.0, 1.0, samples)
        truth = siggen.TruthRecord(np.broadcast_to(1000.0, samples), amplitude, 0.0, RATE)
        peaks.append(traced_peak(lambda: siggen.write_truth_csv(truth, tmp_path / "t.csv")))
    assert peaks[1] < 1.1 * peaks[0], [p / 2**20 for p in peaks]
