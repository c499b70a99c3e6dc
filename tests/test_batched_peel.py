"""The batched peel in process_stream against the peel loops it replaced.

The oracle below is the earlier per-block estimate_block, one Python loop per
block built from the public single-block helpers.  The batched estimator must
give the same peel count for every block.  A frequency may move by one fine
step where the fine-grid correlation has a near-tie (the matrix product sums
in another order), in at most 0.1 % of estimates; everything else agrees to
1e-9.

The reference kernel below is the earlier batched peel, which gathered the
active rows out of the whole batch every round, scattered the subtraction back
and took the floor with np.median.  At the same batch size process_stream must
equal it exactly, block for block.
"""

import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stsa import blockproc
from stsa.blockproc import (
    BlockEstimates,
    SinusoidEstimate,
    StsaConfig,
    _centered_times,
    _detect_rows,
    _normalize,
    _search_tables,
    _window_mean,
    detect_peak,
    estimate_amp_phase,
    process_stream,
    refine_frequency,
    subtract_sinusoid,
    window_values,
    wrap_phase,
)
from stsa.iq import SampleStream
from stsa.siggen import add_awgn, gen_am, gen_tone, mix
from scenarios import FM_CONFIG, RATE, STATIONS_CONFIG, fm_stream, three_station_stream
from table_helpers import estimates_table

N = 256


def bin_to_freq_hz(coarse_bin: int, n: int, sample_rate_hz: float) -> float:
    """Center frequency of an FFT bin in baseband Hz (DFT bin ordering)."""
    f = coarse_bin * sample_rate_hz / n
    if f >= sample_rate_hz / 2:
        f -= sample_rate_hz
    return f


def oracle_estimate_block(
    block: np.ndarray,
    config: StsaConfig,
    sample_rate_hz: float,
    t_center_s: float = 0.0,
    block_index: int = 0,
) -> BlockEstimates:
    """Run the full peel loop on one block.

    Each iteration re-windows the current unwindowed residual, so earlier
    subtractions sharpen later detections.  Stops at the detection threshold
    or after max_peel extractions.
    """
    block = np.asarray(block, dtype=np.complex128)
    if block.size != config.block_len_n:
        raise ValueError(
            f"block length {block.size} != configured block_len_n {config.block_len_n}"
        )
    residual = block.copy()
    estimates = []
    for rank in range(config.max_peel):
        windowed = residual * window_values(config.window, residual.size)
        detection = detect_peak(windowed, config.detect_threshold_db)
        if detection is None:
            break
        coarse = bin_to_freq_hz(detection.coarse_bin, block.size, sample_rate_hz)
        freq = refine_frequency(windowed, coarse, sample_rate_hz, config)
        amp, phase = estimate_amp_phase(windowed, freq, config.window, sample_rate_hz)
        if abs(freq) >= sample_rate_hz / 2:
            # fold the search overshoot at the Nyquist edge back into the
            # principal span; with center-referenced times a full-rate shift
            # also rotates the phase by pi*(N-1)
            freq -= np.sign(freq) * sample_rate_hz
            phase = wrap_phase(phase + np.pi * ((block.size - 1) % 2))
        est = SinusoidEstimate(amp, freq, phase, block_index, t_center_s, rank)
        residual = subtract_sinusoid(residual, est, sample_rate_hz)
        estimates.append(est)
    final_windowed = residual * window_values(config.window, residual.size)
    floor = float(
        np.median(np.abs(np.fft.fft(final_windowed)) ** 2 / block.size**2)
    )
    return BlockEstimates(block_index, tuple(estimates), floor)


def block_center_time(stream: SampleStream, config: StsaConfig, block_index: int) -> float:
    start = block_index * config.hop
    return (start + (config.block_len_n - 1) / 2.0) / stream.sample_rate_hz


def oracle_process_stream(stream: SampleStream, config: StsaConfig) -> list[BlockEstimates]:
    n = config.block_len_n
    return [
        oracle_estimate_block(
            stream.samples[start : start + n],
            config,
            stream.sample_rate_hz,
            t_center_s=block_center_time(stream, config, index),
            block_index=index,
        )
        for index, start in enumerate(range(0, len(stream) - n + 1, config.hop))
    ]


def reference_detect_rows(windowed: np.ndarray, threshold_db: float):
    """Coarse bin, peak power, median floor and hit flag of each windowed row."""
    n = windowed.shape[1]
    power = np.abs(np.fft.fft(windowed, axis=1)) ** 2 / n**2
    bins = np.argmax(power, axis=1)
    peak = power[np.arange(len(bins)), bins]
    floor = np.median(power, axis=1)
    ratio = np.divide(peak, floor, out=np.full_like(peak, np.inf), where=floor > 0.0)
    return bins, peak, floor, (peak > (n * 2.0**-52) ** 2) & (ratio >= 10.0 ** (threshold_db / 10.0))


def reference_estimate_blocks(blocks, config, sample_rate_hz, t_centers, first_index):
    """Peel loop over a (B, N) batch: each round handles every still-detecting block.

    The winning fine-grid correlation gives amplitude, phase and the tone to
    subtract; a block that stops keeps the floor of its failed detection.
    """
    n = config.block_len_n
    w = window_values(config.window, n)
    w_mean = _window_mean(config.window, n)
    offsets_hz, bank, probes, lagrange = _search_tables(n, sample_rate_hz,
                                                        config.fine_grid_fraction)
    residual, exps = _normalize(blocks)  # outputs are scaled back by 2**exps
    floors = np.zeros(len(residual))
    active = np.arange(len(residual))
    rounds = []
    for _ in range(config.max_peel):
        windowed = residual[active] * w
        bins, _, floor, hit = reference_detect_rows(windowed, config.detect_threshold_db)
        floors[active[~hit]] = floor[~hit]
        active, windowed = active[hit], windowed[hit]
        if not active.size:
            break
        coarse = bins[hit] * sample_rate_hz / n  # FFT bin center in baseband Hz
        coarse[coarse >= sample_rate_hz / 2] -= sample_rate_hz
        # the mixer depends only on the coarse bin: one row per distinct bin
        bin_hz, row_of = np.unique(coarse, return_inverse=True)
        mixer = np.exp(-2j * np.pi * bin_hz[:, None] * _centered_times(n, sample_rate_hz))[row_of]
        # the kernel's one-row pad, interpolated search and product order (below), so
        # values match bit for bit
        mixed = windowed * mixer
        corr = (((mixed if active.size > 1 else np.repeat(mixed, 2, axis=0)) @ probes)
                @ lagrange)[: active.size]
        best = np.argmax(np.abs(corr), axis=1)
        c = corr[np.arange(active.size), best] / n
        freq = coarse + offsets_hz[best]
        phase = wrap_phase(np.angle(c))
        # fold the search overshoot at the Nyquist edge back into the principal
        # span; with center-referenced times that rotates the phase by pi*(N-1)
        fold = np.abs(freq) >= sample_rate_hz / 2
        freq[fold] -= np.sign(freq[fold]) * sample_rate_hz
        phase[fold] = wrap_phase(phase[fold] + np.pi * ((n - 1) % 2))
        tone = np.conjugate(np.multiply(bank[best], mixer))
        residual[active] -= np.multiply((c / w_mean)[:, None], tone)
        amp = np.ldexp(np.abs(c) / w_mean, exps[active])
        rounds.append([v.tolist() for v in (active, amp, freq, phase)])
    if active.size:  # these reached max_peel: floor of the final residual
        floors[active] = reference_detect_rows(residual[active] * w, config.detect_threshold_db)[2]
    per_block = [[] for _ in range(len(residual))]
    for rank, columns in enumerate(rounds):
        for row, a, f, p in zip(*columns):
            per_block[row].append(SinusoidEstimate(a, f, p, first_index + row, t_centers[row], rank))
    return estimates_table([e for ests in per_block for e in ests], np.ldexp(floors, 2 * exps))


def assert_equals_reference(stream, config):
    """process_stream must reproduce the reference kernel exactly: no tolerance.

    Both run through process_stream's batching at the current _POOL_SAMPLES.
    """
    got = list(process_stream(stream, config))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blockproc, "_estimate_blocks", reference_estimate_blocks)
        assert got == list(process_stream(stream, config))


def assert_matches_oracle(stream, config):
    """Compare process_stream with the oracle; returns (estimates, frequency flips)."""
    got = process_stream(stream, config)
    want = oracle_process_stream(stream, config)
    assert [b.block_index for b in got] == [b.block_index for b in want]
    assert [len(b.estimates) for b in got] == [len(b.estimates) for b in want]
    step = config.fine_grid_fraction * config.bin_width_hz(stream.sample_rate_hz)
    total = flips = 0
    for g, w in zip(got, want):
        total += len(w.estimates)
        flipped = False
        for a, b in zip(g.estimates, w.estimates):
            assert (a.block_index, a.t_center_s, a.peel_rank) == (
                b.block_index, b.t_center_s, b.peel_rank)
            if a.freq_hz != b.freq_hz:
                # a near-tie on the fine grid; later peels see another residual
                assert abs(a.freq_hz - b.freq_hz) <= step * (1 + 1e-9)
                flips += 1
                flipped = True
                break
            assert a.amp == pytest.approx(b.amp, rel=1e-9, abs=0)
            assert abs(wrap_phase(a.phase_rad - b.phase_rad)) <= 1e-9
        if not flipped:
            assert g.noise_floor == pytest.approx(w.noise_floor, rel=1e-9, abs=0)
    assert flips <= 1e-3 * total, f"{flips} of {total} frequencies moved one fine step"
    return total, flips


def noisy_tones(tones, n_samples, seed, snr_db=30.0):
    streams = [gen_tone(amp, f, psi, n_samples, RATE)[0] for amp, f, psi in tones]
    return add_awgn(mix(streams), snr_db, (-50000.0, 50000.0), seed)


def test_acceptance_fm_scenario():
    stream = fm_stream(1.0)
    # 8,000 blocks also leave a partial last batch
    batch = blockproc._POOL_SAMPLES // (blockproc.worker_count(8000) * N)
    assert (len(stream) // N) % batch != 0
    total, _ = assert_matches_oracle(stream, FM_CONFIG)
    assert total == 15478
    assert_equals_reference(stream, FM_CONFIG)


def test_three_station_mixture():
    assert_matches_oracle(three_station_stream(), STATIONS_CONFIG)
    assert_equals_reference(three_station_stream(), STATIONS_CONFIG)


def test_stationary_tone():
    stream = noisy_tones([(0.7, 82137.0, 1.3)], 200 * N, 5)
    total, _ = assert_matches_oracle(stream, StsaConfig())
    assert total >= 200


def test_stream_shorter_than_one_block():
    stream = noisy_tones([(1.0, 82137.0, 0.0)], N - 1, 6)
    assert list(process_stream(stream, StsaConfig())) == []
    assert_matches_oracle(stream, StsaConfig())


def test_dropped_tail_samples():
    stream = noisy_tones([(1.0, -300000.0, 0.4)], 40 * N + 77, 7)
    assert len(process_stream(stream, StsaConfig())) == 40
    assert_matches_oracle(stream, StsaConfig())


def test_half_overlap():
    config = StsaConfig(detect_threshold_db=9.0, max_peel=3, overlap="half")
    assert_matches_oracle(fm_stream(0.05), config)
    assert_equals_reference(fm_stream(0.05), config)


def test_many_batches_with_partial_last(monkeypatch):
    monkeypatch.setattr(blockproc, "_POOL_SAMPLES", 14 * N)  # 7 blocks for each of 2 threads
    monkeypatch.setattr(blockproc, "worker_count", lambda jobs: 2)
    stream = fm_stream(0.01)
    assert (len(stream) // N) % 7 != 0
    assert_matches_oracle(stream, FM_CONFIG)
    assert_equals_reference(stream, FM_CONFIG)


def test_all_zero_blocks():
    tone = noisy_tones([(1.0, 82137.0, 0.0)], 30 * N, 8).samples.copy()
    tone[5 * N : 12 * N] = 0.0
    tone[-N:] = 0.0
    stream = SampleStream(tone, RATE)
    blocks = list(process_stream(stream, StsaConfig()))
    for b in blocks[5:12] + blocks[-1:]:
        assert (b.estimates, b.noise_floor) == ((), 0.0)
    assert_matches_oracle(stream, StsaConfig())
    assert_equals_reference(stream, StsaConfig())


def test_blocks_reaching_max_peel():
    tones = [(1.0, -200000.0, 0.1), (0.5, 30000.0, 2.0), (0.3, 410000.0, -1.0)]
    stream = noisy_tones(tones, 60 * N, 9, snr_db=60.0)
    config = StsaConfig(max_peel=2)
    assert all(len(b.estimates) == 2 for b in process_stream(stream, config))
    assert_matches_oracle(stream, config)
    assert_equals_reference(stream, config)


def test_odd_block_length():
    # odd N takes the one-order-statistic branch of the median floor
    config = StsaConfig(block_len_n=255, detect_threshold_db=9.0, max_peel=3)
    stream = noisy_tones([(1.0, -200000.0, 0.1), (0.3, 30000.0, 2.0)], 40 * 255 + 9, 10)
    total, _ = assert_matches_oracle(stream, config)
    assert total >= 80
    assert_equals_reference(stream, config)
    assert_equals_reference(fm_stream(0.05), config)


# Power-of-two scales: 2**-520 and below give subnormal and zero bin powers.
_ROW_SCALES = st.sampled_from([1.0, 2.0**-510, 2.0**-520, 2.0**-530, 2.0**-1070])
_ROW_VALUES = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5]) | st.floats(-4.0, 4.0)


@settings(max_examples=200)
@given(n=st.sampled_from([8, 9, 16, 17, 32, 33]), rows=st.integers(1, 3), data=st.data())
def test_partition_floor_is_the_median(n, rows, data):
    """The one-partition floor equals np.median of the same powers, bit for bit."""
    values = data.draw(st.lists(_ROW_VALUES, min_size=2 * n * rows, max_size=2 * n * rows))
    windowed = data.draw(_ROW_SCALES) * np.array(values).view(np.complex128).reshape(rows, n)
    if data.draw(st.booleans()):
        windowed = windowed.real + 0j  # a mirrored spectrum: every power repeats
    power = np.abs(np.fft.fft(windowed, axis=1)) ** 2 / n**2
    floor = _detect_rows(windowed, 10.0)[2]
    assert floor.tobytes() == np.median(power, axis=1).tobytes()


def am_stream(duration_s):
    clean, _ = gen_am(10000.0, 1.0, 0.5, 50.0, int(round(duration_s * RATE)), RATE)
    return add_awgn(clean, 40.0, (9000.0, 11000.0), 5)


BATCH_CASES = {
    "fm": (lambda: fm_stream(0.1), FM_CONFIG),
    "am_n2048": (lambda: am_stream(0.5), StsaConfig(block_len_n=2048, window="hamming",
                                                    detect_threshold_db=12.0, max_peel=2)),
}


def assert_same_table(one, other):
    for name, column in vars(one).items():
        assert column.tobytes() == getattr(other, name).tobytes(), name


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_size_changes_no_value(monkeypatch, case):
    """Batches of 2**14, 2**17, 2**18 and 2**20 samples give the same table, bit for bit.

    One thread runs them, so each batch has exactly that many samples.

    The kernel pads a one-row correlation to two rows and writes its complex
    products with a fixed operand order, so neither the matrix-vector path nor
    numpy's reuse of large temporaries can change a value with the row count.
    """
    make_stream, config = BATCH_CASES[case]
    stream = make_stream()
    monkeypatch.setattr(blockproc, "worker_count", lambda jobs: 1)
    runs = []
    for batch in (2**14, 2**17, 2**18, 2**20):
        monkeypatch.setattr(blockproc, "_POOL_SAMPLES", batch)
        runs.append(process_stream(stream, config))
    assert sum(len(b.estimates) for b in runs[0]) > len(runs[0])  # some blocks peel twice
    for other in runs[1:]:
        assert_same_table(runs[0], other)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_estimate_block_is_its_row_of_process_stream(case):
    """A batch of one gives each block the values it gets inside process_stream."""
    make_stream, config = BATCH_CASES[case]
    stream = make_stream()
    table = process_stream(stream, config)
    n = config.block_len_n
    for i, row in enumerate(table):
        alone = blockproc.estimate_block(stream.samples[i * n : (i + 1) * n], config, RATE)
        assert [(e.amp, e.freq_hz, e.phase_rad, e.peel_rank) for e in alone.estimates] == [
            (e.amp, e.freq_hz, e.phase_rad, e.peel_rank) for e in row.estimates], i
        assert alone.noise_floor == row.noise_floor


def test_worker_count_changes_no_value(monkeypatch):
    """1, 2 and 4 threads give the same table, over batches of 7, 3 and 1 blocks.

    Four workers on a short switch interval also run more threads than a
    small machine has cores, switching between them often.
    """
    monkeypatch.setattr(blockproc, "_POOL_SAMPLES", 7 * N)
    stream = fm_stream(0.05)
    assert (len(stream) // N) % 7 != 0
    tables = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 4):
            monkeypatch.setattr(blockproc, "worker_count", lambda jobs, k=workers: k)
            tables.append(process_stream(stream, FM_CONFIG))
    finally:
        sys.setswitchinterval(interval)
    for other in tables[1:]:
        assert_same_table(tables[0], other)


def test_batches_run_on_several_threads(monkeypatch):
    """With two workers, two threads each run _estimate_blocks, at the same time.

    Each thread's first batch waits for the other's at a barrier, which a
    single thread would leave broken after the timeout.
    """
    monkeypatch.setattr(blockproc, "_POOL_SAMPLES", 14 * N)
    monkeypatch.setattr(blockproc, "worker_count", lambda jobs: 2)
    kernel, barrier, threads = blockproc._estimate_blocks, threading.Barrier(2, timeout=30), set()

    def recorded(*args):
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            barrier.wait()
        return kernel(*args)

    monkeypatch.setattr(blockproc, "_estimate_blocks", recorded)
    assert len(process_stream(fm_stream(0.01), StsaConfig())) == 80
    assert len(threads) == 2


def test_worker_count_is_capped_by_the_jobs():
    assert blockproc.worker_count(1) == 1
    assert 1 <= blockproc.worker_count(10**6) <= (os.cpu_count() or 1)


def test_on_pool_returns_results_in_start_order(monkeypatch):
    """The first job waits for the last to finish, so the results arrive out of order."""
    monkeypatch.setattr(blockproc, "worker_count", lambda jobs: 4)
    last_done = threading.Event()

    def job(lo, hi):
        if lo == 0:
            assert last_done.wait(timeout=30)
        if hi == 10:
            last_done.set()
        return lo, hi

    assert blockproc.on_pool(10, 3, job) == [(0, 3), (3, 6), (6, 9), (9, 10)]


@pytest.mark.parametrize("workers", [1, 4])
def test_on_pool_raises_the_first_error_after_every_job_ends(monkeypatch, workers):
    """Jobs 1 and 3 of 4 raise (on four threads job 3 raises first); job 1's error comes out,
    and only once every job has ended: job 2 sleeps longest, and on one thread job 3 waits
    behind it, so a pool that cancels queued jobs on an error would skip it."""
    monkeypatch.setattr(blockproc, "worker_count", lambda jobs: workers)
    ended = []

    def job(lo, hi):
        try:
            time.sleep({1: 0.05, 2: 0.2}.get(lo, 0.0))
            if lo in (1, 3):
                raise RuntimeError(f"job {lo}")
            return lo
        finally:
            ended.append(lo)

    with pytest.raises(RuntimeError, match="job 1"):
        blockproc.on_pool(4, 1, job)
    assert sorted(ended) == [0, 1, 2, 3]


def test_on_pool_edge_sizes():
    calls = []
    assert blockproc.on_pool(0, 5, lambda lo, hi: calls.append((lo, hi))) == []
    assert calls == []
    assert blockproc.on_pool(3, 10, lambda lo, hi: (lo, hi)) == [(0, 3)]


def test_only_blockproc_builds_a_thread_pool():
    """Every pool in stsa goes through blockproc.on_pool, the one place to size or trace it."""
    modules = Path(blockproc.__file__).parent.glob("*.py")
    assert sorted(p.name for p in modules if "ThreadPoolExecutor" in p.read_text()) == [
        "blockproc.py"]
