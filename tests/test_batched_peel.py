"""The batched peel in process_stream against the per-block peel loop it replaced.

The oracle below is the earlier per-block estimate_block, one Python loop per
block built from the public single-block helpers.  The batched estimator must
give the same peel count for every block.  A frequency may move by one fine
step where the fine-grid correlation has a near-tie (the matrix product sums
in another order), in at most 0.1 % of estimates; everything else agrees to
1e-9.
"""

import numpy as np
import pytest

from stsa import blockproc
from stsa.blockproc import (
    BlockEstimates,
    SinusoidEstimate,
    StsaConfig,
    apply_window,
    block_center_time,
    detect_peak,
    estimate_amp_phase,
    process_stream,
    refine_frequency,
    subtract_sinusoid,
    wrap_phase,
)
from stsa.iq import SampleStream
from stsa.siggen import NbfmSpec, add_awgn, gen_nbfm, gen_tone, mix

RATE = 2048000.0
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
        windowed = apply_window(residual, config.window)
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
    final_windowed = apply_window(residual, config.window)
    floor = float(
        np.median(np.abs(np.fft.fft(final_windowed)) ** 2 / block.size**2)
    )
    residual_power = float(np.mean(np.abs(residual) ** 2))
    return BlockEstimates(block_index, tuple(estimates), residual_power, floor)


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


def assert_matches_oracle(stream, config):
    """Compare process_stream with the oracle; returns (estimates, frequency flips)."""
    got = process_stream(stream, config)
    want = oracle_process_stream(stream, config)
    assert [b.block_index for b in got] == [b.block_index for b in want]
    assert [len(b.estimates) for b in got] == [len(b.estimates) for b in want]
    step = config.fine_step_hz(stream.sample_rate_hz)
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
            assert g.residual_power == pytest.approx(w.residual_power, rel=1e-9, abs=0)
    assert flips <= 1e-3 * total, f"{flips} of {total} frequencies moved one fine step"
    return total, flips


def fm_stream(duration_s=1.0):
    spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=duration_s,
                    mod_noise_bw_hz=1000.0, mod_noise_seed=7, mod_noise_rms=0.9)
    clean, _ = gen_nbfm(spec, RATE)
    return add_awgn(clean, 34.0, spec.carson_band_hz(), 99)


def noisy_tones(tones, n_samples, seed, snr_db=30.0):
    streams = [gen_tone(amp, f, psi, n_samples, RATE)[0] for amp, f, psi in tones]
    return add_awgn(mix(streams), snr_db, (-50000.0, 50000.0), seed)


def test_acceptance_fm_scenario():
    stream = fm_stream()
    config = StsaConfig(block_len_n=N, detect_threshold_db=9.0, max_peel=3)
    # 8,000 blocks also leave a partial last batch
    assert (len(stream) // N) % (blockproc._BATCH_SAMPLES // N) != 0
    total, _ = assert_matches_oracle(stream, config)
    assert total == 15478


def test_three_station_mixture():
    streams = []
    for offset, amp, seed in [(-25000.0, 1.0, 31), (0.0, 10 ** -0.5, 32),
                              (25000.0, 10 ** -0.7, 33)]:
        spec = NbfmSpec(carrier_offset_hz=offset, deviation_hz=4000.0, duration_s=1.0,
                        amp=amp, mod_noise_bw_hz=1000.0, mod_noise_seed=seed)
        streams.append(gen_nbfm(spec, RATE)[0])
    mixed = mix(streams)
    snr_arg = 34.0 + 10 * np.log10(mixed.power() / streams[0].power())
    noisy = add_awgn(mixed, snr_arg, (-30000.0, -20000.0), 44)
    assert_matches_oracle(noisy, StsaConfig(detect_threshold_db=12.0))


def test_stationary_tone():
    stream = noisy_tones([(0.7, 82137.0, 1.3)], 200 * N, 5)
    total, _ = assert_matches_oracle(stream, StsaConfig())
    assert total >= 200


def test_stream_shorter_than_one_block():
    stream = noisy_tones([(1.0, 82137.0, 0.0)], N - 1, 6)
    assert process_stream(stream, StsaConfig()) == []
    assert_matches_oracle(stream, StsaConfig())


def test_dropped_tail_samples():
    stream = noisy_tones([(1.0, -300000.0, 0.4)], 40 * N + 77, 7)
    assert len(process_stream(stream, StsaConfig())) == 40
    assert_matches_oracle(stream, StsaConfig())


def test_half_overlap():
    config = StsaConfig(detect_threshold_db=9.0, max_peel=3, overlap="half")
    assert_matches_oracle(fm_stream(0.05), config)


def test_many_batches_with_partial_last(monkeypatch):
    monkeypatch.setattr(blockproc, "_BATCH_SAMPLES", 7 * N)
    stream = fm_stream(0.01)
    assert (len(stream) // N) % 7 != 0
    assert_matches_oracle(stream, StsaConfig(detect_threshold_db=9.0, max_peel=3))


def test_all_zero_blocks():
    tone = noisy_tones([(1.0, 82137.0, 0.0)], 30 * N, 8).samples.copy()
    tone[5 * N : 12 * N] = 0.0
    tone[-N:] = 0.0
    stream = SampleStream(tone, RATE)
    blocks = process_stream(stream, StsaConfig())
    for b in blocks[5:12] + blocks[-1:]:
        assert (b.estimates, b.noise_floor, b.residual_power) == ((), 0.0, 0.0)
    assert_matches_oracle(stream, StsaConfig())


def test_blocks_reaching_max_peel():
    tones = [(1.0, -200000.0, 0.1), (0.5, 30000.0, 2.0), (0.3, 410000.0, -1.0)]
    stream = noisy_tones(tones, 60 * N, 9, snr_db=60.0)
    config = StsaConfig(max_peel=2)
    assert all(len(b.estimates) == 2 for b in process_stream(stream, config))
    assert_matches_oracle(stream, config)
