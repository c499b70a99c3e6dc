"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with `pytest -s`).  The narrowband-FM reproduction scenario is a
1-second, 2.048 MSPS capture of a 4 kHz-deviation carrier modulated by
compressed band-limited noise (Carson band 10 kHz) at 34 dB in-band SNR.
"""

import dataclasses
import time

import numpy as np
import pytest

from stsa import run_cancel
from stsa.blockproc import (
    StsaConfig,
    estimate_block,
    process_stream,
    subtract_sinusoid,
    window_values,
)
from stsa.iq import IqFormat, SampleStream, decode_iq, encode_iq
from stsa.metrics import (
    frame_band_power,
    power_spectrum,
    suppression_report,
)
from stsa.siggen import gen_tone, mix
from stsa.synthesis import assemble_tracks, cancel, synthesize
from scenarios import FM_CONFIG, RATE, STATIONS_CONFIG, fm_spec, fm_stream, three_station_stream
from table_helpers import tracks_table

N = 256


def report(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def fm_scenario():
    """The narrowband-FM reproduction run shared by criteria 1-4."""
    band = fm_spec(1.0).carson_band_hz()
    noisy = fm_stream(1.0)
    config = FM_CONFIG
    t_start = time.perf_counter()
    single = run_cancel(noisy, config)
    runtime_s = time.perf_counter() - t_start
    double = run_cancel(noisy, dataclasses.replace(config, passes=2))
    rep1 = suppression_report(noisy, single.residual, band)
    rep2 = suppression_report(noisy, double.residual, band)
    return {
        "band": band,
        "noisy": noisy,
        "config": config,
        "single": single,
        "double": double,
        "rep1": rep1,
        "rep2": rep2,
        "runtime_s": runtime_s,
        "frame_orig": power_spectrum(noisy, 125.0),
        "frame_resid": power_spectrum(single.residual, 125.0),
    }


def test_reference_scenario_counts(fm_scenario):
    """The single pass peels 15,478 sinusoids from 8,000 blocks into 43 tracks."""
    single = fm_scenario["single"]
    blocks = single.blocks_per_pass[0]
    assert len(blocks) == 8000
    assert sum(len(b.estimates) for b in blocks) == 15478
    assert len(single.tracks_per_pass[0]) == 43


def test_criterion_1_nbfm_reproduction(fm_scenario):
    s = fm_scenario
    supp1 = s["rep1"].suppression_db
    supp2 = s["rep2"].suppression_db
    gain = supp2 - supp1
    ok = supp1 >= 14.0 and s["runtime_s"] < 60.0 and gain >= 3.0
    assert report(
        "1 (narrowband-FM reproduction)",
        ok,
        f"single-pass suppression {supp1:.2f} dB (>=14), "
        f"runtime {s['runtime_s']:.1f} s (<60), second pass adds {gain:.2f} dB (>=3)",
    )


def test_criterion_2_noise_preservation(fm_scenario):
    s = fm_scenario
    delta1 = s["rep1"].out_of_band_delta_db
    delta2 = s["rep2"].out_of_band_delta_db
    ok = abs(delta1) <= 0.5 and abs(delta2) <= 0.5
    assert report(
        "2 (noise preservation)",
        ok,
        f"out-of-band delta {delta1:+.3f} dB single pass, {delta2:+.3f} dB two passes (|.|<=0.5)",
    )


def test_criterion_3_sideband_tracking(fm_scenario):
    s = fm_scenario
    def sideband_supp(band):
        before = frame_band_power(s["frame_orig"], band)
        after = frame_band_power(s["frame_resid"], band)
        return 10 * np.log10(before / after)

    upper = sideband_supp((1000.0, 5000.0))
    lower = sideband_supp((-5000.0, -1000.0))
    ok = upper >= 10.0 and lower >= 10.0
    assert report(
        "3 (sideband tracking)",
        ok,
        f"suppression excluding center ±1 kHz: upper {upper:.1f} dB, lower {lower:.1f} dB (>=10)",
    )


def test_criterion_4_block_rate_artifact_ceiling(fm_scenario):
    s = fm_scenario
    block_rate = RATE / N  # 8 kHz
    results = []
    for sign in (+1, -1):
        comb = (sign * block_rate - 250.0, sign * block_rate + 250.0)
        before = frame_band_power(s["frame_orig"], comb)
        after = frame_band_power(s["frame_resid"], comb)
        results.append((sign * block_rate, after, before))
    ok = all(after <= before for _, after, before in results)
    detail = ", ".join(
        f"{off / 1000:+.0f} kHz: {10 * np.log10(after / before):+.2f} dB vs original"
        for off, after, before in results
    )
    assert report("4 (1/T artifact ceiling)", ok, detail)


def test_criterion_5_stationary_tone_oracles():
    config = StsaConfig()

    # (a) noiseless tone on the fine grid cancels essentially exactly
    f_on = 82000.0 + 13 * (config.fine_grid_fraction * config.bin_width_hz(RATE))
    stream, _ = gen_tone(1.0, f_on, 0.7, N * 400, RATE)
    result = run_cancel(stream, config)
    supp_on = 10 * np.log10(stream.power() / max(result.residual.power(), 1e-300))

    # (b) off-grid tones: estimates must match a brute-force dense-grid
    # correlation argmax and stay within half a fine step of truth
    rng = np.random.default_rng(505)
    t_k = (np.arange(N) - (N - 1) / 2) / RATE
    max_err = 0.0
    max_oracle_gap = 0.0
    for _ in range(8):
        f_true = rng.uniform(-0.4, 0.4) * RATE
        psi = rng.uniform(-np.pi, np.pi)
        block = np.exp(1j * (2 * np.pi * f_true * t_k + psi))
        est = estimate_block(block, config, RATE).estimates[0]
        max_err = max(max_err, abs(est.freq_hz - f_true))
        dense = np.arange(f_true - 500.0, f_true + 500.0, 1.0)
        windowed = block * window_values(config.window, N)
        corr = np.abs(np.exp(-2j * np.pi * np.outer(dense, t_k)) @ windowed)
        f_oracle = dense[np.argmax(corr)]
        max_oracle_gap = max(max_oracle_gap, abs(est.freq_hz - f_oracle))

    half_step = config.fine_grid_fraction * config.bin_width_hz(RATE) / 2
    f_off = 82000.0 + 37.3
    stream_off, _ = gen_tone(1.0, f_off, -0.2, N * 400, RATE)
    result_off = run_cancel(stream_off, config)
    supp_off = 10 * np.log10(stream_off.power() / result_off.residual.power())

    ok = (
        supp_on >= 80.0
        and max_err <= half_step + 1e-6
        and max_oracle_gap <= half_step + 1.0
        and supp_off >= 40.0
    )
    assert report(
        "5 (stationary-tone oracles)",
        ok,
        f"on-grid residual {supp_on:.0f} dB down (>=80); off-grid freq error "
        f"{max_err:.1f} Hz (<= {half_step:.0f}), oracle gap {max_oracle_gap:.1f} Hz, "
        f"off-grid residual {supp_off:.1f} dB down (>=40)",
    )


def test_criterion_6_multi_signal_peel():
    noisy = three_station_stream()
    config = STATIONS_CONFIG
    blocks = process_stream(noisy, config)
    tracks = assemble_tracks(blocks, config, RATE)
    covered = sorted(
        (t for t in tracks if len(t) > len(blocks) // 2),
        key=lambda t: np.mean(blocks.freq_hz[t]),
    )
    freqs_found = [float(np.mean(blocks.freq_hz[t])) for t in covered]
    three_ok = len(covered) == 3 and all(
        abs(found - expected) < 2000.0
        for found, expected in zip(freqs_found, [-25000.0, 0.0, 25000.0])
    )

    with_est = [b for b in blocks if b.estimates]
    strongest_first = sum(
        1 for b in with_est if abs(b.estimates[0].freq_hz - (-25000.0)) <= 6000.0
    )
    order_frac = strongest_first / len(with_est)

    # cancel only the strongest and watch the other stations' bands
    result = run_cancel(noisy, dataclasses.replace(config, strongest_only=True))
    deltas = []
    for band in ((-5000.0, 5000.0), (20000.0, 30000.0)):
        rep = suppression_report(noisy, result.residual, band)
        deltas.append(10 * np.log10(rep.power_after / rep.power_before))
    neighbors_ok = all(abs(d) <= 0.5 for d in deltas)

    ok = three_ok and order_frac >= 0.95 and neighbors_ok
    assert report(
        "6 (multi-signal peel)",
        ok,
        f"tracks at {[round(f) for f in freqs_found]} Hz (expect -25k/0/+25k), "
        f"strongest-first {order_frac * 100:.1f}% (>=95), neighbor band deltas "
        f"{deltas[0]:+.3f}/{deltas[1]:+.3f} dB (|.|<=0.5)",
    )


def numeric_crb(amp, noise_var, n, rate):
    """CRB for (A, omega, psi) of one complex sinusoid in white complex noise."""
    t = (np.arange(n) - (n - 1) / 2) / rate
    d = np.column_stack([np.ones(n), 1j * amp * t, 1j * amp * np.ones(n)])
    fisher = (2.0 / noise_var) * np.real(d.conj().T @ d)
    cov = np.linalg.inv(fisher)
    return np.sqrt(cov[1, 1]) / (2 * np.pi)  # frequency sigma in Hz


def test_criterion_7_estimator_statistics():
    # Fine search grid so quantization does not mask the estimator noise.
    config = StsaConfig(fine_grid_fraction=0.001)
    t_k = (np.arange(N) - (N - 1) / 2) / RATE
    rmse = {}
    crb = {}
    for snr_db in (10.0, 20.0, 30.0):
        noise_var = 10.0 ** (-snr_db / 10.0)
        master = np.random.default_rng(1234)
        errs = np.empty(1000)
        for i in range(1000):
            rng = np.random.default_rng(master.integers(0, 2**63))
            f_true = 82000.0 + rng.uniform(-4000.0, 4000.0)
            psi = rng.uniform(-np.pi, np.pi)
            block = np.exp(1j * (2 * np.pi * f_true * t_k + psi))
            block = block + np.sqrt(noise_var / 2) * (
                rng.standard_normal(N) + 1j * rng.standard_normal(N)
            )
            errs[i] = estimate_block(block, config, RATE).estimates[0].freq_hz - f_true
        rmse[snr_db] = float(np.sqrt(np.mean(errs**2)))
        crb[snr_db] = numeric_crb(1.0, noise_var, N, RATE)
    monotone = rmse[10.0] > rmse[20.0] > rmse[30.0]
    within = rmse[30.0] <= 3.0 * crb[30.0]
    ok = monotone and within
    assert report(
        "7 (estimator statistics)",
        ok,
        f"freq RMSE {rmse[10.0]:.1f}/{rmse[20.0]:.1f}/{rmse[30.0]:.2f} Hz at 10/20/30 dB "
        f"(monotone), 30 dB within {rmse[30.0] / crb[30.0]:.2f}x CRB (<=3x)",
    )


def test_criterion_8_invariant_suite(fm_scenario):
    checks = {}

    # Peel monotonicity on the reproduction scenario's own blocks.
    config = fm_scenario["config"]
    samples = fm_scenario["noisy"].samples
    monotone = True
    for start in range(0, 8000 * N, 97 * N):
        block = samples[start : start + N]
        be = estimate_block(block, config, RATE)
        residual = np.array(block)
        prev = np.sum(np.abs(residual * window_values(config.window, N)) ** 2)
        for est in be.estimates:
            residual = subtract_sinusoid(residual, est, RATE)
            cur = np.sum(np.abs(residual * window_values(config.window, N)) ** 2)
            monotone &= cur <= prev * (1 + 1e-12)
            prev = cur
    checks["peel monotonicity"] = monotone

    # Scale covariance (exact for a power-of-two factor).
    t_k = (np.arange(N) - (N - 1) / 2) / RATE
    block = np.exp(1j * (2 * np.pi * 82137.0 * t_k + 0.7))
    base = estimate_block(block, StsaConfig(), RATE).estimates[0]
    doubled = estimate_block(2.0 * block, StsaConfig(), RATE).estimates[0]
    checks["scale covariance"] = (
        doubled.freq_hz == base.freq_hz
        and doubled.phase_rad == base.phase_rad
        and doubled.amp == 2.0 * base.amp
    )

    # Frequency-shift covariance by a multiple of the fine step.
    delta = 5000 * (StsaConfig().fine_grid_fraction * StsaConfig().bin_width_hz(RATE))
    shifted = estimate_block(
        block * np.exp(2j * np.pi * delta * t_k), StsaConfig(), RATE
    ).estimates[0]
    checks["frequency-shift covariance"] = (
        abs(shifted.freq_hz - base.freq_hz - delta) < 1e-6
        and abs(shifted.amp - base.amp) < 1e-9 * base.amp
    )

    # Interpolation anchor at block centers (odd N puts them on the grid).
    n_odd = 129
    cfg_odd = StsaConfig(block_len_n=n_odd)
    from stsa.blockproc import SinusoidEstimate

    entries = tuple(
        SinusoidEstimate(0.8, 70000.0, 0.3 + 0.1 * b, b,
                         (b * n_odd + (n_odd - 1) / 2) / RATE, 0)
        for b in range(3)
    )
    table, tracks = tracks_table([entries])
    wave = synthesize(tracks, (3 * n_odd, RATE), cfg_odd, table)
    anchor_ok = all(
        wave[b * n_odd + (n_odd - 1) // 2] == 0.8 * np.exp(1j * (0.3 + 0.1 * b))
        for b in range(3)
    )
    checks["interpolation anchor"] = anchor_ok

    # Cancellation linearity on dyadic data (exact float arithmetic).
    rng = np.random.default_rng(0)
    dyadic = lambda: (rng.integers(-512, 512, 64) + 1j * rng.integers(-512, 512, 64)) / 256.0
    a = SampleStream(dyadic(), RATE)
    b = SampleStream(dyadic(), RATE)
    w = dyadic()
    checks["cancel linearity"] = np.array_equal(
        cancel(mix([a, b]), w.copy()).samples, b.samples + cancel(a, w.copy()).samples
    )

    # Parseval on the scenario stream.
    frame = fm_scenario["frame_orig"]
    integrated = frame.power.sum() * frame.resolution_hz
    msp = fm_scenario["noisy"].power()
    checks["Parseval"] = abs(integrated - msp) / msp < 1e-3

    # I/O round-trips.
    stream = SampleStream(dyadic() / 4.0, RATE)
    f32 = decode_iq(encode_iq(stream, IqFormat.FLOAT32), IqFormat.FLOAT32, RATE)
    i8 = decode_iq(encode_iq(stream, IqFormat.INT8), IqFormat.INT8, RATE)
    f32_bytes_again = encode_iq(f32, IqFormat.FLOAT32)
    roundtrip_ok = (
        f32_bytes_again == encode_iq(stream, IqFormat.FLOAT32)
        and np.max(np.abs(i8.samples.real - stream.samples.real)) <= 1 / 128
        and np.max(np.abs(i8.samples.imag - stream.samples.imag)) <= 1 / 128
    )
    checks["I/O round-trips"] = roundtrip_ok

    failed = [name for name, ok in checks.items() if not ok]
    assert report(
        "8 (invariant suite)",
        not failed,
        "all invariants hold" if not failed else f"failed: {', '.join(failed)}",
    )
