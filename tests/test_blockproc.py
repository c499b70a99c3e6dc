"""Per-block estimator tests: detection, refinement, correlation, peel loop."""

import dataclasses
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stsa import blockproc
from stsa.blockproc import (
    WINDOW_NAMES,
    StsaConfig,
    _search_tables,
    detect_peak,
    estimate_amp_phase,
    estimate_block,
    process_stream,
    refine_frequency,
    subtract_sinusoid,
    window_values,
    wrap_phase,
)
from stsa.iq import SampleStream
from stsa.pipeline import run_cancel
from stsa.siggen import NbfmSpec, add_awgn, gen_nbfm, gen_tone

RATE = 2048000.0
N = 256


def centered_times(n, rate=RATE):
    return (np.arange(n) - (n - 1) / 2) / rate


def make_tone_block(amp, f_hz, psi, n=N, rate=RATE):
    """Tone with phase referenced to the block center (matching the estimator)."""
    return amp * np.exp(1j * (2 * np.pi * f_hz * centered_times(n, rate) + psi))


class TestConfig:
    def test_defaults(self):
        cfg = StsaConfig()
        assert cfg.block_len_n == 256
        assert cfg.window == "triangular"
        assert cfg.hop == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            StsaConfig(block_len_n=4)
        with pytest.raises(ValueError):
            StsaConfig(window="blackman")
        with pytest.raises(ValueError):
            StsaConfig(fine_grid_fraction=0.0)
        with pytest.raises(ValueError):
            StsaConfig(fine_grid_fraction=1.5)
        with pytest.raises(ValueError):
            StsaConfig(max_peel=0)
        with pytest.raises(ValueError):
            StsaConfig(overlap="quarter")
        with pytest.raises(ValueError):
            StsaConfig(block_len_n=255, overlap="half")

    @pytest.mark.parametrize("field,value", [
        ("detect_threshold_db", float("nan")), ("detect_threshold_db", float("inf")),
        ("detect_threshold_db", float("-inf")), ("block_len_n", 256.0),
        ("block_len_n", np.float64(64)), ("max_peel", 2.5), ("max_peel", 3.0),
    ])
    def test_non_finite_or_non_positive_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            StsaConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = StsaConfig(block_len_n=np.int64(64), max_peel=np.int32(2))
        assert len(process_stream(SampleStream(np.ones(256, complex), RATE), cfg)) == 4

    @pytest.mark.parametrize("field,value", [
        ("fine_grid_fraction", 1e-7), ("fine_grid_fraction", 5e-324), ("block_len_n", 2**24),
        ("block_len_n", np.int64(2**62)),
    ])
    def test_search_table_over_budget_rejected(self, field, value):
        with pytest.raises(ValueError, match=r"^block_len_n .* fine_grid_fraction .* budget"):
            StsaConfig(**{field: value})

    @pytest.mark.parametrize("fraction,rows", [(1.0, 3), (0.6, 5), (0.01, 201)])
    def test_search_table_budget_edge(self, fraction, rows):
        # the bank has 2 * round(1 / fraction) + 1 rows of block_len_n values, 2**24 at most
        n = 2**24 // rows
        assert StsaConfig(block_len_n=n, fine_grid_fraction=fraction).block_len_n == n
        with pytest.raises(ValueError, match="over the budget"):
            StsaConfig(block_len_n=n + 1, fine_grid_fraction=fraction)

    def test_capture_without_a_block_builds_nothing(self, monkeypatch):
        stream = SampleStream(np.ones(1000, complex), RATE)
        config = StsaConfig(block_len_n=65536)
        before = _search_tables.cache_info()
        for name in ("window_values", "_centered_times"):  # uncached: a call would raise
            monkeypatch.setattr(blockproc, name, lambda *args: pytest.fail("a table was built"))
        table = process_stream(stream, config)
        monkeypatch.undo()
        assert _search_tables.cache_info() == before
        assert len(table) == 0 and list(table) == []
        assert [(c.dtype, c.size) for c in vars(table).values()] == (
            [(np.intp, 0)] * 2 + [(np.float64, 0)] * 5)
        result = run_cancel(stream, config)
        assert result.residual.samples.tobytes() == stream.samples.tobytes()
        assert [len(tracks) for _, tracks in result.passes] == [0]

    def test_one_table_set_stays_cached(self):
        # each sample rate keys its own tables; a process keeps only the last set
        for k in range(8):
            stream = SampleStream(np.ones(4096, complex), RATE * (1 + k / 8))
            assert len(process_stream(stream, StsaConfig(block_len_n=4096))) == 1
        assert _search_tables.cache_info().currsize == 1

    def test_tables_are_built_once_per_call_before_the_pool(self, monkeypatch):
        # the pool's threads share the calling thread's tables rather than each looking them up
        calls = []
        build = blockproc._search_tables

        def recorded(*args):
            calls.append(threading.get_ident())
            return build(*args)

        monkeypatch.setattr(blockproc, "_search_tables", recorded)
        monkeypatch.setattr(blockproc, "_POOL_SAMPLES", 4 * N)
        monkeypatch.setattr(blockproc, "worker_count", lambda jobs: min(4, jobs))
        stream = SampleStream(np.ones(64 * N, complex), RATE)
        assert len(process_stream(stream, StsaConfig())) == 64
        assert calls == [threading.get_ident()]

    def test_threshold_rejected_exactly_where_its_power_ratio_overflows(self):
        def overflows(threshold_db):
            try:
                10.0 ** (threshold_db / 10.0)
            except OverflowError:
                return True
            return False

        lo, hi = 3000.0, 4000.0  # bisect to the two adjacent floats either side of the edge
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if overflows(mid) else (mid, hi)
        assert not overflows(lo) and overflows(hi)
        assert StsaConfig(detect_threshold_db=lo).detect_threshold_db == lo
        for threshold_db in (hi, 4000.0, 1e300):
            with pytest.raises(ValueError, match=re.escape(f"detect_threshold_db {threshold_db} overflows")):
                StsaConfig(detect_threshold_db=threshold_db)

    def test_fine_search_span_is_one_bin_and_not_a_field(self):
        assert StsaConfig.fine_search_span_bins == StsaConfig().fine_search_span_bins == 1.0
        assert "fine_search_span_bins" not in {f.name for f in dataclasses.fields(StsaConfig)}
        with pytest.raises(TypeError):
            StsaConfig(fine_search_span_bins=2.0)
        offsets_hz = _search_tables(256, RATE, 0.01)[0]
        assert offsets_hz.max() == -offsets_hz.min() == RATE / 256

    def test_half_overlap_hop(self):
        assert StsaConfig(overlap="half").hop == 128

    def test_grid_arithmetic(self):
        # N=256 at 2.048 MHz: 8 kHz bins searched in 80 Hz steps.
        cfg = StsaConfig()
        assert cfg.bin_width_hz(RATE) == 8000.0
        assert cfg.fine_grid_fraction * cfg.bin_width_hz(RATE) == 80.0


class TestWindows:
    def test_rectangular_is_identity(self):
        block = np.arange(16) + 1j
        np.testing.assert_array_equal(block * window_values("rectangular", block.size), block)

    def test_triangular_n5(self):
        np.testing.assert_allclose(window_values("triangular", 5), [0, 0.5, 1, 0.5, 0])

    def test_windowed_constant_sums_to_n_times_mean(self):
        # the mean is the coherent gain the estimator divides out
        for name in ("triangular", "hamming", "rectangular"):
            out = np.ones(64, complex) * window_values(name, 64)
            np.testing.assert_allclose(out.sum().real, 64 * float(np.mean(window_values(name, 64))))

    def test_triangular_mean_near_half(self):
        # The window-gain correction is the factor of 2 in the large-N limit.
        w = window_values("triangular", 1024)
        assert abs(w.mean() - 0.5) < 1e-3
        # the peak sits mid-array; with even N the two center samples straddle it
        assert w.max() == 1.0 - 1.0 / 1023
        assert window_values("triangular", 1025).max() == 1.0

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError, match="window must be one of"):
            window_values("blackman", 64)


class TestDetectPeak:
    def test_tone_at_bin_ten(self):
        block = make_tone_block(1.0, 10 * RATE / N, 0.3)
        det = detect_peak(block * window_values("triangular", N), 10.0)
        assert det is not None
        assert det.coarse_bin == 10

    @pytest.mark.parametrize("amp", [1e-300, 1e300])
    def test_extreme_amplitude_dc_detected(self, amp):
        # the reported powers (~amp**2) saturate to 0 or inf, without a warning
        det = detect_peak(np.full(N, amp, complex), 10.0)
        assert det is not None and det.coarse_bin == 0

    def test_all_zeros_no_detection(self):
        assert detect_peak(np.zeros(N, complex), 10.0) is None

    def test_negative_frequency_bin(self):
        block = make_tone_block(1.0, -3 * RATE / N, 0.0)
        det = detect_peak(block * window_values("triangular", N), 10.0)
        assert det.coarse_bin == N - 3

    @pytest.mark.parametrize("threshold_db", [13.0])
    def test_threshold_boundary_is_exact(self, threshold_db):
        # Calibrate the tone so the realized peak/median ratio sits exactly
        # 0.5 dB above or below the threshold, then detection must follow.
        # (The threshold is set above the ~9 dB level the strongest of 256
        # noise bins reaches on its own, so the below-threshold ratio is
        # actually constructible.)
        w = window_values("triangular", N)
        tone = make_tone_block(1.0, 10 * RATE / N, 0.0)
        hits_above = 0
        hits_below = 0
        seeds = 100
        for seed in range(seeds):
            rng = np.random.default_rng(1000 + seed)
            noise = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.05

            def realized_ratio(amp):
                y = w * (amp * tone + noise)
                p = np.abs(np.fft.fft(y)) ** 2
                return p.max() / np.median(p)

            for offset_db, counter in ((0.5, "above"), (-0.5, "below")):
                target = 10.0 ** ((threshold_db + offset_db) / 10.0)
                lo, hi = 0.0, 10.0
                for _ in range(80):
                    mid = (lo + hi) / 2
                    if realized_ratio(mid) < target:
                        lo = mid
                    else:
                        hi = mid
                amp = (lo + hi) / 2
                det = detect_peak(w * (amp * tone + noise), threshold_db)
                if offset_db > 0 and det is not None:
                    hits_above += 1
                if offset_db < 0 and det is None:
                    hits_below += 1
        assert hits_above >= 0.95 * seeds, f"detected only {hits_above}/{seeds} above"
        assert hits_below >= 0.95 * seeds, f"rejected only {hits_below}/{seeds} below"


class TestRefineFrequency:
    CFG = StsaConfig()

    def test_on_grid_tone_exact(self):
        coarse = 10 * RATE / N
        f_true = coarse + 37 * (self.CFG.fine_grid_fraction * self.CFG.bin_width_hz(RATE))
        block = make_tone_block(1.0, f_true, 0.9) * window_values("triangular", N)
        assert refine_frequency(block, coarse, RATE, self.CFG) == f_true

    def test_zero_block_ties_break_to_coarse(self):
        coarse = 5 * RATE / N
        assert refine_frequency(np.zeros(N, complex), coarse, RATE, self.CFG) == coarse

    @pytest.mark.parametrize("window", ["triangular", "hamming", "rectangular"])
    def test_off_grid_error_below_half_step(self, window):
        rng = np.random.default_rng(7)
        half_step = self.CFG.fine_grid_fraction * self.CFG.bin_width_hz(RATE) / 2
        for _ in range(25):
            f_true = rng.uniform(-0.4, 0.4) * RATE
            block = make_tone_block(1.0, f_true, rng.uniform(-3, 3)) * window_values(window, N)
            det = detect_peak(block, 10.0)
            coarse = det.coarse_bin * RATE / N
            if coarse >= RATE / 2:
                coarse -= RATE
            f_hat = refine_frequency(block, coarse, RATE, self.CFG)
            assert abs(f_hat - f_true) <= half_step + 1e-6


# The worst error measured over 33,600 noisy rows, half with a tone (N 8-2048, fractions
# 0.01-1, three windows) is 1.1e-14 of max|corr|, at fraction 2/3 (a 4/3-bin extent) with
# the rectangular window: the bound leaves a 4.6x margin.  Nodes fixed at +/-1 bin instead
# of the bank's extent miss fraction 0.6's 1.2-bin offsets by 2e-11 to 9e-11.
INTERPOLATION_BOUND = 5e-14


@given(n=st.sampled_from([8, 9, 16, 17, 33, 64, 256, 2048]),
       fraction=st.sampled_from([0.01, 0.55, 0.6, 2 / 3, 1.0]) | st.floats(0.01, 1.0),
       window=st.sampled_from(WINDOW_NAMES), tone_bins=st.floats(-1.5, 1.5),
       tone_amp=st.floats(0.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_interpolated_search_matches_the_bank(n, fraction, window, tone_bins, tone_amp, seed):
    """The node correlations mapped to the grid equal the full bank's, relative to max|corr|."""
    _, bank, probes, lagrange = _search_tables(n, RATE, fraction)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    rows[0] += tone_amp * np.exp(2j * np.pi * tone_bins * RATE / n * centered_times(n))
    rows *= window_values(window, n)
    want = rows @ bank.T
    err = np.abs((rows @ probes) @ lagrange - want).max(axis=1)
    assert (err <= INTERPOLATION_BOUND * np.abs(want).max(axis=1)).all()


@given(n=st.sampled_from([8, 9]), fraction=st.floats(1e-3, 1.0))
def test_search_factors_are_finite_and_sum_to_one(n, fraction):
    probes, lagrange = _search_tables(n, RATE, fraction)[2:]
    assert np.isfinite(probes).all() and np.isfinite(lagrange).all()
    np.testing.assert_allclose(lagrange.sum(axis=0), 1.0, rtol=0, atol=1e-13)


def test_grid_point_next_to_a_node_takes_that_node():
    # at fraction 0.01 the grid point +0.5 bin lies one ulp from the node cos(pi/3)
    offsets_hz = _search_tables(N, RATE, 0.01)[0]
    node = np.cos(7 * np.pi / 21)
    u = offsets_hz / np.abs(offsets_hz).max()
    m = np.argmin(np.abs(u - node))
    assert 0 < abs(u[m] - node) <= np.spacing(node)
    column = _search_tables(N, RATE, 0.01)[3][:, m]
    assert np.isfinite(column).all()
    np.testing.assert_allclose(column, np.eye(22)[7], rtol=0, atol=1e-14)


class TestAmpPhase:
    @pytest.mark.parametrize("window", ["triangular", "hamming", "rectangular"])
    def test_unbiased_on_tone(self, window):
        f = 12 * RATE / N
        block = make_tone_block(1.0, f, -1.1) * window_values(window, N)
        amp, phase = estimate_amp_phase(block, f, window, RATE)
        assert abs(amp - 1.0) < 1e-6
        assert abs(phase - (-1.1)) < 1e-6

    def test_amp_scales_exactly(self):
        f = 12 * RATE / N
        block = make_tone_block(1.0, f, 0.4) * window_values("triangular", N)
        amp1, _ = estimate_amp_phase(block, f, "triangular", RATE)
        amp2, _ = estimate_amp_phase(2.0 * block, f, "triangular", RATE)
        assert amp2 == 2.0 * amp1

    def test_phase_in_principal_range(self):
        assert wrap_phase(np.pi) == pytest.approx(np.pi)
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)
        assert wrap_phase(3 * np.pi + 0.1) == pytest.approx(np.pi + 0.1 - 2 * np.pi)

    def test_phase_rmse_within_twice_crb(self):
        # 1000 noisy blocks at 20 dB per-sample SNR; the center-referenced
        # phase estimate should sit within 2x the numeric CRB.
        noise_var = 10.0 ** (-20.0 / 10.0)
        t = centered_times(N)
        fisher = np.zeros((3, 3))
        d = np.column_stack([np.ones(N), 1j * t, 1j * np.ones(N)])
        fisher = (2.0 / noise_var) * np.real(d.conj().T @ d)
        crb_phase = np.sqrt(np.linalg.inv(fisher)[2, 2])

        cfg = StsaConfig()
        master = np.random.default_rng(424242)
        errs = []
        for _ in range(1000):
            rng = np.random.default_rng(master.integers(0, 2**63))
            f_true = 82000.0 + rng.uniform(-4000, 4000)
            psi = rng.uniform(-2.5, 2.5)
            block = make_tone_block(1.0, f_true, psi)
            block = block + np.sqrt(noise_var / 2) * (
                rng.standard_normal(N) + 1j * rng.standard_normal(N)
            )
            est = estimate_block(block, cfg, RATE).estimates[0]
            errs.append(wrap_phase(est.phase_rad - psi))
        rmse = np.sqrt(np.mean(np.square(errs)))
        assert rmse <= 2.0 * crb_phase, f"phase RMSE {rmse:.5f} vs CRB {crb_phase:.5f}"


class TestSubtract:
    def test_exact_truth_cancels(self):
        f = 10 * RATE / N + 160.0
        block = make_tone_block(0.8, f, 1.2)
        est = estimate_block(block, StsaConfig(), RATE).estimates[0]
        residual = subtract_sinusoid(block, est, RATE)
        assert np.mean(np.abs(residual) ** 2) <= 1e-12 * np.mean(np.abs(block) ** 2)

    def test_zero_amplitude_is_identity(self):
        from stsa.blockproc import SinusoidEstimate

        block = make_tone_block(1.0, 5000.0, 0.0)
        est = SinusoidEstimate(0.0, 1234.0, 0.5, 0, 0.0, 0)
        np.testing.assert_array_equal(subtract_sinusoid(block, est, RATE), block)

    def test_off_grid_estimate_residual_floor(self):
        # Worst-case half-grid-step frequency error still leaves the
        # single-block residual at least 40 dB down.
        cfg = StsaConfig()
        f_true = 10 * RATE / N + cfg.fine_grid_fraction * cfg.bin_width_hz(RATE) * 0.5 * 0.999
        block = make_tone_block(1.0, f_true, 0.3)
        be = estimate_block(block, cfg, RATE)
        first_resid = subtract_sinusoid(block, be.estimates[0], RATE)
        ratio = np.mean(np.abs(first_resid) ** 2) / np.mean(np.abs(block) ** 2)
        assert 10 * np.log10(ratio) <= -40.0


class TestEstimateBlock:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="block length"):
            estimate_block(np.zeros(128, complex), StsaConfig(), RATE)

    @pytest.mark.parametrize("amp", [1.0, 3.7, 1e-300, 1e300])
    def test_extreme_amplitude_block_one_dc_estimate(self, amp):
        # noiseless: the rounding left by the first subtraction must not detect
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            be = estimate_block(np.full(N, amp, complex), StsaConfig(), RATE)
        assert len(be.estimates) == 1
        est = be.estimates[0]
        assert est.freq_hz == 0.0 and est.phase_rad == 0.0
        assert est.amp == pytest.approx(amp, rel=1e-12)

    def test_all_zero_block_empty(self):
        be = estimate_block(np.zeros(N, complex), StsaConfig(), RATE)
        assert be.estimates == ()
        assert be.noise_floor == 0.0

    def test_pure_noise_block_empty(self):
        rng = np.random.default_rng(3)
        block = 0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        be = estimate_block(block, StsaConfig(detect_threshold_db=13.0), RATE)
        assert be.estimates == ()
        assert be.noise_floor > 0

    def test_two_tones_peel_order_and_accuracy(self):
        # Noiseless data has a nearly-zero median floor, so peeling would
        # chase subtraction leftovers forever; cap it at the true count.
        f1 = 40 * RATE / N
        f2 = f1 + 3 * RATE / N + 240.0
        block = make_tone_block(1.0, f1, 0.5) + make_tone_block(0.3, f2, -2.0)
        be = estimate_block(block, StsaConfig(max_peel=2), RATE)
        assert len(be.estimates) == 2
        assert [e.peel_rank for e in be.estimates] == [0, 1]
        assert abs(be.estimates[0].freq_hz - f1) < 100
        assert abs(be.estimates[1].freq_hz - f2) < 100
        assert abs(be.estimates[0].amp - 1.0) < 0.05
        assert abs(be.estimates[1].amp - 0.3) < 0.015

    def test_single_nbfm_one_estimate_per_block(self):
        # Detection threshold above the noise-peak level: the modulated
        # carrier is taken once and the second peel stays quiet.
        spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=1.0,
                        mod_noise_bw_hz=1000.0, mod_noise_seed=2)
        clean, _ = gen_nbfm(spec, RATE)
        noisy = add_awgn(clean, 34.0, spec.carson_band_hz(), 17)
        cfg = StsaConfig(detect_threshold_db=13.0)
        blocks = process_stream(noisy, cfg)
        ones = sum(1 for b in blocks if len(b.estimates) == 1)
        assert ones / len(blocks) >= 0.99, f"{ones}/{len(blocks)} single-estimate blocks"

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_near_nyquist_estimate_stays_principal(self, sign):
        f_true = sign * (RATE / 2 - 200.0)
        block = make_tone_block(1.0, f_true, 0.3)
        be = estimate_block(block, StsaConfig(max_peel=1), RATE)
        est = be.estimates[0]
        assert abs(est.freq_hz) < RATE / 2
        assert abs(est.freq_hz - f_true) <= 41.0
        residual = subtract_sinusoid(block, est, RATE)
        assert 10 * np.log10(np.mean(np.abs(residual) ** 2)) <= -40.0

    def test_process_stream_block_geometry(self):
        stream, _ = gen_tone(1.0, 82000.0, 0.0, 1000, RATE)
        blocks = process_stream(stream, StsaConfig())
        assert len(blocks) == 3  # tail 232 samples dropped
        cfg_half = StsaConfig(overlap="half")
        assert len(process_stream(stream, cfg_half)) == 6

    def test_powers_beyond_float64_read_inf_without_warning(self):
        rng = np.random.default_rng(12)
        noise = rng.standard_normal(8 * N) + 1j * rng.standard_normal(8 * N)
        cfg = StsaConfig(detect_threshold_db=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = process_stream(SampleStream(1e200 * noise, RATE), cfg)
            det = detect_peak(np.full(N, 1e200, complex), 10.0)
            unit = process_stream(SampleStream(noise, RATE), cfg)
        assert [b.noise_floor for b in huge] == [np.inf] * 8
        assert det.coarse_bin == 0 and det.peak_power == np.inf and det.noise_floor == 0.0
        # in the float64 range the powers are the plain formulas, exactly
        assert detect_peak(np.full(N, 3.0, complex), 10.0).peak_power == 9.0
        for b, block in zip(unit, noise.reshape(8, N)):
            assert b.estimates == ()
            power = np.abs(np.fft.fft(block * window_values("triangular", N))) ** 2 / N**2
            assert b.noise_floor == np.median(power)


class TestInvariants:
    def residual_chain(self, block, cfg):
        """Windowed power after each peel, replayed from the recorded estimates."""
        be = estimate_block(block, cfg, RATE)
        residual = np.array(block, complex)
        powers = [np.sum(np.abs(residual * window_values(cfg.window, N)) ** 2)]
        for est in be.estimates:
            residual = subtract_sinusoid(residual, est, RATE)
            powers.append(np.sum(np.abs(residual * window_values(cfg.window, N)) ** 2))
        return powers

    def test_peel_monotonicity(self):
        cfg = StsaConfig()
        rng = np.random.default_rng(11)
        spec = NbfmSpec(carrier_offset_hz=25000.0, deviation_hz=4000.0, duration_s=0.05,
                        mod_noise_bw_hz=1000.0, mod_noise_seed=6, mod_noise_rms=0.9)
        clean, _ = gen_nbfm(spec, RATE)
        noisy = add_awgn(clean, 30.0, spec.carson_band_hz(), 8)
        test_blocks = [noisy.samples[i * N : (i + 1) * N] for i in range(0, 400, 7)]
        two = make_tone_block(1.0, 40 * RATE / N, 0.5) + make_tone_block(
            0.3, 50 * RATE / N + 100, -2.0
        )
        test_blocks.append(two)
        test_blocks.append(0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N)))
        for block in test_blocks:
            powers = self.residual_chain(block, cfg)
            for before, after in zip(powers, powers[1:]):
                assert after <= before * (1 + 1e-12), "windowed residual power grew"

    def test_scale_covariance_exact_power_of_two(self):
        block = make_tone_block(1.0, 82137.0, 0.7) + make_tone_block(0.2, -150300.0, 1.9)
        cfg = StsaConfig()
        base = estimate_block(block, cfg, RATE)
        scaled = estimate_block(2.0 * block, cfg, RATE)
        assert len(base.estimates) == len(scaled.estimates)
        for a, b in zip(base.estimates, scaled.estimates):
            assert b.freq_hz == a.freq_hz
            assert b.phase_rad == a.phase_rad
            assert b.amp == 2.0 * a.amp

    def test_scale_covariance_general(self):
        block = make_tone_block(1.0, 82137.0, 0.7)
        cfg = StsaConfig()
        base = estimate_block(block, cfg, RATE).estimates[0]
        scaled = estimate_block(3.7 * block, cfg, RATE).estimates[0]
        assert scaled.freq_hz == base.freq_hz
        assert scaled.phase_rad == pytest.approx(base.phase_rad, abs=1e-12)
        assert scaled.amp == pytest.approx(3.7 * base.amp, rel=1e-12)

    def test_frequency_shift_covariance(self):
        cfg = StsaConfig()
        step = cfg.fine_grid_fraction * cfg.bin_width_hz(RATE)
        rng = np.random.default_rng(13)
        block = make_tone_block(1.0, 82000.0 + 0.3 * step, 0.7)
        block = block + 0.01 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        base = estimate_block(block, cfg, RATE).estimates[0]
        delta = 7000 * step  # 560 kHz, a whole number of fine steps
        shifted_block = block * np.exp(2j * np.pi * delta * centered_times(N))
        shifted = estimate_block(shifted_block, cfg, RATE).estimates[0]
        assert shifted.freq_hz - base.freq_hz == pytest.approx(delta, abs=1e-6)
        assert shifted.amp == pytest.approx(base.amp, rel=1e-9)

    @pytest.mark.parametrize("window", ["triangular", "hamming", "rectangular"])
    def test_stationary_unbiasedness(self, window):
        cfg = StsaConfig(window=window)
        f = 30 * RATE / N + 24 * (cfg.fine_grid_fraction * cfg.bin_width_hz(RATE))
        block = make_tone_block(0.7, f, 1.3)
        est = estimate_block(block, cfg, RATE).estimates[0]
        assert est.freq_hz == f
        assert abs(est.amp - 0.7) < 1e-6 * 0.7
        assert abs(est.phase_rad - 1.3) < 1e-6
