"""Spectrum, waterfall, band power, and suppression-report tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stsa import metrics
from stsa.iq import SampleStream
from stsa.metrics import (
    dynamic_spectrum,
    frame_band_power,
    format_report,
    power_spectrum,
    report_band,
    suppression_report,
    write_dynamic_spectrum_csv,
    write_report_csv,
    write_spectrum_csv,
)
from stsa.siggen import NbfmSpec, gen_nbfm, gen_tone, mix

RATE = 2048000.0


class TestPowerSpectrum:
    def test_segment_length_from_resolution(self):
        # 125 Hz at 2.048 MHz -> 16384 samples per segment.
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16384 * 4, RATE)
        frame = power_spectrum(stream, 125.0)
        assert frame.freqs_hz.size == 16384
        assert frame.resolution_hz == 125.0

    def test_parseval(self):
        rng = np.random.default_rng(0)
        n = 16384 * 8
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        samples += gen_tone(2.0, 100125.0, 0.5, n, RATE)[0].samples
        stream = SampleStream(samples, RATE)
        frame = power_spectrum(stream, 125.0)
        integrated = frame.power.sum() * frame.resolution_hz
        msp = stream.power()
        assert abs(integrated - msp) / msp < 1e-3

    def test_on_bin_tone_concentrates(self):
        stream, _ = gen_tone(1.0, 125.0 * 160, 0.0, 16384 * 2, RATE)
        frame = power_spectrum(stream, 125.0)
        total = frame.power.sum() * frame.resolution_hz
        peak = frame.power.max() * frame.resolution_hz
        assert peak / total >= 0.99
        assert frame.freqs_hz[np.argmax(frame.power)] == 125.0 * 160

    def test_white_noise_flat_mean_level(self):
        n = 2_000_000 // 1024 * 1024
        rng = np.random.default_rng(1)
        sigma2 = 0.25
        samples = math.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        frame = power_spectrum(SampleStream(samples, RATE), RATE / 1024)
        per_bin = frame.power * frame.resolution_hz
        assert abs(per_bin.mean() - sigma2 / 1024) / (sigma2 / 1024) < 0.01

    def test_too_short_rejected(self):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 1000, RATE)
        with pytest.raises(ValueError, match="too short"):
            power_spectrum(stream, 125.0)


class TestDynamicSpectrum:
    def test_paper_resolution_cell_counts(self):
        # 8 ms x 125 Hz at 2.048 MHz: 16384-sample cells, one segment per
        # cell, 125 rows over one second.
        stream, _ = gen_tone(1.0, 100000.0, 0.0, 2_048_000, RATE)
        ds = dynamic_spectrum(stream, 0.008, 125.0)
        assert ds.power.shape == (125, 16384)
        np.testing.assert_allclose(np.diff(ds.times_s), 0.008, rtol=1e-12)
        np.testing.assert_allclose(np.diff(ds.freqs_hz), 125.0, rtol=1e-12)

    def test_stationary_tone_rows_identical(self):
        stream, _ = gen_tone(1.0, 125.0 * 100, 0.0, 16384 * 8, RATE)
        ds = dynamic_spectrum(stream, 0.008, 125.0)
        ridge = np.argmax(ds.power, axis=1)
        assert np.all(ridge == ridge[0])
        np.testing.assert_allclose(
            ds.power,
            np.broadcast_to(ds.power[0], ds.power.shape),
            rtol=0,
            atol=1e-9 * ds.power.max(),
        )

    def test_rows_average_to_whole_spectrum(self):
        rng = np.random.default_rng(3)
        n = 16384 * 8
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        stream = SampleStream(samples, RATE)
        ds = dynamic_spectrum(stream, 0.008, 125.0)
        whole = power_spectrum(stream, 125.0)
        np.testing.assert_allclose(ds.power.mean(axis=0), whole.power, rtol=1e-9)

    def test_fm_sweep_ridge_follows_truth(self):
        # Slow sweep: the frequency moves ~100 Hz inside one 8 ms cell, so
        # the per-row ridge must stay within one 125 Hz cell of truth.
        spec = NbfmSpec(carrier_offset_hz=50000.0, deviation_hz=2000.0, duration_s=0.5,
                        mod_tones=((1.0, 1.0),))
        stream, truth = gen_nbfm(spec, RATE)
        ds = dynamic_spectrum(stream, 0.008, 125.0)
        cell = int(round(0.008 * RATE))
        hits = 0
        for row in range(ds.power.shape[0]):
            ridge = ds.freqs_hz[np.argmax(ds.power[row])]
            f_true = truth.f_inst_hz[row * cell : (row + 1) * cell].mean()
            if abs(ridge - f_true) <= 125.0:
                hits += 1
        assert hits / ds.power.shape[0] >= 0.95

    def test_infeasible_pair_rejected(self):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 65536, RATE)
        with pytest.raises(ValueError, match="infeasible"):
            dynamic_spectrum(stream, 0.001, 125.0)


class TestBandPower:
    def test_full_band_equals_mean_square(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        stream = SampleStream(samples, RATE)
        bp = frame_band_power(power_spectrum(stream, RATE / len(stream)), (-RATE / 2, RATE / 2))
        assert abs(bp - stream.power()) / stream.power() < 1e-3

    def test_tone_in_vs_out_of_band(self):
        stream, _ = gen_tone(1.0, 100000.0, 0.0, 65536, RATE)
        frame = power_spectrum(stream, RATE / len(stream))
        inside = frame_band_power(frame, (90000.0, 110000.0))
        outside = frame_band_power(frame, (-110000.0, -90000.0))
        assert 10 * np.log10(inside / outside) >= 40.0

    def test_nbfm_carson_band_captures_98_percent(self):
        spec = NbfmSpec(carrier_offset_hz=25000.0, deviation_hz=4000.0, duration_s=0.25,
                        mod_tones=((1000.0, 1.0),))
        stream, _ = gen_nbfm(spec, RATE)
        captured = frame_band_power(power_spectrum(stream, 125.0), spec.carson_band_hz())
        assert captured / stream.power() >= 0.98


class TestSuppressionReport:
    BAND = (90000.0, 110000.0)

    def make_pair(self):
        n = 16384 * 4
        in_tone, _ = gen_tone(1.0, 100000.0, 0.0, n, RATE)
        out_tone, _ = gen_tone(0.5, -200000.0, 1.0, n, RATE)
        orig = mix([in_tone, out_tone])
        scaled_in = SampleStream(0.1 * in_tone.samples, RATE)
        resid = mix([scaled_in, out_tone])
        return orig, resid

    def test_identical_streams_zero_db(self):
        orig, _ = self.make_pair()
        rep = suppression_report(orig, orig, self.BAND)
        assert rep.suppression_db == 0.0
        assert rep.out_of_band_delta_db == 0.0

    def test_in_band_amplitude_scale_gives_20_db(self):
        orig, resid = self.make_pair()
        rep = suppression_report(orig, resid, self.BAND)
        assert rep.suppression_db == pytest.approx(20.0, abs=0.01)
        assert abs(rep.out_of_band_delta_db) < 0.01

    def test_swap_negates_exactly(self):
        orig, resid = self.make_pair()
        fwd = suppression_report(orig, resid, self.BAND)
        rev = suppression_report(resid, orig, self.BAND)
        assert rev.suppression_db == -fwd.suppression_db

    def test_zero_residual_infinite(self):
        orig, _ = self.make_pair()
        zero = SampleStream(np.zeros(len(orig), complex), RATE)
        rep = suppression_report(orig, zero, self.BAND)
        assert rep.suppression_db == math.inf

    def test_length_mismatch_rejected(self):
        orig, _ = self.make_pair()
        short = SampleStream(orig.samples[:100], RATE)
        with pytest.raises(ValueError):
            suppression_report(orig, short, self.BAND)

    @pytest.mark.parametrize("rate", [1.0e6, 4.096e6, 2.048001e6])
    def test_sample_rate_mismatch_rejected(self, rate):
        # equal lengths: each stream's own spectrum grid would not match the other's
        orig, resid = self.make_pair()
        other = SampleStream(resid.samples, rate)
        message = re.escape(f"original at {RATE} Hz and residual at {rate} Hz")
        with pytest.raises(ValueError, match=message):
            suppression_report(orig, other, self.BAND)


class TestCsvOutputs:
    def test_spectrum_csv(self, tmp_path):
        stream, _ = gen_tone(1.0, 1000.0, 0.0, 4096, RATE)
        frame = power_spectrum(stream, RATE / 1024)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(frame, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,power"
        assert len(lines) == 1025

    def test_dynamic_csv(self, tmp_path):
        stream, _ = gen_tone(1.0, 1000.0, 0.0, 4096, RATE)
        ds = dynamic_spectrum(stream, 1024 / RATE, RATE / 512)
        path = tmp_path / "wf.csv"
        write_dynamic_spectrum_csv(ds, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("time_s,")

    def test_report_csv_and_text(self, tmp_path):
        stream, _ = gen_tone(1.0, 100000.0, 0.0, 16384, RATE)
        rep = suppression_report(stream, stream, (90000.0, 110000.0))
        path = tmp_path / "rep.csv"
        write_report_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ("band_lo_hz,band_hi_hz,power_before,power_after,suppression_db,"
                            "out_of_band_delta_db,snr_in_band_db")
        assert lines[1].split(",")[6:] == [""]  # snr_in_band_db is always empty
        text = format_report(rep)
        assert "suppression_db: 0.00" in text
        assert text.splitlines()[-1] == "out_of_band_delta_db: +0.000"


class TestInputChecks:
    @pytest.mark.parametrize("res", [0.0, -125.0, math.nan, math.inf])
    def test_resolution_must_be_positive_and_finite(self, res):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16384, RATE)
        message = f"resolution_hz must be positive and finite, got {res}"
        with pytest.raises(ValueError, match=message):
            power_spectrum(stream, res)
        with pytest.raises(ValueError, match="resolution_hz must be positive and finite"):
            dynamic_spectrum(stream, 0.008, res)

    @pytest.mark.parametrize("res", [1e-320, 5e-324])
    def test_resolution_too_fine_to_count_rejected(self, res):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16384, RATE)
        message = re.escape(f"resolution_hz {res} is too fine at {RATE} Hz")
        with pytest.raises(ValueError, match=message):
            power_spectrum(stream, res)
        with pytest.raises(ValueError, match=message):
            dynamic_spectrum(stream, 0.008, res)

    @pytest.mark.parametrize("t_res", [1e303, 1.7e308])
    def test_time_resolution_too_long_to_count_rejected(self, t_res):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16384, RATE)
        with pytest.raises(ValueError, match=re.escape(f"t_res_s {t_res} is too long at {RATE} Hz")):
            dynamic_spectrum(stream, t_res, 125.0)

    @pytest.mark.parametrize("t_res", [0.0, -0.008, math.nan, math.inf])
    def test_time_resolution_must_be_positive_and_finite(self, t_res):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16384, RATE)
        with pytest.raises(ValueError, match=f"t_res_s must be positive and finite, got {t_res}"):
            dynamic_spectrum(stream, t_res, 125.0)

    def test_stream_shorter_than_one_time_cell(self):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16383, RATE)
        with pytest.raises(ValueError, match="stream shorter than one time cell"):
            dynamic_spectrum(stream, 0.008, 125.0)

    def test_frame_band_power_rejects_inverted_band(self):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 4096, RATE)
        frame = power_spectrum(stream, RATE / 1024)
        with pytest.raises(ValueError, match=r"inverted band \(1000.0, -1000.0\)"):
            frame_band_power(frame, (1000.0, -1000.0))

    @pytest.mark.parametrize("band", [(5000.0, -5000.0), (math.nan, math.nan), (math.nan, 1.0),
                                      (2e6, 3e6)])
    def test_report_checks_band_against_nyquist(self, band):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 16384, RATE)
        with pytest.raises(ValueError, match="Nyquist span"):
            suppression_report(stream, stream, band)

    @pytest.mark.parametrize("band", [(10.0, 100.0), (-100.0, -10.0), (126.0, 240.0),
                                      (1023950.0, 1024000.0)])
    def test_band_without_a_bin_centre_rejected(self, band):
        # 125 Hz bins are centred at multiples of 125 Hz; +Fs/2 is no centre, -Fs/2 is
        stream, _ = gen_tone(1.0, 50.0, 0.0, 16384, RATE)
        message = re.escape(f"band {band} has no bin centre at 125 Hz resolution")
        with pytest.raises(ValueError, match=message):
            suppression_report(stream, stream, band)
        with pytest.raises(ValueError, match=message):
            report_band(SampleStream([], RATE), band)
        assert report_band(SampleStream([], RATE), (-1024000.0, -1023950.0)) == (
            -1024000.0, -1023950.0)


@given(seg_len=st.integers(1, 40), rate=st.sampled_from([1000.0, 48000.0, 2048000.0, 3e6 + 1]),
       data=st.data())
def test_report_band_accepts_a_band_iff_the_report_sums_a_bin_of_it(seg_len, rate, data):
    """report_band's arithmetic agrees with the spectrum's own centres, ulp for ulp."""
    stream = SampleStream(np.zeros(seg_len), rate)
    res = rate / seg_len
    freqs = power_spectrum(stream, res).freqs_hz
    centres = [*freqs.tolist(), -rate / 2, rate / 2]
    edge = st.one_of(st.sampled_from(centres).flatmap(lambda f: st.sampled_from(
        [np.nextafter(f, -np.inf), f, np.nextafter(f, np.inf)])), st.floats(-rate / 2, rate / 2))
    lo, hi = sorted(float(min(max(data.draw(edge), -rate / 2), rate / 2)) for _ in range(2))
    assume(lo < hi)
    if ((freqs >= lo) & (freqs <= hi)).any():
        assert report_band(stream, (lo, hi), res) == (lo, hi)
    else:
        with pytest.raises(ValueError, match="has no bin centre"):
            report_band(stream, (lo, hi), res)


def test_silent_streams_report_zero_db():
    silent = SampleStream(np.zeros(16384, complex), RATE)
    rep = suppression_report(silent, silent, (90000.0, 110000.0))
    assert (rep.power_before, rep.power_after) == (0.0, 0.0)
    assert (rep.suppression_db, rep.out_of_band_delta_db) == (0.0, 0.0)


def mean_of_periodograms(segments, sample_rate_hz):
    """The one-call formula _averaged_psd replaced: np.mean over the segment axis."""
    seg_len = segments.shape[-1]
    psd = np.mean(np.abs(np.fft.fft(segments, axis=-1)) ** 2, axis=-2) / (seg_len * sample_rate_hz)
    return np.fft.fftshift(psd, axes=-1)


@pytest.mark.parametrize("group_samples,shape", [
    # 32 samples hold 4 segments of 8: counts below, at, a multiple of and not a multiple of 4
    (32, (1, 8)), (32, (3, 8)), (32, (4, 8)), (32, (12, 8)), (32, (10, 8)),
    # with leading rows the group shrinks to 2 segments, then to 1
    (32, (2, 1, 8)), (32, (2, 2, 8)), (32, (2, 5, 8)), (32, (5, 7, 8)),
    (2**17, (37, 3, 1000)), (2**17, (4, 129, 512)), (2**17, (300, 2048)), (2**17, (1, 16384)),
    (2**17, (9, 7)),
])
def test_averaged_psd_sums_segments_in_order(monkeypatch, group_samples, shape):
    monkeypatch.setattr(metrics, "_GROUP_SAMPLES", group_samples)
    rng = np.random.default_rng(sum(shape))
    segments = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = metrics._averaged_psd(segments, RATE)
    assert got.tobytes() == mean_of_periodograms(segments, RATE).tobytes()
