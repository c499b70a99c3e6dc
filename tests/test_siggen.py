"""Generator tests: known waveforms, truth self-consistency, noise calibration.

Spectral checks here use their own plain-FFT integration rather than
stsa.metrics, so the oracle stays independent of the measured code.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import siggen_reference
import writers_reference
from stsa.iq import SampleStream
from stsa.siggen import (
    NbfmSpec,
    TruthRecord,
    add_awgn,
    gen_am,
    gen_nbfm,
    gen_tone,
    mix,
    waveform_from_truth,
    write_truth_csv,
)

RATE = 2048000.0


def reference_integrate(truth: TruthRecord) -> np.ndarray:
    """Independent truth integrator: brute cumulative phase sum.

    Runs in extended precision so the sequential sum itself stays far below
    the 1e-9 tolerance being verified.
    """
    steps = 2.0 * np.longdouble(np.pi) * truth.f_inst_hz.astype(np.longdouble)
    steps /= np.longdouble(truth.sample_rate_hz)
    phase = np.longdouble(truth.psi0_rad) + np.concatenate(
        ([np.longdouble(0.0)], np.cumsum(steps[1:]))
    )
    phase = np.mod(phase, 2.0 * np.longdouble(np.pi)).astype(np.float64)
    return truth.amplitude * np.exp(1j * phase)


def band_power_fft(samples: np.ndarray, rate: float, lo: float, hi: float) -> float:
    """Oracle band power: single periodogram, exact Parseval normalization."""
    spec = np.abs(np.fft.fft(samples)) ** 2 / samples.size**2
    freqs = np.fft.fftfreq(samples.size, d=1.0 / rate)
    return float(np.sum(spec[(freqs >= lo) & (freqs <= hi)]))


class TestTone:
    def test_dc(self):
        stream, _ = gen_tone(1.0, 0.0, 0.0, 4, RATE)
        np.testing.assert_allclose(stream.samples, np.ones(4), atol=1e-12)

    def test_quarter_rate(self):
        stream, _ = gen_tone(1.0, RATE / 4, 0.0, 4, RATE)
        np.testing.assert_allclose(stream.samples, [1, 1j, -1, -1j], atol=1e-12)

    def test_amp_and_phase(self):
        stream, _ = gen_tone(2.0, 0.0, np.pi, 5, RATE)
        np.testing.assert_allclose(stream.samples, -2 * np.ones(5), atol=1e-12)

    def test_nyquist_violation(self):
        with pytest.raises(ValueError, match="Nyquist"):
            gen_tone(1.0, RATE / 2, 0.0, 8, RATE)

    def test_truth_matches_constants(self):
        _, truth = gen_tone(0.5, 1000.0, 0.25, 16, RATE)
        assert np.all(truth.f_inst_hz == 1000.0)
        assert np.all(truth.amplitude == 0.5)
        assert truth.psi0_rad == 0.25


class TestNbfm:
    def test_zero_deviation_degenerates_to_tone(self):
        spec = NbfmSpec(carrier_offset_hz=25000.0, deviation_hz=0.0, duration_s=0.001)
        fm, _ = gen_nbfm(spec, RATE)
        tone, _ = gen_tone(1.0, 25000.0, 0.0, len(fm), RATE)
        np.testing.assert_array_equal(fm.samples, tone.samples)

    def test_constant_envelope(self):
        spec = NbfmSpec(
            carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=0.05,
            amp=0.7, mod_noise_bw_hz=1000.0, mod_noise_seed=3,
        )
        stream, _ = gen_nbfm(spec, RATE)
        dev = np.abs(np.abs(stream.samples) - 0.7)
        assert dev.max() < 1e-9 * 0.7

    def test_occupied_bandwidth_matches_carson(self):
        # dev 4 kHz + 1 kHz tone -> Carson 10 kHz; the measured symmetric
        # 99%-power bandwidth should land in [8, 12] kHz.
        spec = NbfmSpec(
            carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=0.25,
            mod_tones=((1000.0, 1.0),),
        )
        stream, _ = gen_nbfm(spec, RATE)
        spec_pow = np.abs(np.fft.fft(stream.samples)) ** 2
        freqs = np.fft.fftfreq(len(stream), d=1.0 / RATE)
        order = np.argsort(np.abs(freqs), kind="stable")
        cum = np.cumsum(spec_pow[order])
        k99 = np.searchsorted(cum, 0.99 * cum[-1])
        bw99 = 2 * np.abs(freqs[order][k99])
        assert 8000.0 <= bw99 <= 12000.0, f"99% bandwidth {bw99:.0f} Hz"

    def test_carson_exceeds_nyquist_rejected(self):
        spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=0.01,
                        mod_tones=((1000.0, 1.0),))
        with pytest.raises(ValueError):
            gen_nbfm(spec, 9000.0)

    def test_offset_near_edge_rejected(self):
        spec = NbfmSpec(carrier_offset_hz=RATE / 2 - 1000.0, deviation_hz=4000.0,
                        duration_s=0.01, mod_tones=((1000.0, 1.0),))
        with pytest.raises(ValueError, match="Nyquist"):
            gen_nbfm(spec, RATE)

    def test_tone_amplitudes_validated(self):
        with pytest.raises(ValueError, match="sum"):
            NbfmSpec(carrier_offset_hz=0.0, deviation_hz=100.0, duration_s=0.1,
                     mod_tones=((100.0, 0.7), (200.0, 0.7)))

    @pytest.mark.parametrize("rms", [None, 0.5])
    def test_noise_modulation_on_an_empty_capture(self, rms):
        spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=1e-7,
                        mod_noise_bw_hz=1000.0, mod_noise_rms=rms)
        stream, truth = gen_nbfm(spec, RATE)
        assert len(stream) == truth.f_inst_hz.size == truth.amplitude.size == 0

    def test_noise_rms_on_a_capture_that_passes_only_dc(self):
        # 1,000 samples at 2.048 MHz resolve 2,048 Hz: a 1 kHz cutoff keeps only the DC bin,
        # whose constant has no RMS to drive, so it is peak-normalized (no zero division)
        plain = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=1000 / RATE,
                         mod_noise_bw_hz=1000.0)
        stream, truth = gen_nbfm(dataclasses.replace(plain, mod_noise_rms=0.5), RATE)
        assert np.all(np.abs(truth.f_inst_hz) == 4000.0)
        assert stream.samples.tobytes() == gen_nbfm(plain, RATE)[0].samples.tobytes()

    def test_noise_rms_when_a_clip_saturates_every_sample(self):
        # 33 samples at 48 kHz pass two bins below 1,455 Hz; with seed 10 the third clip leaves
        # every sample at -1, so the drive stops on a zero spread (the earlier body divided by
        # it, with a RuntimeWarning) and keeps the earlier body's bytes
        spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=33 / 48000.0,
                        mod_noise_bw_hz=1455.0, mod_noise_seed=10, mod_noise_rms=0.5)
        stream, truth = gen_nbfm(spec, 48000.0)
        assert np.all(truth.f_inst_hz == -4000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = siggen_reference.gen_nbfm(spec, 48000.0)
        assert stream.samples.tobytes() == want[0].tobytes()

    def test_carson_band(self):
        spec = NbfmSpec(carrier_offset_hz=25000.0, deviation_hz=4000.0,
                        duration_s=0.1, mod_tones=((1000.0, 1.0),))
        assert spec.carson_band_hz() == (20000.0, 30000.0)


class TestAm:
    def test_zero_index_is_pure_tone(self):
        am, _ = gen_am(5000.0, 1.0, 0.0, 1000.0, 512, RATE)
        tone, _ = gen_tone(1.0, 5000.0, 0.0, 512, RATE)
        np.testing.assert_allclose(am.samples, tone.samples, atol=1e-12)

    def test_envelope_bounds(self):
        am, truth = gen_am(0.0, 2.0, 0.25, 500.0, 4096, RATE)
        env = np.abs(am.samples)
        assert env.max() <= 2.0 * 1.25 + 1e-9
        assert env.min() >= 2.0 * 0.75 - 1e-9

    def test_three_line_spectrum(self):
        # Carrier and modulation both on the FFT grid: exactly three lines
        # with sideband/carrier amplitude ratio mod_index/2.
        n = 4096
        carrier = 64 * RATE / n
        fmod = 16 * RATE / n
        index = 0.6
        am, _ = gen_am(carrier, 1.0, index, fmod, n, RATE)
        mags = np.abs(np.fft.fft(am.samples)) / n
        lines = np.nonzero(mags > 1e-6)[0]
        assert set(lines) == {64 - 16, 64, 64 + 16}
        np.testing.assert_allclose(mags[48] / mags[64], index / 2, rtol=1e-9)
        np.testing.assert_allclose(mags[80] / mags[64], index / 2, rtol=1e-9)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            gen_am(0.0, 1.0, 1.5, 100.0, 64, RATE)


class TestMix:
    def test_identity(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 64, RATE)
        np.testing.assert_array_equal(mix([s]).samples, s.samples)

    def test_cancellation(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 64, RATE)
        neg = SampleStream(-s.samples, s.sample_rate_hz)
        np.testing.assert_array_equal(mix([s, neg]).samples, np.zeros(64))

    def test_power_additivity_of_resolved_tones(self):
        n = 8192
        a, _ = gen_tone(1.0, 100 * RATE / n, 0.0, n, RATE)
        b, _ = gen_tone(0.5, -300 * RATE / n, 1.0, n, RATE)
        both = mix([a, b])
        p = np.mean(np.abs(both.samples) ** 2)
        expected = np.mean(np.abs(a.samples) ** 2) + np.mean(np.abs(b.samples) ** 2)
        assert abs(p - expected) / expected < 1e-3

    def test_mismatch_rejected(self):
        a, _ = gen_tone(1.0, 0.0, 0.0, 64, RATE)
        b, _ = gen_tone(1.0, 0.0, 0.0, 32, RATE)
        c, _ = gen_tone(1.0, 0.0, 0.0, 64, RATE / 2)
        with pytest.raises(ValueError, match="length"):
            mix([a, b])
        with pytest.raises(ValueError, match="rate"):
            mix([a, c])


class TestAwgn:
    BAND = (-5000.0, 5000.0)

    def test_infinite_snr_is_identity(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 256, RATE)
        out = add_awgn(s, np.inf, self.BAND, 0)
        np.testing.assert_array_equal(out.samples, s.samples)

    def test_deterministic(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 1024, RATE)
        a = add_awgn(s, 20.0, self.BAND, 42)
        b = add_awgn(s, 20.0, self.BAND, 42)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = add_awgn(s, 20.0, self.BAND, 43)
        assert not np.array_equal(c.samples, a.samples)

    def test_zero_power_rejected(self):
        empty = SampleStream(np.zeros(64, complex), RATE)
        with pytest.raises(ValueError, match="zero-power"):
            add_awgn(empty, 10.0, self.BAND, 0)

    @pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
    def test_non_finite_snr_rejected(self, snr_db):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 256, RATE)
        with pytest.raises(ValueError, match=f"snr_db must be finite or \\+inf, got {snr_db}"):
            add_awgn(s, snr_db, self.BAND, 0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3090.0])
    def test_snr_whose_noise_variance_is_not_a_positive_float_rejected(self, snr_db):
        # 10**400 overflows, 10**-400 is 0, and 10**309 overflows as well
        s, _ = gen_tone(1.0, 1000.0, 0.0, 256, RATE)
        with pytest.raises(ValueError, match=f"snr_db {snr_db} gives a noise variance that is "
                                             "not positive and finite"):
            add_awgn(s, snr_db, self.BAND, 0)

    @pytest.mark.parametrize("snr_db", [3000.0, -300.0])
    def test_extreme_snr_with_a_positive_finite_noise_variance_runs(self, snr_db):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 256, RATE)
        assert len(add_awgn(s, snr_db, self.BAND, 0)) == len(s)  # the stream checks finiteness

    def test_band_outside_nyquist_rejected(self):
        s, _ = gen_tone(1.0, 0.0, 0.0, 64, RATE)
        with pytest.raises(ValueError, match="Nyquist"):
            add_awgn(s, 10.0, (0.0, RATE), 0)

    def test_measured_in_band_snr(self):
        # Oracle: measure signal and the injected noise separately.
        spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=1.0,
                        mod_noise_bw_hz=1000.0, mod_noise_seed=5)
        clean, _ = gen_nbfm(spec, RATE)
        lo, hi = spec.carson_band_hz()
        noisy = add_awgn(clean, 34.0, (lo, hi), 11)
        noise = noisy.samples - clean.samples
        p_sig = np.mean(np.abs(clean.samples) ** 2)
        p_noise_band = band_power_fft(noise, RATE, lo, hi)
        measured = 10 * np.log10(p_sig / p_noise_band)
        assert abs(measured - 34.0) < 0.2, f"measured {measured:.2f} dB"

    def test_noise_is_white(self):
        # Averaged periodogram of the injected noise flat within 0.5 dB.
        n = 2048 * 1024
        s = SampleStream(np.ones(n, complex), RATE)
        noisy = add_awgn(s, 0.0, self.BAND, 3)
        noise = (noisy.samples - s.samples).reshape(-1, 1024)
        psd = np.mean(np.abs(np.fft.fft(noise, axis=1)) ** 2, axis=0)
        ripple_db = 10 * np.log10(psd.max() / psd.min())
        mean_db = 10 * np.log10(psd.max() / psd.mean())
        assert mean_db < 0.5, f"peak {mean_db:.2f} dB over mean"
        assert ripple_db < 1.0, f"max/min ripple {ripple_db:.2f} dB"


@pytest.mark.parametrize(
    "maker",
    [
        lambda: gen_tone(1.0, 82000.0, 0.3, 100_000, RATE),
        lambda: gen_tone(0.2, -500_000.0, -1.0, 100_000, RATE),
        lambda: gen_nbfm(
            NbfmSpec(carrier_offset_hz=25000.0, deviation_hz=4000.0, duration_s=0.05,
                     mod_tones=((1000.0, 1.0),)),
            RATE,
        ),
        lambda: gen_nbfm(
            NbfmSpec(carrier_offset_hz=-10000.0, deviation_hz=4000.0, duration_s=0.05,
                     mod_noise_bw_hz=1000.0, mod_noise_seed=9),
            RATE,
        ),
        lambda: gen_am(5000.0, 1.0, 0.8, 700.0, 100_000, RATE),
    ],
)
def test_truth_self_consistency(maker):
    stream, truth = maker()
    ref = reference_integrate(truth)
    err = np.max(np.abs(stream.samples - ref))
    scale = max(np.max(truth.amplitude), 1e-300)
    assert err <= 1e-9 * scale, f"truth reconstruction error {err:.3e}"


def test_waveform_from_truth_empty():
    truth = TruthRecord(np.zeros(0), np.zeros(0), 0.0, RATE)
    assert waveform_from_truth(truth).size == 0


def savetxt_truth_csv(truth: TruthRecord, path):
    """The earlier np.savetxt writer, kept as the byte-level oracle."""
    table = np.column_stack(
        [np.arange(truth.f_inst_hz.size), truth.f_inst_hz, truth.amplitude]
    )
    np.savetxt(path, table, fmt=("%d", "%.6f", "%.9g"), delimiter=",",
               header="sample_index,f_inst_hz,amplitude", comments="")


@pytest.mark.parametrize("f_inst_hz,amplitude", [
    ([-123456.7890123, 0.0, -0.0, 1e-7, -4e-7, 999999.9999996, 5e5],
     [1.0, 1e-12, 1.23456789e11, 0.0, 0.5, 3.14159265358979, 2.5e-320]),
    ([], []),
])
def test_truth_csv_matches_savetxt(tmp_path, f_inst_hz, amplitude):
    truth = TruthRecord(np.array(f_inst_hz, float), np.array(amplitude, float), 0.0, RATE)
    write_truth_csv(truth, tmp_path / "fast.csv")
    savetxt_truth_csv(truth, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3])
def test_truth_csv_across_chunk_edges(tmp_path, n):
    # the writer formats 2^16 rows at a time; a constant column is a zero-stride view
    amplitude = np.random.default_rng(n).uniform(0.0, 2.0, n)
    truth = TruthRecord(np.broadcast_to(-12345.678901, n), amplitude, 0.0, RATE)
    write_truth_csv(truth, tmp_path / "chunked.csv")
    writers_reference.write_truth_csv(truth, tmp_path / "oracle.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


AM_ARGS = (5000, 2.0, 0.5, 700.0, 4096, RATE)  # an int offset: the column is float64 all the same
FM_SPEC = NbfmSpec(25000.0, 4000.0, 0.002, amp=0.25, mod_tones=((1000.0, 1.0),))


@pytest.mark.parametrize("build,oracle,columns", [
    (lambda: gen_tone(1, 82000, 0.3, 4096, RATE),
     lambda: siggen_reference.gen_tone(1, 82000, 0.3, 4096, RATE), ("f_inst_hz", "amplitude")),
    (lambda: gen_am(*AM_ARGS), lambda: siggen_reference.gen_am(*AM_ARGS), ("f_inst_hz",)),
    (lambda: gen_nbfm(FM_SPEC, RATE), lambda: siggen_reference.gen_nbfm(FM_SPEC, RATE),
     ("amplitude",)),
], ids=["gen_tone", "gen_am", "gen_nbfm"])
def test_constant_truth_columns_are_read_only_views(build, oracle, columns):
    truth = build()[1]
    want = dict(zip(("f_inst_hz", "amplitude"), oracle()[1:]))
    for name in columns:
        got = getattr(truth, name)
        assert got.dtype == np.float64 and got.strides == (0,) and not got.flags.writeable
        assert got.tobytes() == np.asarray(want[name], np.float64).tobytes()


class TestInputChecks:
    @pytest.mark.parametrize("f_inst,amplitude,message", [
        ([0.0, 0.0], [1.0], "f_inst_hz and amplitude must have equal length"),
        ([0.0], [-0.5], "amplitude must be nonnegative"),
        ([RATE / 2], [1.0], "instantaneous frequency exceeds Nyquist"),
        ([-RATE / 2], [1.0], "instantaneous frequency exceeds Nyquist"),
        # NaN fails no comparison with a bound, and inf would be read as a Nyquist violation
        ([np.nan], [np.nan], "f_inst_hz and amplitude must be finite"),
        ([0.0, np.nan], [1.0, 1.0], "f_inst_hz and amplitude must be finite"),
        ([0.0, 0.0], [np.nan, 1.0], "f_inst_hz and amplitude must be finite"),
        ([np.inf], [1.0], "f_inst_hz and amplitude must be finite"),
        ([-np.inf], [1.0], "f_inst_hz and amplitude must be finite"),
        ([0.0], [np.inf], "f_inst_hz and amplitude must be finite"),
        ([0.0], [-np.inf], "f_inst_hz and amplitude must be finite"),
    ])
    def test_truth_record(self, f_inst, amplitude, message):
        with pytest.raises(ValueError, match=message):
            TruthRecord(np.array(f_inst), np.array(amplitude), 0.0, RATE)

    @pytest.mark.parametrize("changes,message", [
        ({"deviation_hz": -1.0}, "deviation_hz must be nonnegative"),
        ({"duration_s": 0.0}, "duration_s must be positive"),
        ({"amp": 0.0}, "amp must be positive"),
        ({"mod_tones": ((1000.0, 0.5),), "mod_noise_bw_hz": 1000.0},
         "choose tone modulation or noise modulation, not both"),
        ({"mod_tones": ((1000.0, -0.1),)}, r"modulating tone amplitudes must lie in \[0, 1\]"),
        ({"mod_tones": ((1000.0, 1.5),)}, r"modulating tone amplitudes must lie in \[0, 1\]"),
        ({"mod_tones": ((1000.0, 0.6), (2000.0, 0.6))},
         "modulating tone amplitudes must sum to at most 1"),
        ({"mod_noise_bw_hz": 0.0}, "mod_noise_bw_hz must be positive"),
        ({"mod_noise_bw_hz": 1000.0, "mod_noise_rms": 1.0}, r"mod_noise_rms must lie in \(0, 1\)"),
        ({"mod_noise_bw_hz": 1000.0, "mod_noise_rms": 0.0}, r"mod_noise_rms must lie in \(0, 1\)"),
        # without a noise bandwidth there is no noise for mod_noise_rms to drive
        ({"mod_noise_rms": 0.5}, "mod_noise_rms needs mod_noise_bw_hz"),
        ({"mod_tones": ((1000.0, 0.5),), "mod_noise_rms": 0.5},
         "mod_noise_rms needs mod_noise_bw_hz"),
        # NaN fails every comparison, so each check must be written to fail on it
        ({"deviation_hz": np.nan}, "deviation_hz must be nonnegative"),
        ({"duration_s": np.nan}, "duration_s must be positive"),
        ({"amp": np.nan}, "amp must be positive"),
        ({"mod_tones": ((1000.0, np.nan),)}, r"modulating tone amplitudes must lie in \[0, 1\]"),
        ({"mod_tones": ((1000.0, 0.5), (2000.0, np.nan))},
         r"modulating tone amplitudes must lie in \[0, 1\]"),
        ({"mod_noise_bw_hz": np.nan}, "mod_noise_bw_hz must be positive"),
        ({"mod_noise_bw_hz": 1000.0, "mod_noise_rms": np.nan},
         r"mod_noise_rms must lie in \(0, 1\)"),
        ({"duration_s": np.inf}, "duration_s must be positive and finite"),
        ({"carrier_offset_hz": np.nan}, "carrier_offset_hz must be finite"),
        ({"mod_tones": ((np.nan, 0.5),)}, "modulating tone frequencies must be finite"),
        ({"amp": np.inf}, "amp must be positive and finite"),
    ])
    def test_nbfm_spec(self, changes, message):
        fields = {"carrier_offset_hz": 0.0, "deviation_hz": 4000.0, "duration_s": 0.01, **changes}
        with pytest.raises(ValueError, match=message):
            NbfmSpec(**fields)

    @pytest.mark.parametrize("amp", [-1.0, np.nan, np.inf])
    def test_tone_amp(self, amp):
        with pytest.raises(ValueError, match="amp must be nonnegative and finite"):
            gen_tone(amp, 0.0, 0.0, 8, RATE)

    def test_nan_frequency_names_the_frequency(self):
        with pytest.raises(ValueError, match="frequency nan Hz violates Nyquist"):
            gen_tone(1.0, np.nan, 0.0, 8, RATE)
        with pytest.raises(ValueError, match="AM sideband nan Hz violates Nyquist"):
            gen_am(0.0, 1.0, 0.5, np.nan, 64, RATE)

    def test_tone(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            gen_tone(1.0, 0.0, 0.0, -5, RATE)

    @pytest.mark.parametrize("psi_rad", [np.nan, np.inf, -np.inf])
    def test_tone_psi_must_be_finite(self, psi_rad):
        with pytest.raises(ValueError, match="psi_rad must be finite"):
            gen_tone(1.0, 0.0, psi_rad, 8, RATE)

    @pytest.mark.parametrize("a0", [-1.0, np.nan, np.inf])
    def test_am_a0(self, a0):
        with pytest.raises(ValueError, match="a0 must be nonnegative and finite"):
            gen_am(0.0, a0, 0.5, 100.0, 64, RATE)

    def test_am(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            gen_am(0.0, 1.0, 0.5, 100.0, -5, RATE)

    def test_mix(self):
        with pytest.raises(ValueError, match="mix requires at least one stream"):
            mix([])

    def test_awgn(self):
        with pytest.raises(ValueError, match="cannot add noise to an empty stream"):
            add_awgn(SampleStream(np.zeros(0, complex), RATE), 10.0, (-5000.0, 5000.0), 0)
        s, _ = gen_tone(1.0, 0.0, 0.0, 64, RATE)
        for band in [(5000.0, -5000.0), (np.nan, np.nan)]:
            with pytest.raises(ValueError, match="Nyquist"):
                add_awgn(s, 10.0, band, 0)
