"""End-to-end CLI tests: generate, cancel, analyze, exit codes, determinism."""

import numpy as np
import pytest

from stsa import run_cancel
from stsa.blockproc import StsaConfig
from stsa.cli import main
from stsa.iq import IqFormat, SampleStream, read_iq, write_iq

RATE = "2048000"


def run(argv):
    return main(argv)


def test_cancel_requires_at_least_one_pass(tmp_path, capsys):
    stream = SampleStream(np.ones(1024, complex), 2048000.0)
    with pytest.raises(ValueError, match="passes must be at least 1"):
        run_cancel(stream, StsaConfig(), passes=0)
    src = tmp_path / "in.iq"
    resid = tmp_path / "resid.iq"
    write_iq(stream, src, IqFormat.FLOAT32)
    code = run(["cancel", "--in", str(src), "--rate", RATE, "--passes", "0",
                "--out-residual", str(resid)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: passes must be at least 1")
    assert not resid.exists()


def test_estimate_built_only_when_read():
    t = np.arange(4096) / 2048000.0
    stream = SampleStream(0.5 * np.exp(2j * np.pi * 82000.0 * t), 2048000.0, 0.25)
    result = run_cancel(stream, StsaConfig(max_peel=1), passes=2)
    assert "estimate" not in vars(result)
    estimate = result.estimate
    assert estimate.samples.tobytes() == (stream.samples - result.residual.samples).tobytes()
    assert (estimate.sample_rate_hz, estimate.t0_s) == (2048000.0, 0.25)


def weak_then_strong_stream() -> SampleStream:
    """64 blocks of 256: a 0.1 tone at +100 kHz throughout, a 1.0 tone at
    -300 kHz from sample 2048 (block 8), and 1e-3 white noise."""
    rate = 2048000.0
    t = np.arange(64 * 256) / rate
    x = 0.1 * np.exp(2j * np.pi * 100e3 * t)
    x[2048:] += np.exp(-2j * np.pi * 300e3 * t[2048:])
    rng = np.random.default_rng(0)
    x += 1e-3 * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
    return SampleStream(x, rate)


@pytest.mark.parametrize("max_peel,strongest_only", [(1, False), (2, True)])
def test_run_cancel_numbers_tracks_across_passes(max_peel, strongest_only):
    config = StsaConfig(max_peel=max_peel, detect_threshold_db=20.0)
    result = run_cancel(weak_then_strong_stream(), config, passes=2,
                        strongest_only=strongest_only)
    assert all(result.tracks_per_pass)
    ids = [trk.signal_id for tracks in result.tracks_per_pass for trk in tracks]
    assert ids == list(range(len(ids)))


def test_strongest_only_passes_write_distinct_ids(tmp_path):
    src = tmp_path / "in.iq"
    out = tmp_path / "tracks.csv"
    write_iq(weak_then_strong_stream(), src, IqFormat.FLOAT32)
    assert run(["cancel", "--in", str(src), "--rate", RATE, "--max-peel", "2",
                "--threshold-db", "20", "--strongest-only", "--passes", "2",
                "--out-residual", str(tmp_path / "resid.iq"), "--out-tracks", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    ids, blocks, freqs = rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 5]
    assert set(ids) == {0, 1}
    assert [set(np.round(freqs[ids == i], -5)) for i in (0, 1)] == [{-300e3}, {100e3}]
    assert len(set(zip(ids, blocks))) == len(rows)


class TestGenerate:
    def test_nbfm_one_second_sample_count(self, tmp_path):
        out = tmp_path / "nbfm.iq"
        code = run([
            "generate", "--nbfm", "--rate", RATE, "--dev", "4000",
            "--mod-tone", "1000", "--snr", "34", "--dur", "1", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert out.stat().st_size == 2_048_000 * 8
        assert (tmp_path / "nbfm.iq.truth.csv").exists()

    def test_tone_dc(self, tmp_path):
        out = tmp_path / "dc.iq"
        code = run([
            "generate", "--tone", "--freq", "0", "--amp", "1", "--n", "16",
            "--rate", RATE, "--out", str(out),
        ])
        assert code == 0
        stream = read_iq(out, IqFormat.FLOAT32, 2048000.0)
        assert len(stream) == 16
        np.testing.assert_allclose(stream.samples, 1.0, atol=1e-6)

    def test_missing_rate_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--tone", "--n", "16", "--out", str(tmp_path / "x.iq")])
        assert exc.value.code == 2

    def test_missing_length_is_parameter_error(self, tmp_path, capsys):
        code = run(["generate", "--tone", "--rate", RATE, "--out", str(tmp_path / "x.iq")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_snr_without_band_rejected_for_tone(self, tmp_path, capsys):
        code = run([
            "generate", "--tone", "--freq", "1000", "--n", "4096", "--rate", RATE,
            "--snr", "20", "--out", str(tmp_path / "x.iq"),
        ])
        assert code == 2

    @pytest.mark.parametrize("snr", ["--snr=-inf", "--snr=nan"])
    def test_non_finite_snr_is_parameter_error(self, tmp_path, capsys, snr):
        out = tmp_path / "x.iq"
        code = run(["generate", "--nbfm", "--rate", RATE, "--dur", "0.01", snr, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: snr_db must be finite")
        assert not out.exists()

    def test_int8_output(self, tmp_path):
        out = tmp_path / "i8.iq"
        code = run([
            "generate", "--tone", "--freq", "100000", "--amp", "0.5", "--n", "1000",
            "--rate", RATE, "--format", "i8", "--out", str(out),
        ])
        assert code == 0
        assert out.stat().st_size == 2000
        stream = read_iq(out, IqFormat.INT8, 2048000.0)
        np.testing.assert_allclose(np.abs(stream.samples), 0.5, atol=1.5 / 128)


class TestCancel:
    def gen_tone_file(self, tmp_path, n=25600, freq="82000", amp="1.0"):
        path = tmp_path / "tone.iq"
        assert run([
            "generate", "--tone", "--freq", freq, "--amp", amp, "--psi", "0.4",
            "--n", str(n), "--rate", RATE, "--out", str(path),
        ]) == 0
        return path

    def test_on_grid_tone_cancels_80_db(self, tmp_path):
        src = self.gen_tone_file(tmp_path)
        resid = tmp_path / "resid.iq"
        est = tmp_path / "est.iq"
        tracks = tmp_path / "tracks.csv"
        code = run([
            "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
            "--out-residual", str(resid), "--out-estimate", str(est),
            "--out-tracks", str(tracks),
        ])
        assert code == 0
        before = read_iq(src, IqFormat.FLOAT32, 2048000.0)
        after = read_iq(resid, IqFormat.FLOAT32, 2048000.0)
        supp = 10 * np.log10(before.power() / after.power())
        assert supp >= 80.0, f"only {supp:.1f} dB"
        estimate = read_iq(est, IqFormat.FLOAT32, 2048000.0)
        np.testing.assert_allclose(
            estimate.samples + after.samples, before.samples, atol=1e-7
        )
        assert tracks.read_text().count("\n") >= 100

    def test_pure_noise_passthrough(self, tmp_path):
        rng = np.random.default_rng(0)
        noise = (rng.standard_normal(4096) + 1j * rng.standard_normal(4096)) * 0.1
        src = tmp_path / "noise.iq"
        write_iq(SampleStream(noise, 2048000.0), src, IqFormat.FLOAT32)
        resid = tmp_path / "resid.iq"
        code = run([
            "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
            "--threshold-db", "30", "--out-residual", str(resid),
        ])
        assert code == 0
        assert resid.read_bytes() == src.read_bytes()

    def test_deterministic_reruns(self, tmp_path):
        src = self.gen_tone_file(tmp_path, freq="82137.5")
        outputs = []
        for tag in ("a", "b"):
            resid = tmp_path / f"resid_{tag}.iq"
            assert run([
                "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
                "--out-residual", str(resid),
            ]) == 0
            outputs.append(resid.read_bytes())
        assert outputs[0] == outputs[1]

    def test_two_passes_compose_byte_identically(self, tmp_path):
        # NBFM input so the first pass leaves something for the second.
        src = tmp_path / "fm.iq"
        assert run([
            "generate", "--nbfm", "--rate", RATE, "--dev", "4000",
            "--mod-noise-bw", "1000", "--mod-noise-rms", "0.9", "--snr", "34",
            "--n", "65536", "--seed", "3", "--out", str(src),
        ]) == 0
        double = tmp_path / "double.iq"
        assert run([
            "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
            "--passes", "2", "--out-residual", str(double),
        ]) == 0
        mid = tmp_path / "mid.iq"
        chained = tmp_path / "chained.iq"
        assert run([
            "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
            "--out-residual", str(mid),
        ]) == 0
        assert run([
            "cancel", "--in", str(mid), "--rate", RATE, "--n", "256",
            "--out-residual", str(chained),
        ]) == 0
        assert double.read_bytes() == chained.read_bytes()

    def test_band_report_on_stdout(self, tmp_path, capsys):
        src = self.gen_tone_file(tmp_path)
        resid = tmp_path / "resid.iq"
        rep = tmp_path / "rep.csv"
        code = run([
            "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
            "--band", "72000", "92000", "--report", str(rep),
            "--out-residual", str(resid),
        ])
        assert code == 0
        assert "suppression_db" in capsys.readouterr().out
        assert rep.exists()

    @pytest.mark.parametrize("limit", ["0", "-0.5", "nan"])
    def test_non_positive_jump_limit_is_parameter_error(self, tmp_path, capsys, limit):
        src = self.gen_tone_file(tmp_path, n=2560)
        resid = tmp_path / "resid.iq"
        code = run([
            "cancel", "--in", str(src), "--rate", RATE, f"--jump-limit={limit}",
            "--out-residual", str(resid),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: jump_limit_bins must be positive")
        assert not resid.exists()

    @pytest.mark.parametrize("setting,field", [
        ("--threshold-db=nan", "detect_threshold_db"), ("--threshold-db=inf", "detect_threshold_db"),
        ("--threshold-db=-inf", "detect_threshold_db"), ("--span-bins=inf", "fine_search_span_bins"),
        ("--span-bins=nan", "fine_search_span_bins"),
    ])
    def test_non_finite_estimator_setting_is_parameter_error(self, tmp_path, capsys, setting,
                                                              field):
        src = self.gen_tone_file(tmp_path, n=2560)
        resid = tmp_path / "resid.iq"
        code = run(["cancel", "--in", str(src), "--rate", RATE, setting,
                    "--out-residual", str(resid)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not resid.exists()

    def test_missing_input_io_error(self, tmp_path, capsys):
        code = run([
            "cancel", "--in", str(tmp_path / "nope.iq"), "--rate", RATE,
            "--n", "256", "--out-residual", str(tmp_path / "r.iq"),
        ])
        assert code == 1


class TestAnalyze:
    def make_one_second_file(self, tmp_path):
        path = tmp_path / "sig.iq"
        assert run([
            "generate", "--tone", "--freq", "100000", "--n", "2048000",
            "--rate", RATE, "--out", str(path),
        ]) == 0
        return path

    def test_spectrum_bin_count(self, tmp_path):
        src = self.make_one_second_file(tmp_path)
        out = tmp_path / "spec.csv"
        code = run([
            "analyze", "--spectrum", "--res", "125", "--in", str(src),
            "--rate", RATE, "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 16384

    def test_waterfall_row_count(self, tmp_path):
        src = self.make_one_second_file(tmp_path)
        out = tmp_path / "wf.csv"
        code = run([
            "analyze", "--waterfall", "--tres", "0.008", "--fres", "125",
            "--in", str(src), "--rate", RATE, "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 125

    def test_suppression_report(self, tmp_path, capsys):
        src = self.make_one_second_file(tmp_path)
        resid = tmp_path / "resid.iq"
        assert run([
            "cancel", "--in", str(src), "--rate", RATE, "--n", "256",
            "--out-residual", str(resid),
        ]) == 0
        code = run([
            "analyze", "--suppression", "--band", "90000", "110000",
            "--before", str(src), "--after", str(resid), "--rate", RATE,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "suppression_db" in out

    def test_infeasible_resolution_parameter_error(self, tmp_path, capsys):
        src = tmp_path / "short.iq"
        assert run([
            "generate", "--tone", "--freq", "0", "--n", "65536", "--rate", RATE,
            "--out", str(src),
        ]) == 0
        code = run([
            "analyze", "--waterfall", "--tres", "0.001", "--fres", "125",
            "--in", str(src), "--rate", RATE, "--out", str(tmp_path / "w.csv"),
        ])
        assert code == 2

    def test_spectrum_without_out_rejected(self, tmp_path):
        src = tmp_path / "short.iq"
        assert run([
            "generate", "--tone", "--freq", "0", "--n", "16384", "--rate", RATE,
            "--out", str(src),
        ]) == 0
        code = run([
            "analyze", "--spectrum", "--res", "125", "--in", str(src), "--rate", RATE,
        ])
        assert code == 2
