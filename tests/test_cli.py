"""End-to-end CLI tests: generate, cancel, analyze, exit codes, determinism."""

import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stsa import cli, metrics, pipeline, run_cancel, siggen, synthesis
from stsa.blockproc import StsaConfig
from stsa.cli import build_parser, entry, main
from stsa.iq import IqFormat, SampleStream, encode_iq, read_iq, write_iq

RATE = "2048000"


def run(argv):
    return main(argv)


def test_cancel_requires_at_least_one_pass(tmp_path, capsys):
    stream = SampleStream(np.ones(1024, complex), 2048000.0)
    with pytest.raises(ValueError, match="passes must be at least 1"):
        StsaConfig(passes=0)
    src = tmp_path / "in.iq"
    resid = tmp_path / "resid.iq"
    write_iq(stream, src, IqFormat.FLOAT32)
    code = run(["cancel", "--in", str(src), "--rate", RATE, "--passes", "0",
                "--out-residual", str(resid)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: passes must be at least 1")
    assert not resid.exists()


def test_pass_count_must_be_an_integer():
    stream = SampleStream(np.ones(1024, complex), 2048000.0)
    for passes in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"passes must be an integer, got {passes}"):
            StsaConfig(passes=passes)
    assert len(run_cancel(stream, StsaConfig(passes=np.int64(2))).passes) == 2


@pytest.mark.parametrize("fmt", list(IqFormat))
@pytest.mark.parametrize("passes", [1, 2])
def test_estimate_file_is_the_encoded_difference(tmp_path, fmt, passes):
    # 40,000 samples span three write chunks
    rng = np.random.default_rng(1)
    t = np.arange(40000) / 2048000.0
    x = 0.5 * np.exp(2j * np.pi * 82000.0 * t) + 0.3 * np.exp(-2j * np.pi * 300e3 * t)
    x += 0.02 * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
    src, resid, est = tmp_path / "in.iq", tmp_path / "resid.iq", tmp_path / "est.iq"
    write_iq(SampleStream(x, 2048000.0), src, fmt)
    assert run(["cancel", "--in", str(src), "--rate", RATE, "--format", fmt.value,
                "--passes", str(passes), "--out-residual", str(resid),
                "--out-estimate", str(est)]) == 0
    original = read_iq(src, fmt, 2048000.0)
    residual = run_cancel(original, StsaConfig(passes=passes), inter_pass_format=fmt).residual
    difference = SampleStream(original.samples - residual.samples, 2048000.0)
    assert resid.read_bytes() == encode_iq(residual, fmt)
    assert est.read_bytes() == encode_iq(difference, fmt)


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
def test_track_csv_numbers_tracks_across_passes(tmp_path, max_peel, strongest_only):
    """The track CSV numbers the tracks of both passes 0..T-1 in pass order, with no gap."""
    src, out = tmp_path / "in.iq", tmp_path / "tracks.csv"
    write_iq(weak_then_strong_stream(), src, IqFormat.FLOAT32)
    assert run(["cancel", "--in", str(src), "--rate", RATE, "--max-peel", str(max_peel),
                "--threshold-db", "20", *(["--strongest-only"] if strongest_only else []),
                "--passes", "2", "--out-residual", str(tmp_path / "resid.iq"),
                "--out-tracks", str(out)]) == 0
    config = StsaConfig(max_peel=max_peel, detect_threshold_db=20.0, passes=2,
                        strongest_only=strongest_only)
    result = run_cancel(read_iq(src, IqFormat.FLOAT32, 2048000.0), config,
                        inter_pass_format=IqFormat.FLOAT32)
    assert all(tracks for _, tracks in result.passes)
    lengths = [len(rows) for _, tracks in result.passes for rows in tracks]
    ids = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0, dtype=int, ndmin=1)
    assert ids.tolist() == np.repeat(np.arange(len(lengths)), lengths).tolist()


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
            "generate", "nbfm", "--rate", RATE, "--dev", "4000",
            "--mod-tone", "1000", "--snr", "34", "--dur", "1", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert out.stat().st_size == 2_048_000 * 8
        assert (tmp_path / "nbfm.iq.truth.csv").exists()

    def test_tone_dc(self, tmp_path):
        out = tmp_path / "dc.iq"
        code = run([
            "generate", "tone", "--freq", "0", "--amp", "1", "--n", "16",
            "--rate", RATE, "--out", str(out),
        ])
        assert code == 0
        stream = read_iq(out, IqFormat.FLOAT32, 2048000.0)
        assert len(stream) == 16
        np.testing.assert_allclose(stream.samples, 1.0, atol=1e-6)

    def test_missing_rate_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "tone", "--n", "16", "--out", str(tmp_path / "x.iq")])
        assert exc.value.code == 2

    def test_missing_length_is_parameter_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "tone", "--rate", RATE, "--out", str(tmp_path / "x.iq")])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_n_and_dur_together_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.iq"
        with pytest.raises(SystemExit) as exc:
            run(["generate", "tone", "--rate", RATE, "--n", "16", "--dur", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --dur: not allowed with argument --n" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_without_band_rejected_for_tone(self, tmp_path, capsys):
        code = run([
            "generate", "tone", "--freq", "1000", "--n", "4096", "--rate", RATE,
            "--snr", "20", "--out", str(tmp_path / "x.iq"),
        ])
        assert code == 2

    @pytest.mark.parametrize("snr", ["--snr=-inf", "--snr=nan"])
    def test_non_finite_snr_is_parameter_error(self, tmp_path, capsys, snr):
        out = tmp_path / "x.iq"
        code = run(["generate", "nbfm", "--rate", RATE, "--dur", "0.01", snr, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: snr_db must be finite")
        assert not out.exists()

    def test_float32_overflow_is_a_parameter_error(self, tmp_path, capsys):
        out = tmp_path / "big.iq"
        assert run(["generate", "tone", "--amp", "1e39", "--n", "64", "--rate", "1000",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: sample components beyond ±3.4e38 overflow float32")
        assert not out.exists()
        assert not (tmp_path / "big.iq.truth.csv").exists()

    def test_int8_output(self, tmp_path):
        out = tmp_path / "i8.iq"
        code = run([
            "generate", "tone", "--freq", "100000", "--amp", "0.5", "--n", "1000",
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
            "generate", "tone", "--freq", freq, "--amp", amp, "--psi", "0.4",
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
            "generate", "nbfm", "--rate", RATE, "--dev", "4000",
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
        ("--threshold-db=-inf", "detect_threshold_db"),
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

    @pytest.mark.parametrize("flag", ["--out-residual", "--out-estimate", "--out-tracks",
                                      "--report"])
    def test_unwritable_output_io_error(self, tmp_path, capsys, flag):
        # the outputs are written concurrently; a failed one still exits 1
        src = self.gen_tone_file(tmp_path, n=20480)
        assert run(["cancel", "--in", str(src), "--rate", RATE, "--band", "72000", "92000",
                    "--out-residual", str(tmp_path / "r.iq"),  # a repeated flag's last value wins
                    flag, str(tmp_path / "missing_dir" / "out")]) == 1
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_missing_input_io_error(self, tmp_path, capsys):
        code = run([
            "cancel", "--in", str(tmp_path / "nope.iq"), "--rate", RATE,
            "--n", "256", "--out-residual", str(tmp_path / "r.iq"),
        ])
        assert code == 1


class TestAnalyze:
    @pytest.fixture(scope="class")
    def one_second_file(self, tmp_path_factory):
        """A 1 s tone file the tests only read, generated once for the class."""
        path = tmp_path_factory.mktemp("analyze") / "sig.iq"
        assert run([
            "generate", "tone", "--freq", "100000", "--n", "2048000",
            "--rate", RATE, "--out", str(path),
        ]) == 0
        return path

    def test_spectrum_bin_count(self, one_second_file, tmp_path):
        out = tmp_path / "spec.csv"
        code = run([
            "analyze", "spectrum", "--res", "125", "--in", str(one_second_file),
            "--rate", RATE, "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 16384

    def test_waterfall_row_count(self, one_second_file, tmp_path):
        out = tmp_path / "wf.csv"
        code = run([
            "analyze", "waterfall", "--tres", "0.008", "--res", "125",
            "--in", str(one_second_file), "--rate", RATE, "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 125

    def test_freq_and_res_serve_every_mode(self, tmp_path):
        """--freq places an NBFM carrier and --res sets a waterfall's bins, as in other modes."""
        src, spec, wf = tmp_path / "fm.iq", tmp_path / "spec.csv", tmp_path / "wf.csv"
        assert run(["generate", "nbfm", "--freq", "50000", "--dev", "1000", "--mod-tone", "500",
                    "--rate", "200000", "--n", "20000", "--out", str(src)]) == 0
        assert run(["analyze", "spectrum", "--res", "1000", "--in", str(src),
                    "--rate", "200000", "--out", str(spec)]) == 0
        freqs, power = np.loadtxt(spec, delimiter=",", skiprows=1, unpack=True)
        assert abs(freqs[np.argmax(power)] - 50000.0) <= 1000.0
        assert run(["analyze", "waterfall", "--res", "5000", "--tres", "0.01", "--in", str(src),
                    "--rate", "200000", "--out", str(wf)]) == 0
        assert len(wf.read_text().splitlines()[0].split(",")) == 1 + 40  # time_s, then 40 bins

    def test_suppression_report(self, one_second_file, tmp_path, capsys):
        resid = tmp_path / "resid.iq"
        assert run([
            "cancel", "--in", str(one_second_file), "--rate", RATE, "--n", "256",
            "--out-residual", str(resid),
        ]) == 0
        code = run([
            "analyze", "suppression", "--band", "90000", "110000",
            "--before", str(one_second_file), "--after", str(resid), "--rate", RATE,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "suppression_db" in out

    def test_infeasible_resolution_parameter_error(self, tmp_path, capsys):
        src = tmp_path / "short.iq"
        assert run([
            "generate", "tone", "--freq", "0", "--n", "65536", "--rate", RATE,
            "--out", str(src),
        ]) == 0
        code = run([
            "analyze", "waterfall", "--tres", "0.001", "--res", "125",
            "--in", str(src), "--rate", RATE, "--out", str(tmp_path / "w.csv"),
        ])
        assert code == 2

    def test_spectrum_without_out_rejected(self, tmp_path, capsys):
        src = tmp_path / "short.iq"
        assert run([
            "generate", "tone", "--freq", "0", "--n", "16384", "--rate", RATE,
            "--out", str(src),
        ]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "spectrum", "--res", "125", "--in", str(src), "--rate", RATE])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short.iq", "short.iq.truth.csv"]


class TestLibraryOwnsSettings:
    """The CLI reads its config defaults, choices and CSV layouts from the library."""

    def cancel_config(self, tmp_path, monkeypatch, flags):
        src = tmp_path / "in.iq"
        write_iq(SampleStream(np.zeros(1024, complex), 2048000.0), src, IqFormat.FLOAT32)
        configs = []
        real_run_cancel = pipeline.run_cancel

        def capture(stream, config, **kwargs):
            configs.append(config)
            return real_run_cancel(stream, config, **kwargs)

        monkeypatch.setattr(pipeline, "run_cancel", capture)
        assert run(["cancel", "--in", str(src), "--rate", RATE, *flags,
                    "--out-residual", str(tmp_path / "resid.iq")]) == 0
        return configs

    def test_cancel_defaults_are_the_config_defaults(self, tmp_path, monkeypatch):
        assert self.cancel_config(tmp_path, monkeypatch, []) == [StsaConfig()]

    @pytest.mark.parametrize("window", ["hamming", "rectangular"])
    def test_each_flag_sets_its_field(self, tmp_path, monkeypatch, window):
        """A recorded config replays as flags: each value verbatim, the flag alone for True."""
        flag_of = {"block_len_n": "--n", "window": "--window",
                   "detect_threshold_db": "--threshold-db", "fine_grid_fraction": "--grid-frac",
                   "max_peel": "--max-peel", "overlap": "--overlap",
                   "jump_limit_bins": "--jump-limit", "passes": "--passes",
                   "strongest_only": "--strongest-only"}
        want = StsaConfig(block_len_n=128, window=window, detect_threshold_db=12.5,
                          fine_grid_fraction=0.02, max_peel=3, overlap="half",
                          jump_limit_bins=0.25, passes=2, strongest_only=True)
        assert all(getattr(want, f.name) != getattr(StsaConfig(), f.name)
                   for f in dataclasses.fields(StsaConfig))  # the flags move every field
        flags = []
        for name, value in dataclasses.asdict(want).items():
            flags += [flag_of[name]] if value is True else [flag_of[name], str(value)]
        assert self.cancel_config(tmp_path, monkeypatch, flags) == [want]

    def test_every_config_field_is_a_cancel_dest(self):
        args = build_parser().parse_args(["cancel", "--in", "x", "--rate", RATE,
                                          "--out-residual", "y"])
        assert {f.name for f in dataclasses.fields(StsaConfig)} <= set(vars(args))

    @pytest.mark.parametrize("command,headers", [
        ("generate", [siggen.TRUTH_CSV_HEADER]),
        ("cancel", [synthesis.TRACKS_CSV_HEADER, metrics.REPORT_CSV_HEADER]),
        ("analyze", [metrics.SPECTRUM_CSV_HEADER, metrics.REPORT_CSV_HEADER]),
    ])
    def test_help_lists_each_written_csv_header(self, capsys, command, headers):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(f"  {header}" in lines for header in headers)

    def test_span_bins_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["cancel", "--in", "x", "--rate", RATE, "--span-bins", "1",
                 "--out-residual", str(tmp_path / "r.iq")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["generate", "nbfm", "--offset", "2000", "--n", "64", "--out", "x.iq"],
        ["analyze", "waterfall", "--fres", "125", "--in", "x.iq", "--out", "w.csv"],
        ["cancel", "--window", "tri", "--in", "x.iq", "--out-residual", "r.iq"],
        ["cancel", "--window", "rect", "--in", "x.iq", "--out-residual", "r.iq"],
        ["generate", "--tone", "--n", "64", "--out", "x.iq"],
        ["generate", "--nbfm", "--n", "64", "--out", "x.iq"],
        ["generate", "--am", "--n", "64", "--out", "x.iq"],
        ["analyze", "--spectrum", "--in", "x.iq", "--out", "s.csv"],
        ["analyze", "--waterfall", "--in", "x.iq", "--out", "w.csv"],
        ["analyze", "--suppression", "--before", "x.iq", "--after", "x.iq", "--band", "1", "2"],
    ], ids=["offset", "fres", "window-tri", "window-rect", "--tone", "--nbfm", "--am",
            "--spectrum", "--waterfall", "--suppression"])
    def test_removed_spellings_are_usage_errors(self, tmp_path, monkeypatch, capsys, argv):
        """--freq and --res serve every mode, --window takes the library's names, and a mode
        is a word, not a flag."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--rate", RATE])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def leaf_parsers(parser=None, words=()):
    """(command words, parser) for cancel and each mode of generate and analyze."""
    parser = parser or build_parser()
    modes = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not modes:
        return [(words, parser)]
    return [leaf for word, sub in modes[0].choices.items()
            for leaf in leaf_parsers(sub, (*words, word))]


# a run per parser that takes each branch its handler has (--dur reads --n too); SRC stands for
# a capture, OUT for a path in a fresh directory
FULL_RUNS = {
    ("generate", "tone"): ["--psi", "0.5"],
    ("generate", "nbfm"): ["--dev", "1000", "--mod-noise-bw", "500", "--mod-noise-rms", "0.5"],
    ("generate", "am"): ["--mod-index", "0.3", "--mod-freq", "500"],
    ("cancel",): ["--in", "SRC", "--n", "128", "--window", "hamming", "--threshold-db", "12",
                  "--grid-frac", "0.05", "--max-peel", "2", "--overlap", "half", "--passes", "2",
                  "--strongest-only", "--jump-limit", "1", "--band", "90000", "110000",
                  "--out-residual", "OUT", "--out-estimate", "OUT", "--out-tracks", "OUT",
                  "--report", "OUT"],
    ("analyze", "spectrum"): ["--in", "SRC", "--res", "250", "--out", "OUT"],
    ("analyze", "waterfall"): ["--in", "SRC", "--res", "250", "--tres", "0.004", "--out", "OUT"],
    ("analyze", "suppression"): ["--before", "SRC", "--after", "SRC", "--band", "90000",
                                 "110000", "--res", "250", "--out", "OUT"],
}
CAPTURE_FLAGS = ["--freq", "100000", "--amp", "0.5", "--snr", "30", "--snr-band", "90000",
                 "110000", "--seed", "4", "--dur", "0.01", "--out", "OUT", "--truth", "OUT"]


@pytest.mark.parametrize("words", [words for words, _ in leaf_parsers()], ids=" ".join)
def test_every_declared_flag_is_read(tmp_path, words):
    """The inverse of "a flag of another mode exits 2": no parser declares a flag that its
    handler never reads."""
    src = tmp_path / "src.iq"
    write_iq(siggen.gen_tone(1.0, 100000.0, 0.0, 16384, 2048000.0)[0], src, IqFormat.FLOAT32)
    argv = [*words, "--rate", RATE, *(CAPTURE_FLAGS if words[0] == "generate" else []),
            *FULL_RUNS[words]]
    argv = [str(src) if a == "SRC" else str(tmp_path / f"out{i}") if a == "OUT" else a
            for i, a in enumerate(argv)]
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=RecordingNamespace())
    reads.clear()
    handler = {"generate": cli.cmd_generate, "cancel": cli.cmd_cancel,
               "analyze": cli.cmd_analyze}[words[0]]
    assert handler(args) == 0
    declared = {a.dest for a in dict(leaf_parsers())[words]._actions
                if not isinstance(a, argparse._HelpAction)}
    assert declared - reads == set()


class TestParameterErrors:
    """Each bad setting exits 2 with `error:` before any output file is written."""

    def expect_error(self, capsys, argv, message, outputs=()):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not any(p.exists() for p in outputs)

    def expect_usage_error(self, capsys, argv, message, outputs=(), usage="usage: stsa "):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert err.startswith(usage), err
        assert not any(p.exists() for p in outputs)

    @staticmethod
    def band_message(band):
        lo, hi = map(float, band)
        return f"band ({lo}, {hi}) is not increasing inside the Nyquist span ±1024000.0"

    def tone_file(self, tmp_path, n=16384):
        src = tmp_path / "tone.iq"
        write_iq(siggen.gen_tone(1.0, 100000.0, 0.0, n, 2048000.0)[0], src, IqFormat.FLOAT32)
        return src

    @pytest.mark.parametrize("band", [("5000", "-5000"), ("nan", "nan"), ("2000000", "3000000")])
    def test_cancel_band_checked_before_any_output(self, tmp_path, capsys, band):
        src = self.tone_file(tmp_path, n=2560)
        outputs = [tmp_path / "r.iq", tmp_path / "t.csv", tmp_path / "rep.csv"]
        self.expect_error(capsys, [
            "cancel", "--in", str(src), "--rate", RATE, "--band", *band,
            "--out-residual", str(outputs[0]), "--out-tracks", str(outputs[1]),
            "--report", str(outputs[2])], self.band_message(band), outputs)

    @pytest.mark.parametrize("n", [0, 2560, 8192])
    def test_cancel_capture_shorter_than_a_report_segment(self, tmp_path, capsys, n):
        # --band's report needs one 16,384-sample segment at the default 125 Hz resolution
        src = self.tone_file(tmp_path, n=n)
        outputs = [tmp_path / "r.iq", tmp_path / "e.iq", tmp_path / "t.csv", tmp_path / "rep.csv"]
        self.expect_error(capsys, [
            "cancel", "--in", str(src), "--rate", RATE, "--band", "90000", "110000",
            "--out-residual", str(outputs[0]), "--out-estimate", str(outputs[1]),
            "--out-tracks", str(outputs[2]), "--report", str(outputs[3])],
            "stream too short: need at least 16384 samples", outputs)

    @pytest.mark.parametrize("flags", [["--grid-frac", "1e-7"], ["--n", "16777216"]])
    def test_cancel_search_table_over_budget(self, tmp_path, flags):
        # a child under a 2 GiB address-space cap: a table built anyway fails fast, not the host
        src, resid = self.tone_file(tmp_path, n=1000), tmp_path / "r.iq"
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "from stsa.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))")
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", child, "cancel", "--in", str(src), "--rate",
                               RATE, *flags, "--out-residual", str(resid)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: block_len_n "), done.stderr
        assert "fine_grid_fraction" in done.stderr and "over the budget of 2**24" in done.stderr
        assert not resid.exists()

    @pytest.mark.parametrize("band", [("nan", "1"), ("5000", "-5000"), ("2000000", "3000000")])
    def test_analyze_suppression_band_checked(self, tmp_path, capsys, band):
        src = self.tone_file(tmp_path)
        out = tmp_path / "rep.csv"
        self.expect_error(capsys, [
            "analyze", "suppression", "--before", str(src), "--after", str(src),
            "--band", *band, "--rate", RATE, "--out", str(out)], self.band_message(band), [out])

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_cancel_rate_must_be_positive_and_finite(self, tmp_path, capsys, rate):
        src = self.tone_file(tmp_path, n=2560)
        resid = tmp_path / "r.iq"
        self.expect_error(capsys, [
            "cancel", "--in", str(src), "--rate", rate, "--out-residual", str(resid)],
            "sample_rate_hz must be positive and finite", [resid])

    @pytest.mark.parametrize("length", [["--dur", "inf"], ["--dur", "nan"], ["--dur", "-1"],
                                        ["--dur", "1", "--rate", "inf"]])
    def test_generate_duration_must_give_a_sample_count(self, tmp_path, capsys, length):
        out = tmp_path / "x.iq"
        self.expect_error(capsys, ["generate", "tone", "--rate", RATE, *length,
                                   "--out", str(out)], "--dur ", [out])

    @pytest.mark.parametrize("rate", ["nan", "0", "-48000"])
    @pytest.mark.parametrize("kind", ["tone", "nbfm", "am"])
    def test_generate_rate_must_be_positive_and_finite(self, tmp_path, capsys, kind, rate):
        out = tmp_path / "x.iq"
        self.expect_error(capsys, ["generate", kind, f"--rate={rate}", "--n", "16",
                                   "--out", str(out)], "sample_rate_hz must be positive and finite",
                          [out, tmp_path / "x.iq.truth.csv"])

    @pytest.mark.parametrize("kind", ["am", "tone"])
    def test_generate_negative_sample_count(self, tmp_path, capsys, kind):
        out = tmp_path / "x.iq"
        self.expect_error(capsys, ["generate", kind, "--rate", RATE, "--n", "-5",
                                   "--out", str(out)], "n must be nonnegative", [out])

    @pytest.mark.parametrize("what,flag,value,message", [
        ("spectrum", "--res", "1e-320", "resolution_hz 1e-320 is too fine"),
        ("waterfall", "--res", "1e-320", "resolution_hz 1e-320 is too fine"),
        ("spectrum", "--res", "1e-300", "resolution_hz 1e-300 is too fine"),
        ("waterfall", "--res", "1e-300", "resolution_hz 1e-300 is too fine"),
        ("waterfall", "--tres", "1e200", "t_res_s 1e+200 is too long"),
        ("waterfall", "--tres", "1e303", "t_res_s 1e+303 is too long"),
        ("waterfall", "--tres", "inf", "t_res_s must be positive and finite"),
        ("waterfall", "--tres", "nan", "t_res_s must be positive and finite"),
        ("waterfall", "--res", "nan", "resolution_hz must be positive and finite"),
        ("spectrum", "--res", "nan", "resolution_hz must be positive and finite"),
        ("spectrum", "--res", "inf", "resolution_hz must be positive and finite"),
    ])
    def test_analyze_resolution_must_be_positive_and_finite(self, tmp_path, capsys, what, flag,
                                                            value, message):
        src = self.tone_file(tmp_path)
        out = tmp_path / "a.csv"
        self.expect_error(capsys, ["analyze", what, flag, value, "--in", str(src),
                                   "--rate", RATE, "--out", str(out)], message, [out])

    @pytest.mark.parametrize("argv,missing", [
        (["suppression", "--band", "1", "2"], "--before, --after"),
        (["suppression", "--before", "b.iq", "--after", "a.iq"], "--band"),
        (["spectrum"], "--in, --out"),
    ])
    def test_analyze_missing_inputs(self, tmp_path, monkeypatch, capsys, argv, missing):
        monkeypatch.chdir(tmp_path)
        self.expect_usage_error(capsys, ["analyze", *argv, "--rate", RATE],
                                f"the following arguments are required: {missing}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,code,message", [
        (["spectrum"], 2, "error: the following arguments are required: --in, --out"),
        (["spectrum", "--in", "missing.iq", "--out", "s.csv"], 1, "i/o error: "),
    ], ids=["usage", "io"])
    def test_entry_exits_with_the_code(self, tmp_path, monkeypatch, capsys, argv, code, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.argv", ["stsa", "analyze", *argv, "--rate", RATE])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_waterfall_without_out(self, tmp_path, capsys):
        src = self.tone_file(tmp_path)
        self.expect_usage_error(capsys, ["analyze", "waterfall", "--in", str(src), "--rate", RATE],
                                "the following arguments are required: --out")
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("what", ["spectrum", "waterfall"])
    def test_analyze_out_checked_before_the_input_is_read(self, tmp_path, capsys, what):
        self.expect_usage_error(capsys, ["analyze", what, "--in", str(tmp_path / "missing.iq"),
                                         "--rate", RATE],
                                "the following arguments are required: --out")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("setting,message", [
        ("--passes=0", "passes must be at least 1"), ("--passes=-1", "passes must be at least 1"),
        ("--jump-limit=0", "jump_limit_bins must be positive"),
        ("--jump-limit=nan", "jump_limit_bins must be positive"),
    ])
    def test_cancel_settings_checked_before_the_input_is_read(self, tmp_path, capsys, setting,
                                                               message):
        resid = tmp_path / "r.iq"
        self.expect_error(capsys, ["cancel", "--in", str(tmp_path / "missing.iq"), "--rate", RATE,
                                   setting, "--out-residual", str(resid)], message, [resid])

    @pytest.mark.parametrize("argv", [
        ["cancel", "--in", "missing.iq", "--rate", RATE, "--out-residual", "e.iq",
         "--out-estimate", "e.iq"],
        ["cancel", "--in", "missing.iq", "--rate", RATE, "--out-residual", "r.iq",
         "--band", "-5000", "5000", "--out-tracks", "t.csv", "--report", "t.csv"],
        ["cancel", "--in", "missing.iq", "--rate", RATE, "--out-residual", "./d/../r.iq",
         "--out-tracks", "{tmp}/r.iq"],
        ["generate", "tone", "--n", "64", "--rate", "1000", "--out", "x.iq", "--truth", "x.iq"],
    ], ids=["residual-estimate", "tracks-report", "relative-absolute", "generate-truth"])
    def test_two_outputs_that_name_one_file_are_rejected_before_the_input_is_read(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        self.expect_error(capsys, [a.format(tmp=tmp_path) for a in argv],
                          "two output flags name one file, ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["cancel", "--in", "tone.iq", "--out-residual", "tone.iq"],
        ["cancel", "--in", "tone.iq", "--out-residual", "hard.iq"],
        ["cancel", "--in", "tone.iq", "--out-residual", "r.iq", "--out-estimate", "link.iq"],
        ["cancel", "--in", "tone.iq", "--out-residual", "r.iq", "--out-tracks", "{tmp}/tone.iq"],
        ["cancel", "--in", "tone.iq", "--out-residual", "r.iq", "--band", "90000", "110000",
         "--report", "./tone.iq"],
        ["analyze", "spectrum", "--in", "tone.iq", "--out", "tone.iq"],
        ["analyze", "waterfall", "--in", "tone.iq", "--out", "link.iq"],
        ["analyze", "suppression", "--before", "tone.iq", "--after", "r.iq",
         "--band", "90000", "110000", "--out", "tone.iq"],
        ["analyze", "suppression", "--before", "r.iq", "--after", "tone.iq",
         "--band", "90000", "110000", "--out", "tone.iq"],
    ], ids=["cancel-residual", "cancel-residual-hard-link", "cancel-estimate-symlink",
            "cancel-tracks", "cancel-report", "spectrum", "waterfall-symlink",
            "suppression-before", "suppression-after"])
    def test_an_output_that_names_an_input_is_rejected_before_it_is_read(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        src = self.tone_file(tmp_path)
        (tmp_path / "link.iq").symlink_to("tone.iq")
        (tmp_path / "hard.iq").hardlink_to("tone.iq")
        data = src.read_bytes()
        if "--before" in argv:
            (tmp_path / "r.iq").write_bytes(data)
        self.expect_error(capsys, [a.format(tmp=tmp_path) for a in argv] + ["--rate", RATE],
                          "an output flag names an input file, ")
        assert src.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["tone.iq", "link.iq", "hard.iq"] + ["r.iq"] * ("--before" in argv))

    def test_two_outputs_that_are_hard_links_of_one_file_are_rejected(self, tmp_path, capsys):
        src = self.tone_file(tmp_path, n=2560)
        resid, est = tmp_path / "r.iq", tmp_path / "e.iq"
        resid.write_bytes(b"old")
        est.hardlink_to(resid)
        self.expect_error(capsys, ["cancel", "--in", str(src), "--rate", RATE,
                                   "--out-residual", str(resid), "--out-estimate", str(est)],
                          "two output flags name one file, ")
        assert resid.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.iq", "r.iq", "tone.iq"]

    def test_a_device_may_take_several_outputs(self, tmp_path, capsys):
        src = self.tone_file(tmp_path, n=2560)
        assert run(["cancel", "--in", str(src), "--rate", RATE, "--out-residual", "/dev/null",
                    "--out-estimate", "/dev/null", "--out-tracks", "/dev/null"]) == 0
        assert run(["generate", "tone", "--n", "64", "--rate", "1000", "--out", "/dev/null",
                    "--truth", "/dev/null"]) == 0
        assert run(["cancel", "--in", "/dev/null", "--rate", RATE, "--out-residual",
                    "/dev/null"]) == 0
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("argv,message", [
        (["cancel", "--band", "5", "1"], "band (5.0, 1.0) is not increasing"),
        (["cancel", "--band", "0", "2e6"], "band (0.0, 2000000.0) is not increasing"),
        (["cancel", "--rate=nan"], "sample_rate_hz must be positive and finite"),
        (["analyze", "suppression", "--band", "5", "1"], "band (5.0, 1.0) is not increasing"),
        (["analyze", "suppression", "--band", "1", "5", "--rate=0"],
         "sample_rate_hz must be positive and finite"),
        (["analyze", "spectrum", "--rate=nan"], "sample_rate_hz must be positive and finite"),
    ])
    def test_rate_and_band_checked_before_the_input_is_read(self, tmp_path, capsys, argv,
                                                            message):
        missing, out = str(tmp_path / "missing.iq"), tmp_path / "out"
        files = {"cancel": ["--in", missing, "--out-residual", str(out)],
                 "suppression": ["--before", missing, "--after", missing, "--out", str(out)],
                 "spectrum": ["--in", missing, "--out", str(out)]}
        words = argv[:1] if argv[0] == "cancel" else argv[:2]  # flags follow the mode word
        self.expect_error(capsys, [*words, "--rate", RATE, *files[words[-1]],
                                   *argv[len(words):]], message, [out])

    # each mode's flags, given to another mode, even at the default (--psi 0.0); SRC stands for
    # an existing capture
    @pytest.mark.parametrize("argv,flag", [
        (["generate", "am", "--n", "64", "--psi", "1.0"], "--psi"),
        (["generate", "am", "--n", "64", "--dev", "9999", "--mod-tone", "300"], "--dev"),
        (["generate", "tone", "--n", "64", "--mod-tone", "300"], "--mod-tone"),
        (["generate", "tone", "--n", "64", "--mod-noise-bw", "1000", "--mod-noise-rms", "0.5"],
         "--mod-noise-bw"),
        (["generate", "nbfm", "--n", "64", "--mod-index", "0.9"], "--mod-index"),
        (["generate", "tone", "--n", "64", "--mod-freq", "300"], "--mod-freq"),
        (["generate", "am", "--n", "64", "--psi", "0.0", "--dev", "4000"], "--psi"),
        (["analyze", "spectrum", "--in", "SRC", "--tres", "5"], "--tres"),
        (["analyze", "waterfall", "--in", "SRC", "--band", "1", "2"], "--band"),
        (["analyze", "spectrum", "--in", "SRC", "--before", "SRC"], "--before"),
        (["analyze", "suppression", "--before", "SRC", "--after", "SRC", "--band", "-5000",
          "5000", "--in", "SRC"], "--in"),
    ])
    def test_a_flag_its_mode_does_not_read_is_rejected(self, tmp_path, capsys, argv, flag):
        src, out = str(self.tone_file(tmp_path)), tmp_path / "out"
        argv = [src if a == "SRC" else a for a in argv]
        self.expect_usage_error(capsys, [*argv, "--rate", RATE, "--out", str(out)],
                                f"unrecognized arguments: {flag}",
                                [out, tmp_path / "out.truth.csv"],
                                usage=f"usage: stsa {argv[0]} {argv[1]} [-h] ")  # the mode's own

    @pytest.mark.parametrize("mode", ["nbfm", "tone"])
    def test_snr_band_needs_snr(self, tmp_path, capsys, mode):
        # the one rule across two flags, which the parser cannot state: the handler checks it
        out = tmp_path / "out"
        self.expect_error(capsys, ["generate", mode, "--n", "64", "--snr-band", "-5000", "5000",
                                   "--rate", RATE, "--out", str(out)],
                          "--snr-band needs --snr", [out, tmp_path / "out.truth.csv"])

    @pytest.mark.parametrize("flags,message", [
        (["--mod-noise-bw", "nan"], "mod_noise_bw_hz must be positive"),
        (["--dev", "nan"], "deviation_hz must be nonnegative"),
        (["--amp", "nan"], "amp must be positive"),
        (["--mod-tone", "1000:nan"], r"modulating tone amplitudes must lie in [0, 1]"),
    ])
    def test_generate_nbfm_nan_setting(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.iq"
        self.expect_error(capsys, ["generate", "nbfm", "--rate", RATE, "--n", "4096", *flags,
                                   "--out", str(out)], message,
                          [out, tmp_path / "x.iq.truth.csv"])

    def test_generate_noise_rms_needs_noise_bw(self, tmp_path, capsys):
        # without --mod-noise-bw there is no noise for --mod-noise-rms to drive
        out = tmp_path / "x.iq"
        self.expect_error(capsys, ["generate", "nbfm", "--rate", RATE, "--n", "4096",
                                   "--mod-noise-rms", "0.5", "--out", str(out)],
                          "mod_noise_rms needs mod_noise_bw_hz", [out, tmp_path / "x.iq.truth.csv"])

    @pytest.mark.parametrize("exists", [True, False])
    def test_cancel_report_needs_band(self, tmp_path, capsys, exists):
        src = self.tone_file(tmp_path, n=2560) if exists else tmp_path / "missing.iq"
        outputs = [tmp_path / "r.iq", tmp_path / "rep.csv"]
        self.expect_error(capsys, [
            "cancel", "--in", str(src), "--rate", RATE, "--out-residual", str(outputs[0]),
            "--report", str(outputs[1])], "--report needs --band", outputs)

    def test_cancel_threshold_whose_power_ratio_overflows(self, tmp_path, capsys):
        src = self.tone_file(tmp_path, n=2560)
        resid = tmp_path / "r.iq"
        argv = ["cancel", "--in", str(src), "--rate", RATE, "--out-residual", str(resid)]
        self.expect_error(capsys, [*argv, "--threshold-db", "4000"],
                          "detect_threshold_db 4000.0 overflows", [resid])
        assert run([*argv, "--threshold-db", "3000"]) == 0

    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_generate_snr_whose_noise_variance_is_not_a_positive_float(self, tmp_path, capsys,
                                                                        snr):
        out = tmp_path / "x.iq"
        self.expect_error(capsys, [
            "generate", "tone", "--freq", "100", "--rate", RATE, "--n", "4096", "--snr", snr,
            "--snr-band", "-1000", "1000", "--out", str(out)],
            f"snr_db {float(snr)} gives a noise variance that is not positive and finite",
            [out, tmp_path / "x.iq.truth.csv"])

    @pytest.mark.parametrize("psi", ["nan", "inf"])
    def test_generate_tone_psi_must_be_finite(self, tmp_path, capsys, psi):
        out = tmp_path / "x.iq"
        self.expect_error(capsys, ["generate", "tone", "--rate", RATE, "--n", "64",
                                   "--psi", psi, "--out", str(out)],
                          "psi_rad must be finite", [out, tmp_path / "x.iq.truth.csv"])


class TestOutputsMatchLibrary:
    RATE_HZ = 2048000.0

    @pytest.mark.parametrize("flags,build", [
        (["am", "--freq", "20000", "--amp", "0.8", "--mod-index", "0.7", "--mod-freq", "500",
          "--n", "5000"],
         lambda rate: siggen.gen_am(20000.0, 0.8, 0.7, 500.0, 5000, rate)),
        (["nbfm", "--freq", "2000", "--mod-tone", "1000:0.5", "--mod-tone", "2500:0.25",
          "--dur", "0.01"],
         lambda rate: siggen.gen_nbfm(siggen.NbfmSpec(
             2000.0, 4000.0, 20480 / rate, mod_tones=((1000.0, 0.5), (2500.0, 0.25))), rate)),
    ])
    def test_generate_writes_the_library_signal(self, tmp_path, flags, build):
        out = tmp_path / "cli.iq"
        assert run(["generate", *flags, "--rate", RATE, "--out", str(out)]) == 0
        stream, truth = build(self.RATE_HZ)
        write_iq(stream, tmp_path / "lib.iq", IqFormat.FLOAT32)
        siggen.write_truth_csv(truth, tmp_path / "lib.csv")
        assert out.read_bytes() == (tmp_path / "lib.iq").read_bytes()
        assert (tmp_path / "cli.iq.truth.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_analyze_suppression_out_writes_the_library_report(self, tmp_path):
        src, resid = tmp_path / "src.iq", tmp_path / "resid.iq"
        stream, _ = siggen.gen_tone(1.0, 100000.0, 0.3, 65536, self.RATE_HZ)
        write_iq(stream, src, IqFormat.FLOAT32)
        assert run(["cancel", "--in", str(src), "--rate", RATE, "--out-residual", str(resid)]) == 0
        out = tmp_path / "cli.csv"
        assert run(["analyze", "suppression", "--before", str(src), "--after", str(resid),
                    "--band", "90000", "110000", "--rate", RATE, "--out", str(out)]) == 0
        report = metrics.suppression_report(read_iq(src, IqFormat.FLOAT32, self.RATE_HZ),
                                            read_iq(resid, IqFormat.FLOAT32, self.RATE_HZ),
                                            (90000.0, 110000.0))
        metrics.write_report_csv(report, tmp_path / "lib.csv")
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()
