"""Command-line front end: generate, cancel, analyze.

All numeric outputs are CSV with fixed column orders (see --help of each
subcommand); IQ files are raw interleaved binaries handled by stsa.iq.
Exit codes: 0 success, 2 usage or parameter error, 1 runtime (I/O) error.
`cancel` writes its output files and computes its report concurrently, on blockproc.on_pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import blockproc, iq, metrics, pipeline, siggen, synthesis
from .blockproc import OVERLAP_MODES, StsaConfig
from .iq import IqFormat


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stsa",
        description="Block-wise sinusoid estimation and coherent cancellation for IQ recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    raw = argparse.RawDescriptionHelpFormatter  # keeps each CSV header in an epilog on one line
    stream_flags = argparse.ArgumentParser(add_help=False)  # every subcommand reads IQ files
    stream_flags.add_argument("--rate", type=float, required=True, help="sample rate in Hz")
    stream_flags.add_argument("--format", choices=[f.value for f in IqFormat],
                              default=IqFormat.FLOAT32.value, help="IQ file sample encoding")

    # generate and analyze take a mode word, then the flags of that mode's own parser: those of
    # the subcommand's parent parser and the mode's, so another mode's flag is a usage error
    capture = argparse.ArgumentParser(add_help=False, parents=[stream_flags])
    size = capture.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="number of samples")
    size.add_argument("--dur", type=float, help="duration in seconds")
    capture.add_argument("--freq", type=float, default=0.0, help="carrier offset in Hz")
    capture.add_argument("--amp", type=float, default=1.0, help="carrier amplitude")
    capture.add_argument("--snr", type=float, default=math.inf,
                         help="in-band SNR of added white noise in dB (default: no noise)")
    capture.add_argument("--snr-band", type=float, nargs=2, metavar=("LO", "HI"),
                         help="band the SNR is defined over (default: NBFM Carson band)")
    capture.add_argument("--seed", type=int, default=0,
                         help="RNG seed (modulation uses seed, noise seed+1)")
    capture.add_argument("--out", required=True, help="output IQ path")
    capture.add_argument("--truth", help="truth sidecar CSV path (default: <out>.truth.csv)")
    g = sub.add_parser(
        "generate", formatter_class=raw, help="synthesize an IQ file with a truth sidecar",
        epilog=f"Truth sidecar CSV columns:\n  {siggen.TRUTH_CSV_HEADER}",
    ).add_subparsers(dest="mode", required=True)
    g.add_parser("tone", parents=[capture], help="stationary complex tone").add_argument(
        "--psi", type=float, default=0.0, help="tone start phase in radians")
    nbfm = g.add_parser("nbfm", parents=[capture], help="narrowband FM carrier")
    nbfm.add_argument("--dev", type=float, default=4000.0, help="peak deviation in Hz")
    nbfm.add_argument("--mod-tone", action="append", metavar="FREQ[:AMP]",
                      help="modulating tone; repeat for a multi-tone sum")
    nbfm.add_argument("--mod-noise-bw", type=float,
                      help="band-limited-noise modulation bandwidth in Hz")
    nbfm.add_argument("--mod-noise-rms", type=float,
                      help="drive the noise modulation to this RMS (voice-like compression)")
    am = g.add_parser("am", parents=[capture], help="AM carrier")
    am.add_argument("--mod-index", type=float, default=0.5, help="modulation index")
    am.add_argument("--mod-freq", type=float, default=1000.0, help="modulating frequency in Hz")

    c = sub.add_parser(
        "cancel", parents=[stream_flags], formatter_class=raw,
        help="estimate, synthesize, and subtract carriers",
        epilog=f"Track CSV columns:\n  {synthesis.TRACKS_CSV_HEADER}\n"
               f"Report CSV columns:\n  {metrics.REPORT_CSV_HEADER}",
    )
    c.add_argument("--in", dest="input", required=True, help="input IQ path")
    defaults = StsaConfig()  # one flag per field: dest is the field name, default its value
    c.add_argument("--n", dest="block_len_n", type=int, default=defaults.block_len_n,
                   help="block length N in samples")
    c.add_argument("--window", choices=blockproc.WINDOW_NAMES, default=defaults.window,
                   help="analysis window")
    c.add_argument("--threshold-db", dest="detect_threshold_db", type=float,
                   default=defaults.detect_threshold_db,
                   help="peak-over-median detection threshold")
    c.add_argument("--grid-frac", dest="fine_grid_fraction", type=float,
                   default=defaults.fine_grid_fraction,
                   help="fine search step as a fraction of the bin width")
    c.add_argument("--max-peel", type=int, default=defaults.max_peel,
                   help="maximum sinusoids extracted per block")
    c.add_argument("--overlap", choices=OVERLAP_MODES, default=defaults.overlap,
                   help="block overlap mode")
    c.add_argument("--passes", type=int, default=defaults.passes,
                   help="number of estimate-cancel iterations")
    c.add_argument("--strongest-only", action="store_true", default=defaults.strongest_only,
                   help="cancel only the highest-energy track")
    c.add_argument("--jump-limit", dest="jump_limit_bins", type=float,
                   default=defaults.jump_limit_bins,
                   help="track association limit in bins per block step")
    c.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                   help="signal band for the suppression report")
    c.add_argument("--out-residual", required=True, help="residual IQ path")
    c.add_argument("--out-estimate", help="estimated-waveform IQ path")
    c.add_argument("--out-tracks", help=f"track CSV ({synthesis.TRACKS_CSV_HEADER})")
    c.add_argument("--report", help="suppression report CSV path")

    a = sub.add_parser(
        "analyze", formatter_class=raw, help="spectra, waterfalls, and suppression reports",
        epilog=f"Spectrum CSV columns (power is a density):\n  {metrics.SPECTRUM_CSV_HEADER}\n"
               "Waterfall CSV: time_s and the frequencies, then one row per time cell.\n"
               f"Report CSV columns:\n  {metrics.REPORT_CSV_HEADER}",
    ).add_subparsers(dest="mode", required=True)
    spectral = argparse.ArgumentParser(add_help=False, parents=[stream_flags])
    spectral.add_argument("--res", type=float, default=metrics.DEFAULT_RESOLUTION_HZ,
                          help="frequency resolution in Hz")
    one_file = argparse.ArgumentParser(add_help=False, parents=[spectral])
    one_file.add_argument("--in", dest="input", required=True, help="input IQ path")
    one_file.add_argument("--out", required=True, help="output CSV path")
    a.add_parser("spectrum", parents=[one_file], help="averaged power spectrum CSV")
    a.add_parser("waterfall", parents=[one_file], help="dynamic spectrum CSV").add_argument(
        "--tres", type=float, default=0.008, help="time resolution in s")
    s = a.add_parser("suppression", parents=[spectral], help="before/after band report")
    s.add_argument("--before", required=True, help="pre-cancellation IQ path")
    s.add_argument("--after", required=True, help="post-cancellation IQ path")
    s.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"), required=True,
                   help="signal band for the report")
    s.add_argument("--out", help="report CSV path")
    return parser


def _parse_mod_tones(values) -> tuple:
    tones = []
    for v in values:
        if ":" in v:
            f, a = v.split(":", 1)
            tones.append((float(f), float(a)))
        else:
            tones.append((float(v), 1.0))
    return tuple(tones)


def _sample_count(args) -> int:
    if args.n is not None:
        return args.n
    if not 0 <= args.dur * args.rate < math.inf:
        raise ValueError(f"--dur {args.dur} s at --rate {args.rate} Hz is not a finite, "
                         "nonnegative sample count")
    return int(round(args.dur * args.rate))


def _check_distinct_outputs(*paths, inputs=()) -> None:
    """Reject two outputs that are one file, or an output that is an input's file
    (os.path.samefile: a symlink or hard link counts; an output not yet written is compared
    by os.path.realpath), unless the file exists and is not a regular one: /dev/null may
    repeat, as write_iq never removes such a file."""
    real = [os.path.realpath(p) for p in paths if p is not None]
    read = [p for p in inputs if p is not None and os.path.exists(p)]
    for i, path in enumerate(real):
        if os.path.isfile(path):
            if any(os.path.samefile(path, p) for p in read):
                raise ValueError(f"an output flag names an input file, {path}")
            same = any(os.path.isfile(q) and os.path.samefile(path, q) for q in real[:i])
        else:
            same = not os.path.exists(path) and path in real[:i]
        if same:
            raise ValueError(f"two output flags name one file, {path}")


def cmd_generate(args) -> int:
    truth_path = args.truth or args.out + ".truth.csv"
    _check_distinct_outputs(args.out, truth_path)
    fmt = IqFormat(args.format)
    n = _sample_count(args)
    iq.SampleStream([], args.rate)  # checks --rate before a generator reads it
    snr_band = tuple(args.snr_band) if args.snr_band else None
    if snr_band and args.snr == math.inf:
        raise ValueError("--snr-band needs --snr")
    if args.mode == "tone":
        stream, truth = siggen.gen_tone(args.amp, args.freq, args.psi, n, args.rate)
    elif args.mode == "am":
        stream, truth = siggen.gen_am(
            args.freq, args.amp, args.mod_index, args.mod_freq, n, args.rate
        )
    else:
        spec = siggen.NbfmSpec(
            carrier_offset_hz=args.freq,
            deviation_hz=args.dev,
            duration_s=n / args.rate,
            amp=args.amp,
            mod_tones=_parse_mod_tones(args.mod_tone) if args.mod_tone else (),
            mod_noise_bw_hz=args.mod_noise_bw,
            mod_noise_seed=args.seed,
            mod_noise_rms=args.mod_noise_rms,
        )
        stream, truth = siggen.gen_nbfm(spec, args.rate)
        if snr_band is None:
            snr_band = spec.carson_band_hz()
    if args.snr != math.inf:
        if snr_band is None:
            raise ValueError("--snr needs --snr-band (only NBFM has a default band)")
        stream = siggen.add_awgn(stream, args.snr, snr_band, args.seed + 1)
        full_band_snr = args.snr - 10 * math.log10(args.rate / (snr_band[1] - snr_band[0]))
        print(f"in-band SNR {args.snr:.1f} dB over {snr_band[0]:.0f}..{snr_band[1]:.0f} Hz "
              f"(full-band {full_band_snr:.1f} dB)")
    iq.write_iq(stream, args.out, fmt)
    siggen.write_truth_csv(truth, truth_path)
    print(f"wrote {len(stream)} samples to {args.out}")
    return 0


def cmd_cancel(args) -> int:
    config = StsaConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(StsaConfig)})
    fmt = IqFormat(args.format)
    if args.report and not args.band:
        raise ValueError("--report needs --band")
    _check_distinct_outputs(args.out_residual, args.out_estimate, args.out_tracks, args.report,
                            inputs=[args.input])
    empty = iq.SampleStream([], args.rate)  # checks --rate and --band before the input is read
    band = empty.check_band(args.band) if args.band else None
    stream = iq.read_iq(args.input, fmt, args.rate)
    if band:  # the report needs one whole segment: fail before any output is written
        metrics.segment_count(len(stream), args.rate)
    result = pipeline.run_cancel(stream, config, inter_pass_format=fmt)
    # The jobs only read the input and the residual, so they run concurrently on one pool, the
    # report (the longest) first: on_pool raises the first failing job's error in list order.
    jobs = [lambda: metrics.suppression_report(stream, result.residual, band)] if band else []
    jobs.append(lambda: iq.write_iq(result.residual, args.out_residual, fmt))
    if args.out_estimate:
        jobs.append(lambda: iq.write_iq(stream, args.out_estimate, fmt, minus=result.residual))
    if args.out_tracks:
        jobs.append(lambda: synthesis.write_tracks_csv(result.passes, args.out_tracks))
    report, *_ = blockproc.on_pool(len(jobs), 1, lambda i, _: jobs[i]())
    if band:
        print(metrics.format_report(report))
        if args.report:
            metrics.write_report_csv(report, args.report)
    n_tracks = sum(len(tracks) for _, tracks in result.passes)
    print(f"wrote residual to {args.out_residual} ({n_tracks} tracks over "
          f"{config.passes} pass(es))")
    return 0


def cmd_analyze(args) -> int:
    inputs = [args.before, args.after] if args.mode == "suppression" else [args.input]
    _check_distinct_outputs(args.out, inputs=inputs)
    fmt = IqFormat(args.format)
    empty = iq.SampleStream([], args.rate)  # checks --rate and --band before any input is read
    if args.mode == "suppression":
        band = empty.check_band(args.band)
        before = iq.read_iq(args.before, fmt, args.rate)
        after = iq.read_iq(args.after, fmt, args.rate)
        report = metrics.suppression_report(before, after, band, resolution_hz=args.res)
        print(metrics.format_report(report))
        if args.out:
            metrics.write_report_csv(report, args.out)
        return 0
    stream = iq.read_iq(args.input, fmt, args.rate)
    if args.mode == "spectrum":
        frame = metrics.power_spectrum(stream, args.res)
        metrics.write_spectrum_csv(frame, args.out)
        print(f"wrote {frame.freqs_hz.size}-bin spectrum to {args.out}")
    else:
        ds = metrics.dynamic_spectrum(stream, args.tres, args.res)
        metrics.write_dynamic_spectrum_csv(ds, args.out)
        print(f"wrote {ds.power.shape[0]}x{ds.power.shape[1]} waterfall to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # argparse hands a mode's extras up: report them with the mode's own usage line
        for word in (args.command, getattr(args, "mode", None)):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            parser = subs[0].choices[word] if subs else parser
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    handlers = {"generate": cmd_generate, "cancel": cmd_cancel, "analyze": cmd_analyze}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
