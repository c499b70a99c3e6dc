"""Command-line front end: generate, cancel, analyze.

All numeric outputs are CSV with fixed column orders (see --help of each
subcommand); IQ files are raw interleaved binaries handled by stsa.iq.
Exit codes: 0 success, 2 usage or parameter error, 1 runtime (I/O) error.
`cancel` writes its output files and computes its report concurrently.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

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

    g = sub.add_parser(
        "generate", parents=[stream_flags], formatter_class=raw,
        help="synthesize an IQ file with a truth sidecar",
        epilog=f"Truth sidecar CSV columns:\n  {siggen.TRUTH_CSV_HEADER}",
    )
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--tone", action="store_true", help="stationary complex tone")
    kind.add_argument("--nbfm", action="store_true", help="narrowband FM carrier")
    kind.add_argument("--am", action="store_true", help="AM carrier")
    size = g.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="number of samples")
    size.add_argument("--dur", type=float, help="duration in seconds")
    g.add_argument("--freq", type=float, default=0.0, help="carrier offset in Hz")
    g.add_argument("--amp", type=float, default=1.0, help="carrier amplitude")
    g.add_argument("--psi", type=float, default=0.0, help="tone start phase in radians")
    g.add_argument("--dev", type=float, default=4000.0, help="NBFM peak deviation in Hz")
    g.add_argument("--mod-tone", action="append", metavar="FREQ[:AMP]",
                   help="NBFM modulating tone; repeat for a multi-tone sum")
    g.add_argument("--mod-noise-bw", type=float,
                   help="NBFM band-limited-noise modulation bandwidth in Hz")
    g.add_argument("--mod-noise-rms", type=float,
                   help="drive the noise modulation to this RMS (voice-like compression)")
    g.add_argument("--mod-index", type=float, default=0.5, help="AM modulation index")
    g.add_argument("--mod-freq", type=float, default=1000.0, help="AM modulating frequency")
    g.add_argument("--snr", type=float, default=math.inf,
                   help="in-band SNR of added white noise in dB (default: no noise)")
    g.add_argument("--snr-band", type=float, nargs=2, metavar=("LO", "HI"),
                   help="band the SNR is defined over (default: NBFM Carson band)")
    g.add_argument("--seed", type=int, default=0, help="RNG seed (modulation uses seed, noise seed+1)")
    g.add_argument("--out", required=True, help="output IQ path")
    g.add_argument("--truth", help="truth sidecar CSV path (default: <out>.truth.csv)")

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
        "analyze", parents=[stream_flags], formatter_class=raw,
        help="spectra, waterfalls, and suppression reports",
        epilog=f"Spectrum CSV columns (power is a density):\n  {metrics.SPECTRUM_CSV_HEADER}\n"
               "Waterfall CSV: time_s and the frequencies, then one row per time cell.\n"
               f"Report CSV columns:\n  {metrics.REPORT_CSV_HEADER}",
    )
    what = a.add_mutually_exclusive_group(required=True)
    what.add_argument("--spectrum", action="store_true", help="averaged power spectrum CSV")
    what.add_argument("--waterfall", action="store_true", help="dynamic spectrum CSV")
    what.add_argument("--suppression", action="store_true", help="before/after band report")
    a.add_argument("--in", dest="input", help="input IQ path (spectrum/waterfall)")
    a.add_argument("--before", help="pre-cancellation IQ path (suppression)")
    a.add_argument("--after", help="post-cancellation IQ path (suppression)")
    a.add_argument("--res", type=float, default=metrics.DEFAULT_RESOLUTION_HZ,
                   help="frequency resolution in Hz")
    a.add_argument("--tres", type=float, default=0.008, help="waterfall time resolution in s")
    a.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                   help="signal band for the suppression report")
    a.add_argument("--out", help="output CSV path")
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
    snr_band = tuple(args.snr_band) if args.snr_band else None
    if args.tone:
        stream, truth = siggen.gen_tone(args.amp, args.freq, args.psi, n, args.rate)
    elif args.am:
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
    # The jobs only read the input and the residual, so they run concurrently, the report
    # (the longest) first.  Results are read in list order: the first failing job's error wins.
    jobs = [lambda: metrics.suppression_report(stream, result.residual, band)] if band else []
    jobs.append(lambda: iq.write_iq(result.residual, args.out_residual, fmt))
    if args.out_estimate:
        jobs.append(lambda: iq.write_iq(stream, args.out_estimate, fmt, minus=result.residual))
    if args.out_tracks:
        jobs.append(lambda: synthesis.write_tracks_csv(result.passes, args.out_tracks))
    with ThreadPoolExecutor(blockproc.worker_count(len(jobs))) as pool:
        report, *_ = [f.result() for f in [pool.submit(job) for job in jobs]]
    if band:
        print(metrics.format_report(report))
        if args.report:
            metrics.write_report_csv(report, args.report)
    n_tracks = sum(len(tracks) for _, tracks in result.passes)
    print(f"wrote residual to {args.out_residual} ({n_tracks} tracks over "
          f"{config.passes} pass(es))")
    return 0


def cmd_analyze(args) -> int:
    _check_distinct_outputs(args.out, inputs=[args.input, args.before, args.after])
    fmt = IqFormat(args.format)
    empty = iq.SampleStream([], args.rate)  # checks --rate and --band before any input is read
    if args.suppression:
        if not args.before or not args.after or not args.band:
            raise ValueError("--suppression needs --before, --after, and --band")
        band = empty.check_band(args.band)
        before = iq.read_iq(args.before, fmt, args.rate)
        after = iq.read_iq(args.after, fmt, args.rate)
        report = metrics.suppression_report(before, after, band, resolution_hz=args.res)
        print(metrics.format_report(report))
        if args.out:
            metrics.write_report_csv(report, args.out)
        return 0
    if not args.input:
        raise ValueError("--in is required for --spectrum/--waterfall")
    if not args.out:
        raise ValueError(f"--{'spectrum' if args.spectrum else 'waterfall'} needs --out")
    stream = iq.read_iq(args.input, fmt, args.rate)
    if args.spectrum:
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
    args = parser.parse_args(argv)
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
