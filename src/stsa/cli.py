"""Command-line front end: generate, cancel, analyze.

All numeric outputs are CSV with fixed column orders (see --help of each
subcommand); IQ files are raw interleaved binaries handled by stsa.iq.
Exit codes: 0 success, 2 usage or parameter error, 1 runtime (I/O) error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

from . import blockproc, iq, metrics, siggen, synthesis
from .blockproc import StsaConfig
from .iq import IqFormat, SampleStream
from .synthesis import Track

WINDOW_FLAGS = {"tri": "triangular", "hamming": "hamming", "rect": "rectangular"}


@dataclass
class RunManifest:
    """Everything one cancellation run depends on, for reproducibility."""

    config: StsaConfig
    input_path: str
    residual_path: str | None = None
    estimate_path: str | None = None
    tracks_path: str | None = None
    report_path: str | None = None
    fmt: IqFormat = IqFormat.FLOAT32
    sample_rate_hz: float = 0.0
    seed: int | None = None
    band_hz: tuple[float, float] | None = None
    pass_count: int = 1
    strongest_only: bool = False
    jump_limit_bins: float = synthesis.DEFAULT_JUMP_LIMIT_BINS

    def __post_init__(self):
        if self.pass_count < 1:
            raise ValueError("pass_count must be at least 1")


@dataclass
class CancelResult:
    residual: SampleStream
    estimate: SampleStream
    tracks_per_pass: list = field(default_factory=list)
    blocks_per_pass: list = field(default_factory=list)


def run_cancel(
    stream: SampleStream,
    config: StsaConfig,
    passes: int = 1,
    strongest_only: bool = False,
    jump_limit_bins: float = synthesis.DEFAULT_JUMP_LIMIT_BINS,
    inter_pass_format: IqFormat | None = None,
) -> CancelResult:
    """Estimate-and-subtract the stream, optionally iterating on the residual.

    When inter_pass_format is set, the residual is round-tripped through that
    codec between passes, so an n-pass run is byte-identical to n chained
    single-pass runs over files of that format.
    """
    work = stream
    result = CancelResult(stream, stream)
    for p in range(passes):
        blocks = blockproc.process_stream(work, config)
        tracks = synthesis.assemble_tracks(blocks, config, work.sample_rate_hz, jump_limit_bins)
        if strongest_only and tracks:
            tracks = [max(tracks, key=Track.total_energy)]
        meta = (len(work), work.sample_rate_hz, work.t0_s)
        waves = [synthesis.synthesize(t, meta, config) for t in tracks]
        combined = synthesis.combine_waveforms(waves, len(work))
        residual = synthesis.cancel(work, combined)
        if inter_pass_format is not None and p < passes - 1:
            residual = iq.decode_iq(
                iq.encode_iq(residual, inter_pass_format),
                inter_pass_format,
                residual.sample_rate_hz,
                residual.t0_s,
            )
        result.blocks_per_pass.append(blocks)
        result.tracks_per_pass.append(tracks)
        work = residual
    result.residual = work
    result.estimate = SampleStream(
        stream.samples - work.samples, stream.sample_rate_hz, stream.t0_s
    )
    return result


def _add_shared_estimator_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=256, help="block length N in samples")
    p.add_argument("--window", choices=sorted(WINDOW_FLAGS), default="tri",
                   help="analysis window")
    p.add_argument("--threshold-db", type=float, default=10.0,
                   help="peak-over-median detection threshold")
    p.add_argument("--grid-frac", type=float, default=0.01,
                   help="fine search step as a fraction of the bin width")
    p.add_argument("--span-bins", type=float, default=1.0,
                   help="fine search half-width around the coarse peak, in bins")
    p.add_argument("--max-peel", type=int, default=8,
                   help="maximum sinusoids extracted per block")
    p.add_argument("--overlap", choices=["none", "half"], default="none",
                   help="block overlap mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stsa",
        description="Block-wise sinusoid estimation and coherent cancellation for IQ recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "generate",
        help="synthesize an IQ file with a truth sidecar",
        epilog="Truth sidecar CSV columns: sample_index, f_inst_hz, amplitude.",
    )
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--tone", action="store_true", help="stationary complex tone")
    kind.add_argument("--nbfm", action="store_true", help="narrowband FM carrier")
    kind.add_argument("--am", action="store_true", help="AM carrier")
    g.add_argument("--rate", type=float, required=True, help="sample rate in Hz")
    g.add_argument("--n", type=int, help="number of samples")
    g.add_argument("--dur", type=float, help="duration in seconds (alternative to --n)")
    g.add_argument("--freq", type=float, default=0.0, help="tone/AM carrier offset in Hz")
    g.add_argument("--offset", type=float, default=0.0, help="NBFM carrier offset in Hz")
    g.add_argument("--amp", type=float, default=1.0, help="carrier amplitude")
    g.add_argument("--psi", type=float, default=0.0, help="tone start phase in radians")
    g.add_argument("--dev", type=float, default=4000.0, help="NBFM peak deviation in Hz")
    g.add_argument("--mod-tone", action="append", default=None, metavar="FREQ[:AMP]",
                   help="NBFM modulating tone; repeat for a multi-tone sum")
    g.add_argument("--mod-noise-bw", type=float, default=None,
                   help="NBFM band-limited-noise modulation bandwidth in Hz")
    g.add_argument("--mod-noise-rms", type=float, default=None,
                   help="drive the noise modulation to this RMS (voice-like compression)")
    g.add_argument("--mod-index", type=float, default=0.5, help="AM modulation index")
    g.add_argument("--mod-freq", type=float, default=1000.0, help="AM modulating frequency")
    g.add_argument("--snr", type=float, default=math.inf,
                   help="in-band SNR of added white noise in dB (default: no noise)")
    g.add_argument("--snr-band", type=float, nargs=2, metavar=("LO", "HI"),
                   help="band the SNR is defined over (default: NBFM Carson band)")
    g.add_argument("--seed", type=int, default=0, help="RNG seed (modulation uses seed, noise seed+1)")
    g.add_argument("--format", choices=["i8", "f32"], default="f32")
    g.add_argument("--out", required=True, help="output IQ path")
    g.add_argument("--truth", default=None,
                   help="truth sidecar CSV path (default: <out>.truth.csv)")

    c = sub.add_parser(
        "cancel",
        help="estimate, synthesize, and subtract carriers",
        epilog="Track CSV columns: signal_id, block_index, t_center_s, peel_rank, "
               "amp, freq_hz, phase_rad.  Report CSV columns: band_lo_hz, band_hi_hz, "
               "power_before, power_after, suppression_db, out_of_band_delta_db, "
               "snr_in_band_db.",
    )
    c.add_argument("--in", dest="input", required=True, help="input IQ path")
    c.add_argument("--rate", type=float, required=True, help="sample rate in Hz")
    c.add_argument("--format", choices=["i8", "f32"], default="f32")
    _add_shared_estimator_flags(c)
    c.add_argument("--passes", type=int, default=1,
                   help="number of estimate-cancel iterations")
    c.add_argument("--strongest-only", action="store_true",
                   help="cancel only the highest-energy track")
    c.add_argument("--jump-limit", type=float, default=synthesis.DEFAULT_JUMP_LIMIT_BINS,
                   help="track association limit in bins per block step")
    c.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                   help="signal band for the suppression report")
    c.add_argument("--seed", type=int, default=None, help="recorded in the manifest")
    c.add_argument("--out-residual", required=True, help="residual IQ path")
    c.add_argument("--out-estimate", default=None, help="estimated-waveform IQ path")
    c.add_argument("--out-tracks", default=None,
                   help="track CSV (signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad)")
    c.add_argument("--report", default=None, help="suppression report CSV path")

    a = sub.add_parser(
        "analyze",
        help="spectra, waterfalls, and suppression reports",
        epilog="Spectrum CSV columns: freq_hz, power (density, linear units).  "
               "Waterfall CSV: header row of frequencies, then one row per time "
               "cell starting with time_s.",
    )
    what = a.add_mutually_exclusive_group(required=True)
    what.add_argument("--spectrum", action="store_true", help="averaged power spectrum CSV")
    what.add_argument("--waterfall", action="store_true", help="dynamic spectrum CSV")
    what.add_argument("--suppression", action="store_true", help="before/after band report")
    a.add_argument("--in", dest="input", help="input IQ path (spectrum/waterfall)")
    a.add_argument("--before", help="pre-cancellation IQ path (suppression)")
    a.add_argument("--after", help="post-cancellation IQ path (suppression)")
    a.add_argument("--rate", type=float, required=True, help="sample rate in Hz")
    a.add_argument("--format", choices=["i8", "f32"], default="f32")
    a.add_argument("--res", type=float, default=125.0, help="spectral resolution in Hz")
    a.add_argument("--tres", type=float, default=0.008, help="waterfall time resolution in s")
    a.add_argument("--fres", type=float, default=125.0, help="waterfall frequency resolution in Hz")
    a.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"),
                   help="signal band for the suppression report")
    a.add_argument("--out", default=None, help="output CSV path")
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
    if args.n is None and args.dur is None:
        raise ValueError("one of --n or --dur is required")
    if args.n is not None:
        return args.n
    return int(round(args.dur * args.rate))


def cmd_generate(args) -> int:
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
            carrier_offset_hz=args.offset,
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
    siggen.write_truth_csv(truth, args.truth or args.out + ".truth.csv")
    print(f"wrote {len(stream)} samples to {args.out}")
    return 0


def execute_manifest(manifest: RunManifest) -> CancelResult:
    stream = iq.read_iq(manifest.input_path, manifest.fmt, manifest.sample_rate_hz)
    result = run_cancel(
        stream,
        manifest.config,
        passes=manifest.pass_count,
        strongest_only=manifest.strongest_only,
        jump_limit_bins=manifest.jump_limit_bins,
        inter_pass_format=manifest.fmt,
    )
    if manifest.residual_path:
        iq.write_iq(result.residual, manifest.residual_path, manifest.fmt)
    if manifest.estimate_path:
        iq.write_iq(result.estimate, manifest.estimate_path, manifest.fmt)
    if manifest.tracks_path:
        all_tracks = []
        offset = 0
        for pass_tracks in result.tracks_per_pass:
            for trk in pass_tracks:
                all_tracks.append(Track(trk.entries, trk.signal_id + offset))
            offset += len(pass_tracks)
        synthesis.write_tracks_csv(all_tracks, manifest.tracks_path)
    if manifest.band_hz is not None:
        report = metrics.suppression_report(stream, result.residual, manifest.band_hz)
        print(metrics.format_report(report))
        if manifest.report_path:
            metrics.write_report_csv(report, manifest.report_path)
    return result


def cmd_cancel(args) -> int:
    config = StsaConfig(
        block_len_n=args.n,
        window=WINDOW_FLAGS[args.window],
        detect_threshold_db=args.threshold_db,
        fine_grid_fraction=args.grid_frac,
        fine_search_span_bins=args.span_bins,
        max_peel=args.max_peel,
        overlap=args.overlap,
    )
    manifest = RunManifest(
        config=config,
        input_path=args.input,
        residual_path=args.out_residual,
        estimate_path=args.out_estimate,
        tracks_path=args.out_tracks,
        report_path=args.report,
        fmt=IqFormat(args.format),
        sample_rate_hz=args.rate,
        seed=args.seed,
        band_hz=tuple(args.band) if args.band else None,
        pass_count=args.passes,
        strongest_only=args.strongest_only,
        jump_limit_bins=args.jump_limit,
    )
    result = execute_manifest(manifest)
    n_tracks = sum(len(t) for t in result.tracks_per_pass)
    print(f"wrote residual to {manifest.residual_path} ({n_tracks} tracks over "
          f"{manifest.pass_count} pass(es))")
    return 0


def cmd_analyze(args) -> int:
    fmt = IqFormat(args.format)
    if args.suppression:
        if not args.before or not args.after or not args.band:
            raise ValueError("--suppression needs --before, --after, and --band")
        before = iq.read_iq(args.before, fmt, args.rate)
        after = iq.read_iq(args.after, fmt, args.rate)
        report = metrics.suppression_report(before, after, tuple(args.band),
                                            resolution_hz=args.res)
        print(metrics.format_report(report))
        if args.out:
            metrics.write_report_csv(report, args.out)
        return 0
    if not args.input:
        raise ValueError("--in is required for --spectrum/--waterfall")
    stream = iq.read_iq(args.input, fmt, args.rate)
    if args.spectrum:
        frame = metrics.power_spectrum(stream, args.res)
        if not args.out:
            raise ValueError("--spectrum needs --out")
        metrics.write_spectrum_csv(frame, args.out)
        print(f"wrote {frame.freqs_hz.size}-bin spectrum to {args.out}")
    else:
        ds = metrics.dynamic_spectrum(stream, args.tres, args.fres)
        if not args.out:
            raise ValueError("--waterfall needs --out")
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
