"""Span tracing from outside the program, and the per-layer metrics it gives.

A Tracer replaces public functions of the stsa modules with wrappers that
record one span per call: name, start, end, parent span, run id, plus counts
observed at that boundary (blocks, estimates, bytes, ...).  Spans stay in
memory until write_spans().  No stsa source is edited; restore() puts the
original functions back.

Calls between stsa modules go through module attributes (cli.py calls
`blockproc.process_stream`, estimate_block calls its module's
`detect_peak`), so patching the attribute catches every call the pipeline
makes.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# Bytes one synthesize() call allocates per sample: a complex128 output and
# a bool coverage mask.
SYNTH_BYTES_PER_SAMPLE = 17
CODEC_SPANS = ("iq.encode_iq", "iq.decode_iq")
FILE_SPANS = ("iq.read_iq", "iq.write_iq")


class Tracer:
    """In-memory span recorder around patched module functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, counts]
        self.run_id = ""
        self._stack = []
        self._patched = []

    def patch(self, module, func_name: str, observe=None):
        """Wrap module.func_name; observe(args, kwargs, result) -> counts dict."""
        original = getattr(module, func_name)
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{func_name}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [span_name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.run_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        setattr(module, func_name, traced)
        self._patched.append((module, func_name, original))

    def restore(self):
        for module, func_name, original in reversed(self._patched):
            setattr(module, func_name, original)
        self._patched.clear()

    def parent_name(self, span) -> str | None:
        return None if span[3] is None else self.spans[span[3]][0]

    def run_spans(self, run_id):
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]

    def write_spans(self, path):
        """One CSV row per span: run_id, span_id, parent_id, name, start_s, end_s, counts."""
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s,counts\n")
            for i, (name, start, end, parent, run_id, counts) in enumerate(self.spans):
                parent_field = "" if parent is None else parent
                count_field = ";".join(f"{k}={v}" for k, v in (counts or {}).items())
                fh.write(f"{run_id},{i},{parent_field},{name},{start:.9f},{end:.9f},"
                         f"{count_field}\n")


def patch_pipeline(tracer: Tracer, stsa):
    """Wrap the public functions the cancel pipeline calls, layer by layer."""
    blockproc, synthesis, iq, metrics = stsa.blockproc, stsa.synthesis, stsa.iq, stsa.metrics

    def grid_cmacs(args, kwargs, result):
        block, config = args[0], args[3]
        grid = 2 * int(round(config.fine_search_span_bins / config.fine_grid_fraction)) + 1
        return {"refine_cmacs": grid * block.size}

    def long_tracks(args, kwargs, result):
        half = len(args[0]) // 2
        return {"tracks": len(result),
                "tracks_long": sum(1 for t in result if len(t) > half),
                "track_lens": [len(t) for t in result]}

    tracer.patch(blockproc, "process_stream", lambda a, k, r: {
        "blocks": len(r), "estimates": sum(len(b.estimates) for b in r)})
    tracer.patch(blockproc, "estimate_block")
    tracer.patch(blockproc, "detect_peak", lambda a, k, r: {"detect_hits": int(r is not None)})
    tracer.patch(blockproc, "refine_frequency", grid_cmacs)
    tracer.patch(blockproc, "estimate_amp_phase")
    tracer.patch(blockproc, "subtract_sinusoid")
    tracer.patch(synthesis, "assemble_tracks", long_tracks)
    tracer.patch(synthesis, "synthesize", lambda a, k, r: {
        "buffer_bytes": a[1][0] * SYNTH_BYTES_PER_SAMPLE})
    tracer.patch(synthesis, "combine_waveforms")
    tracer.patch(synthesis, "cancel")
    tracer.patch(synthesis, "write_tracks_csv")
    tracer.patch(iq, "read_iq", lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    tracer.patch(iq, "write_iq", lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    tracer.patch(iq, "encode_iq", lambda a, k, r: {"bytes": len(r)})
    tracer.patch(iq, "decode_iq", lambda a, k, r: {"bytes": len(a[0])})
    tracer.patch(metrics, "suppression_report")
    tracer.patch(metrics, "write_report_csv")


def patch_siggen(tracer: Tracer, siggen):
    for func_name in ("gen_nbfm", "gen_am", "mix", "add_awgn"):
        tracer.patch(siggen, func_name)


def top_level_seconds(tracer: Tracer, run_id) -> float:
    return sum(s[2] - s[1] for _, s in tracer.run_spans(run_id) if s[3] is None)


def pipeline_metrics(tracer: Tracer, run_id) -> dict:
    """Per-layer times and counts of one traced main() run.

    A time named *_s is the summed duration of that function's spans, except
    where noted as self time (duration minus the child spans it contains).
    """
    run = tracer.run_spans(run_id)
    child = defaultdict(float)
    for _, s in run:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    total, self_time = defaultdict(float), defaultdict(float)
    calls, counts = Counter(), Counter()
    track_lens = []
    for i, s in run:
        name, dur = s[0], s[2] - s[1]
        total[name] += dur
        self_time[name] += dur - child[i]
        calls[name] += 1
        for key, value in (s[5] or {}).items():
            if key == "track_lens":
                track_lens.extend(value)
            elif key == "bytes":
                counts[f"{name}.bytes"] += value
                if name in CODEC_SPANS and tracer.parent_name(s) not in FILE_SPANS:
                    counts["interpass_bytes"] += value
            else:
                counts[key] += value

    detect_calls = calls["blockproc.detect_peak"]
    lens = np.asarray(track_lens or [0])
    return {
        "blockproc.process_stream_s": (total["blockproc.process_stream"], "s"),
        "blockproc.detect_s": (total["blockproc.detect_peak"], "s"),
        "blockproc.refine_s": (total["blockproc.refine_frequency"], "s"),
        "blockproc.amp_phase_s": (total["blockproc.estimate_amp_phase"], "s"),
        "blockproc.subtract_s": (total["blockproc.subtract_sinusoid"], "s"),
        "blockproc.block_self_s": (self_time["blockproc.estimate_block"], "s"),
        "blockproc.blocks": (counts["blocks"], "count"),
        "blockproc.estimates": (counts["estimates"], "count"),
        "blockproc.detect_calls": (detect_calls, "count"),
        "blockproc.detect_hits": (counts["detect_hits"], "count"),
        "blockproc.detect_hit_ratio": (
            counts["detect_hits"] / detect_calls if detect_calls else 0.0, "ratio"),
        "blockproc.refine_cmacs": (counts["refine_cmacs"], "count"),
        "synthesis.assemble_s": (total["synthesis.assemble_tracks"], "s"),
        "synthesis.synthesize_s": (total["synthesis.synthesize"], "s"),
        "synthesis.combine_s": (total["synthesis.combine_waveforms"], "s"),
        "synthesis.cancel_s": (total["synthesis.cancel"], "s"),
        "synthesis.write_tracks_s": (total["synthesis.write_tracks_csv"], "s"),
        "synthesis.tracks": (counts["tracks"], "count"),
        "synthesis.tracks_long": (counts["tracks_long"], "count"),
        "synthesis.track_len_p10": (float(np.percentile(lens, 10)), "count"),
        "synthesis.track_len_p50": (float(np.percentile(lens, 50)), "count"),
        "synthesis.track_len_p90": (float(np.percentile(lens, 90)), "count"),
        "synthesis.buffer_bytes": (counts["buffer_bytes"], "B"),
        # file I/O is the self time of read_iq/write_iq; codec_s is every
        # encode_iq/decode_iq call, inside read/write and between passes
        "iq.read_s": (self_time["iq.read_iq"], "s"),
        "iq.write_s": (self_time["iq.write_iq"], "s"),
        "iq.codec_s": (total["iq.encode_iq"] + total["iq.decode_iq"], "s"),
        "iq.bytes_read": (counts["iq.read_iq.bytes"], "B"),
        "iq.bytes_written": (counts["iq.write_iq.bytes"], "B"),
        "iq.interpass_bytes": (counts["interpass_bytes"], "B"),
        "metrics.report_s": (
            total["metrics.suppression_report"] + total["metrics.write_report_csv"], "s"),
    }


def median_metrics(per_run: list[dict]) -> dict:
    """Median of each metric over runs; counts repeat, so median_low keeps them exact."""
    return {
        name: ((statistics.median_low if unit in ("count", "B") else statistics.median)(
            [run[name][0] for run in per_run]), unit)
        for name, (_, unit) in per_run[0].items()
    }
