"""Correctness gate applied to the outputs of every benchmarked cancel run.

Reads the files with numpy alone, so it does not trust the stsa code it
checks.  check_run() returns a list of problems (empty when the run passes)
and the counts and report values the outputs show.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

TRACKS_HEADER = ["signal_id", "block_index", "t_center_s", "peel_rank", "amp", "freq_hz",
                 "phase_rad"]
REPORT_HEADER = ["band_lo_hz", "band_hi_hz", "power_before", "power_after", "suppression_db",
                 "out_of_band_delta_db", "snr_in_band_db"]
BYTES_PER_SAMPLE = {"i8": 2, "f32": 8}
CHUNK = 1 << 21  # interleaved components compared per step


def _components(path, fmt, offset, count):
    dtype = np.dtype(np.int8 if fmt == "i8" else "<f4")
    raw = np.fromfile(path, dtype=dtype, count=count, offset=offset * dtype.itemsize)
    return raw.astype(np.int64) if fmt == "i8" else raw.astype(np.float64)


def sum_mismatches(input_path, residual_path, estimate_path, fmt, n_components) -> int:
    """Components where residual + estimate differs from the input by more than
    the format's quantisation step.

    The CLI writes estimate = input - residual before encoding, so the two
    encoded files each round by at most half a step: one int8 step in total,
    or one float32 spacing of each of the three values.
    """
    bad = 0
    for offset in range(0, n_components, CHUNK):
        count = min(CHUNK, n_components - offset)
        x = _components(input_path, fmt, offset, count)
        r = _components(residual_path, fmt, offset, count)
        e = _components(estimate_path, fmt, offset, count)
        if fmt == "i8":
            bad += int(np.count_nonzero(np.abs(r + e - x) > 1))
        else:
            tol = 2.0**-23 * (np.abs(r) + np.abs(e) + np.abs(x))
            bad += int(np.count_nonzero(~(np.abs(r + e - x) <= tol)))
    return bad


def read_tracks(path, workload, blocks_per_pass, problems) -> dict:
    """Structural checks that the track CSV holds one row per estimate.

    Each (signal_id, block_index) pair is unique, peel ranks of a block are
    contiguous from 0 in every pass, and every track id 0..T-1 is used.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACKS_HEADER:
        problems.append("track CSV header mismatch")
        return {}
    seen = set()
    track_len = {}
    rank_count = {}
    for row in rows[1:]:
        if len(row) != len(TRACKS_HEADER):
            problems.append(f"track CSV row with {len(row)} fields")
            return {}
        sid, block, rank = int(row[0]), int(row[1]), int(row[3])
        if not 0 <= block < blocks_per_pass or not 0 <= rank < workload.max_peel:
            problems.append(f"track CSV block {block} rank {rank} out of range")
            return {}
        if not all(math.isfinite(float(v)) for v in row[2:]):
            problems.append("track CSV holds a non-finite value")
            return {}
        if (sid, block) in seen:
            problems.append(f"track {sid} has two rows for block {block}")
        seen.add((sid, block))
        track_len[sid] = track_len.get(sid, 0) + 1
        rank_count[(block, rank)] = rank_count.get((block, rank), 0) + 1
    if sorted(track_len) != list(range(len(track_len))):
        problems.append("track ids are not contiguous from 0")
    for (block, rank), n in rank_count.items():
        if n > workload.passes or (rank and rank_count.get((block, rank - 1), 0) < n):
            problems.append(f"block {block}: peel ranks are not contiguous per pass")
            break
    lens = sorted(track_len.values())
    return {
        "blocks": blocks_per_pass * workload.passes,
        "estimates": len(rows) - 1,
        "tracks": len(lens),
        "tracks_long": sum(1 for n in lens if n > blocks_per_pass // 2),
        **{f"track_len_p{q}": float(np.percentile(lens, q)) if lens else 0.0
           for q in (10, 50, 90)},
    }


def read_report(path, workload, problems) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0] != REPORT_HEADER:
        problems.append("report CSV is not a header plus one row")
        return {}
    values = dict(zip(REPORT_HEADER, rows[1]))
    band = (float(values["band_lo_hz"]), float(values["band_hi_hz"]))
    supp = float(values["suppression_db"])
    delta = float(values["out_of_band_delta_db"])
    if band != tuple(workload.band_hz):
        problems.append(f"report band {band} != {workload.band_hz}")
    if not (math.isfinite(supp) and math.isfinite(delta)):
        problems.append("report values are not finite")
    if workload.acceptance is not None:
        min_supp, max_delta = workload.acceptance
        if not supp >= min_supp:
            problems.append(f"suppression {supp:.2f} dB below the {min_supp} dB floor")
        if not abs(delta) <= max_delta:
            problems.append(f"out-of-band delta {delta:+.3f} dB beyond ±{max_delta} dB")
    return {"suppression_db": supp, "out_of_band_delta_db": delta}


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


def check_run(workload, returncode, input_path, out) -> tuple[list, dict]:
    """Gate one run: exit code, file sizes, residual + estimate = input,
    track CSV structure, report values and acceptance floors.

    out maps residual/estimate/tracks/report to paths.
    """
    problems = []
    if returncode != 0:
        return [f"exit code {returncode}"], {}
    size = input_path.stat().st_size
    for key in ("residual", "estimate"):
        got = out[key].stat().st_size if out[key].exists() else None
        if got != size:
            problems.append(f"{key} holds {got} bytes, input {size}")
    problems += [f"no {key} file" for key in ("tracks", "report") if not out[key].exists()]
    if problems:
        return problems, {}
    per_sample = BYTES_PER_SAMPLE[workload.fmt]
    n_samples = size // per_sample
    bad = sum_mismatches(input_path, out["residual"], out["estimate"], workload.fmt,
                         2 * n_samples)
    if bad:
        problems.append(f"residual + estimate differs from the input in {bad} components")
    blocks_per_pass = n_samples // workload.block_len_n
    found = read_tracks(out["tracks"], workload, blocks_per_pass, problems)
    found.update(read_report(out["report"], workload, problems))
    return problems, found
