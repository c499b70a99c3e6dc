"""Track assembly, waveform synthesis, and coherent subtraction.

Per-block sinusoid estimates are chained into tracks by greedy
nearest-frequency association; a track is the array of its row indices into
the estimate table, in block order.  All tracks are summed into one
noise-free waveform: between the centers of adjacent blocks the two blocks'
sinusoids are cross-faded linearly, which keeps the waveform continuous
while leaving each block's own estimate exact at its center, and samples no
estimate reaches stay exactly zero.  The rendered waveform is then subtracted
sample-by-sample from the original stream.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from itertools import chain, count, repeat

import numpy as np

from . import blockproc
from .blockproc import Estimates, StsaConfig
from .iq import SampleStream, write_csv

TRACKS_CSV_HEADER = "signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad"


def assemble_tracks(
    estimates: Estimates, config: StsaConfig, sample_rate_hz: float
) -> list[np.ndarray]:
    """Greedy nearest-frequency association of block estimates into tracks.

    Each track is the np.intp array of its rows of estimates, in block order;
    the tracks are listed in the order they open.

    Within a block, estimates are matched in peel order; each joins the open
    track whose last frequency is nearest, provided the jump stays under
    config.jump_limit_bins bins per elapsed block, otherwise it starts a new track.
    A track accepts at most one estimate per block.  Of the tracks at the
    nearest distance, the one opened first wins.
    """
    if not np.isfinite(estimates.freq_hz).all():
        raise ValueError("estimate frequencies must be finite")
    if np.any(estimates.block_index[1:] < estimates.block_index[:-1]):
        raise ValueError("blocks must be supplied in increasing index order")
    limit = config.jump_limit_bins * config.bin_width_hz(sample_rate_hz)  # per elapsed block
    members, ends = [], []  # per track: its rows, and the frequency and block it ends at
    by_freq = []  # (end frequency, track) of every track, sorted
    for row, (block, freq) in enumerate(zip(estimates.block_index.tolist(),
                                            estimates.freq_hz.tolist())):
        # rounding is monotonic, so walking outward from freq meets abs(freq - end) nearest first
        hi = bisect_left(by_freq, (freq,))
        lo = hi - 1
        best = best_dist = None
        while lo >= 0 or hi < len(by_freq):
            if hi == len(by_freq) or lo >= 0 and freq - by_freq[lo][0] <= by_freq[hi][0] - freq:
                (end, ti), lo = by_freq[lo], lo - 1
            else:
                (end, ti), hi = by_freq[hi], hi + 1
            dist = abs(freq - end)
            if best is not None and dist != best_dist:
                break
            # a track already extended in this block has 0 blocks elapsed, so its limit is
            # 0 (or NaN) and it takes no second estimate of the block
            if dist < limit * (block - ends[ti][1]) and (best is None or ti < best):
                best, best_dist = ti, dist
        if best is not None:
            del by_freq[bisect_left(by_freq, (ends[best][0], best))]
        else:
            best = len(members)
            members.append([])
            ends.append(None)
        members[best].append(row)
        ends[best] = freq, block
        insort(by_freq, (freq, best))
    return [np.array(rows, dtype=np.intp) for rows in members]


def _rows(rows: np.ndarray):
    """Increasing row indices as a slice when they are consecutive, so numpy works in place."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


# Samples in flight over all ranges' passes: few enough that the tone
# temporaries stay in cache, and that they do not grow with the CPU count.
_CHUNK_SAMPLES = 2**16


def synthesize(
    tracks: list[np.ndarray],
    stream_meta: tuple[int, float],
    config: StsaConfig,
    estimates: Estimates,
) -> np.ndarray:
    """Render every track, summed in list order, into one complex128 waveform
    of the stream's length.  Each track lists its rows of estimates, whose
    blocks must strictly increase.

    Between the centers of estimates in adjacent blocks the two sinusoids are
    blended as (1-a)*x_i + a*x_j with a running 0 -> 1; the outer half-blocks
    of a run of adjacent estimates use the nearest estimate unblended.
    Detection gaps wider than one block step are left at exact zeros rather
    than bridged, as is every sample no block reaches.

    Row r of the frame grid holds samples [ic0 + (r-1)*hop, ic0 + r*hop),
    ic0 = ceil((N-1)/2), so block b's entry spans rows b and b+1.  Its tone
    there is the outer product of two short phasor tables, both exactly 1 at
    the block center, so a center on the sample grid is amp*exp(j*phase).
    Each row adds block r-1's right half before block r's left half, so the
    sum does not depend on where a pass ends, nor on the ranges of
    ceil(rows / blockproc.worker_count(rows)) rows that blockproc.on_pool renders.
    """
    length, sample_rate_hz = stream_meta
    n = config.block_len_n
    hop = config.hop
    ic0 = n // 2  # ceil((n - 1) / 2)
    delta = ic0 - (n - 1) / 2.0
    per_track = []  # its rows, its blocks, and its left and right weight kinds
    for track in tracks:
        if not len(track):
            raise ValueError("cannot synthesize an empty track")
        blk = estimates.block_index[track]
        if blk[0] < 0:
            raise ValueError(f"block_index must be non-negative, got {blk[0]}")
        step = np.diff(blk)
        if np.any(step <= 0):
            raise ValueError("track block indices must be strictly increasing")
        gap = step > 1
        per_track.append((track, blk, np.where(np.r_[True, gap], 0, 1),
                          np.where(np.r_[gap, True], 3, 2)))
    last = max((int(blk[-1]) for _, blk, _, _ in per_track), default=-1)
    rows = max(-(-(hop - ic0 + length) // hop), last + 2)
    frames = np.zeros((rows, hop), dtype=np.complex128)
    # weight rows: left half-block where a run begins, blend in from the
    # previous center, blend out to the next, right half where it ends
    m = np.arange(hop)
    alpha = (delta + m) / hop
    weights = np.array([m >= hop - ic0, alpha, 1.0 - alpha, m < n - ic0], dtype=np.float64)
    s = math.isqrt(2 * hop)
    coarse = np.arange(-hop // s, (hop - 1) // s + 1)
    lo = -hop - s * coarse[0]  # column of offset -hop in the flattened table product
    coarse_dt, fine_dt = (delta + s * coarse) / sample_rate_hz, np.arange(s) / sample_rate_hz
    workers = blockproc.worker_count(rows)
    chunk = max(1, _CHUNK_SAMPLES // (workers * hop))  # entries per pass of one range

    def render(r0: int, r1: int) -> None:
        """Add every entry's halves that fall in frame rows [r0, r1)."""
        for track, blk, kind_l, kind_r in per_track:
            # blocks r0-1 .. r1-1: i0..j1 write right halves, j0..i1 left halves
            i0, j0, j1, i1 = np.searchsorted(blk, (r0 - 1, r0, r1 - 1, r1))
            for i in range(i0, i1, chunk):
                k = min(i + chunk, i1)
                amp, freq, phase = (c[track[i:k]] for c in (estimates.amp, estimates.freq_hz,
                                                            estimates.phase_rad))
                w = 2.0 * np.pi * freq[:, None]
                tables = (amp * np.exp(1j * phase))[:, None] * np.exp(1j * (w * coarse_dt))
                tones = tables[:, :, None] * np.exp(1j * (w * fine_dt))[:, None, :]
                tones = tones.reshape(len(tables), -1)[:, lo : lo + 2 * hop]
                kr, kl = min(k, j1), max(i, j0)
                frames[_rows(blk[i:kr] + 1)] += weights[kind_r[i:kr]] * tones[: kr - i, hop:]
                frames[_rows(blk[kl:k])] += weights[kind_l[kl:k]] * tones[kl - i :, :hop]

    blockproc.on_pool(rows, -(-rows // workers), render)
    return frames.reshape(-1)[hop - ic0 : hop - ic0 + length]


def combine_waveforms(waveforms: list[np.ndarray], length: int) -> np.ndarray:
    """Sum separately rendered waveforms into one cancelable estimate."""
    total = np.zeros(length, dtype=np.complex128)
    for w in waveforms:
        total += w
    return total


def cancel(original: SampleStream, waveform: np.ndarray) -> SampleStream:
    """Coherent subtraction: exact elementwise difference, the identity where waveform is 0.

    The caller hands the complex128 waveform over: the residual overwrites it.
    """
    if len(original) != waveform.size:
        raise ValueError(
            f"length mismatch: stream has {len(original)} samples, waveform has {waveform.size}"
        )
    residual = np.subtract(original.samples, waveform, out=waveform)
    return SampleStream(residual, original.sample_rate_hz)


def write_tracks_csv(passes, path) -> None:
    """Per-entry table with TRACKS_CSV_HEADER's columns from (estimates, tracks) pairs.

    The tracks get the signal ids 0..T-1 in pass order, then list order.
    """
    ids = count()
    write_csv(path, TRACKS_CSV_HEADER, "%d,%d,%.9f,%d,%.9g,%.6f,%.9f", chain.from_iterable(
        zip(repeat(signal_id), *(c[rows].tolist() for c in (
            est.block_index, est.t_center_s, est.peel_rank, est.amp, est.freq_hz, est.phase_rad)))
        for est, tracks in passes
        for rows, signal_id in zip(tracks, ids)))  # tracks first: no id is drawn past the end
