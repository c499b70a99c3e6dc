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
from itertools import count, repeat

import numpy as np

from .blockproc import Estimates, StsaConfig
from .iq import SampleStream

DEFAULT_JUMP_LIMIT_BINS = 0.5
TRACKS_CSV_HEADER = "signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad"


def check_jump_limit(jump_limit_bins: float) -> None:
    """Raise ValueError unless jump_limit_bins is positive (NaN is not)."""
    if not jump_limit_bins > 0:
        raise ValueError(f"jump_limit_bins must be positive, got {jump_limit_bins!r}")


def assemble_tracks(
    estimates: Estimates,
    config: StsaConfig,
    sample_rate_hz: float,
    jump_limit_bins: float = DEFAULT_JUMP_LIMIT_BINS,
) -> list[np.ndarray]:
    """Greedy nearest-frequency association of block estimates into tracks.

    Each track is the np.intp array of its rows of estimates, in block order;
    the tracks are listed in the order they open.

    Within a block, estimates are matched in peel order; each joins the open
    track whose last frequency is nearest, provided the jump stays under
    jump_limit_bins bins per elapsed block, otherwise it starts a new track.
    A track accepts at most one estimate per block.  Of the tracks at the
    nearest distance, the one opened first wins.
    """
    check_jump_limit(jump_limit_bins)
    if not np.isfinite(estimates.freq_hz).all():
        raise ValueError("estimate frequencies must be finite")
    bin_width = config.bin_width_hz(sample_rate_hz)
    members, ends = [], []  # per track: its rows, and the frequency and block it ends at
    by_freq = []  # (end frequency, track) of every track, sorted
    current, taken = None, set()
    for row, (block, freq) in enumerate(zip(estimates.block_index.tolist(),
                                            estimates.freq_hz.tolist())):
        if block != current:
            if current is not None and block < current:
                raise ValueError("blocks must be supplied in increasing index order")
            current, taken = block, set()
        best = best_dist = None
        for dist, ti in _nearest_first(by_freq, freq):
            if best is not None and dist != best_dist:
                break
            if (ti not in taken and dist < jump_limit_bins * bin_width * (block - ends[ti][1])
                    and (best is None or ti < best)):
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
        taken.add(best)
    return [np.array(rows, dtype=np.intp) for rows in members]


def _nearest_first(by_freq, freq):
    """(distance, track) for the (frequency, track) pairs of sorted by_freq, nearest first.

    Rounding is monotonic, so walking outward from freq on each side visits
    abs(freq - f) in non-decreasing order.
    """
    hi = bisect_left(by_freq, (freq,))
    lo = hi - 1
    while lo >= 0 or hi < len(by_freq):
        if hi == len(by_freq) or lo >= 0 and freq - by_freq[lo][0] <= by_freq[hi][0] - freq:
            yield freq - by_freq[lo][0], by_freq[lo][1]
            lo -= 1
        else:
            yield by_freq[hi][0] - freq, by_freq[hi][1]
            hi += 1


def _rows(rows: np.ndarray):
    """Increasing row indices as a slice when they are consecutive, so numpy works in place."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


# Samples per synthesis pass: few enough that its tone temporaries stay in cache.
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
    sum does not depend on where a pass ends.
    """
    length, sample_rate_hz = stream_meta
    n = config.block_len_n
    hop = config.hop
    ic0 = n // 2  # ceil((n - 1) / 2)
    delta = ic0 - (n - 1) / 2.0
    last = max((int(estimates.block_index[t[-1]]) for t in tracks if len(t)), default=-1)
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
    chunk = max(1, _CHUNK_SAMPLES // hop)  # entries per pass

    for track in tracks:
        if not len(track):
            raise ValueError("cannot synthesize an empty track")
        amp, freq, phase, blk = (c[track] for c in (estimates.amp, estimates.freq_hz,
                                                    estimates.phase_rad, estimates.block_index))
        if blk[0] < 0:
            raise ValueError(f"block_index must be non-negative, got {blk[0]}")
        step = np.diff(blk)
        if np.any(step <= 0):
            raise ValueError("track block indices must be strictly increasing")
        gap = step > 1
        kind_l, kind_r = np.where(np.r_[True, gap], 0, 1), np.where(np.r_[gap, True], 3, 2)
        for i in range(0, blk.size, chunk):
            sl, b = slice(i, i + chunk), blk[i : i + chunk]
            w = 2.0 * np.pi * freq[sl, None]
            tables = (amp[sl] * np.exp(1j * phase[sl]))[:, None] * np.exp(1j * (w * coarse_dt))
            tones = tables[:, :, None] * np.exp(1j * (w * fine_dt))[:, None, :]
            tones = tones.reshape(len(tables), -1)[:, lo : lo + 2 * hop]
            frames[_rows(b + 1)] += weights[kind_r[sl]] * tones[:, hop:]
            frames[_rows(b)] += weights[kind_l[sl]] * tones[:, :hop]

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
    with open(path, "w") as fh:
        fh.write(TRACKS_CSV_HEADER + "\n")
        for est, tracks in passes:
            columns = (est.block_index, est.t_center_s, est.peel_rank, est.amp, est.freq_hz,
                       est.phase_rad)
            for rows, signal_id in zip(tracks, ids):  # tracks first: no id is drawn past the end
                fh.writelines(map("%d,%d,%.9f,%d,%.9g,%.6f,%.9f\n".__mod__,
                                  zip(repeat(signal_id), *(c[rows].tolist() for c in columns))))
