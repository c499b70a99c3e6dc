"""Track assembly, waveform synthesis, and coherent subtraction.

Per-block sinusoid estimates are chained into tracks by greedy
nearest-frequency association.  All tracks are summed into one noise-free
waveform: between the centers of adjacent blocks the two blocks' sinusoids
are cross-faded linearly, which keeps the waveform continuous while leaving
each block's own estimate exact at its center.  The rendered waveform is then
subtracted sample-by-sample from the original stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .blockproc import Estimates, StsaConfig
from .iq import SampleStream

DEFAULT_JUMP_LIMIT_BINS = 0.5


@dataclass(frozen=True, eq=False)
class Track:
    """Time-ordered chain of per-block estimates belonging to one signal.

    The columns are the row columns of blockproc.Estimates, one value per
    block the track visits.
    """

    signal_id: int
    block_index: np.ndarray
    peel_rank: np.ndarray
    amp: np.ndarray
    freq_hz: np.ndarray
    phase_rad: np.ndarray
    t_center_s: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.block_index) <= 0):
            raise ValueError("track block indices must be strictly increasing")

    def total_energy(self) -> float:
        return float(sum(a**2 for a in self.amp.tolist()))

    def __len__(self) -> int:
        return self.block_index.size


@dataclass
class SynthesizedWaveform:
    """Rendered waveform aligned to the original stream.

    samples are zero wherever coverage is False, so cancellation is the
    identity outside the rendered span.
    """

    samples: np.ndarray
    coverage: np.ndarray


def assemble_tracks(
    estimates: Estimates,
    config: StsaConfig,
    sample_rate_hz: float,
    jump_limit_bins: float = DEFAULT_JUMP_LIMIT_BINS,
) -> list[Track]:
    """Greedy nearest-frequency association of block estimates into tracks.

    Within a block, estimates are matched in peel order; each joins the open
    track whose last frequency is nearest, provided the jump stays under
    jump_limit_bins bins per elapsed block, otherwise it starts a new track.
    A track accepts at most one estimate per block.
    """
    if not jump_limit_bins > 0:
        raise ValueError(f"jump_limit_bins must be positive, got {jump_limit_bins!r}")
    bin_width = config.bin_width_hz(sample_rate_hz)
    members, ends = [], []  # per track: its rows, and the frequency and block it ends at
    current, taken = None, set()
    for row, (block, freq) in enumerate(zip(estimates.block_index.tolist(),
                                            estimates.freq_hz.tolist())):
        if block != current:
            if current is not None and block < current:
                raise ValueError("blocks must be supplied in increasing index order")
            current, taken = block, set()
        best = None
        best_dist = None
        for ti, (track_freq, track_block) in enumerate(ends):
            if ti in taken:
                continue
            limit = jump_limit_bins * bin_width * (block - track_block)
            dist = abs(freq - track_freq)
            if dist < limit and (best_dist is None or dist < best_dist):
                best, best_dist = ti, dist
        if best is None:
            best = len(members)
            members.append([])
            ends.append(None)
        members[best].append(row)
        ends[best] = freq, block
        taken.add(best)
    columns = (estimates.block_index, estimates.peel_rank, estimates.amp, estimates.freq_hz,
               estimates.phase_rad, estimates.t_center_s)
    return [Track(signal_id, *(c[rows] for c in columns))
            for signal_id, rows in enumerate(members)]


def synthesize(
    tracks: list[Track],
    stream_meta: tuple[int, float, float],
    config: StsaConfig,
) -> SynthesizedWaveform:
    """Render every track, summed in list order, into one waveform on the stream's grid.

    Between the centers of estimates in adjacent blocks the two sinusoids are
    blended as (1-a)*x_i + a*x_j with a running 0 -> 1; the outer half-blocks
    of a run of adjacent estimates use the nearest estimate unblended.
    Detection gaps wider than one block step are left at zero (coverage
    False) rather than bridged.

    Row r of the frame grid holds samples [ic0 + (r-1)*hop, ic0 + r*hop),
    ic0 = ceil((N-1)/2), so block b's entry spans rows b and b+1.  Its tone
    there is the outer product of two short phasor tables, both exactly 1 at
    the block center, so a center on the sample grid is amp*exp(j*phase).
    """
    length, sample_rate_hz, _t0 = stream_meta
    n = config.block_len_n
    hop = config.hop
    ic0 = n // 2  # ceil((n - 1) / 2)
    delta = ic0 - (n - 1) / 2.0
    last = max((int(t.block_index[-1]) for t in tracks if len(t)), default=-1)
    rows = max(-(-(hop - ic0 + length) // hop), last + 2)
    frames = np.zeros((rows, hop), dtype=np.complex128)
    covered = np.zeros((rows, hop), dtype=bool)
    # weight and coverage rows: left half-block where a run begins, blend in
    # from the previous center, blend out to the next, right half where it ends
    m = np.arange(hop)
    alpha = (delta + m) / hop
    left, right, full = m >= hop - ic0, m < n - ic0, np.ones(hop, dtype=bool)
    weights = np.array([left, alpha, 1.0 - alpha, right], dtype=np.float64)
    covers = np.array([left, full, full, right])
    s = math.isqrt(2 * hop)
    coarse = np.arange(-hop // s, (hop - 1) // s + 1)
    lo = -hop - s * coarse[0]  # column of offset -hop in the flattened table product
    coarse_dt, fine_dt = (delta + s * coarse) / sample_rate_hz, np.arange(s) / sample_rate_hz
    chunk = max(1, 2**19 // hop)  # entries per pass: ~2**20 samples of temporaries

    for track in tracks:
        if not len(track):
            raise ValueError("cannot synthesize an empty track")
        amp, freq, phase, blk = track.amp, track.freq_hz, track.phase_rad, track.block_index
        if blk[0] < 0:
            raise ValueError(f"block_index must be non-negative, got {blk[0]}")
        gap = np.diff(blk) > 1
        kind_l, kind_r = np.where(np.r_[True, gap], 0, 1), np.where(np.r_[gap, True], 3, 2)
        for i in range(0, blk.size, chunk):
            sl = slice(i, i + chunk)
            w = 2.0 * np.pi * freq[sl, None]
            tables = (amp[sl] * np.exp(1j * phase[sl]))[:, None] * np.exp(1j * (w * coarse_dt))
            tones = tables[:, :, None] * np.exp(1j * (w * fine_dt))[:, None, :]
            tones = tones.reshape(len(tables), -1)[:, lo : lo + 2 * hop]
            frames[blk[sl]] += weights[kind_l[sl]] * tones[:, :hop]
            frames[blk[sl] + 1] += weights[kind_r[sl]] * tones[:, hop:]
            covered[blk[sl]] |= covers[kind_l[sl]]
            covered[blk[sl] + 1] |= covers[kind_r[sl]]

    view = slice(hop - ic0, hop - ic0 + length)
    return SynthesizedWaveform(frames.reshape(-1)[view], covered.reshape(-1)[view])


def combine_waveforms(waveforms: list[SynthesizedWaveform], length: int) -> SynthesizedWaveform:
    """Sum separately rendered waveforms into one cancelable estimate."""
    total = np.zeros(length, dtype=np.complex128)
    covered = np.zeros(length, dtype=bool)
    for w in waveforms:
        total += w.samples
        covered |= w.coverage
    return SynthesizedWaveform(total, covered)


def cancel(original: SampleStream, synthesized: SynthesizedWaveform) -> SampleStream:
    """Coherent subtraction: exact elementwise difference."""
    if len(original) != synthesized.samples.size:
        raise ValueError(
            f"length mismatch: stream has {len(original)} samples, "
            f"waveform has {synthesized.samples.size}"
        )
    return SampleStream(
        original.samples - synthesized.samples, original.sample_rate_hz, original.t0_s
    )


def write_tracks_csv(tracks: list[Track], path) -> None:
    """Per-entry table: signal_id, block_index, t_center_s, peel_rank, amp, freq_hz, phase_rad."""
    with open(path, "w") as fh:
        fh.write("signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad\n")
        for trk in tracks:
            columns = (trk.block_index, trk.t_center_s, trk.peel_rank, trk.amp, trk.freq_hz,
                       trk.phase_rad)
            fh.writelines(map("%d,%d,%.9f,%d,%.9g,%.6f,%.9f\n".__mod__,
                              zip(repeat(trk.signal_id), *(c.tolist() for c in columns))))
