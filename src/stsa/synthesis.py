"""Track assembly, waveform synthesis, and coherent subtraction.

Per-block sinusoid estimates are chained into tracks by greedy
nearest-frequency association.  All tracks are summed into one noise-free
waveform: between the centers of adjacent blocks the two blocks' sinusoids
are cross-faded linearly, which keeps the waveform continuous while leaving
each block's own estimate exact at its center.  The rendered waveform is then
subtracted sample-by-sample from the original stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockproc import BlockEstimates, SinusoidEstimate, StsaConfig
from .iq import SampleStream

DEFAULT_JUMP_LIMIT_BINS = 0.5


@dataclass(frozen=True)
class Track:
    """Time-ordered chain of per-block estimates belonging to one signal."""

    entries: tuple
    signal_id: int

    def __post_init__(self):
        indices = [e.block_index for e in self.entries]
        if any(later <= earlier for earlier, later in zip(indices, indices[1:])):
            raise ValueError("track block indices must be strictly increasing")

    def total_energy(self) -> float:
        return float(sum(e.amp**2 for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SynthesizedWaveform:
    """Rendered waveform aligned to the original stream.

    samples are zero wherever coverage is False, so cancellation is the
    identity outside the rendered span.
    """

    samples: np.ndarray
    coverage: np.ndarray


def assemble_tracks(
    all_blocks: list[BlockEstimates],
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
    open_tracks: list[dict] = []
    last_index = None
    for blk in all_blocks:
        if last_index is not None and blk.block_index <= last_index:
            raise ValueError("blocks must be supplied in increasing index order")
        last_index = blk.block_index
        taken = set()
        for est in blk.estimates:
            best = None
            best_dist = None
            for ti, trk in enumerate(open_tracks):
                if ti in taken:
                    continue
                gap = est.block_index - trk["last_block"]
                limit = jump_limit_bins * bin_width * gap
                dist = abs(est.freq_hz - trk["last_freq"])
                if dist < limit and (best_dist is None or dist < best_dist):
                    best, best_dist = ti, dist
            if best is None:
                open_tracks.append(
                    {"entries": [est], "last_freq": est.freq_hz, "last_block": est.block_index}
                )
                taken.add(len(open_tracks) - 1)
            else:
                trk = open_tracks[best]
                trk["entries"].append(est)
                trk["last_freq"] = est.freq_hz
                trk["last_block"] = est.block_index
                taken.add(best)
    return [
        Track(tuple(trk["entries"]), signal_id)
        for signal_id, trk in enumerate(open_tracks)
    ]


def _tone_at(est: SinusoidEstimate, sample_indices: np.ndarray, center_index: float,
             sample_rate_hz: float) -> np.ndarray:
    dt = (sample_indices - center_index) / sample_rate_hz
    return est.amp * np.exp(1j * (2.0 * np.pi * est.freq_hz * dt + est.phase_rad))


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
    """
    length, sample_rate_hz, _t0 = stream_meta
    n = config.block_len_n
    hop = config.hop
    out = np.zeros(length, dtype=np.complex128)
    covered = np.zeros(length, dtype=bool)

    def center_of(e):
        return e.block_index * hop + (n - 1) / 2.0

    def grid(lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, min(hi, length), dtype=np.float64)

    def add(lo: int, values: np.ndarray):
        out[lo : lo + values.size] += values
        covered[lo : lo + values.size] = True

    for track in tracks:
        entries = track.entries
        if not entries:
            raise ValueError("cannot synthesize an empty track")
        for i, e in enumerate(entries):
            start, c = e.block_index * hop, center_of(e)
            ic = int(np.ceil(c))
            if i == 0 or e.block_index - entries[i - 1].block_index > 1:
                # Own tone on the left half-block where a run begins.
                add(start, _tone_at(e, grid(start, ic), c, sample_rate_hz))
            nxt = entries[i + 1] if i + 1 < len(entries) else None
            if nxt is not None and nxt.block_index - e.block_index == 1:
                cn = center_of(nxt)
                idx = grid(ic, int(np.ceil(cn)))
                alpha = (idx - c) / (cn - c)
                add(ic, (1.0 - alpha) * _tone_at(e, idx, c, sample_rate_hz)
                    + alpha * _tone_at(nxt, idx, cn, sample_rate_hz))
            else:
                # Own tone on the right half-block where a run ends.
                add(ic, _tone_at(e, grid(ic, start + n), c, sample_rate_hz))

    return SynthesizedWaveform(out, covered)


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
            for e in trk.entries:
                fh.write(
                    f"{trk.signal_id},{e.block_index},{e.t_center_s:.9f},{e.peel_rank},"
                    f"{e.amp:.9g},{e.freq_hz:.6f},{e.phase_rad:.9f}\n"
                )
