"""The cancel pipeline: estimate, assemble, synthesize and subtract, per pass.

Each stage is called through its module attribute (`blockproc.process_stream`,
`synthesis.synthesize`, ...), so wrapping that attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import blockproc, iq, synthesis
from .blockproc import StsaConfig
from .iq import IqFormat, SampleStream
from .synthesis import Track


@dataclass
class CancelResult:
    original: SampleStream
    residual: SampleStream
    tracks_per_pass: list = field(default_factory=list)
    blocks_per_pass: list = field(default_factory=list)

    @property
    def estimate(self) -> SampleStream:
        """What the passes removed, original - residual, built on each read."""
        return SampleStream(self.original.samples - self.residual.samples,
                            self.original.sample_rate_hz, self.original.t0_s)


def run_cancel(
    stream: SampleStream,
    config: StsaConfig,
    passes: int = 1,
    strongest_only: bool = False,
    jump_limit_bins: float = synthesis.DEFAULT_JUMP_LIMIT_BINS,
    inter_pass_format: IqFormat | None = None,
) -> CancelResult:
    """Estimate-and-subtract the stream, optionally iterating on the residual.

    The tracks kept over all passes get the signal ids 0..T-1 in pass order.
    When inter_pass_format is set, the residual is round-tripped through that
    codec between passes, so an n-pass run is byte-identical to n chained
    single-pass runs over files of that format.
    """
    if passes < 1:
        raise ValueError(f"passes must be at least 1, got {passes}")
    work = stream
    result = CancelResult(stream, stream)
    next_id = 0
    for p in range(passes):
        blocks = blockproc.process_stream(work, config)
        tracks = synthesis.assemble_tracks(blocks, config, work.sample_rate_hz, jump_limit_bins)
        if strongest_only and tracks:
            tracks = [max(tracks, key=Track.total_energy)]
        tracks = [replace(t, signal_id=next_id + i) for i, t in enumerate(tracks)]
        next_id += len(tracks)
        meta = (len(work), work.sample_rate_hz, work.t0_s)
        residual = synthesis.cancel(work, synthesis.synthesize(tracks, meta, config))
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
    return result
