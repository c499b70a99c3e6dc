"""The cancel pipeline: estimate, assemble, synthesize and subtract, per pass.

Each stage is called through its module attribute (`blockproc.process_stream`,
`synthesis.synthesize`, ...), so wrapping that attribute sees every call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from . import blockproc, iq, synthesis
from .blockproc import StsaConfig
from .iq import IqFormat, SampleStream


@dataclass
class CancelResult:
    residual: SampleStream
    tracks_per_pass: list = field(default_factory=list)
    blocks_per_pass: list = field(default_factory=list)


def check_settings(passes: int, jump_limit_bins: float) -> None:
    """Raise ValueError for a pass count or jump limit that run_cancel rejects."""
    if not isinstance(passes, numbers.Integral):
        raise ValueError(f"passes must be an integer, got {passes!r}")
    if passes < 1:
        raise ValueError(f"passes must be at least 1, got {passes}")
    synthesis.check_jump_limit(jump_limit_bins)


def run_cancel(
    stream: SampleStream,
    config: StsaConfig,
    passes: int = 1,
    strongest_only: bool = False,
    jump_limit_bins: float = synthesis.DEFAULT_JUMP_LIMIT_BINS,
    inter_pass_format: IqFormat | None = None,
) -> CancelResult:
    """Estimate-and-subtract the stream, optionally iterating on the residual.

    Each pass keeps its estimate table and its tracks, the row arrays of that
    table that it rendered; synthesis.write_tracks_csv numbers them.
    When inter_pass_format is set, the residual is round-tripped through that
    codec between passes, so an n-pass run is byte-identical to n chained
    single-pass runs over files of that format.
    """
    check_settings(passes, jump_limit_bins)
    work = stream
    result = CancelResult(stream)
    for p in range(passes):
        blocks = blockproc.process_stream(work, config)
        tracks = synthesis.assemble_tracks(blocks, config, work.sample_rate_hz, jump_limit_bins)
        if strongest_only and tracks:
            tracks = [max(tracks, key=lambda rows: sum(a**2 for a in blocks.amp[rows].tolist()))]
        meta = (len(work), work.sample_rate_hz)
        residual = synthesis.cancel(work, synthesis.synthesize(tracks, meta, config, blocks))
        if inter_pass_format is not None and p < passes - 1:
            residual = iq.decode_iq(
                iq.encode_iq(residual, inter_pass_format),
                inter_pass_format,
                residual.sample_rate_hz,
            )
        result.blocks_per_pass.append(blocks)
        result.tracks_per_pass.append(tracks)
        work = residual
    result.residual = work
    return result
