"""The cancel pipeline: estimate, assemble, synthesize and subtract, per pass.

Each stage is called through its module attribute (`blockproc.process_stream`,
`synthesis.synthesize`, ...), so wrapping that attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blockproc, iq, synthesis
from .blockproc import StsaConfig
from .iq import IqFormat, SampleStream


@dataclass
class CancelResult:
    """The last pass's residual, and one (estimates, tracks) pair per pass."""

    residual: SampleStream
    passes: list


def run_cancel(
    stream: SampleStream, config: StsaConfig, inter_pass_format: IqFormat | None = None
) -> CancelResult:
    """Estimate-and-subtract the stream config.passes times, each pass on the last residual.

    Each pass keeps one pair, its estimate table and its tracks (the row arrays
    of that table that it rendered); synthesis.write_tracks_csv numbers them.
    When inter_pass_format is set, the residual is round-tripped through that
    codec between passes, so an n-pass run is byte-identical to n chained
    single-pass runs over files of that format.
    """
    work = stream
    passes = []
    for p in range(config.passes):
        blocks = blockproc.process_stream(work, config)
        tracks = synthesis.assemble_tracks(blocks, config, work.sample_rate_hz)
        if config.strongest_only and tracks:
            tracks = [max(tracks, key=lambda rows: sum(a**2 for a in blocks.amp[rows].tolist()))]
        meta = (len(work), work.sample_rate_hz)
        residual = synthesis.cancel(work, synthesis.synthesize(tracks, meta, config, blocks))
        if inter_pass_format is not None and p < config.passes - 1:
            residual = iq.decode_iq(
                iq.encode_iq(residual, inter_pass_format),
                inter_pass_format,
                residual.sample_rate_hz,
            )
        passes.append((blocks, tracks))
        work = residual
    return CancelResult(work, passes)
