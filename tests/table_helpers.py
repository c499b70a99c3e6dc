"""Estimate tables and tracks built by hand from per-estimate values."""

import numpy as np

from stsa.blockproc import Estimates, SinusoidEstimate
from stsa.synthesis import Track


def row_columns(estimates) -> tuple:
    """The SinusoidEstimates' block_index, peel_rank, amp, freq_hz, phase_rad, t_center_s."""
    return (
        np.array([e.block_index for e in estimates], dtype=np.intp),
        np.array([e.peel_rank for e in estimates], dtype=np.intp),
        *(np.array([getattr(e, name) for e in estimates], dtype=np.float64)
          for name in ("amp", "freq_hz", "phase_rad", "t_center_s")),
    )


def estimates_table(estimates, residual_power=None, noise_floor=None) -> Estimates:
    """A table with the estimates as rows, in the order given.

    The block columns default to zeros, one per block up to the last estimate's.
    """
    n_blocks = max((e.block_index for e in estimates), default=-1) + 1
    zeros = np.zeros(n_blocks)
    return Estimates(*row_columns(estimates),
                     zeros if residual_power is None else np.asarray(residual_power, np.float64),
                     zeros if noise_floor is None else np.asarray(noise_floor, np.float64))


def track(estimates, signal_id: int) -> Track:
    return Track(signal_id, *row_columns(estimates))


def entries(trk: Track) -> tuple:
    """The track's rows as SinusoidEstimates."""
    columns = (trk.amp, trk.freq_hz, trk.phase_rad, trk.block_index, trk.t_center_s, trk.peel_rank)
    return tuple(SinusoidEstimate(*row) for row in zip(*(c.tolist() for c in columns)))
