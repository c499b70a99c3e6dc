"""Estimate tables and tracks built by hand from per-estimate values."""

import numpy as np

from stsa.blockproc import Estimates, SinusoidEstimate


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


def tracks_table(entry_lists) -> tuple:
    """(table, tracks): each list of entries is one track, its rows in the order given.

    The table holds the entries of every list, list after list, so its rows
    need not be in block order; only the tracks index it.
    """
    table = estimates_table([e for entries in entry_lists for e in entries])
    ends = np.cumsum([0, *map(len, entry_lists)])
    return table, [np.arange(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]


def entries(table, rows) -> tuple:
    """The table's rows as SinusoidEstimates."""
    columns = (table.amp, table.freq_hz, table.phase_rad, table.block_index, table.t_center_s,
               table.peel_rank)
    return tuple(SinusoidEstimate(*row) for row in zip(*(c[rows].tolist() for c in columns)))
