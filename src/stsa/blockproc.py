"""Per-block stationary-sinusoid estimation.

Each length-N block is treated as a stationary complex sinusoid; blocks are
independent, so an iterative peel loop processes a whole batch of them at once:

  1. window the (residual) block,
  2. locate the strongest FFT bin and compare it against a median-based noise
     floor; stop when nothing clears the detection threshold,
  3. refine the frequency by maximizing |sum_k y_w[k] * exp(-j*2*pi*f*t_k)|
     over a uniform grid finer than the bin spacing (from 22 node correlations),
  4. read magnitude and phase off the same correlation, undo the window's
     coherent gain,
  5. subtract the estimated sinusoid from the unwindowed residual and repeat.

Times t_k are referenced to the block center, so each estimate's phase is the
carrier phase at the center of its block.  process_stream returns every
estimate of a stream as one columnar Estimates table.  Its batches run through on_pool,
stsa's one thread pool (a thread per available CPU), which assumes a single-threaded BLAS; a block's
values do not depend on its batch, so the batch size and thread count change none.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .iq import SampleStream

WINDOW_NAMES = ("triangular", "hamming", "rectangular")
OVERLAP_MODES = ("none", "half")
# Complex values in the fine search's correlation bank, at most: 256 MiB of complex128.
SEARCH_TABLE_BUDGET = 2**24


def wrap_phase(phi):
    """Reduce angles into the principal range (-pi, pi]; a scalar stays a float."""
    out = (np.asarray(phi, dtype=np.float64) + np.pi) % (2.0 * np.pi) - np.pi
    out = np.where(out <= -np.pi, out + 2.0 * np.pi, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StsaConfig:
    """The settings of one cancel run: the estimator's, the tracker's and the pipeline's.

    fine_grid_fraction is the frequency search step as a fraction of one FFT
    bin; the search takes round(fine_search_span_bins / fine_grid_fraction)
    steps either side of the coarse peak, with the class constant
    fine_search_span_bins = 1: one bin when 1/fraction is whole, as at the
    default 0.01, else between 2/3 and 4/3 bin (0.7 bin at 0.7, 1.2 at 0.6).
    max_peel bounds how many sinusoids are extracted per block (the detection
    threshold is the primary stop).
    jump_limit_bins bounds a track's frequency step, in bins per elapsed block;
    passes counts the estimate-cancel iterations, and strongest_only cancels
    only each pass's highest-energy track.
    The search's bank holds (2 * round(1 / fine_grid_fraction) + 1) * block_len_n
    complex values, at most SEARCH_TABLE_BUDGET.
    """

    fine_search_span_bins = 1.0

    block_len_n: int = 256
    window: str = "triangular"
    detect_threshold_db: float = 10.0
    fine_grid_fraction: float = 0.01
    max_peel: int = 8
    overlap: str = "none"
    jump_limit_bins: float = 0.5
    passes: int = 1
    strongest_only: bool = False

    def __post_init__(self):
        for name in ("block_len_n", "max_peel", "passes"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.block_len_n < 8:
            raise ValueError("block_len_n must be at least 8")
        if self.window not in WINDOW_NAMES:
            raise ValueError(f"window must be one of {WINDOW_NAMES}")
        if not 0 < self.fine_grid_fraction <= 1:
            raise ValueError("fine_grid_fraction must lie in (0, 1]")
        steps = self.fine_search_span_bins / self.fine_grid_fraction  # inf past float64
        size = (2 * round(steps) + 1 if math.isfinite(steps) else math.inf) * int(self.block_len_n)
        if size > SEARCH_TABLE_BUDGET:
            raise ValueError(
                f"block_len_n {self.block_len_n} with fine_grid_fraction {self.fine_grid_fraction}"
                f" needs a fine-search table of {size:.3g} complex values, over the budget of"
                f" 2**24 (256 MiB)")
        if not math.isfinite(self.detect_threshold_db):
            raise ValueError("detect_threshold_db must be finite")
        if self.detect_threshold_db / 10.0 >= math.log10(np.finfo(float).max):
            raise ValueError(f"detect_threshold_db {self.detect_threshold_db} overflows 10**(dB/10)")
        if self.max_peel < 1:
            raise ValueError("max_peel must be at least 1")
        if self.overlap not in OVERLAP_MODES:
            raise ValueError(f"overlap must be one of {OVERLAP_MODES}")
        if self.overlap == "half" and self.block_len_n % 2:
            raise ValueError("half overlap requires an even block length")
        if self.passes < 1:
            raise ValueError(f"passes must be at least 1, got {self.passes}")
        if not self.jump_limit_bins > 0:
            raise ValueError(f"jump_limit_bins must be positive, got {self.jump_limit_bins!r}")

    @property
    def hop(self) -> int:
        return self.block_len_n if self.overlap == "none" else self.block_len_n // 2

    def bin_width_hz(self, sample_rate_hz: float) -> float:
        return sample_rate_hz / self.block_len_n


@dataclass(frozen=True)
class SinusoidEstimate:
    """One stationary-sinusoid fit, phase referenced to the block center."""

    amp: float
    freq_hz: float
    phase_rad: float
    block_index: int
    t_center_s: float
    peel_rank: int


@dataclass(frozen=True)
class BlockEstimates:
    """All sinusoids peeled from one block, in extraction order; a floor past float64 reads inf."""

    block_index: int
    estimates: tuple
    noise_floor: float


@dataclass(frozen=True, eq=False)
class Estimates:
    """Every sinusoid peeled from a run of blocks, as one table of columns.

    block_index, peel_rank, amp, freq_hz, phase_rad and t_center_s hold one
    value per estimate, ordered by block and then by peel order.
    noise_floor holds one value per block, block i at i.
    len() is the block count; table[i] builds block i's BlockEstimates on
    request, so compare tables as list(a) == list(b).
    """

    block_index: np.ndarray
    peel_rank: np.ndarray
    amp: np.ndarray
    freq_hz: np.ndarray
    phase_rad: np.ndarray
    t_center_s: np.ndarray
    noise_floor: np.ndarray

    def __len__(self) -> int:
        return self.noise_floor.size

    def __getitem__(self, i) -> BlockEstimates:
        i = range(len(self))[i]
        rows = slice(*np.searchsorted(self.block_index, [i, i + 1]).tolist())
        columns = (self.amp, self.freq_hz, self.phase_rad, self.block_index, self.t_center_s,
                   self.peel_rank)
        estimates = tuple(SinusoidEstimate(*e) for e in zip(*(c[rows].tolist() for c in columns)))
        return BlockEstimates(i, estimates, self.noise_floor[i].item())


class PeakDetection(NamedTuple):
    coarse_bin: int
    peak_power: float
    noise_floor: float


def window_values(window: str, n: int) -> np.ndarray:
    if window == "triangular":
        k = np.arange(n, dtype=np.float64)
        w = 1.0 - np.abs(2.0 * k - (n - 1)) / (n - 1)
    elif window == "hamming":
        w = np.hamming(n)
    elif window == "rectangular":
        w = np.ones(n)
    else:
        raise ValueError(f"window must be one of {WINDOW_NAMES}")
    w.flags.writeable = False
    return w


def _centered_times(n: int, sample_rate_hz: float) -> np.ndarray:
    t = (np.arange(n, dtype=np.float64) - (n - 1) / 2.0) / sample_rate_hz
    t.flags.writeable = False
    return t


@lru_cache(maxsize=1)  # the last set only, so SEARCH_TABLE_BUDGET bounds the cache too
def _search_tables(n, sample_rate_hz, fraction):
    """Fine-grid offsets (Hz), their correlation bank, and the interpolated search's factors.

    Row m of the bank is exp(-j*2*pi*offset[m]*t_k); the search for any coarse
    frequency reuses it after mixing the block down by the coarse frequency.
    Rows run 0, -1, +1, -2, +2, ... steps, so the first maximum of a search
    breaks ties toward the coarse frequency, then downward.  The probes sit at
    22 Chebyshev points across the offsets, and lagrange is the barycentric map
    from them to every offset (Berrut & Trefethen 2004): probes @ lagrange is
    bank.T to rounding, since a block spans at most 4*pi/3 rad of probe phase.
    """
    bin_width = sample_rate_hz / n
    n_steps = int(round(StsaConfig.fine_search_span_bins / fraction))
    steps = np.arange(2 * n_steps + 1)
    offsets_hz = (steps + 1) // 2 * np.where(steps % 2, -1, 1) * (fraction * bin_width)
    t = _centered_times(n, sample_rate_hz)
    bank = np.exp(-2j * np.pi * np.outer(offsets_hz, t))
    extent, x = np.abs(offsets_hz).max(), np.cos(np.arange(22) * np.pi / 21)
    weights = (-1.0) ** np.arange(22) * np.r_[0.5, np.ones(20), 0.5]
    d = offsets_hz[:, None] / extent - x
    with np.errstate(divide="ignore"):  # a grid point on a node takes that node's value
        q = np.where((d == 0).any(axis=1, keepdims=True), d == 0, weights / d)
    probes = np.exp(-2j * np.pi * np.outer(t, extent * x))
    lagrange = (q / q.sum(axis=1, keepdims=True)).T.astype(np.complex128, order="C")
    tables = offsets_hz, bank, probes, lagrange
    for table in tables:
        table.flags.writeable = False
    return tables


def _normalize(rows: np.ndarray):
    """Rows scaled by 2**-e so each largest part lies in [0.5, 1) (exact), and e."""
    parts = np.array(rows, dtype=np.complex128, ndmin=2).view(np.float64)  # a copy
    exps = np.frexp(np.maximum(parts.max(axis=1), -parts.min(axis=1)))[1]
    return np.ldexp(parts, -exps[:, None], out=parts).view(np.complex128), exps


def _detect_rows(windowed: np.ndarray, threshold_db: float):
    """Coarse bin, peak power, median floor and hit flag of each windowed row.

    Blocks are scaled into [0.5, 1), so a peak at or below (N*eps)**2 is rounding.
    """
    n = windowed.shape[1]
    power = np.abs(np.fft.fft(windowed, axis=1)) ** 2 / n**2
    bins = np.argmax(power, axis=1)
    peak = power[np.arange(len(bins)), bins]
    power.partition(n // 2, axis=1)  # np.median's order statistics from one partition
    floor = power[:, n // 2] if n % 2 else (power[:, : n // 2].max(axis=1) + power[:, n // 2]) / 2
    ratio = np.divide(peak, floor, out=np.full_like(peak, np.inf), where=floor > 0.0)
    return bins, peak, floor, (peak > (n * 2.0**-52) ** 2) & (ratio >= 10.0 ** (threshold_db / 10.0))


def detect_peak(windowed_block: np.ndarray, threshold_db: float) -> Optional[PeakDetection]:
    """Strongest FFT bin, if it clears the SNR threshold over the median floor.

    Returns None when nothing is detected, as for an all-zero block.  Scaling
    by a power of two keeps any amplitude detectable; powers past float64 read inf.
    """
    rows, exps = _normalize(windowed_block)
    bins, peak, floor, hit = _detect_rows(rows, threshold_db)
    if not hit[0]:
        return None
    with np.errstate(over="ignore"):  # powers beyond the float64 range read inf
        return PeakDetection(int(bins[0]), *np.ldexp([peak[0], floor[0]], 2 * exps[0]).tolist())


def refine_frequency(
    windowed_block: np.ndarray, coarse_freq_hz: float, sample_rate_hz: float, config: StsaConfig
) -> float:
    """Grid argmax of the correlation magnitude around the coarse frequency.

    The grid takes round(1 / fine_grid_fraction) steps of fine_grid_fraction of a bin
    either side of coarse (see StsaConfig); ties break toward the frequency nearest
    the coarse estimate.
    """
    n = windowed_block.size
    offsets_hz, bank = _search_tables(n, sample_rate_hz, config.fine_grid_fraction)[:2]
    t = _centered_times(n, sample_rate_hz)
    mixed = windowed_block * np.exp(-2j * np.pi * coarse_freq_hz * t)
    return coarse_freq_hz + float(offsets_hz[np.argmax(np.abs(bank @ mixed))])


def estimate_amp_phase(
    windowed_block: np.ndarray, freq_hz: float, window: str, sample_rate_hz: float
) -> tuple[float, float]:
    """Magnitude and center phase by correlation at the given frequency.

    c = (1/N) * sum_k y_w[k] * exp(-j*2*pi*f*t_k); the window's coherent gain
    mean(w) is divided back out so a noiseless matched tone returns its true
    amplitude (factor 2 for the triangular window).
    """
    n = windowed_block.size
    t = _centered_times(n, sample_rate_hz)
    c = np.dot(windowed_block, np.exp(-2j * np.pi * freq_hz * t)) / n
    amp = abs(c) / float(np.mean(window_values(window, n)))
    return float(amp), wrap_phase(float(np.angle(c)))


def subtract_sinusoid(
    block: np.ndarray, est: SinusoidEstimate, sample_rate_hz: float
) -> np.ndarray:
    """Remove est from an unwindowed block (times centered on the block)."""
    t = _centered_times(block.size, sample_rate_hz)
    tone = est.amp * np.exp(1j * (2.0 * np.pi * est.freq_hz * t + est.phase_rad))
    return block - tone


def _estimate_blocks(blocks, config, sample_rate_hz, t_centers, first_index, tables):
    """Peel loop over a (B, N) batch: each round handles every still-detecting block.

    The winning fine-grid correlation gives amplitude, phase and the tone to
    subtract.  Still-detecting rows stay compacted in `work`; a block that stops
    leaves with the floor of its last detection.
    Returns the batch's table, its blocks numbered from first_index and centered
    at t_centers; tables are _search_tables(N, sample_rate_hz, config.fine_grid_fraction).
    """
    n = config.block_len_n
    w, t = window_values(config.window, n), _centered_times(n, sample_rate_hz)
    w_mean = float(np.mean(w))
    offsets_hz, bank, probes, lagrange = tables
    work, exps = _normalize(blocks)  # outputs are scaled back by 2**exps
    floors = np.zeros(len(work))
    active = np.arange(len(work))
    rounds = [(active[:0], active[:0], *np.zeros((3, 0)))]  # row, rank, amp, freq, phase
    for rank in range(config.max_peel + 1):
        windowed = work * w
        bins, _, floor, hit = _detect_rows(windowed, config.detect_threshold_db)
        hit &= rank < config.max_peel
        if not hit.all():
            floors[active[~hit]] = floor[~hit]
            active, work, windowed, bins = active[hit], work[hit], windowed[hit], bins[hit]
        if not active.size:
            break
        coarse = bins * sample_rate_hz / n  # FFT bin center in baseband Hz
        coarse[coarse >= sample_rate_hz / 2] -= sample_rate_hz
        # the mixer depends only on the coarse bin: one row per distinct bin
        bin_hz, row_of = np.unique(coarse, return_inverse=True)
        mixer = np.exp(-2j * np.pi * bin_hz[:, None] * t)[row_of]
        np.multiply(windowed, mixer, out=windowed)
        # one row would take the matrix-vector path, which sums in another order
        corr = (windowed if active.size > 1 else np.repeat(windowed, 2, axis=0)) @ probes @ lagrange
        del windowed
        best = np.argmax(np.abs(corr[: active.size]), axis=1)
        c = corr[np.arange(active.size), best] / n
        del corr
        freq = coarse + offsets_hz[best]
        phase = wrap_phase(np.angle(c))
        # fold the search overshoot at the Nyquist edge back into the principal
        # span; with center-referenced times that rotates the phase by pi*(N-1)
        fold = np.abs(freq) >= sample_rate_hz / 2
        freq[fold] -= np.sign(freq[fold]) * sample_rate_hz
        phase[fold] = wrap_phase(phase[fold] + np.pi * ((n - 1) % 2))
        # fixed operand orders: numpy would swap those of a large temporary's product
        tone = np.multiply(bank[best], mixer, out=mixer)
        np.conjugate(tone, out=tone)
        work -= np.multiply((c / w_mean)[:, None], tone, out=tone)
        del mixer, tone
        amp = np.ldexp(np.abs(c) / w_mean, exps[active])
        rounds.append((active, np.full(active.size, rank), amp, freq, phase))
    row, rank, amp, freq, phase = (np.concatenate(c) for c in zip(*rounds))
    order = np.argsort(row, kind="stable")  # rounds run in rank order
    row = row[order]
    with np.errstate(over="ignore"):  # powers beyond the float64 range read inf
        floors = np.ldexp(floors, 2 * exps)
    return Estimates(first_index + row, rank[order], amp[order], freq[order], phase[order],
                     t_centers[row], floors)


def estimate_block(block: np.ndarray, config: StsaConfig, sample_rate_hz: float) -> BlockEstimates:
    """Run the full peel loop on one block (a batch of one), centered at t = 0.

    Each iteration re-windows the current unwindowed residual, so earlier
    subtractions sharpen later detections.  Stops at the detection threshold
    or after max_peel extractions.
    """
    block = np.asarray(block, dtype=np.complex128)
    if block.size != config.block_len_n:
        raise ValueError(
            f"block length {block.size} != configured block_len_n {config.block_len_n}"
        )
    tables = _search_tables(block.size, sample_rate_hz, config.fine_grid_fraction)
    return _estimate_blocks(block.reshape(1, -1), config, sample_rate_hz, np.zeros(1), 0, tables)[0]


# Samples in flight, split evenly among the pool's threads: the working set is fixed.
_POOL_SAMPLES = 2**18


def worker_count(jobs: int) -> int:
    """Threads for `jobs` independent jobs: one per CPU this process may run on, at most jobs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, jobs))


def on_pool(n: int, step: int, job) -> list:
    """[job(lo, min(lo + step, n)) for lo in range(0, n, step)] on worker_count threads; once
    every job has ended, the first failing job's error in start order is raised."""
    with ThreadPoolExecutor(worker_count(-(-n // step))) as pool:
        futures = [pool.submit(job, lo, min(lo + step, n)) for lo in range(0, n, step)]
        return [f.result() for f in futures]


def process_stream(stream: SampleStream, config: StsaConfig) -> Estimates:
    """Estimate every complete block of the stream (tail samples are dropped)."""
    n, hop, rate = config.block_len_n, config.hop, stream.sample_rate_hz
    if len(stream) < n:  # no complete block: the empty table, building no window or table
        ints, floats = np.zeros((2, 0), np.intp), np.zeros((5, 0))
        return Estimates(*ints, *floats)
    blocks = sliding_window_view(stream.samples, n)[::hop]
    t_centers = (np.arange(len(blocks)) * hop + (n - 1) / 2.0) / rate
    batch = max(1, _POOL_SAMPLES // (worker_count(len(blocks)) * n))
    tables = _search_tables(n, rate, config.fine_grid_fraction)  # before the pool: one set
    parts = on_pool(len(blocks), batch, lambda lo, hi: _estimate_blocks(
        blocks[lo:hi], config, rate, t_centers[lo:hi], lo, tables))
    columns = zip(*(vars(t).values() for t in parts))  # each field across the batches
    return Estimates(*map(np.concatenate, columns))
