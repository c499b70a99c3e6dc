"""Spectral and suppression measurement.

Spectra are averaged periodograms over non-overlapping rectangular segments,
normalized as power spectral density so that sum(power) * bin_width equals
the mean-square sample power (Parseval).  Suppression reports compare band
powers before and after cancellation and check that power outside the band
was left alone.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .iq import SampleStream, write_csv

DEFAULT_RESOLUTION_HZ = 125.0
SPECTRUM_CSV_HEADER = "freq_hz,power"
REPORT_CSV_HEADER = ("band_lo_hz,band_hi_hz,power_before,power_after,"
                     "suppression_db,out_of_band_delta_db,snr_in_band_db")


@dataclass(frozen=True)
class SpectrumFrame:
    """Averaged power spectral density, bins in ascending frequency order."""

    freqs_hz: np.ndarray
    power: np.ndarray
    resolution_hz: float


@dataclass(frozen=True)
class DynamicSpectrum:
    """Waterfall: one averaged spectrum per time cell (rows are time)."""

    times_s: np.ndarray
    freqs_hz: np.ndarray
    power: np.ndarray


@dataclass(frozen=True)
class SuppressionReport:
    band_hz: tuple[float, float]
    power_before: float
    power_after: float
    suppression_db: float
    out_of_band_delta_db: float


def _segment_length(sample_rate_hz: float, resolution_hz: float) -> int:
    if not 0 < resolution_hz < math.inf:
        raise ValueError(f"resolution_hz must be positive and finite, got {resolution_hz}")
    samples = sample_rate_hz / resolution_hz
    if samples > np.iinfo(np.intp).max:
        raise ValueError(f"resolution_hz {resolution_hz} is too fine at {sample_rate_hz} Hz: "
                         "the segment length overflows")
    return max(int(round(samples)), 1)


# Samples per periodogram group: few enough that the FFT temporaries stay small.
_GROUP_SAMPLES = 2**17


def _averaged_psd(segments: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Mean periodogram over axis -2, summed one segment at a time in order, as np.mean sums."""
    *lead, n_seg, seg_len = segments.shape
    group = max(1, _GROUP_SAMPLES // (math.prod(lead) * seg_len))
    total = np.zeros((*lead, seg_len))
    for i in range(0, n_seg, group):
        power = np.abs(np.fft.fft(segments[..., i : i + group, :], axis=-1)) ** 2
        for k in range(power.shape[-2]):
            total += power[..., k, :]
    return np.fft.fftshift(total / n_seg / (seg_len * sample_rate_hz), axes=-1)


def segment_count(n_samples: int, rate_hz: float, resolution_hz=DEFAULT_RESOLUTION_HZ):
    """Count and length of the periodogram segments in n_samples; raises unless one fits."""
    seg_len = _segment_length(rate_hz, resolution_hz)
    if n_samples < seg_len:
        raise ValueError(
            f"stream too short: need at least {seg_len} samples for {resolution_hz} Hz resolution"
        )
    return n_samples // seg_len, seg_len


def power_spectrum(stream: SampleStream, resolution_hz: float) -> SpectrumFrame:
    """Average the periodogram of non-overlapping segments at the given resolution."""
    n_seg, seg_len = segment_count(len(stream), stream.sample_rate_hz, resolution_hz)
    segments = stream.samples[: n_seg * seg_len].reshape(n_seg, seg_len)
    psd = _averaged_psd(segments, stream.sample_rate_hz)
    freqs = np.fft.fftshift(np.fft.fftfreq(seg_len, d=1.0 / stream.sample_rate_hz))
    return SpectrumFrame(freqs, psd, stream.sample_rate_hz / seg_len)


def dynamic_spectrum(stream: SampleStream, t_res_s: float, f_res_hz: float) -> DynamicSpectrum:
    """Tile the stream into time cells and average a spectrum inside each."""
    seg_len = _segment_length(stream.sample_rate_hz, f_res_hz)
    if not 0 < t_res_s < math.inf:
        raise ValueError(f"t_res_s must be positive and finite, got {t_res_s}")
    cell = t_res_s * stream.sample_rate_hz
    if cell > np.iinfo(np.intp).max:
        raise ValueError(f"t_res_s {t_res_s} is too long at {stream.sample_rate_hz} Hz: "
                         "the cell length overflows")
    cell = int(round(cell))
    if cell < seg_len:
        raise ValueError(
            f"infeasible resolution pair: {t_res_s} s cells hold {cell} samples, "
            f"fewer than the {seg_len}-sample segments {f_res_hz} Hz requires"
        )
    rows = len(stream) // cell
    if rows == 0:
        raise ValueError("stream shorter than one time cell")
    segs_per_cell = cell // seg_len
    used = stream.samples[: rows * cell].reshape(rows, cell)
    segments = used[:, : segs_per_cell * seg_len].reshape(rows, segs_per_cell, seg_len)
    psd = _averaged_psd(segments, stream.sample_rate_hz)
    freqs = np.fft.fftshift(np.fft.fftfreq(seg_len, d=1.0 / stream.sample_rate_hz))
    times = (np.arange(rows) + 0.5) * cell / stream.sample_rate_hz
    return DynamicSpectrum(times, freqs, psd)


def report_band(stream: SampleStream, band_hz, resolution_hz=DEFAULT_RESOLUTION_HZ):
    """stream.check_band(band_hz), if it holds a bin centre of power_spectrum at resolution_hz."""
    lo, hi = stream.check_band(band_hz)
    seg_len = _segment_length(stream.sample_rate_hz, resolution_hz)
    step = 1.0 / (seg_len * (1.0 / stream.sample_rate_hz))  # as np.fft.fftfreq: bin k at k * step
    j = math.ceil(lo / step) - 1  # at or below lo, to rounding; a k < -seg_len / 2 lies below lo
    if not any(lo <= k * step <= hi for k in range(j, min(j + 3, (seg_len + 1) // 2))):
        raise ValueError(f"band ({lo}, {hi}) has no bin centre at {resolution_hz:g} Hz resolution")
    return lo, hi


def frame_band_power(frame: SpectrumFrame, band_hz: tuple[float, float]) -> float:
    """Integrate the PSD over [lo, hi] (band edges inclusive)."""
    lo, hi = band_hz
    if lo >= hi:
        raise ValueError(f"inverted band ({lo}, {hi})")
    mask = (frame.freqs_hz >= lo) & (frame.freqs_hz <= hi)
    return float(np.sum(frame.power[mask]) * frame.resolution_hz)


def _log_ratio_db(numerator: float, denominator: float) -> float:
    # Computed as a difference of logs so that swapping the arguments negates
    # the result exactly.
    if numerator == 0.0 and denominator == 0.0:
        return 0.0
    if denominator == 0.0:
        return math.inf
    if numerator == 0.0:
        return -math.inf
    return 10.0 * (math.log10(numerator) - math.log10(denominator))


def suppression_report(
    original: SampleStream,
    residual: SampleStream,
    band_hz: tuple[float, float],
    resolution_hz: float = DEFAULT_RESOLUTION_HZ,
) -> SuppressionReport:
    """Before/after band powers plus an out-of-band distortion check.

    The out-of-band comparison excludes a guard of one analysis bin on each
    side of the band so edge widening does not contaminate it.
    """
    lo, hi = report_band(original, band_hz, resolution_hz)
    if original.sample_rate_hz != residual.sample_rate_hz:
        raise ValueError(f"original at {original.sample_rate_hz} Hz and residual at "
                         f"{residual.sample_rate_hz} Hz must share one sample rate")
    if len(original) != len(residual):
        raise ValueError("original and residual must have equal length")
    frames = power_spectrum(original, resolution_hz), power_spectrum(residual, resolution_hz)
    before, after = (frame_band_power(f, (lo, hi)) for f in frames)
    freqs, guard = frames[0].freqs_hz, frames[0].resolution_hz
    out_band = (freqs < lo - guard) | (freqs > hi + guard)
    out_before, out_after = (float(np.sum(f.power[out_band]) * f.resolution_hz) for f in frames)
    return SuppressionReport((lo, hi), before, after, _log_ratio_db(before, after),
                             _log_ratio_db(out_after, out_before))


def format_report(report: SuppressionReport) -> str:
    return "\n".join([
        f"band_hz: {report.band_hz[0]:.1f} .. {report.band_hz[1]:.1f}",
        f"power_before: {report.power_before:.6g}",
        f"power_after: {report.power_after:.6g}",
        f"suppression_db: {report.suppression_db:.2f}",
        f"out_of_band_delta_db: {report.out_of_band_delta_db:+.3f}",
    ])


def write_report_csv(report: SuppressionReport, path) -> None:
    """One header and one row; the header's last column is always left empty."""
    band, *values = astuple(report)  # the fields in REPORT_CSV_HEADER's order
    write_csv(path, REPORT_CSV_HEADER, "%.6f,%.6f,%.9g,%.9g,%.6f,%.6f,", [(*band, *values)])


def write_spectrum_csv(frame: SpectrumFrame, path) -> None:
    write_csv(path, SPECTRUM_CSV_HEADER, "%.6f,%.9g",
              zip(frame.freqs_hz.tolist(), frame.power.tolist()))


def write_dynamic_spectrum_csv(ds: DynamicSpectrum, path) -> None:
    """Row-major waterfall: header of frequencies, one row per time cell."""
    cols = ds.freqs_hz.size
    write_csv(path, ("time_s" + ",%.3f" * cols) % tuple(ds.freqs_hz.tolist()),
              "%.6f" + ",%.6g" * cols,
              ((t, *row) for t, row in zip(ds.times_s.tolist(), ds.power.tolist())))
