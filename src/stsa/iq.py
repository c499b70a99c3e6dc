"""Binary IQ file input/output.

Two interleaved little-endian sample layouts are supported:

  int8    : I0, Q0, I1, Q1, ...  one signed byte each; values map to
            [-1, 1) through division by 128
  float32 : I0, Q0, I1, Q1, ...  4-byte floats, no scaling

The sample rate is never stored in the binary (plain SDR capture
convention); it travels as sidecar metadata and must be supplied on read.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

INT8_SCALE = 128.0


class IqFormat(enum.Enum):
    """On-disk sample encoding."""

    INT8 = "i8"
    FLOAT32 = "f32"

    @property
    def bytes_per_sample(self) -> int:
        return 2 if self is IqFormat.INT8 else 8

    @classmethod
    def _missing_(cls, name):
        raise ValueError(f"unknown IQ format {name!r} (expected 'i8' or 'f32')")


@dataclass(frozen=True)
class SampleStream:
    """Contiguous complex baseband samples plus the rate they were taken at.

    Immutable: the sample array is marked read-only on construction, so a
    stream can be shared freely across threads.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}")
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size and not (
            np.all(np.isfinite(samples.real)) and np.all(np.isfinite(samples.imag))
        ):
            raise ValueError("samples contain NaN or Inf")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def check_band(self, band_hz) -> tuple[float, float]:
        """band_hz as (lo, hi), if -nyq <= lo < hi <= nyq for the Nyquist frequency nyq = Fs/2."""
        lo, hi = band_hz
        nyq = self.sample_rate_hz / 2
        if not -nyq <= lo < hi <= nyq:
            raise ValueError(f"band ({lo}, {hi}) is not increasing inside the Nyquist span ±{nyq}")
        return lo, hi

    def power(self) -> float:
        """Mean squared magnitude."""
        if not self.samples.size:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))


# Samples encoded at a time: each encoded chunk stays in cache, and no
# encoding or difference is built at stream length.
_ENCODE_CHUNK = 2**14


def _encode(samples: np.ndarray, fmt: IqFormat, minus: np.ndarray | None = None):
    """Yield the interleaved encoding of samples (- minus), _ENCODE_CHUNK samples
    at a time; once done, warn how many int8 components were clipped."""
    n_clipped = 0
    for i in range(0, samples.size, _ENCODE_CHUNK):
        chunk = samples[i : i + _ENCODE_CHUNK]
        if minus is not None:
            chunk = chunk - minus[i : i + _ENCODE_CHUNK]
        interleaved = np.ascontiguousarray(chunk).view(np.float64)  # I0, Q0, I1, ...
        if fmt is IqFormat.FLOAT32:
            encoded = interleaved.astype("<f4")
            yield np.add(encoded, 0.0, out=encoded)  # -0.0 writes as +0.0, as decode_iq reads it
        else:
            scaled = interleaved * INT8_SCALE  # exact, so |scaled| > 128 iff |component| > 1
            n_clipped += np.count_nonzero(np.abs(scaled) > INT8_SCALE)
            yield np.clip(np.round(scaled, out=scaled), -128, 127, out=scaled).astype(np.int8)
    if n_clipped:
        warnings.warn(f"int8 write clipped {n_clipped} out-of-range components")


def encode_iq(stream: SampleStream, fmt: IqFormat) -> bytes:
    """Serialize a stream to interleaved bytes.

    int8 components outside [-1, 1] are clipped; a warning reports how many.
    """
    return b"".join(_encode(stream.samples, fmt))


def decode_iq(data: bytes, fmt: IqFormat, sample_rate_hz: float) -> SampleStream:
    """Deserialize interleaved bytes produced by :func:`encode_iq`."""
    per = fmt.bytes_per_sample
    if len(data) % per:
        raise ValueError(
            f"truncated IQ data: trailing partial sample at byte offset {len(data) - len(data) % per}"
        )
    raw = np.frombuffer(data, dtype=np.int8 if fmt is IqFormat.INT8 else "<f4").astype(np.float64)
    if fmt is IqFormat.INT8:
        raw /= INT8_SCALE
    raw += 0.0  # -0.0 reads as +0.0
    return SampleStream(raw.view(np.complex128), sample_rate_hz)


def read_iq(path, fmt: IqFormat, sample_rate_hz: float) -> SampleStream:
    """Read an interleaved IQ file.

    Raises ValueError (naming the byte offset) if the file does not hold a
    whole number of samples; I/O problems propagate as OSError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_iq(data, fmt, sample_rate_hz)


def write_iq(stream: SampleStream, path, fmt: IqFormat,
             minus: SampleStream | None = None) -> None:
    """Write :func:`encode_iq`'s bytes of stream, or of stream - minus, to an IQ
    file decodable by :func:`read_iq`, one encoded chunk at a time.
    """
    if minus is not None and len(minus) != len(stream):
        raise ValueError(f"length mismatch: {len(stream)} samples minus {len(minus)}")
    with open(path, "wb") as fh:  # each chunk's own buffer is written, not a bytes copy
        fh.writelines(_encode(stream.samples, fmt, None if minus is None else minus.samples))
