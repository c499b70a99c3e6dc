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
    t0_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
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

    def power(self) -> float:
        """Mean squared magnitude."""
        if not self.samples.size:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))


def encode_iq(stream: SampleStream, fmt: IqFormat) -> bytes:
    """Serialize a stream to interleaved bytes.

    int8 components outside [-1, 1] are clipped; a warning reports how many.
    """
    interleaved = np.empty(2 * len(stream), dtype=np.float64)
    interleaved[0::2] = stream.samples.real
    interleaved[1::2] = stream.samples.imag
    if fmt is IqFormat.FLOAT32:
        return interleaved.astype("<f4").tobytes()
    n_clipped = int(np.count_nonzero(np.abs(interleaved) > 1.0))
    if n_clipped:
        warnings.warn(f"int8 write clipped {n_clipped} out-of-range components")
    quantized = np.clip(np.round(interleaved * INT8_SCALE), -128, 127)
    return quantized.astype(np.int8).tobytes()


def decode_iq(data: bytes, fmt: IqFormat, sample_rate_hz: float, t0_s: float = 0.0) -> SampleStream:
    """Deserialize interleaved bytes produced by :func:`encode_iq`."""
    per = fmt.bytes_per_sample
    if len(data) % per:
        raise ValueError(
            f"truncated IQ data: trailing partial sample at byte offset {len(data) - len(data) % per}"
        )
    if fmt is IqFormat.INT8:
        raw = np.frombuffer(data, dtype=np.int8).astype(np.float64) / INT8_SCALE
    else:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
    samples = raw[0::2] + 1j * raw[1::2]
    return SampleStream(samples, sample_rate_hz, t0_s)


def read_iq(path, fmt: IqFormat, sample_rate_hz: float, t0_s: float = 0.0) -> SampleStream:
    """Read an interleaved IQ file.

    Raises ValueError (naming the byte offset) if the file does not hold a
    whole number of samples; I/O problems propagate as OSError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_iq(data, fmt, sample_rate_hz, t0_s)


def write_iq(stream: SampleStream, path, fmt: IqFormat) -> None:
    """Write a stream to an interleaved IQ file decodable by :func:`read_iq`."""
    with open(path, "wb") as fh:
        fh.write(encode_iq(stream, fmt))
