"""Synthetic signal generation with exact ground truth.

Every generator produces a complex baseband stream of the form

    x[k] = A[k] * exp(j * phi[k]),   phi[k] = phi[k-1] + 2*pi*f_inst[k] / Fs

together with a TruthRecord holding the dense instantaneous frequency and
envelope, so estimator output can be scored against known truth.  Available
signals: stationary tones, narrowband FM (tone, multi-tone, or band-limited
noise modulation), AM, mixtures, and calibrated additive white Gaussian
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blockproc
from .iq import SampleStream, write_csv

TRUTH_CSV_HEADER = "sample_index,f_inst_hz,amplitude"
_CHUNK = 2**16  # samples per pool job, a power of two: only the last ends inside a SIMD vector


@dataclass(frozen=True)
class TruthRecord:
    """Dense per-sample ground truth for one generated signal.

    The phase convention is phi[0] = psi0_rad and
    phi[k] = phi[k-1] + 2*pi*f_inst_hz[k]/sample_rate_hz, so integrating the
    stored instantaneous frequency reproduces the emitted waveform.
    """

    f_inst_hz: np.ndarray
    amplitude: np.ndarray
    psi0_rad: float
    sample_rate_hz: float

    def __post_init__(self):
        f = np.asarray(self.f_inst_hz, dtype=np.float64)
        a = np.asarray(self.amplitude, dtype=np.float64)
        if f.shape != a.shape:
            raise ValueError("f_inst_hz and amplitude must have equal length")
        if f.size and not np.isfinite([f.min(), f.max(), a.min(), a.max()]).all():
            raise ValueError("f_inst_hz and amplitude must be finite")  # a NaN makes min, max NaN
        if a.size and a.min() < 0:
            raise ValueError("amplitude must be nonnegative")
        if f.size and not -self.sample_rate_hz / 2 < f.min() <= f.max() < self.sample_rate_hz / 2:
            raise ValueError("instantaneous frequency exceeds Nyquist")
        f.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "f_inst_hz", f)
        object.__setattr__(self, "amplitude", a)


@dataclass(frozen=True)
class NbfmSpec:
    """Narrowband FM signal description.

    The modulating waveform m(k) is either a sum of cosines (mod_tones,
    amplitudes must sum to at most 1) or band-limited Gaussian noise
    (mod_noise_bw_hz + mod_noise_seed), peak-normalized by default or driven
    to mod_noise_rms by clip-and-filter compression.  The instantaneous
    frequency is carrier_offset_hz + deviation_hz * m(k) with |m| <= 1.
    """

    carrier_offset_hz: float
    deviation_hz: float
    duration_s: float
    amp: float = 1.0
    mod_tones: tuple = ()
    mod_noise_bw_hz: float | None = None
    mod_noise_seed: int = 0
    mod_noise_rms: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.carrier_offset_hz):
            raise ValueError("carrier_offset_hz must be finite")
        if not self.deviation_hz >= 0:  # each check is written so that NaN fails it
            raise ValueError("deviation_hz must be nonnegative")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        if not 0 < self.amp < math.inf:
            raise ValueError("amp must be positive and finite")
        if self.mod_tones and self.mod_noise_bw_hz is not None:
            raise ValueError("choose tone modulation or noise modulation, not both")
        if self.mod_tones:
            if not all(math.isfinite(f) for f, _ in self.mod_tones):
                raise ValueError("modulating tone frequencies must be finite")
            amps = [a for _, a in self.mod_tones]
            if not all(0 <= a <= 1 for a in amps):
                raise ValueError("modulating tone amplitudes must lie in [0, 1]")
            if sum(amps) > 1.0 + 1e-12:
                raise ValueError("modulating tone amplitudes must sum to at most 1")
        if self.mod_noise_bw_hz is not None and not self.mod_noise_bw_hz > 0:
            raise ValueError("mod_noise_bw_hz must be positive")
        if self.mod_noise_rms is not None and not 0 < self.mod_noise_rms < 1:
            raise ValueError("mod_noise_rms must lie in (0, 1)")
        if self.mod_noise_rms is not None and self.mod_noise_bw_hz is None:
            raise ValueError("mod_noise_rms needs mod_noise_bw_hz")

    def carson_band_hz(self) -> tuple[float, float]:
        """Occupied band per Carson's rule: carrier ± (deviation + highest mod frequency)."""
        f_max = max(f for f, _ in self.mod_tones) if self.mod_tones else self.mod_noise_bw_hz or 0.0
        half = self.deviation_hz + f_max
        return (self.carrier_offset_hz - half, self.carrier_offset_hz + half)


def waveform_from_truth(truth: TruthRecord) -> np.ndarray:
    """Integrate a TruthRecord into complex samples.

    Splits each step into a constant reference frequency plus a small
    residual so the running phase sum stays accurate over multi-second
    streams.
    """
    f = truth.f_inst_hz
    n = f.size
    out = np.zeros(n, dtype=np.complex128)
    f_ref = float(np.mean(f)) if n else 0.0
    phase = out.imag  # the real parts stay zero, so exp(out) is exp(1j * phase)
    np.cumsum(np.subtract(f[1:], f_ref, out=phase[1:]), out=phase[1:])
    step = 2.0 * np.pi / truth.sample_rate_hz

    def finish(lo, hi):  # phase = psi0 + step * (f_ref * k + resid), in this order
        arg = np.arange(lo, hi, dtype=np.float64) * f_ref
        arg += phase[lo:hi]
        arg *= step
        np.add(arg, truth.psi0_rad, out=phase[lo:hi])
        np.exp(out[lo:hi], out=out[lo:hi])
        np.multiply(truth.amplitude[lo:hi], out[lo:hi], out=out[lo:hi])

    blockproc.on_pool(n, _CHUNK, finish)
    return out


def _check_nyquist(f_hz: float, sample_rate_hz: float, what: str = "frequency"):
    if not abs(f_hz) < sample_rate_hz / 2:  # NaN fails it too
        raise ValueError(f"{what} {f_hz} Hz violates Nyquist for Fs = {sample_rate_hz} Hz")


def gen_tone(
    amp: float, f_hz: float, psi_rad: float, n: int, sample_rate_hz: float
) -> tuple[SampleStream, TruthRecord]:
    """Stationary complex tone: sample k = amp * exp(j*(2*pi*f_hz*k/Fs + psi_rad))."""
    if not 0 <= amp < math.inf:
        raise ValueError("amp must be nonnegative and finite")
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_nyquist(f_hz, sample_rate_hz)
    if not math.isfinite(psi_rad):
        raise ValueError("psi_rad must be finite")
    f, a = np.broadcast_to(float(f_hz), n), np.broadcast_to(float(amp), n)  # read-only views
    truth = TruthRecord(f, a, float(psi_rad), sample_rate_hz)
    return SampleStream(waveform_from_truth(truth), sample_rate_hz), truth


def _lowpass(x: np.ndarray, stop: int) -> np.ndarray:
    """Brick-wall low-pass of x at rfft bin stop, written back into x."""
    spectrum = np.fft.rfft(x)
    spectrum[stop:] = 0.0
    return np.fft.irfft(spectrum, x.size, out=x)


def _tone_sum(n: int, tones, sample_rate_hz: float) -> np.ndarray:
    """0 + the sum of a * cos(2*pi*f*k/Fs) over the (f, a) in tones, for k in [0, n)."""
    total = np.zeros(n)

    def add(lo, hi):
        t = np.arange(lo, hi, dtype=np.float64) / sample_rate_hz
        for f_mod, a_mod in tones:
            total[lo:hi] += a_mod * np.cos(2.0 * np.pi * f_mod * t)

    blockproc.on_pool(n if tones else 0, _CHUNK, add)
    return total


def _bandlimited_noise(
    n: int,
    cutoff_hz: float,
    sample_rate_hz: float,
    seed: int,
    rms_target: float | None = None,
) -> np.ndarray:
    """Real Gaussian noise brick-wall low-passed to cutoff_hz, with |m| <= 1.

    With rms_target None the waveform is simply peak-normalized.  Otherwise
    it is driven to the target RMS by iterated clip-and-filter (voice-like
    amplitude compression), which raises the modulation duty while keeping
    the spectrum confined below the cutoff.  A constant (only the DC bin
    passes: n < about Fs/cutoff) has no RMS to drive: it is peak-normalized.
    """
    stop = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz).searchsorted(cutoff_hz, "right")
    rng = np.random.default_rng(seed)
    m = _lowpass(rng.standard_normal(n), stop)
    if rms_target is None or stop == 1:
        m /= max(m.max(), -m.min()) or 1.0  # the peak of |m|; a zero waveform stays zero
        return m
    for _ in range(5):
        if not (spread := np.std(m)):  # a clip saturated every sample: a constant is left
            break
        m *= rms_target / spread
        m = _lowpass(np.clip(m, -1.0, 1.0, out=m), stop)
    return np.clip(m, -1.0, 1.0, out=m)


def gen_nbfm(spec: NbfmSpec, sample_rate_hz: float) -> tuple[SampleStream, TruthRecord]:
    """Constant-envelope FM per the NbfmSpec.

    f_inst(k) = carrier_offset + deviation * m(k) with |m| <= 1, so the Carson
    band edge is the worst-case instantaneous frequency.
    """
    for edge in spec.carson_band_hz():
        _check_nyquist(edge, sample_rate_hz, "Carson band edge")
    n = int(round(spec.duration_s * sample_rate_hz))
    if spec.mod_noise_bw_hz is not None and n:  # the FFT needs one sample
        m = _bandlimited_noise(
            n, spec.mod_noise_bw_hz, sample_rate_hz, spec.mod_noise_seed, spec.mod_noise_rms
        )
    else:
        m = _tone_sum(n, spec.mod_tones, sample_rate_hz)
    m *= spec.deviation_hz
    m += spec.carrier_offset_hz
    truth = TruthRecord(m, np.broadcast_to(float(spec.amp), n), 0.0, sample_rate_hz)
    return SampleStream(waveform_from_truth(truth), sample_rate_hz), truth


def gen_am(
    carrier_offset_hz: float,
    a0: float,
    mod_index: float,
    mod_freq_hz: float,
    n: int,
    sample_rate_hz: float,
) -> tuple[SampleStream, TruthRecord]:
    """AM tone: A(t) = a0*(1 + mod_index*cos(2*pi*mod_freq*t)) on a constant carrier."""
    if not 0 <= mod_index <= 1:
        raise ValueError("mod_index must lie in [0, 1]")
    if not 0 <= a0 < math.inf:
        raise ValueError("a0 must be nonnegative and finite")
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_nyquist(abs(carrier_offset_hz) + mod_freq_hz, sample_rate_hz, "AM sideband")
    envelope = _tone_sum(n, ((mod_freq_hz, mod_index),), sample_rate_hz)
    envelope += 1.0
    envelope *= a0
    truth = TruthRecord(np.broadcast_to(float(carrier_offset_hz), n), envelope, 0.0, sample_rate_hz)
    return SampleStream(waveform_from_truth(truth), sample_rate_hz), truth


def mix(streams: list[SampleStream]) -> SampleStream:
    """Elementwise sum of equal-length, equal-rate streams."""
    if not streams:
        raise ValueError("mix requires at least one stream")
    first = streams[0]
    total = np.zeros(len(first), dtype=np.complex128)  # from zero, as np.sum: -0.0 sums to 0.0
    for s in streams:
        if len(s) != len(first):
            raise ValueError("mix: stream lengths differ")
        if s.sample_rate_hz != first.sample_rate_hz:
            raise ValueError("mix: sample rates differ")
        total += s.samples
    return SampleStream(total, first.sample_rate_hz)


def add_awgn(
    stream: SampleStream,
    snr_db: float,
    signal_band_hz: tuple[float, float],
    rng_seed: int,
) -> SampleStream:
    """Add complex white Gaussian noise at a target in-band SNR.

    The noise is flat across the full Nyquist span; its variance is chosen so
    that (stream power) / (noise power falling inside signal_band_hz) equals
    10**(snr_db/10).  snr_db = inf returns the stream unchanged; -inf, NaN and
    an snr_db whose variance is not a positive finite float raise ValueError.
    """
    if snr_db == math.inf:
        return stream
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    lo, hi = stream.check_band(signal_band_hz)
    if not len(stream):
        raise ValueError("cannot add noise to an empty stream")
    p_sig = stream.power()
    if p_sig == 0:
        raise ValueError("zero-power stream has no finite-SNR noise level")
    band_fraction = (hi - lo) / stream.sample_rate_hz
    ratio = 10.0 ** (snr_db / 10.0) if snr_db / 10.0 < math.log10(np.finfo(float).max) else math.inf
    noise_var = p_sig / ratio / band_fraction if ratio else math.inf
    if not 0 < noise_var < math.inf:
        raise ValueError(f"snr_db {snr_db} gives a noise variance that is not positive and finite")
    rng = np.random.default_rng(rng_seed)
    scale = math.sqrt(noise_var / 2.0)
    noisy = np.array(stream.samples)
    for part in (noisy.real, noisy.imag):  # every real part's draw comes first
        for lo in range(0, len(stream), _CHUNK):
            part[lo : lo + _CHUNK] += scale * rng.standard_normal(min(_CHUNK, len(stream) - lo))
    return SampleStream(noisy, stream.sample_rate_hz)


def write_truth_csv(truth: TruthRecord, path) -> None:
    """Sidecar truth table with TRUTH_CSV_HEADER's columns, one row per sample."""
    f, a = truth.f_inst_hz, truth.amplitude
    rows = (row for lo in range(0, f.size, _CHUNK) for row in zip(  # _CHUNK rows at a time
        range(lo, lo + _CHUNK), f[lo : lo + _CHUNK].tolist(), a[lo : lo + _CHUNK].tolist()))
    write_csv(path, TRUTH_CSV_HEADER, "%d,%.6f,%.9g", rows)
