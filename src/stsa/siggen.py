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

from .iq import SampleStream

TRUTH_CSV_HEADER = "sample_index,f_inst_hz,amplitude"


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
        if a.size and a.min() < 0:
            raise ValueError("amplitude must be nonnegative")
        if f.size and np.max(np.abs(f)) >= self.sample_rate_hz / 2:
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
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    f_ref = float(np.mean(f))
    resid = np.concatenate(([0.0], np.cumsum(f[1:] - f_ref)))
    k = np.arange(n, dtype=np.float64)
    phase = truth.psi0_rad + (2.0 * np.pi / truth.sample_rate_hz) * (f_ref * k + resid)
    return truth.amplitude * np.exp(1j * phase)


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
    truth = TruthRecord(
        np.full(n, f_hz), np.full(n, float(amp)), float(psi_rad), sample_rate_hz
    )
    return SampleStream(waveform_from_truth(truth), sample_rate_hz), truth


def _lowpass(x: np.ndarray, cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, d=1.0 / sample_rate_hz)
    spectrum[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spectrum, x.size)


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
    the spectrum confined below the cutoff.
    """
    rng = np.random.default_rng(seed)
    m = _lowpass(rng.standard_normal(n), cutoff_hz, sample_rate_hz)
    if rms_target is None:
        peak = np.max(np.abs(m))
        return m / peak if peak > 0 else m
    for _ in range(5):
        m *= rms_target / np.std(m)
        m = _lowpass(np.clip(m, -1.0, 1.0), cutoff_hz, sample_rate_hz)
    return np.clip(m, -1.0, 1.0)


def gen_nbfm(spec: NbfmSpec, sample_rate_hz: float) -> tuple[SampleStream, TruthRecord]:
    """Constant-envelope FM per the NbfmSpec.

    f_inst(k) = carrier_offset + deviation * m(k) with |m| <= 1, so the Carson
    band edge is the worst-case instantaneous frequency.
    """
    for edge in spec.carson_band_hz():
        _check_nyquist(edge, sample_rate_hz, "Carson band edge")
    n = int(round(spec.duration_s * sample_rate_hz))
    if spec.mod_tones:
        t = np.arange(n) / sample_rate_hz
        m = np.zeros(n)
        for f_mod, a_mod in spec.mod_tones:
            m += a_mod * np.cos(2.0 * np.pi * f_mod * t)
    elif spec.mod_noise_bw_hz is not None:
        m = _bandlimited_noise(
            n, spec.mod_noise_bw_hz, sample_rate_hz, spec.mod_noise_seed, spec.mod_noise_rms
        )
    else:
        m = np.zeros(n)
    truth = TruthRecord(
        spec.carrier_offset_hz + spec.deviation_hz * m,
        np.full(n, float(spec.amp)),
        0.0,
        sample_rate_hz,
    )
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
    t = np.arange(n) / sample_rate_hz
    envelope = a0 * (1.0 + mod_index * np.cos(2.0 * np.pi * mod_freq_hz * t))
    truth = TruthRecord(np.full(n, carrier_offset_hz), envelope, 0.0, sample_rate_hz)
    return SampleStream(waveform_from_truth(truth), sample_rate_hz), truth


def mix(streams: list[SampleStream]) -> SampleStream:
    """Elementwise sum of equal-length, equal-rate streams."""
    if not streams:
        raise ValueError("mix requires at least one stream")
    first = streams[0]
    for s in streams[1:]:
        if len(s) != len(first):
            raise ValueError("mix: stream lengths differ")
        if s.sample_rate_hz != first.sample_rate_hz:
            raise ValueError("mix: sample rates differ")
    total = np.sum([s.samples for s in streams], axis=0)
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
    noise = scale * (rng.standard_normal(len(stream)) + 1j * rng.standard_normal(len(stream)))
    return SampleStream(stream.samples + noise, stream.sample_rate_hz)


def write_truth_csv(truth: TruthRecord, path) -> None:
    """Sidecar truth table with TRUTH_CSV_HEADER's columns, one row per sample."""
    f, a = truth.f_inst_hz.tolist(), truth.amplitude.tolist()
    with open(path, "w") as fh:
        fh.write(TRUTH_CSV_HEADER + "\n")
        fh.writelines(map("%d,%.6f,%.9g\n".__mod__, zip(range(len(f)), f, a)))
