"""The whole-array generators that stsa.siggen's in-place ones replaced.

Each function keeps the earlier body, which built every intermediate as a
stream-length temporary, so tests can require the rewritten generators to
give the same bytes.  Input checks are left to stsa.siggen.
"""

import math

import numpy as np

from stsa.siggen import NbfmSpec, TruthRecord


def waveform_from_truth(truth: TruthRecord) -> np.ndarray:
    f = truth.f_inst_hz
    n = f.size
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    f_ref = float(np.mean(f))
    resid = np.concatenate(([0.0], np.cumsum(f[1:] - f_ref)))
    k = np.arange(n, dtype=np.float64)
    phase = truth.psi0_rad + (2.0 * np.pi / truth.sample_rate_hz) * (f_ref * k + resid)
    return truth.amplitude * np.exp(1j * phase)


def gen_tone(amp, f_hz, psi_rad, n, sample_rate_hz):
    """(samples, f_inst_hz, amplitude) of the stationary tone."""
    f, a = np.full(n, f_hz), np.full(n, float(amp))
    return waveform_from_truth(TruthRecord(f, a, float(psi_rad), sample_rate_hz)), f, a


def _lowpass(x, cutoff_hz, sample_rate_hz):
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, d=1.0 / sample_rate_hz)
    spectrum[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spectrum, x.size)


def bandlimited_noise(n, cutoff_hz, sample_rate_hz, seed, rms_target=None):
    rng = np.random.default_rng(seed)
    m = _lowpass(rng.standard_normal(n), cutoff_hz, sample_rate_hz)
    if rms_target is None:
        peak = np.max(np.abs(m))
        return m / peak if peak > 0 else m
    for _ in range(5):
        m *= rms_target / np.std(m)
        m = _lowpass(np.clip(m, -1.0, 1.0), cutoff_hz, sample_rate_hz)
    return np.clip(m, -1.0, 1.0)


def gen_nbfm(spec: NbfmSpec, sample_rate_hz):
    """(samples, f_inst_hz, amplitude) of the FM carrier."""
    n = int(round(spec.duration_s * sample_rate_hz))
    if spec.mod_tones:
        t = np.arange(n) / sample_rate_hz
        m = np.zeros(n)
        for f_mod, a_mod in spec.mod_tones:
            m += a_mod * np.cos(2.0 * np.pi * f_mod * t)
    elif spec.mod_noise_bw_hz is not None:
        m = bandlimited_noise(
            n, spec.mod_noise_bw_hz, sample_rate_hz, spec.mod_noise_seed, spec.mod_noise_rms
        )
    else:
        m = np.zeros(n)
    f = spec.carrier_offset_hz + spec.deviation_hz * m
    a = np.full(n, float(spec.amp))
    return waveform_from_truth(TruthRecord(f, a, 0.0, sample_rate_hz)), f, a


def gen_am(carrier_offset_hz, a0, mod_index, mod_freq_hz, n, sample_rate_hz):
    """(samples, f_inst_hz, amplitude) of the AM carrier."""
    t = np.arange(n) / sample_rate_hz
    envelope = a0 * (1.0 + mod_index * np.cos(2.0 * np.pi * mod_freq_hz * t))
    f = np.full(n, carrier_offset_hz)
    return waveform_from_truth(TruthRecord(f, envelope, 0.0, sample_rate_hz)), f, envelope


def mix(sample_arrays) -> np.ndarray:
    return np.sum(sample_arrays, axis=0)


def add_awgn(stream, snr_db, signal_band_hz, rng_seed) -> np.ndarray:
    """The noisy samples, for a finite snr_db whose noise variance is positive and finite."""
    lo, hi = signal_band_hz
    band_fraction = (hi - lo) / stream.sample_rate_hz
    ratio = 10.0 ** (snr_db / 10.0) if snr_db / 10.0 < math.log10(np.finfo(float).max) else math.inf
    noise_var = stream.power() / ratio / band_fraction
    rng = np.random.default_rng(rng_seed)
    scale = math.sqrt(noise_var / 2.0)
    noise = scale * (rng.standard_normal(len(stream)) + 1j * rng.standard_normal(len(stream)))
    return stream.samples + noise
