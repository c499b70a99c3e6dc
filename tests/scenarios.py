"""The reference captures the tests share, each built once per test run.

The acceptance FM capture is a carrier with 4 kHz deviation, modulated by
compressed band-limited noise (Carson band 10 kHz), at 34 dB in-band SNR.
The three-station mixture (acceptance criterion 6) holds three such carriers
at -25, 0 and +25 kHz and at 0, -10 and -14 dB, with the noise floor set so
the strongest sees 34 dB in its band.  A SampleStream is read-only, so
every test can be handed the same one.
"""

from functools import lru_cache

import numpy as np

from stsa.blockproc import StsaConfig
from stsa.iq import SampleStream
from stsa.siggen import NbfmSpec, add_awgn, gen_nbfm, mix

RATE = 2048000.0
FM_CONFIG = StsaConfig(detect_threshold_db=9.0, max_peel=3)
STATIONS_CONFIG = StsaConfig(detect_threshold_db=12.0)
# (carrier offset Hz, amplitude, modulation noise seed), strongest first
STATIONS = ((-25000.0, 1.0, 31), (0.0, 10 ** -0.5, 32), (25000.0, 10 ** -0.7, 33))


def fm_spec(duration_s: float) -> NbfmSpec:
    return NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=duration_s,
                    mod_noise_bw_hz=1000.0, mod_noise_seed=7, mod_noise_rms=0.9)


@lru_cache(maxsize=None)
def fm_stream(duration_s: float) -> SampleStream:
    """The acceptance FM capture, duration_s seconds long (1.0 for the full one).

    A shorter capture is not the first duration_s seconds of the 1 s one:
    the modulating noise is low-passed over the whole length, so each
    duration is a realization of its own.
    """
    spec = fm_spec(duration_s)
    clean, _ = gen_nbfm(spec, RATE)
    return add_awgn(clean, 34.0, spec.carson_band_hz(), 99)


@lru_cache(maxsize=None)
def three_station_stream() -> SampleStream:
    """The 1 s three-station mixture of acceptance criterion 6."""
    streams = []
    for offset, amp, seed in STATIONS:
        spec = NbfmSpec(carrier_offset_hz=offset, deviation_hz=4000.0, duration_s=1.0,
                        amp=amp, mod_noise_bw_hz=1000.0, mod_noise_seed=seed)
        streams.append(gen_nbfm(spec, RATE)[0])
    mixed = mix(streams)
    snr_arg = 34.0 + 10 * np.log10(mixed.power() / streams[0].power())
    return add_awgn(mixed, snr_arg, (-30000.0, -20000.0), 44)
