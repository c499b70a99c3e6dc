"""Workload definitions: how each input capture is built and cancelled.

Every workload is a closed loop with one client: the benchmark starts the
next `stsa cancel` only after the previous one has exited.  The workload
seed shifts every RNG seed by SEED_STRIDE * seed, so seed 0 reproduces the
reference scenarios exactly (fm_ref at seed 0 is the acceptance FM scenario:
8,000 blocks, 15,478 estimates, 43 tracks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RATE_HZ = 2048000.0
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    capture_s: float
    fmt: str
    block_len_n: int
    max_peel: int
    passes: int
    band_hz: tuple
    estimator_args: tuple
    # (min suppression dB, max |out-of-band delta| dB), or None
    acceptance: tuple | None = None

    @property
    def cancel_args(self) -> tuple:
        """`stsa cancel` arguments other than the file paths."""
        return (
            "--rate", repr(RATE_HZ), "--format", self.fmt,
            "--n", str(self.block_len_n), "--max-peel", str(self.max_peel),
            "--passes", str(self.passes),
            "--band", repr(self.band_hz[0]), repr(self.band_hz[1]),
            *self.estimator_args,
        )

    def build(self, siggen, seed: int):
        """Generate the input stream with the given stsa.siggen module."""
        return _BUILDERS[self.name](siggen, seed * SEED_STRIDE, self.capture_s)


def _build_fm_ref(siggen, shift, duration):
    spec = siggen.NbfmSpec(
        carrier_offset_hz=0.0,
        deviation_hz=4000.0,
        duration_s=duration,
        mod_noise_bw_hz=1000.0,
        mod_noise_seed=7 + shift,
        mod_noise_rms=0.9,
    )
    clean, _ = siggen.gen_nbfm(spec, RATE_HZ)
    return siggen.add_awgn(clean, 34.0, spec.carson_band_hz(), 99 + shift)


# Station amplitudes follow acceptance criterion 6; the common 0.35 factor
# keeps the int8 capture from clipping (peak component about 0.9).
_STATIONS = ((-25000.0, 1.0, 31), (0.0, 10 ** -0.5, 32), (25000.0, 10 ** -0.7, 33))
_STATION_SCALE = 0.35


def _build_three_station(siggen, shift, duration):
    streams = []
    for offset, amp, mod_seed in _STATIONS:
        spec = siggen.NbfmSpec(
            carrier_offset_hz=offset,
            deviation_hz=4000.0,
            duration_s=duration,
            amp=_STATION_SCALE * amp,
            mod_noise_bw_hz=1000.0,
            mod_noise_seed=mod_seed + shift,
        )
        streams.append(siggen.gen_nbfm(spec, RATE_HZ)[0])
    mixed = siggen.mix(streams)
    # calibrate the floor so the strongest station sees 34 dB in its band
    snr_db = 34.0 + 10.0 * math.log10(mixed.power() / streams[0].power())
    return siggen.add_awgn(mixed, snr_db, (-30000.0, -20000.0), 44 + shift)


def _build_long_hires(siggen, shift, duration):
    n = int(round(duration * RATE_HZ))
    clean, _ = siggen.gen_am(10000.0, 1.0, 0.5, 50.0, n, RATE_HZ)
    return siggen.add_awgn(clean, 40.0, (9000.0, 11000.0), 5 + shift)


_BUILDERS = {
    "fm_ref": _build_fm_ref,
    "three_station": _build_three_station,
    "long_hires": _build_long_hires,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fm_ref",
            why="acceptance NBFM scenario; the per-block loop and 43 full-length "
                "track buffers dominate time and peak memory",
            capture_s=1.0,
            fmt="f32",
            block_len_n=256,
            max_peel=3,
            passes=1,
            band_hz=(-5000.0, 5000.0),
            estimator_args=("--threshold-db", "9"),
            acceptance=(14.0, 0.5),
        ),
        Workload(
            name="three_station",
            why="three-station i8 mixture, two passes: most peels per block, "
                "few tracks, so estimator cost shows and synthesis memory does not",
            capture_s=1.0,
            fmt="i8",
            block_len_n=256,
            max_peel=8,
            passes=2,
            band_hz=(-30000.0, 30000.0),
            estimator_args=("--threshold-db", "12"),
        ),
        Workload(
            name="long_hires",
            why="4 s AM capture with 2048-sample blocks: per-sample I/O, rendering "
                "and report work grow, per-block overhead shrinks",
            capture_s=4.0,
            fmt="f32",
            block_len_n=2048,
            max_peel=2,
            passes=1,
            band_hz=(9000.0, 11000.0),
            estimator_args=("--window", "hamming", "--threshold-db", "12"),
        ),
    )
}
