"""The estimator against the Cramér–Rao bound (Rife & Boorstyn 1974).

One tone of unit amplitude per block, at a frequency uniform over ±0.3 Fs and
a uniform phase, in complex white noise of variance sigma2 (the per-sample
SNR is 1/sigma2), with max_peel 1.  With times referenced to the block
center, the bounds decouple:

  var(freq) >= 6 sigma2 / (N (N^2 - 1)) * (Fs / 2 pi)^2
  var(amp)  >= sigma2 / (2 N)
  var(phase) >= sigma2 / (2 N)

With the rectangular window the estimator is the maximum-likelihood
single-tone fit, quantised to the fine grid, so its frequency error adds the
grid's step^2/12 and each RMSE ÷ √bound is 1.  A window w costs amplitude and
phase its noise loss √(N Σw² / (Σw)²), and frequency the loss
√(Σw²n² Σn² / (Σwn²)²) of a weighted fit over centered times n (applied to
the bound, not to the grid term).  Each ratio must lie within 6 % of that
expectation, at N = 256 and at N = 2048, with 2,000 blocks per cell.  Over
seeds 0-39 per cell every ratio fell within 3.7 % at N = 256, with a standard
deviation of 1.0-1.6 %, and within 4.5 % at N = 2048, with a standard
deviation of 1.0-1.8 %.  The mean errors must be zero within four standard
errors; at N = 2048 the largest |z| over those seeds was 3.9 (rectangular
window, 30 dB, amplitude), where the grid's scalloping loss moves the mean z
to -1.2 (seed 0, the one tested, reads -1.4).
"""

import numpy as np
import pytest

from stsa.blockproc import StsaConfig, process_stream, window_values, wrap_phase
from stsa.iq import SampleStream

RATE = 2048000.0
BLOCKS = 2000
BAND = 0.06  # relative half-width of each ratio's band
MAX_BIAS_Z = 4.0


def noise_losses(window: str, N: int) -> tuple[float, float]:
    """RMSE ratios a window costs: (frequency, amplitude and phase)."""
    w = window_values(window, N)
    n = np.arange(N) - (N - 1) / 2
    freq = np.sqrt((w**2 * n**2).sum() * (n**2).sum() / (w * n**2).sum() ** 2)
    return float(freq), float(np.sqrt(N * (w**2).sum() / w.sum() ** 2))


@pytest.mark.parametrize("N", [256, 2048])
@pytest.mark.parametrize("snr_db", [10.0, 30.0])
@pytest.mark.parametrize("window", ["rectangular", "triangular"])
def test_rmse_meets_the_cramer_rao_bound(window, snr_db, N):
    rng = np.random.default_rng(0)
    freq = rng.uniform(-0.3, 0.3, BLOCKS) * RATE
    phase = rng.uniform(-np.pi, np.pi, BLOCKS)
    sigma2 = 10 ** (-snr_db / 10)
    t = (np.arange(N) - (N - 1) / 2) / RATE
    x = np.exp(1j * (2 * np.pi * freq[:, None] * t + phase[:, None]))
    x.real += np.sqrt(sigma2 / 2) * rng.standard_normal(x.shape)  # in place: 65 MB at N = 2048
    x.imag += np.sqrt(sigma2 / 2) * rng.standard_normal(x.shape)
    config = StsaConfig(block_len_n=N, window=window, detect_threshold_db=6.0, max_peel=1)
    est = process_stream(SampleStream(x.reshape(-1), RATE), config)
    assert est.block_index.tolist() == list(range(BLOCKS))  # exactly one estimate per block

    crb_freq = 6 * sigma2 / (N * (N**2 - 1)) * (RATE / (2 * np.pi)) ** 2
    grid = (config.fine_grid_fraction * config.bin_width_hz(RATE)) ** 2 / 12
    loss_freq, loss = noise_losses(window, N)
    errors = {"freq": est.freq_hz - freq, "amp": est.amp - 1.0,
              "phase": wrap_phase(est.phase_rad - phase)}
    bounds = {"freq": crb_freq + grid, "amp": sigma2 / (2 * N), "phase": sigma2 / (2 * N)}
    expected = {"freq": np.sqrt((loss_freq**2 * crb_freq + grid) / (crb_freq + grid)),
                "amp": loss, "phase": loss}
    for name, err in errors.items():
        ratio = np.sqrt(np.mean(err**2) / bounds[name])
        assert abs(ratio / expected[name] - 1) <= BAND, (name, ratio, expected[name])
        z = np.mean(err) / (np.std(err) / np.sqrt(BLOCKS))
        assert abs(z) <= MAX_BIAS_Z, (name, z)
