"""Estimator fixture shared by the kernel, simulator and acceptance
tests: a pair of windows with an exactly known delay between them."""

import math

import numpy as np

from phonotdoa.simulator import _noise_excitation, _shifted


def synthesize_pure_shift(
    n: int,
    delay_samples: float,
    snr_db: float,
    seed: int = 0,
    sample_rate: int = 192000,
    band=(100.0, 8000.0),
    echo=None,
) -> tuple:
    """Synthetic estimator benchmark: (bottom, top) windows where the
    top channel is the bottom one delayed by exactly delay_samples, plus
    independent white noise on both at the given SNR.

    echo=(lag, amp) adds a delayed copy of the source to the top channel
    on top of the direct path (multipath stress case).
    """
    rng = np.random.default_rng(seed)
    margin = int(math.ceil(abs(delay_samples))) + (int(echo[0]) if echo else 0) + 64
    clean = _noise_excitation(rng, n + 2 * margin, sample_rate, band)
    rms = math.sqrt(float(np.mean(clean**2)))
    if rms > 0:
        clean = clean / rms

    # the band-limited source is periodic in its own length, so a spectral
    # shift at that period is its exact delay; a zero-padded FFT would wrap
    # the periodic-sinc tails of a fractional shift into the window
    taus = (delay_samples,) if echo is None else (delay_samples, delay_samples + float(echo[0]))
    paths = _shifted(np.fft.rfft(clean), taus, len(clean))
    bottom_full = clean
    top_full = paths[0] if echo is None else paths[0] + float(echo[1]) * paths[1]

    sigma = 10.0 ** (-snr_db / 20.0)
    a = bottom_full[margin : margin + n] + rng.normal(0.0, sigma, n)
    b = top_full[margin : margin + n] + rng.normal(0.0, sigma, n)
    return a, b
