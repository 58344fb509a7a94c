"""Pierson-Moskowitz wave spectrum and finite-harmonic sea-surface realization.

The fluctuating sea surface is modeled as a sum of a few sinusoidal harmonics
whose amplitudes sample the fully-developed wind-sea spectrum; wavelengths
follow deep-water dispersion.  The realization is long-crested (1D) along the
Tx-Rx axis and fully reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81          # m/s^2
PM_ALPHA = 8.1e-3       # spectrum level constant
PM_BETA = 0.74          # spectrum shape constant


def pm_spectrum(omega, v_w: float):
    """Pierson-Moskowitz spectral density S(omega) in m^2*s.

    Accepts scalar or array angular frequency; all frequencies must be
    positive.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if np.any(omega_arr <= 0):
        raise ValueError("angular frequency must be positive")
    if v_w <= 0:
        raise ValueError(f"wind speed must be positive, got {v_w}")
    s = (PM_ALPHA * GRAVITY**2 / omega_arr**5
         * np.exp(-PM_BETA * (GRAVITY / (v_w * omega_arr))**4))
    return s if s.ndim else float(s)


def pm_peak_frequency(v_w: float) -> float:
    """Angular frequency of the spectral peak: (g/v_w)*(4*beta/5)^(1/4)."""
    if v_w <= 0:
        raise ValueError(f"wind speed must be positive, got {v_w}")
    return GRAVITY / v_w * (4.0 * PM_BETA / 5.0) ** 0.25


def pm_total_variance(v_w: float) -> float:
    """Closed-form total variance m0 of the spectrum: a0*v_w^4/(4*beta*g^2)."""
    if v_w <= 0:
        raise ValueError(f"wind speed must be positive, got {v_w}")
    return PM_ALPHA * v_w**4 / (4.0 * PM_BETA * GRAVITY**2)


@dataclass(frozen=True)
class WaveSpectrumConfig:
    """Wind speed, harmonic count, sampled frequency band, and seed.

    The default band [0.5, 2.5]*omega_peak captures over 95% of the spectrum
    variance, which keeps even a 5-harmonic realization representative.
    """

    v_w: float
    n_harmonics: int = 5
    omega_lo: float | None = None  # rad/s; default 0.5 * peak frequency
    omega_hi: float | None = None  # rad/s; default 2.5 * peak frequency
    seed: int = 0

    def __post_init__(self):
        if self.v_w <= 0:
            raise ValueError(f"wind speed must be positive, got {self.v_w}")
        if self.n_harmonics < 1:
            raise ValueError(f"need at least one harmonic, got {self.n_harmonics}")
        lo, hi = self.band()
        if not (0 < lo < hi):
            raise ValueError(f"invalid frequency band ({lo}, {hi})")

    def band(self) -> tuple[float, float]:
        wp = pm_peak_frequency(self.v_w)
        lo = 0.5 * wp if self.omega_lo is None else self.omega_lo
        hi = 2.5 * wp if self.omega_hi is None else self.omega_hi
        return lo, hi


@dataclass(frozen=True)
class HarmonicSet:
    """A finite set of sinusoidal waves realizing the sampled spectrum."""

    amplitudes: np.ndarray   # A_i, m
    omegas: np.ndarray       # rad/s
    phases: np.ndarray       # xi_i, rad in [0, 2*pi)

    @property
    def wavelengths(self) -> np.ndarray:  # m, deep-water dispersion
        return 2.0 * math.pi * GRAVITY / np.asarray(self.omegas)**2

    @property
    def periods(self) -> np.ndarray:
        return 2.0 * math.pi / self.omegas


def build_harmonics(cfg: WaveSpectrumConfig) -> HarmonicSet:
    """Sample the spectrum at equally spaced frequencies (bin centers) and
    realize each bin as one sinusoid with A_i = sqrt(2*S(omega_i)*d_omega) and
    an independent uniform phase from the seeded generator.
    """
    lo, hi = cfg.band()
    d_omega = (hi - lo) / cfg.n_harmonics
    omegas = lo + (np.arange(cfg.n_harmonics) + 0.5) * d_omega
    amplitudes = np.sqrt(2.0 * pm_spectrum(omegas, cfg.v_w) * d_omega)
    rng = np.random.default_rng(cfg.seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_harmonics)
    return HarmonicSet(amplitudes=amplitudes, omegas=omegas, phases=phases)


def surface_height(h: HarmonicSet, t, x):
    """Sea-surface elevation above the calm level at time t and position x.

    t and x broadcast against each other; scalar inputs give a float.  The
    harmonics lie along a leading axis and are summed in index order, one
    whole (broadcast t, x) slice at a time.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    col = (-1,) + (1,) * max(t.ndim, x.ndim)
    amp, omega, k, phase = (np.reshape(v, col) for v in
                            (h.amplitudes, h.omegas, 2.0 * math.pi / h.wavelengths, h.phases))
    terms = amp * np.sin(omega * t - k * x + phase)
    if terms.size == len(terms) > 0:
        # numpy runs a reduce to one element as a pairwise row sum, out of index
        # order from 8 harmonics up; accumulate keeps the order
        z = np.add.accumulate(terms, axis=0)[-1]
    else:
        z = np.add.reduce(terms, axis=0)
    return float(z) if z.ndim == 0 else z


def significant_wave_height(h: HarmonicSet) -> float:
    """Hs = 4*sqrt(variance) of the harmonic realization."""
    return 4.0 * math.sqrt(float(np.sum(h.amplitudes**2) / 2.0))
