"""Temporal dispersion statistics: RMS delay spread and single-slope
exponential power-delay-profile fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparsity import PdpRecord


@dataclass(frozen=True)
class DelayStats:
    mean_excess_delay: float  # s
    rms_delay_spread: float   # s


@dataclass(frozen=True)
class ExpPdpFit:
    p0_bar: float   # normalized first-tap mean power
    gamma: float    # decay constant, s
    r2: float       # goodness of the log-linear fit
    decaying: bool = True  # False when the fitted slope is non-negative


def delay_stats(p: PdpRecord) -> DelayStats:
    """Power-weighted first and second delay moments on excess delay (relative
    to the first arrival; the spread itself is offset-invariant).
    """
    total = p.total_power
    if total <= 0:
        raise ValueError("total power must be positive")
    tau = p.delays - p.delays[0]
    w = p.powers / total
    mean = float(np.sum(tau * w))
    second = float(np.sum(tau**2 * w))
    return DelayStats(mean_excess_delay=mean,
                      rms_delay_spread=math.sqrt(max(second - mean**2, 0.0)))


def fit_exp_pdp(p: PdpRecord) -> ExpPdpFit:
    """Log-domain least squares of the normalized tap powers against excess
    delay: P_n/P_tot = p0_bar * exp(-tau_n/gamma).

    Non-decaying data (slope >= 0) yields a flagged fit with gamma = +inf.
    """
    mask = p.powers > 0
    if int(np.sum(mask)) < 2:
        raise ValueError("need at least 2 positive taps")
    tau = p.delays[mask] - p.delays[0]
    y = np.log(p.powers[mask] / p.total_power)
    slope, intercept = np.polyfit(tau, y, 1)
    resid = y - (slope * tau + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    if slope >= 0:
        return ExpPdpFit(p0_bar=float(np.exp(intercept)), gamma=math.inf,
                         r2=r2, decaying=False)
    return ExpPdpFit(p0_bar=float(np.exp(intercept)), gamma=-1.0 / float(slope), r2=r2)


def synth_exp_pdp(gamma: float, delta_tau: float, n_taps: int, tap_fading=None,
                  seed: int | None = None) -> PdpRecord:
    """Exponentially decaying PDP at uniform tap spacing, normalized to unit
    total power; ``tap_fading`` (a fading model with a ``sample`` method)
    multiplies each tap's amplitude independently.
    """
    if gamma <= 0 or delta_tau <= 0 or n_taps < 1:
        raise ValueError("gamma, delta_tau, n_taps must be positive")
    delays = np.arange(n_taps) * delta_tau
    powers = np.exp(-delays / gamma)
    if tap_fading is not None:
        rng = np.random.default_rng(seed)
        powers = powers * tap_fading.sample(n_taps, rng) ** 2
    powers /= np.sum(powers)
    return PdpRecord(delays=delays, powers=powers)
