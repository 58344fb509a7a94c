"""Correctness checks on the program's outputs.

Each check compares an output with a computation made here, apart from the
library, or with a property the method must have.  None compares with a
stored copy of an earlier output.  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# SWIFT
# ---------------------------------------------------------------------------

def reflection_balance(label: str, d: float, ht, hr, d1, rel_tol: float = 1e-9) -> list[str]:
    """The reflection point splits the path in the ratio of the effective
    heights: |d1*hr - (d - d1)*ht| <= rel_tol*d at every step.  This is the
    solver's own stopping rule, and it holds whichever root is taken.
    """
    ht, hr, d1 = (np.asarray(a, dtype=float) for a in (ht, hr, d1))
    worst = float(np.max(np.abs(d1 * hr - (d - d1) * ht))) / d
    return _fail(worst <= rel_tol, f"{label}: reflection balance off by {worst:.3g}*d")


def sea_surface(amplitudes, omegas, phases, wavelengths, t: float, x: float) -> float:
    """Surface elevation summed harmonic by harmonic."""
    return math.fsum(a * math.sin(w * t - 2.0 * math.pi * x / lam + p)
                     for a, w, p, lam in zip(amplitudes, omegas, phases, wavelengths))


def effective_heights(label: str, h_t: float, h_r: float, d: float, harmonics,
                      t, ht, hr, d1, tol: float = 1e-9) -> list[str]:
    """At the given steps, h_t,eff = h_t - eta(t, d1) and
    h_r,eff = h_r + eta(t, d) - eta(t, d1) for the surface eta summed here.
    """
    fields = (harmonics.amplitudes, harmonics.omegas, harmonics.phases, harmonics.wavelengths)
    worst = 0.0
    for ti, hti, hri, xi in zip(t, ht, hr, d1):
        at_point = sea_surface(*fields, float(ti), float(xi))
        at_rx = sea_surface(*fields, float(ti), d)
        worst = max(worst, abs(hti - (h_t - at_point)), abs(hri - (h_r + at_rx - at_point)))
    return _fail(worst <= tol,
                 f"{label}: effective heights off the summed surface by {worst:.3g} m")


def zero_mean(label: str, fading) -> list[str]:
    """A de-meaned series has a zero mean over its finite samples."""
    mean = float(np.nanmean(fading))
    return _fail(abs(mean) <= 1e-9, f"{label}: de-meaned fading has mean {mean:.3g} dB")


def monotone(label: str, gains, share: float = 0.9, min_pairs: int = 50) -> list[str]:
    """Fading grows (gain > 0) in at least ``share`` of the seed pairs, and in
    the median, over at least ``min_pairs`` pairs (criterion 6: 45 of 50).
    """
    gains = np.asarray(gains, dtype=float)
    wins = int(np.sum(gains > 0))
    if gains.size < min_pairs:
        return [f"{label}: only {gains.size} seed pairs, need {min_pairs}"]
    ok = wins >= math.ceil(share * gains.size) and float(np.median(gains)) > 0
    return _fail(ok, f"{label}: fading grew in {wins} of {gains.size} seed pairs")


# ---------------------------------------------------------------------------
# envelope fits
# ---------------------------------------------------------------------------

_THETA, _THETA_W = np.polynomial.legendre.leggauss(256)
_THETA = 0.5 * math.pi * (_THETA + 1.0)
_THETA_W = 0.5 * math.pi * _THETA_W


def twdp_pdf(x, k: float, delta: float, sigma: float):
    """TWDP density as the uniform phase mixture of Rician densities
    (Durgin, Rappaport and de Wolf, IEEE TCOM 2002): for inter-wave phase
    theta the envelope is Rician with specular power
    2*sigma^2*K*(1 - Delta*cos(theta)).  Rician densities from scipy.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = np.sqrt(2.0 * k * (1.0 - delta * np.cos(_THETA)))
    dens = stats.rice.pdf(x[:, None], b[None, :], scale=sigma)
    return dens @ _THETA_W / math.pi


def twdp_cdf_by_quad(x: float, k: float, delta: float, sigma: float) -> float:
    """TWDP CDF by adaptive quadrature of :func:`twdp_pdf`."""
    val, _ = integrate.quad(lambda r: float(twdp_pdf(r, k, delta, sigma)[0]), 0.0, x,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def loglik(family: str, params: dict, x) -> float:
    """Log-likelihood of a family's parameters on x, computed here with scipy
    densities or closed forms.
    """
    x = np.asarray(x, dtype=float)
    p = params
    if family == "rician":
        return float(np.sum(stats.rice.logpdf(x, p["s"] / p["sigma"], scale=p["sigma"])))
    if family == "nakagami":
        return float(np.sum(stats.nakagami.logpdf(x, p["mu"], scale=math.sqrt(p["omega"]))))
    if family == "lognormal":
        return float(np.sum(stats.lognorm.logpdf(x, p["sigma"], scale=math.exp(p["mu"]))))
    if family == "laplace":
        return float(np.sum(stats.laplace.logpdf(x, loc=p["mu"], scale=p["b"])))
    if family == "asym-laplace":
        z = x - p["mu"]
        expo = np.where(z < 0, z / p["b1"], -z / p["b2"])
        return float(np.sum(expo) - x.size * math.log(p["b1"] + p["b2"]))
    if family == "twdp":
        return float(np.sum(np.log(twdp_pdf(x, p["k"], p["delta"], p["sigma"]))))
    raise ValueError(f"unknown family {family!r}")


_LENGTH_PARAMS = {"rician": ("s", "sigma"), "twdp": ("sigma",), "laplace": ("mu", "b"),
                  "asym-laplace": ("mu", "b1", "b2")}


def unit_mean_params(family: str, params: dict, c: float) -> dict:
    """Generating parameters for the data divided by c (its sample mean)."""
    p = dict(params)
    if family == "lognormal":
        p["mu"] -= math.log(c)
    elif family == "nakagami":
        p["omega"] /= c * c
    else:
        for name in _LENGTH_PARAMS[family]:
            p[name] /= c
    return p


def mle_not_worse(label: str, fitted_ll: float, truth_ll: float, tol: float) -> list[str]:
    """A maximum-likelihood fit scores at least the generating parameters."""
    return _fail(fitted_ll >= truth_ll - tol,
                 f"{label}: fitted log-likelihood {fitted_ll:.6f} below the generating "
                 f"parameters' {truth_ll:.6f}")


def matches(label: str, program, reference, tol: float) -> list[str]:
    """Values agree with the reference to ``tol`` everywhere."""
    worst = float(np.max(np.abs(np.asarray(program) - np.asarray(reference))))
    return _fail(worst <= tol, f"{label}: off the reference by {worst:.3g}")


def ks_critical(n: int, alpha: float = 1e-6) -> float:
    """Dvoretzky-Kiefer-Wolfowitz bound: P(KS > value) <= alpha for the true model."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_below(label: str, ks: float, n: int) -> list[str]:
    crit = ks_critical(n)
    return _fail(0.0 <= ks < crit, f"{label}: KS {ks:.4g} of the generating model is not "
                                   f"below {crit:.4g} (n={n})")


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

def fspl_points(d, pl, f_c: float, tol_db: float = 1e-9) -> list[str]:
    d, pl = np.asarray(d, dtype=float), np.asarray(pl, dtype=float)
    ref = 20.0 * np.log10(4.0 * math.pi * f_c * d / SPEED_OF_LIGHT)
    worst = float(np.max(np.abs(pl - ref)))
    return _fail(worst <= tol_db, f"fspl sweep off 20*log10(4*pi*f*d/c) by {worst:.3g} dB")


def dual_slope_recovery(fit: dict, design, sigma: float, n1: float, n2: float,
                        z: float = 6.0) -> list[str]:
    """OLS on [g(d), 10*log10(d/d_break)] recovers (n1, n2) within z standard
    errors of shadowing with std sigma, and its RMSE lies within z standard
    errors of sigma.
    """
    x = np.asarray(design, dtype=float)
    se = sigma * np.sqrt(np.diag(np.linalg.inv(x.T @ x)))
    se_rmse = sigma / math.sqrt(2.0 * x.shape[0])
    p = fit["params"]
    ok = (abs(p["n1"] - n1) <= z * se[0] and abs(p["n2"] - n2) <= z * se[1]
          and abs(fit["rmse_db"] - sigma) <= z * se_rmse)
    return _fail(ok, f"dual-ci-mtr fit n1={p['n1']:.5f}, n2={p['n2']:.5f}, "
                     f"rmse={fit['rmse_db']:.4f} dB against ({n1}, {n2}, {sigma}) "
                     f"with standard errors ({se[0]:.2g}, {se[1]:.2g}, {se_rmse:.2g})")


def exp_pdp(gamma: float, delta_tau: float, n_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form exponential PDP normalized to unit total power."""
    delays = np.arange(n_taps) * delta_tau
    powers = np.exp(-delays / gamma)
    return delays, powers / powers.sum()


def pdp_taps(powers, gamma: float, delta_tau: float, tol_db: float = 0.5) -> list[str]:
    powers = np.asarray(powers, dtype=float)
    _, ref = exp_pdp(gamma, delta_tau, powers.size)
    worst = float(np.max(np.abs(10.0 * np.log10(powers / ref))))
    return _fail(worst < tol_db, f"extracted PDP taps off the exponential PDP by {worst:.3f} dB")


def delay_spread(rms_s: float, gamma: float, delta_tau: float, n_taps: int,
                 rel_tol: float = 0.01) -> list[str]:
    delays, p = exp_pdp(gamma, delta_tau, n_taps)
    mean = float(np.sum(delays * p))
    ref = math.sqrt(float(np.sum(delays**2 * p)) - mean**2)
    return _fail(abs(rms_s - ref) <= rel_tol * ref,
                 f"RMS delay spread {rms_s * 1e9:.4f} ns against {ref * 1e9:.4f} ns")


def sparsity_of_pdp(report: dict, gamma: float, delta_tau: float, n_taps: int) -> list[str]:
    """Gini by the mean absolute difference and K as strongest-to-rest power,
    on the closed-form PDP.
    """
    _, p = exp_pdp(gamma, delta_tau, n_taps)
    gini = float(np.sum(np.abs(p[:, None] - p[None, :]))) / (2.0 * n_taps * p.sum())
    k_db = 10.0 * math.log10(p.max() / (p.sum() - p.max()))
    ok = abs(report["gini"] - gini) <= 0.01 and abs(report["k_factor_db"] - k_db) <= 0.5
    return _fail(ok, f"sparsity gini={report['gini']:.4f}, K={report['k_factor_db']:.3f} dB "
                     f"against {gini:.4f}, {k_db:.3f} dB")


def lemma_report(report: dict, n_trials: int) -> list[str]:
    ok = (report["n_trials"] == n_trials and report["random_split_violations"] == 0
          and report["max_equal_split_gap"] < 1e-12)
    return _fail(ok, f"lemma-check reported {report}")


def density_integrates(density, bin_width: float) -> list[str]:
    total = float(np.sum(np.asarray(density, dtype=float))) * bin_width
    return _fail(abs(total - 1.0) <= 1e-9, f"histogram PDF integrates to {total!r}")


def identical(label: str, a: bytes, b: bytes) -> list[str]:
    return _fail(a == b, f"{label}: replay output differs from the recorded run")
