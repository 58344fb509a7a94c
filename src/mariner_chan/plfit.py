"""Least-squares fitting of path loss exponents and shadow-fading sigma.

Every fit takes the measured distances ``d`` (m) and path losses ``pl`` (dB)
as two equal-length arrays.  All fits minimize dB-domain RMSE, which for
zero-mean residuals is also the shadow-fading standard deviation reported
alongside each model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import LinkGeometry, break_distance
from .pathloss import CiParams, DualSlopeParams, SeaStateParams, fspl, mtr_regressor
from .pathloss import mtr_factors  # noqa: F401  names the benchmark tracer wraps


@dataclass
class PlFitReport:
    params: CiParams | DualSlopeParams
    rmse_db: float
    n_samples: int
    residuals: np.ndarray = field(repr=False)
    warnings: list[str] = field(default_factory=list)


def _samples(d, pl) -> tuple[np.ndarray, np.ndarray]:
    """``d`` and ``pl`` as float arrays, checked: equal lengths, not empty,
    distances positive and finite, path losses finite."""
    d, pl = np.asarray(d, dtype=float), np.asarray(pl, dtype=float)
    if d.shape != pl.shape:
        raise ValueError(f"distances and path losses differ in length: {d.size} and {pl.size}")
    if d.size == 0:
        raise ValueError("need at least one sample")
    bad = ~(np.isfinite(d) & (d > 0))
    if bad.any():
        raise ValueError(f"sample distance must be positive and finite, got {float(d[bad][0])}")
    bad = ~np.isfinite(pl)
    if bad.any():
        raise ValueError(f"sample path loss must be finite, got {float(pl[bad][0])}")
    return d, pl


def _check_design(d: np.ndarray, g: np.ndarray) -> None:
    """Reject designs that leave the first exponent undetermined; ``g`` is
    its regressor, zero at the reference distance."""
    if d.size < 2:
        raise ValueError(f"need at least 2 samples to fit, got {d.size}")
    if not g.any():
        raise ValueError("degenerate design: all samples at the reference distance")
    if np.ptp(d) == 0.0:
        raise ValueError("degenerate design: all samples at one distance")


def fit_ci(d, pl, f: float, d0: float = 1.0) -> PlFitReport:
    """Closed-form least-squares fit of the single path loss exponent."""
    d, pl = _samples(d, pl)
    if np.any(d < d0):
        raise ValueError("all sample distances must be >= the reference distance")
    a = pl - fspl(f, d0)
    b = 10.0 * np.log10(d / d0)
    _check_design(d, b)
    n = float(np.dot(a, b) / np.dot(b, b))
    residuals = a - n * b
    rmse = float(np.sqrt(np.mean(residuals**2)))
    return PlFitReport(params=CiParams(n=n, d0=d0, sigma_sf=rmse),
                       rmse_db=rmse, n_samples=len(d), residuals=residuals)


def _fit_dual(d: np.ndarray, y: np.ndarray, g: np.ndarray, d_break: float) -> PlFitReport:
    """Joint OLS fit of y = n1*g + n2*10*log10(d/d_break) beyond the break,
    where ``g`` is the first segment's regressor at min(d, d_break); n2 is
    nan (flagged) when no sample lies beyond the break."""
    _check_design(d, g)
    beyond = d > d_break
    x2 = np.where(beyond, 10.0 * np.log10(d / d_break), 0.0)
    design = np.column_stack([g, x2])
    # with no sample beyond the break x2 is all zero, and lstsq's minimum-norm
    # solution fits n1 alone
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    rmse = float(np.sqrt(np.mean(residuals**2)))
    params = DualSlopeParams(n1=float(coef[0]), n2=float(coef[1]) if beyond.any() else math.nan,
                             d_break=d_break, sigma_sf=rmse)
    report = PlFitReport(params=params, rmse_db=rmse, n_samples=len(d), residuals=residuals)
    if not beyond.any():
        report.warnings.append("no samples beyond the break distance; n2 unset")
    return report


def fit_dual_ci(d, pl, f: float, d_break: float, d0: float = 1.0) -> PlFitReport:
    """Joint OLS fit of (n1, n2) for the dual-slope CI model, which is linear
    in both exponents; continuity at the break distance holds by construction.
    """
    d, pl = _samples(d, pl)
    if np.any(d < d0):
        raise ValueError("all sample distances must be >= the reference distance")
    return _fit_dual(d, pl - fspl(f, d0), 10.0 * np.log10(np.minimum(d, d_break) / d0), d_break)


def fit_dual_ci_mtr(d, pl, geom: LinkGeometry, sea: SeaStateParams,
                    d_break: float | None = None, **mtr_kwargs) -> PlFitReport:
    """Joint OLS fit of (n1, n2) for the dual-slope CI-MTR model.  The break
    distance is taken from the link geometry unless given explicitly.

    Null-flagged samples (exact interference nulls of the model) are excluded
    from the design matrix; a warning is attached when they exceed 20%.  As in
    ``fit_dual_ci``, n2 is nan (flagged) when no sample lies beyond the break.
    """
    if d_break is None:
        d_break = break_distance(geom)
    d, pl = _samples(d, pl)
    g = mtr_regressor(geom, sea, np.minimum(d, d_break), **mtr_kwargs)
    ok = np.isfinite(g)
    n_null = int(np.sum(~ok))
    report = _fit_dual(d[ok], pl[ok], g[ok], d_break)
    if n_null > 0.2 * len(d):
        report.warnings.append(f"{n_null}/{len(d)} samples null-flagged and excluded")
    return report


def shadow_sigma(d, pl, model_evaluator) -> float:
    """RMS of (measured - model) in dB; ``model_evaluator`` maps an array of
    distances to model path losses.
    """
    d, pl = _samples(d, pl)
    return float(np.sqrt(np.mean((pl - model_evaluator(d))**2)))
