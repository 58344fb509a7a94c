"""Least-squares fitting of path loss exponents and shadow-fading sigma.

All fits minimize dB-domain RMSE, which for zero-mean residuals is also the
shadow-fading standard deviation reported alongside each model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import LinkGeometry, break_distance
from .pathloss import CiParams, DualSlopeParams, SeaStateParams, fspl, mtr_regressor
from .pathloss import mtr_factors  # noqa: F401  names the benchmark tracer wraps


@dataclass(frozen=True)
class PathLossSample:
    d: float      # m
    pl_db: float  # measured path loss, dB

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError(f"sample distance must be positive and finite, got {self.d}")
        if not math.isfinite(self.pl_db):
            raise ValueError(f"sample path loss must be finite, got {self.pl_db}")


@dataclass
class PlFitReport:
    params: CiParams | DualSlopeParams
    rmse_db: float
    n_samples: int
    residuals: np.ndarray = field(repr=False)
    warnings: list[str] = field(default_factory=list)


def _as_arrays(samples: list[PathLossSample]) -> tuple[np.ndarray, np.ndarray]:
    d = np.array([s.d for s in samples], dtype=float)
    pl = np.array([s.pl_db for s in samples], dtype=float)
    return d, pl


def fit_ci(samples: list[PathLossSample], f: float, d0: float = 1.0) -> PlFitReport:
    """Closed-form least-squares fit of the single path loss exponent."""
    d, pl = _as_arrays(samples)
    if len(d) < 2:
        raise ValueError("need at least 2 samples to fit the CI model")
    if np.any(d < d0):
        raise ValueError("all sample distances must be >= the reference distance")
    a = pl - fspl(f, d0)
    b = 10.0 * np.log10(d / d0)
    denom = float(np.dot(b, b))
    if denom == 0.0:
        raise ValueError("degenerate design: all samples at the reference distance")
    if np.ptp(d) == 0.0:
        raise ValueError("degenerate design: all samples at one distance")
    n = float(np.dot(a, b) / denom)
    residuals = a - n * b
    rmse = float(np.sqrt(np.mean(residuals**2)))
    return PlFitReport(params=CiParams(n=n, d0=d0, sigma_sf=rmse),
                       rmse_db=rmse, n_samples=len(d), residuals=residuals)


def fit_dual_ci(samples: list[PathLossSample], f: float, d_break: float,
                d0: float = 1.0) -> PlFitReport:
    """Joint OLS fit of (n1, n2) for the dual-slope CI model, which is linear
    in both exponents; continuity at the break distance holds by construction.

    Falls back to the single-slope fit (flagged) when no samples lie beyond
    the break distance.
    """
    d, pl = _as_arrays(samples)
    if np.any(d < d0):
        raise ValueError("all sample distances must be >= the reference distance")
    beyond = d > d_break
    if not np.any(beyond):
        ci = fit_ci(samples, f, d0)
        report = PlFitReport(
            params=DualSlopeParams(n1=ci.params.n, n2=math.nan, d_break=d_break,
                                   sigma_sf=ci.rmse_db),
            rmse_db=ci.rmse_db, n_samples=ci.n_samples, residuals=ci.residuals)
        report.warnings.append("no samples beyond the break distance; n2 unset")
        return report

    a = pl - fspl(f, d0)
    x1 = np.where(beyond, 10.0 * np.log10(d_break / d0), 10.0 * np.log10(d / d0))
    x2 = np.where(beyond, 10.0 * np.log10(d / d_break), 0.0)
    design = np.column_stack([x1, x2])
    coef, *_ = np.linalg.lstsq(design, a, rcond=None)
    residuals = a - design @ coef
    rmse = float(np.sqrt(np.mean(residuals**2)))
    params = DualSlopeParams(n1=float(coef[0]), n2=float(coef[1]),
                             d_break=d_break, sigma_sf=rmse)
    return PlFitReport(params=params, rmse_db=rmse, n_samples=len(d), residuals=residuals)


def fit_dual_ci_mtr(samples: list[PathLossSample], geom: LinkGeometry,
                    sea: SeaStateParams, d_break: float | None = None,
                    **mtr_kwargs) -> PlFitReport:
    """Joint OLS fit of (n1, n2) for the dual-slope CI-MTR model.  The break
    distance is taken from the link geometry unless given explicitly.

    Null-flagged samples (exact interference nulls of the model) are excluded
    from the design matrix; a warning is attached when they exceed 20%.  As in
    ``fit_dual_ci``, n2 is nan (flagged) when no sample lies beyond the break.
    """
    if d_break is None:
        d_break = break_distance(geom)
    d, pl = _as_arrays(samples)
    g = mtr_regressor(geom, sea, np.minimum(d, d_break), **mtr_kwargs)
    ok = np.isfinite(g)
    n_null = int(np.sum(~ok))
    d_ok, pl_ok, g_ok = d[ok], pl[ok], g[ok]
    if len(d_ok) < 2:
        raise ValueError("too few non-null samples to fit")

    beyond = d_ok > d_break
    x2 = np.where(beyond, 10.0 * np.log10(d_ok / d_break), 0.0)
    design = np.column_stack([g_ok, x2])
    # with no sample beyond the break x2 is all zero, and lstsq's minimum-norm
    # solution fits n1 alone
    coef, *_ = np.linalg.lstsq(design, pl_ok, rcond=None)
    residuals = pl_ok - design @ coef
    rmse = float(np.sqrt(np.mean(residuals**2)))
    params = DualSlopeParams(n1=float(coef[0]), n2=float(coef[1]) if beyond.any() else math.nan,
                             d_break=d_break, sigma_sf=rmse)
    report = PlFitReport(params=params, rmse_db=rmse, n_samples=len(d_ok),
                         residuals=residuals)
    if not beyond.any():
        report.warnings.append("no samples beyond the break distance; n2 unset")
    if n_null > 0.2 * len(d):
        report.warnings.append(f"{n_null}/{len(d)} samples null-flagged and excluded")
    return report


def shadow_sigma(samples: list[PathLossSample], model_evaluator) -> float:
    """RMS of (measured - model) in dB; ``model_evaluator`` maps an array of
    distances to model path losses.
    """
    if not samples:
        raise ValueError("need at least one sample")
    d, pl = _as_arrays(samples)
    residuals = pl - model_evaluator(d)
    return float(np.sqrt(np.mean(residuals**2)))
