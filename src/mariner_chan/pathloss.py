"""Large-scale path loss models for over-water links.

Covers free space, the simplified two-ray model, the modified two-ray (MTR)
model with sea-surface divergence/shadowing/roughness factors, the close-in
(CI) reference-distance model, the dual-slope CI model, the dual-slope CI-MTR
model, and the dB-domain link-budget combinator.

Every evaluator takes its distance, and the MTR family its effective antenna
heights, as scalars or as arrays that broadcast together, and evaluates the
whole axis in one call; scalar inputs give a scalar.  Deterministic evaluators
never add shadow fading; use ``sample_shadow_fading`` to draw the dB-domain
random term separately.  Interference nulls of the idealized two-ray family are
reported elementwise as ``inf`` loss (use ``is_null``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc, i0e

from .geometry import (
    LinkGeometry,
    SPEED_OF_LIGHT,
    reflection_geometry,
    wavelength,
)


@dataclass(frozen=True)
class SeaStateParams:
    """Wind speed and sea-surface reflection coefficient."""

    v_w: float = 0.0  # wind speed, m/s
    gamma_refl: complex = -1.0 + 0.0j

    def __post_init__(self):
        if self.v_w < 0:
            raise ValueError(f"wind speed must be non-negative, got {self.v_w}")
        if abs(self.gamma_refl) > 1 + 1e-12:
            raise ValueError(f"|reflection coefficient| must be <= 1, got {self.gamma_refl}")


@dataclass(frozen=True)
class MtrFactors:
    """Multiplicative factors applied to the reflected ray in the MTR model;
    the first four are scalars or arrays over the evaluated axis."""

    divergence: float | np.ndarray  # D, spherical-Earth ray-bundle spreading, (0, 1]
    shadowing: float | np.ndarray   # S, wave shielding at grazing incidence, [0, 1]
    roughness: float | np.ndarray   # R, Miller-Brown coherent-reflection reduction, (0, 1]
    phase: float | np.ndarray       # reflected-ray excess phase, rad
    beta0: float        # RMS sea-surface slope
    sigma_s: float      # sea-surface height standard deviation, m


@dataclass(frozen=True)
class CiParams:
    """Single-slope close-in reference-distance model parameters."""

    n: float            # path loss exponent
    d0: float = 1.0     # reference distance, m

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"path loss exponent must be positive, got {self.n}")
        if self.d0 <= 0:
            raise ValueError(f"reference distance must be positive, got {self.d0}")


@dataclass(frozen=True)
class DualSlopeParams:
    """Two-segment path loss exponents around a break distance."""

    n1: float
    n2: float
    d_break: float  # m

    def __post_init__(self):
        if self.n1 <= 0 or self.n2 <= 0:
            raise ValueError(f"path loss exponents must be positive, got {self.n1}, {self.n2}")
        if self.d_break <= 0:
            raise ValueError(f"break distance must be positive, got {self.d_break}")


def is_null(loss_db):
    """True, elementwise, for the flagged +inf loss returned at exact interference nulls."""
    return np.isposinf(loss_db)


def _log10_ratio(num, den):
    """log10(num/den), without a warning where den or num is 0 (+inf or -inf)."""
    with np.errstate(divide="ignore"):
        return np.log10(num / den)


def fspl(f: float, d):
    """Free-space path loss in dB."""
    d = np.asarray(d, dtype=float)
    if f <= 0 or (d <= 0).any():
        raise ValueError(f"frequency and distance must be positive, got {f}, {np.min(d)}")
    return 20.0 * np.log10(4.0 * math.pi * f * d / SPEED_OF_LIGHT)


def two_ray_simplified(geom: LinkGeometry, d=None):
    """Flat-Earth two-ray path loss at the distance(s) d (default ``geom.d``)
    with reflection coefficient -1 and the small-angle path-difference
    approximation (valid for d >> h_t, h_r).
    """
    d = np.asarray(geom.d if d is None else d, dtype=float)
    if (d <= 0).any():
        raise ValueError(f"distance must be positive, got {np.min(d)}")
    lam = wavelength(geom)
    s = np.sin(2.0 * math.pi * geom.h_t * geom.h_r / (lam * d))
    return 20.0 * _log10_ratio(4.0 * math.pi * d, lam * np.abs(2.0 * s))


def _smith_shadowing(grazing_angle, beta0: float):
    """Wave-shielding factor at grazing incidence (Smith's shadowing function)."""
    t = np.tan(grazing_angle)
    a = t / (math.sqrt(2.0) * beta0)
    lam = 0.5 * (math.sqrt(2.0 / math.pi) * (beta0 / t) * np.exp(-a * a) - erfc(a))
    return (1.0 - 0.5 * erfc(a)) / (lam + 1.0)


def mtr_factors(
    geom: LinkGeometry,
    sea: SeaStateParams,
    h_t_eff=None,
    h_r_eff=None,
    *,
    d=None,
) -> MtrFactors:
    """Sea-surface factors for the MTR model at (possibly wave-adjusted)
    effective antenna heights and the distance(s) d (default ``geom.d``):
    the divergence D = 1/sqrt(1 + 2*d1*d2/(R_e*(h_t + h_r))) <= 1 and the
    phase 2*pi*delta_d/lambda of the reflected-minus-direct path difference.
    """
    refl = reflection_geometry(geom, h_t_eff, h_r_eff, d)
    lam = wavelength(geom)
    beta0 = 0.003 + 0.00512 * sea.v_w
    sigma_s = 0.0051 * sea.v_w**2

    base = 1.0 + 2.0 * refl.d1 * refl.d2 / (geom.effective_radius * (geom.h_t + geom.h_r))
    # not base ** -0.5: numpy's array power differs from its 0-d power in
    # the last bit, and a series must equal its step-by-step evaluation
    div = 1.0 / np.sqrt(base)

    shadow = _smith_shadowing(refl.grazing_angle, beta0)

    # Miller-Brown roughness; I0 evaluated at |z| (I0 is even), scaled form
    # exp(-z)*I0(z) computed stably via i0e.
    g = 4.0 * math.pi * sigma_s * np.sin(refl.grazing_angle)
    rough = i0e(g * g / (2.0 * lam**2))

    return MtrFactors(divergence=div, shadowing=shadow, roughness=rough,
                      phase=2.0 * math.pi * refl.delta_d / lam, beta0=beta0, sigma_s=sigma_s)


def _mtr_interference_magnitude(factors: MtrFactors, gamma_refl: complex):
    """|1 + D*S*R*Gamma*exp(-j*phi)| for the composite two-ray sum."""
    term = (factors.divergence * factors.shadowing * factors.roughness
            * gamma_refl * np.exp(-1j * factors.phase))
    return np.abs(1.0 + term)


def mtr_path_loss(
    geom: LinkGeometry,
    sea: SeaStateParams,
    h_t_eff=None,
    h_r_eff=None,
    *,
    d=None,
    dsr_override: tuple[float, float, float] | None = None,
):
    """Modified two-ray path loss in dB at the effective heights and the
    distance(s) d (default ``geom.d``).

    ``dsr_override`` substitutes (D, S, R) while keeping the geometric phase,
    which is how the model is degenerated to the idealized two-ray form.
    """
    factors = mtr_factors(geom, sea, h_t_eff, h_r_eff, d=d)
    if dsr_override is not None:
        d_, s_, r_ = dsr_override
        factors = replace(factors, divergence=d_, shadowing=s_, roughness=r_)
    mag = _mtr_interference_magnitude(factors, sea.gamma_refl)
    d = geom.d if d is None else np.asarray(d, dtype=float)
    return 20.0 * _log10_ratio(4.0 * math.pi * d, wavelength(geom) * mag)


def mtr_regressor(geom: LinkGeometry, sea: SeaStateParams, d, d_break: float):
    """10*log10(4*pi*d / (lambda*|1 + D*S*R*Gamma*exp(-j*phi)|)) at min(d, d_break),
    half the MTR loss: the per-unit-PLE regressor of the dual-slope CI-MTR
    model's first segment.  +inf at interference nulls.

    One MTR evaluation covers the distances below the break and one point at
    it, which every d >= d_break (inf too) shares; a NaN distance stays NaN,
    as with np.minimum.
    """
    d = np.asarray(d, dtype=float)
    below = ~(d >= d_break)
    near = 0.5 * mtr_path_loss(geom, sea, d=np.append(d[below], d_break))
    g = np.full(d.shape, near[-1])
    g[below] = near[:-1]
    return g[()]


def ci_path_loss(p: CiParams, f: float, d):
    """Close-in reference-distance path loss (deterministic mean), dB."""
    d = np.asarray(d, dtype=float)
    if (d < p.d0).any():
        raise ValueError(f"distance {np.min(d)} below reference distance {p.d0}")
    return fspl(f, p.d0) + 10.0 * p.n * np.log10(d / p.d0)


def dual_ci_path_loss(p: DualSlopeParams, f: float, d, d0: float = 1.0):
    """Dual-slope close-in path loss (deterministic mean), dB; continuous at
    the break distance by construction.
    """
    d = np.asarray(d, dtype=float)
    if (d < d0).any():
        raise ValueError(f"distance {np.min(d)} below reference distance {d0}")
    near = fspl(f, d0) + 10.0 * p.n1 * np.log10(np.minimum(d, p.d_break) / d0)
    return _second_slope(p, d, near)


def _second_slope(p: DualSlopeParams, d: np.ndarray, near):
    """``near``, the first segment at min(d, d_break), then slope n2 beyond the break."""
    far = near + 10.0 * p.n2 * np.log10(d / p.d_break)
    return np.where(d <= p.d_break, near, far)[()]


def dual_ci_mtr_path_loss(p: DualSlopeParams, geom: LinkGeometry, sea: SeaStateParams, d):
    """Dual-slope CI-MTR path loss in dB: the MTR interference structure with
    an adaptive exponent n1 up to the break distance, then a second slope n2
    anchored at the break-distance value.
    """
    d = np.asarray(d, dtype=float)
    return _second_slope(p, d, p.n1 * mtr_regressor(geom, sea, d, p.d_break))


def sample_shadow_fading(sigma_db: float, n: int, seed: int | None = None) -> np.ndarray:
    """Zero-mean Gaussian dB-domain shadow fading samples."""
    if sigma_db < 0:
        raise ValueError(f"shadow-fading std must be non-negative, got {sigma_db}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma_db, size=n)


def received_power(p_tx_dbm: float, pl_db: float, x_swift_db: float = 0.0,
                   x_small_db: float = 0.0) -> float:
    """Instantaneous received power in dBm from the dB-domain link budget."""
    return p_tx_dbm - pl_db - x_swift_db - x_small_db
