"""Link geometry, physical constants, and propagation-regime threshold distances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
EARTH_RADIUS = 6_371_000.0  # m


@dataclass(frozen=True)
class LinkGeometry:
    """Fixed over-water link: carrier frequency, antenna heights above calm sea,
    horizontal Tx-Rx distance, and the (effective) Earth radius used for
    curvature-related quantities.
    """

    f_c: float  # carrier frequency, Hz
    h_t: float  # Tx antenna height, m
    h_r: float  # Rx antenna height, m
    d: float    # horizontal Tx-Rx distance, m
    r_e: float = EARTH_RADIUS
    k_eff: float = 1.0  # effective-Earth-radius multiplier (e.g. 4/3)

    def __post_init__(self):
        if not 0 < self.f_c < math.inf:
            raise ValueError(f"carrier frequency must be positive, got {self.f_c}")
        if not (0 < self.h_t < math.inf and 0 < self.h_r < math.inf):
            raise ValueError(f"antenna heights must be positive, got {self.h_t}, {self.h_r}")
        if not 0 < self.d < math.inf:
            raise ValueError(f"distance must be positive, got {self.d}")
        if not self.r_e > 0:
            raise ValueError(f"Earth radius must be positive, got {self.r_e}")
        if not self.k_eff >= 1:
            raise ValueError(f"effective-radius multiplier must be >= 1, got {self.k_eff}")

    @property
    def effective_radius(self) -> float:
        return self.k_eff * self.r_e


@dataclass(frozen=True)
class ThresholdDistances:
    """The three distances partitioning the over-water propagation regimes."""

    d_break: float      # last two-ray interference maximum, m
    d_06f: float        # 60% first-Fresnel-zone clearance distance, m
    d_los_vision: float  # maximum line-of-sight distance over the curved Earth, m


@dataclass(frozen=True)
class ReflectionGeometry:
    """Specular reflection over a locally flat plane at the reflection level;
    each field is a scalar, or an array of the inputs' broadcast shape."""

    d1: float | np.ndarray             # horizontal Tx-to-reflection-point distance, m
    d2: float | np.ndarray             # horizontal reflection-point-to-Rx distance, m
    grazing_angle: float | np.ndarray  # angle between reflected ray and the plane, rad
    delta_d: float | np.ndarray        # reflected-minus-direct path length difference, m


def wavelength(geom: LinkGeometry) -> float:
    """Carrier wavelength in meters."""
    return SPEED_OF_LIGHT / geom.f_c


def break_distance(geom: LinkGeometry) -> float:
    """Distance of the last constructive two-ray interference maximum: 4*h_t*h_r/lambda."""
    return 4.0 * geom.h_t * geom.h_r / wavelength(geom)


def max_los_distance(geom: LinkGeometry) -> float:
    """Maximum line-of-sight distance over the curved Earth (effective radius applied)."""
    r = geom.effective_radius
    return math.sqrt(geom.h_t**2 + 2.0 * geom.h_t * r) + math.sqrt(geom.h_r**2 + 2.0 * geom.h_r * r)


def fresnel_clearance_distance(geom: LinkGeometry) -> float:
    """Distance beyond which the Earth bulge intrudes into 60% of the first
    Fresnel zone, after which extra diffraction loss sets in.

    The underlying empirical formula works in MHz and km; that convention is
    confined here and the result is returned in meters.
    """
    f_mhz = geom.f_c / 1e6
    ht, hr = geom.h_t, geom.h_r
    sqrt_sum = math.sqrt(ht) + math.sqrt(hr)
    num = 0.00015949 * f_mhz * ht * hr * sqrt_sum
    den = 0.0000389 * f_mhz * ht * hr + 4.1 * sqrt_sum
    return num / den * 1000.0


def thresholds(geom: LinkGeometry) -> ThresholdDistances:
    """All three regime thresholds for one link."""
    return ThresholdDistances(
        d_break=break_distance(geom),
        d_06f=fresnel_clearance_distance(geom),
        d_los_vision=max_los_distance(geom),
    )


def reflection_geometry(geom: LinkGeometry, h_t_eff=None, h_r_eff=None,
                        d=None) -> ReflectionGeometry:
    """Specular reflection point and exact image-geometry path difference for
    (possibly wave-adjusted) effective antenna heights, at the distance(s) d
    (default ``geom.d``).  Heights and distances may be arrays that broadcast
    together; scalar inputs give scalar fields.

    A wave crest at or above an antenna (non-positive effective height) is
    outside the model's validity and rejected.
    """
    ht = np.asarray(geom.h_t if h_t_eff is None else h_t_eff, dtype=float)
    hr = np.asarray(geom.h_r if h_r_eff is None else h_r_eff, dtype=float)
    if (ht <= 0).any() or (hr <= 0).any():
        raise ValueError(f"effective antenna heights must be positive, got {ht.min()}, {hr.min()}")
    d = np.asarray(geom.d if d is None else d, dtype=float)
    if (d <= 0).any():
        raise ValueError(f"distance must be positive, got minimum {np.min(d)}")
    d1 = d * ht / (ht + hr)
    d2 = d - d1
    grazing = np.arctan2(ht, d1)
    h_sum, h_diff = ht + hr, ht - hr
    delta_d = np.sqrt(d * d + h_sum * h_sum) - np.sqrt(d * d + h_diff * h_diff)
    return ReflectionGeometry(d1=d1, d2=d2, grazing_angle=grazing, delta_d=delta_d)
