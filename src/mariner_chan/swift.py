"""Sea-wave-induced fixed-point (SWIFT) fading simulation.

The received level of a fixed land-to-ship link fluctuates on a seconds
timescale because waves displace the reflection geometry and the vessel rolls,
pitches, and yaws.  This module combines the time-varying two-ray interference
(via wave-adjusted effective antenna heights) with antenna-pattern and
polarization mismatch losses from sinusoidal vessel rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import LinkGeometry
from .pathloss import SeaStateParams, _log10_ratio, mtr_path_loss
from .seastate import HarmonicSet, WaveSpectrumConfig, build_harmonics, surface_height


@dataclass(frozen=True)
class MotionConfig:
    """Sinusoidal roll/pitch/yaw motion: amplitudes, angular rates, phases."""

    amp_roll: float = 0.0    # rad
    amp_pitch: float = 0.0   # rad
    amp_yaw: float = 0.0     # rad
    rate_roll: float = 0.0   # rad/s
    rate_pitch: float = 0.0  # rad/s
    rate_yaw: float = 0.0    # rad/s
    phase_roll: float = 0.0  # rad
    phase_pitch: float = 0.0
    phase_yaw: float = 0.0

    def __post_init__(self):
        for amp in (self.amp_roll, self.amp_pitch, self.amp_yaw):
            if not 0 <= amp < math.pi / 2:
                raise ValueError(f"rotation amplitude must be in [0, pi/2), got {amp}")
        for rate in (self.rate_roll, self.rate_pitch, self.rate_yaw):
            if rate < 0:
                raise ValueError(f"rotation rate must be non-negative, got {rate}")

    @classmethod
    def with_random_phases(cls, amp_roll: float, amp_pitch: float, amp_yaw: float,
                           rate_roll: float, rate_pitch: float, rate_yaw: float,
                           seed: int = 0) -> "MotionConfig":
        rng = np.random.default_rng(seed)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=3)
        return cls(amp_roll, amp_pitch, amp_yaw, rate_roll, rate_pitch, rate_yaw,
                   float(ph[0]), float(ph[1]), float(ph[2]))


@dataclass(frozen=True)
class RotationState:
    """Roll/pitch/yaw angles in radians, at one time or as arrays over times."""

    phi: float | np.ndarray
    theta: float | np.ndarray
    psi: float | np.ndarray


@dataclass(frozen=True)
class AntennaPattern:
    """Elevation-cut amplitude pattern F(elevation), linearly interpolated.

    The default is a cosine roll-off about a zero boresight elevation,
    normalized so F(0) = 1; substitute a measured table where available.
    """

    elevations: np.ndarray = field(
        default_factory=lambda: np.linspace(-math.pi / 2, math.pi / 2, 181))
    gains: np.ndarray | None = None

    def __post_init__(self):
        if self.gains is None:
            object.__setattr__(self, "gains", np.cos(self.elevations))
        if np.any(np.asarray(self.gains) < 0):
            raise ValueError("pattern amplitude gains must be non-negative")

    def gain(self, elevation):
        return np.interp(elevation, self.elevations, self.gains)


def rotation_angles(m: MotionConfig, t) -> RotationState:
    """Roll/pitch/yaw at the time(s) t under the sinusoidal motion model."""
    return RotationState(
        phi=m.amp_roll * np.sin(m.rate_roll * t + m.phase_roll),
        theta=m.amp_pitch * np.sin(m.rate_pitch * t + m.phase_pitch),
        psi=m.amp_yaw * np.sin(m.rate_yaw * t + m.phase_yaw),
    )


def rotation_matrix(s: RotationState) -> np.ndarray:
    """Composite rotation Rz(psi) @ Ry(theta) @ Rx(phi) at one time."""
    cf, sf = math.cos(s.phi), math.sin(s.phi)
    ct, st = math.cos(s.theta), math.sin(s.theta)
    cp, sp = math.cos(s.psi), math.sin(s.psi)
    rx = np.array([[1, 0, 0], [0, cf, -sf], [0, sf, cf]])
    ry = np.array([[ct, 0, st], [0, 1, 0], [-st, 0, ct]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
    return rz @ ry @ rx


def los_direction(geom: LinkGeometry) -> np.ndarray:
    """Unit vector from Rx toward Tx in vessel coordinates (x toward shore)."""
    alpha0 = math.atan2(geom.h_t - geom.h_r, geom.d)
    return np.array([math.cos(alpha0), 0.0, math.sin(alpha0)])


def pattern_loss(s: RotationState, geom: LinkGeometry, p: AntennaPattern):
    """Antenna gain loss in dB (>= 0 for normalized patterns) from the rotated
    boresight; +inf where the pattern has a null at the queried elevation.
    """
    uz = np.clip(rotated_los_z(s, geom), -1.0, 1.0)
    return -20.0 * _log10_ratio(p.gain(np.arcsin(uz)), 1.0)


def rotated_los_z(s: RotationState, geom: LinkGeometry):
    """z component of rotation_matrix(s) @ los_direction(geom), in closed form
    (yaw leaves it unchanged)."""
    u = los_direction(geom)
    return -np.sin(s.theta) * u[0] + np.cos(s.theta) * np.cos(s.phi) * u[2]


def polarization_loss(s: RotationState):
    """Vertical-polarization mismatch loss in dB: -20*log10(|cos(theta)*cos(phi)|)."""
    return -20.0 * _log10_ratio(np.abs(np.cos(s.theta) * np.cos(s.phi)), 1.0)


def solve_effective_heights(geom: LinkGeometry, harmonics: HarmonicSet, times
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wave-adjusted effective antenna heights and reflection-point distance
    at every time in ``times``.

    Solves the coupled system: the Tx height is reduced by the surface lift at
    the reflection point, the Rx height rides its local surface relative to
    that same lift, and the reflection point divides the path in the ratio of
    the two effective heights.  Every step takes the root that bisection of
    the balance residual over [eps, d - eps] reaches; all steps are solved
    together.  Returns arrays (h_t_eff, h_r_eff, d1); raises RuntimeError
    naming the first failing time.
    """
    t = np.asarray(times, dtype=float)
    return _bisect_effective_heights(geom, harmonics, t, surface_height(harmonics, t, geom.d))


def _bisect_effective_heights(geom, harmonics, t, h_rx):
    """Bisection of the reflection-point balance residual d1*hr - (d - d1)*ht
    over [eps, d - eps] at every time in ``t``, each step frozen once its
    residual is below 1e-9*d; ``h_rx`` is the surface height under the Rx at
    those times.  Returns (h_t_eff, h_r_eff, d1).
    """
    d = geom.d

    def heights(d1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hs1 = surface_height(harmonics, t, d1)
        return geom.h_t - hs1, geom.h_r + h_rx - hs1

    def residual(x: np.ndarray) -> np.ndarray:
        ht, hr = heights(x)
        return x * hr - (d - x) * ht

    eps = 1e-6 * d
    lo, hi = np.full(t.size, eps), np.full(t.size, d - eps)
    f_lo, f_hi = residual(lo), residual(hi)
    unbracketed = f_lo * f_hi > 0
    going = ~unbracketed
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        if not going.any():
            break
        mid = np.where(going, 0.5 * (lo + hi), mid)
        f_mid = residual(mid)
        going &= ~(np.abs(f_mid) < 1e-9 * d)
        right = going & ~(f_lo * f_mid <= 0)
        hi = np.where(going & ~right, mid, hi)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)
    ht, hr = heights(mid)

    # name the first failing step, as a step-by-step solve would
    failed = unbracketed | (ht <= 0) | (hr <= 0)
    if failed.any():
        i = int(np.argmax(failed))
        if unbracketed[i]:
            raise RuntimeError(
                f"reflection-point solver failed at t={float(t[i])}: "
                f"residual({eps:.3g})={f_lo[i]:.3g}, residual({d - eps:.3g})={f_hi[i]:.3g} "
                f"do not bracket a root")
        raise RuntimeError(
            f"wave crest reaches an antenna at t={float(t[i])}: effective heights "
            f"({ht[i]:.3g}, {hr[i]:.3g})")
    return ht, hr, mid


@dataclass
class SwiftSeries:
    """De-meaned received-level deviation time series from one simulation run."""

    t: np.ndarray           # s
    fading_db: np.ndarray   # zero-mean deviations, dB
    n_flagged: int = 0      # samples excluded from the mean as +inf losses


def simulate_swift(
    geom: LinkGeometry,
    sea_cfg: WaveSpectrumConfig,
    motion: MotionConfig,
    pattern: AntennaPattern,
    duration: float = 93.0,
    dt: float = 0.1,
    seed: int | None = None,
    sea: SeaStateParams | None = None,
) -> SwiftSeries:
    """Simulate the SWIFT fading series over ``duration`` seconds.

    Solve the wave-adjusted reflection geometry over the whole time axis;
    evaluate the MTR received level at the effective heights and subtract
    pattern and polarization losses, each over the whole axis; then de-mean
    the finite samples of the series.  ``seed``, when given, overrides
    ``sea_cfg.seed``; the motion phases are fixed in ``motion``.
    """
    if not 0 < dt <= duration < math.inf:
        raise ValueError(f"need finite dt > 0 and duration >= dt, got {dt}, {duration}")
    if duration / dt >= 10**6:
        raise ValueError(f"time axis ({duration}, {dt}) has more than {10**6} steps")
    if seed is not None:
        sea_cfg = replace(sea_cfg, seed=seed)
    if sea is None:
        sea = SeaStateParams(v_w=sea_cfg.v_w)
    harmonics = build_harmonics(sea_cfg)

    times = np.arange(0.0, duration + 0.5 * dt, dt)
    ht_eff, hr_eff, _ = solve_effective_heights(geom, harmonics, times)
    state = rotation_angles(motion, times)
    level = (-mtr_path_loss(geom, sea, ht_eff, hr_eff) - pattern_loss(state, geom, pattern)
             - polarization_loss(state))

    finite = np.isfinite(level)
    n_flagged = int(np.sum(~finite))
    mean = float(np.mean(level[finite]))
    fading = np.where(finite, level - mean, np.nan)
    return SwiftSeries(t=times, fading_db=fading, n_flagged=n_flagged)


def empirical_pdf(values: np.ndarray, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histogram PDF: (bin centers, densities) integrating to 1."""
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size < 2:
        raise ValueError("need at least 2 finite samples")
    lo, hi = float(np.min(v)), float(np.max(v))
    if hi == lo:
        return np.array([lo]), np.array([1.0 / bin_width])
    edges = np.arange(lo, hi + bin_width, bin_width)
    if edges[-1] < hi:
        edges = np.append(edges, edges[-1] + bin_width)
    density, edges = np.histogram(v, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def decompose_scales(groups: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split linear amplitude groups into medium- and small-scale components.

    Group-mean amplitudes become dB deviations from the location mean (the
    SWIFT samples); within-group amplitude ratios to the group mean are the
    small-scale samples, centered at 1.
    """
    means = []
    small = []
    for g in groups:
        arr = np.asarray(g, dtype=float)
        if arr.size == 0:
            raise ValueError("empty amplitude group")
        if not np.all(np.isfinite(arr) & (arr >= 0)):
            raise ValueError("amplitudes must be finite and non-negative")
        m = float(np.mean(arr))
        if m == 0.0:
            raise ValueError("zero group mean amplitude")
        means.append(m)
        small.append(arr / m)
    means_db = 20.0 * np.log10(np.array(means))
    swift_db = means_db - np.mean(means_db)
    return swift_db, small
