"""Slow-fading simulation tests: rotation algebra, reflection-point solver,
and series-level invariants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mariner_chan.geometry import LinkGeometry
from mariner_chan.pathloss import SeaStateParams, mtr_path_loss
from mariner_chan.seastate import (
    HarmonicSet,
    WaveSpectrumConfig,
    build_harmonics,
    surface_height,
)
from mariner_chan.swift import (
    AntennaPattern,
    MotionConfig,
    RotationState,
    decompose_scales,
    empirical_pdf,
    los_direction,
    pattern_loss,
    polarization_loss,
    rotated_los_z,
    rotation_angles,
    rotation_matrix,
    simulate_swift,
    solve_effective_heights,
)

REF = LinkGeometry(5.8e9, 25.0, 4.0, 3000.0)


def _calm_harmonics():
    return HarmonicSet(amplitudes=np.zeros(3), omegas=np.array([0.5, 1.0, 1.5]),
                       phases=np.zeros(3))


angles = st.floats(-1.4, 1.4)


@given(phi=angles, theta=angles, psi=angles)
@settings(max_examples=50)
def test_rotation_matrix_is_orthonormal(phi, theta, psi):
    r = rotation_matrix(RotationState(phi, theta, psi))
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_angles_sinusoidal():
    m = MotionConfig(amp_roll=0.1, rate_roll=2.0, phase_roll=0.5)
    s = rotation_angles(m, 1.25)
    assert s.phi == pytest.approx(0.1 * math.sin(2.0 * 1.25 + 0.5))
    assert s.theta == 0.0 and s.psi == 0.0


def test_los_direction_unit_vector():
    u = los_direction(REF)
    assert np.linalg.norm(u) == pytest.approx(1.0)
    assert u[2] == pytest.approx(math.sin(math.atan2(21.0, 3000.0)))


def test_zero_rotation_losses_are_tiny():
    still = RotationState(0.0, 0.0, 0.0)
    assert polarization_loss(still) == 0.0
    # boresight elevation equals the (small) LoS elevation angle
    assert pattern_loss(still, REF, AntennaPattern()) < 0.01


def test_polarization_loss_oracle():
    s = RotationState(phi=0.3, theta=0.2, psi=1.0)  # yaw does not matter
    expected = -20 * math.log10(abs(math.cos(0.2) * math.cos(0.3)))
    assert polarization_loss(s) == pytest.approx(expected)


def test_pattern_loss_grows_with_tilt():
    p = AntennaPattern()
    losses = [pattern_loss(RotationState(0.0, th, 0.0), REF, p)
              for th in (0.0, 0.3, 0.6, 1.0)]
    assert losses == sorted(losses)


def test_rotated_los_z_matches_the_rotation_matrix():
    grid = np.linspace(-1.4, 1.4, 15)
    for geom in (REF, LinkGeometry(5.8e9, 25.0, 1.0, 600.0)):
        u = los_direction(geom)
        for phi in grid:
            for theta in grid:
                for psi in grid:
                    s = RotationState(phi, theta, psi)
                    assert abs(rotated_los_z(s, geom) - (rotation_matrix(s) @ u)[2]) <= 1e-15


def test_effective_heights_calm_sea():
    (ht,), (hr,), (d1,) = solve_effective_heights(REF, _calm_harmonics(), [0.0])
    assert ht == pytest.approx(25.0)
    assert hr == pytest.approx(4.0)
    assert d1 == pytest.approx(3000.0 * 25.0 / 29.0)


_CRITERION_6 = [(LinkGeometry(5.8e9, 25.0, h_r, d), v_w)
                for v_w, h_r, d in ((7.7, 4.0, 6000.0), (5.6, 4.0, 6000.0),
                                    (7.7, 4.0, 3000.0), (7.7, 1.0, 3000.0))]


def _root_window(geom, harmonics, t):
    """Centre d*h_t/S and half-width d*sum(A_i)/S of the interval holding every
    root of the balance residual on [0, d], with S = h_t + h_r + h_rx(t).

    The residual is x*S - d*h_t + hs(x)*(d - 2x) and |d - 2x| <= d there, so a
    root sits within |hs|*d/S <= d*sum(A_i)/S of d*h_t/S.
    """
    s = geom.h_t + geom.h_r + surface_height(harmonics, t, geom.d)
    return geom.d * geom.h_t / s, geom.d * float(np.sum(harmonics.amplitudes)) / s


def test_effective_heights_balance_equation():
    # the reflection point divides the path in the effective-height ratio, to
    # the solver's stopping rule, and lies in the root window: at four times on
    # REF, and at every step of criterion 6's four setups over a whole 93 s axis
    cases = [(REF, 7.7, 5, [0.0, 3.7, 12.9, 60.0])]
    cases += [(geom, v_w, seed, np.arange(0.0, 93.05, 0.1))
              for geom, v_w in _CRITERION_6 for seed in range(5)]
    for geom, v_w, seed, times in cases:
        h = build_harmonics(WaveSpectrumConfig(v_w=v_w, seed=seed))
        ht, hr, d1 = solve_effective_heights(geom, h, times)
        assert np.all(ht > 0) and np.all(hr > 0)
        assert np.all(np.abs(d1 * hr - (geom.d - d1) * ht) <= 1e-9 * geom.d)
        centre, half_width = _root_window(geom, h, times)
        # the stopping rule |residual| < 1e-9*d widens the window by 1e-9*d/S
        slack = 1e-9 * half_width / float(np.sum(h.amplitudes))
        assert np.all(np.abs(d1 - centre) <= half_width + slack)


def _crest_sea(t_crest: float) -> HarmonicSet:
    # one harmonic of wavelength 2d, phased so that at t_crest the surface is
    # h_t - h_r high at the Rx and a crest over h_t stands mid-path
    lam = 2.0 * REF.d
    omega = math.sqrt(2.0 * math.pi * 9.81 / lam)
    amp = 40.0
    phase = (math.asin((REF.h_t - REF.h_r) / amp) + math.pi - omega * t_crest) % (2 * math.pi)
    return HarmonicSet(amplitudes=np.array([amp]), omegas=np.array([omega]),
                       phases=np.array([phase]))


def test_crest_reaching_antenna_names_first_failing_time():
    t_crest = 2.0
    h = _crest_sea(t_crest)
    period = h.periods[0]
    ht, hr, _ = solve_effective_heights(REF, h, [0.0, 1.0, 1.9, 2.1])
    assert np.all(ht > 0) and np.all(hr > 0)
    with pytest.raises(RuntimeError, match=r"wave crest reaches an antenna at t=2\.0:"):
        solve_effective_heights(REF, h, [t_crest])
    # the crest recurs one period later; the earlier step is the one named
    times = np.array([0.0, 0.5, 1.0, 1.5, t_crest, 2.5, t_crest + period])
    with pytest.raises(RuntimeError, match=r"wave crest reaches an antenna at t=2\.0:"):
        solve_effective_heights(REF, h, times)


def test_first_failing_time_is_named_across_both_failure_kinds():
    # the crest sea's residual does not bracket a root at t = 34.25 s
    h = _crest_sea(2.0)
    with pytest.raises(RuntimeError, match=r"failed at t=34\.25: .* do not bracket a root"):
        solve_effective_heights(REF, h, [0.0, 34.25, 2.0])
    with pytest.raises(RuntimeError, match=r"wave crest reaches an antenna at t=2\.0:"):
        solve_effective_heights(REF, h, [0.0, 2.0, 34.25])


def test_unbracketed_residual_names_first_failing_time():
    h = HarmonicSet(amplitudes=np.array([30.0, 10.0, 6.0]),
                    omegas=np.array([0.5, 1.0, 1.5]), phases=np.array([0.1, 2.0, 4.0]))
    solve_effective_heights(REF, h, [2.0])
    with pytest.raises(RuntimeError, match=r"failed at t=2\.5: .* do not bracket a root"):
        solve_effective_heights(REF, h, np.arange(0.0, 20.0, 0.5))


@pytest.mark.parametrize("d", [3000.0, 6000.0])
@pytest.mark.parametrize("h_r", [1.0, 4.0])
@pytest.mark.parametrize("v_w", [5.6, 7.7])
def test_simulate_swift_matches_stepwise_solve(d, h_r, v_w):
    # criterion-6 setups, shortened: the whole-axis solve must give exactly
    # the series built one step at a time, each step solved on its own
    geom = LinkGeometry(5.8e9, 25.0, h_r, d)
    cfg = WaveSpectrumConfig(v_w=v_w, seed=3)
    motion, pattern = MotionConfig(), AntennaPattern()
    s = simulate_swift(geom, cfg, motion, pattern, duration=8.0, dt=0.1, seed=3)

    harmonics, sea = build_harmonics(cfg), SeaStateParams(v_w=v_w)
    level = np.empty_like(s.t)
    for i, t in enumerate(s.t):
        (ht,), (hr,), _ = solve_effective_heights(geom, harmonics, [t])
        state = rotation_angles(motion, t)
        level[i] = (-mtr_path_loss(geom, sea, ht, hr) - pattern_loss(state, geom, pattern)
                    - polarization_loss(state))
    finite = np.isfinite(level)
    expected = np.where(finite, level - float(np.mean(level[finite])), np.nan)
    assert np.array_equal(s.fading_db, expected, equal_nan=True)
    assert s.n_flagged == int(np.sum(~finite))


def _reference_effective_heights(geom, harmonics, t):
    """Step-at-a-time reflection-point solve: bisection of the balance
    residual over [eps, d - eps]."""
    d = geom.d
    h_rx = surface_height(harmonics, t, d)

    def heights(d1):
        hs1 = surface_height(harmonics, t, d1)
        return geom.h_t - hs1, geom.h_r + h_rx - hs1

    def residual(x):
        ht, hr = heights(x)
        return x * hr - (d - x) * ht

    lo, hi = 1e-6 * d, d - 1e-6 * d
    f_lo = residual(lo)
    assert f_lo * residual(hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if abs(f_mid) < 1e-9 * d:
            break
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return (*heights(mid), mid)


@pytest.mark.parametrize("d", [3000.0, 6000.0])
@pytest.mark.parametrize("h_r", [1.0, 4.0])
@pytest.mark.parametrize("v_w", [5.6, 7.7])
def test_solve_effective_heights_matches_reference(d, h_r, v_w):
    geom = LinkGeometry(5.8e9, 25.0, h_r, d)
    harmonics = build_harmonics(WaveSpectrumConfig(v_w=v_w, seed=4))
    times = np.arange(0.0, 8.05, 0.1)
    got = solve_effective_heights(geom, harmonics, times)
    expected = np.array([_reference_effective_heights(geom, harmonics, t) for t in times]).T
    assert np.array_equal(np.array(got), expected)


def test_every_root_of_the_balance_residual_lies_in_the_root_window():
    # a dense sign scan of the residual over [0, d] at several steps of
    # criterion 6's four setups
    n_roots = []
    for geom, v_w in _CRITERION_6:
        for seed in (0, 1):
            h = build_harmonics(WaveSpectrumConfig(v_w=v_w, seed=seed))
            x = np.linspace(0.0, geom.d, 100_001)
            for t in np.linspace(0.0, 93.0, 8):
                hs = surface_height(h, t, x)
                h_rx = surface_height(h, t, geom.d)
                r = x * (geom.h_r + h_rx - hs) - (geom.d - x) * (geom.h_t - hs)
                brackets = np.flatnonzero(r[:-1] * r[1:] <= 0)
                centre, half_width = _root_window(geom, h, t)
                assert brackets.size >= 1
                assert np.all(np.abs(0.5 * (x[brackets] + x[brackets + 1]) - centre)
                              <= half_width + x[1])
                n_roots.append(brackets.size)
    # steps with more than one root are among those scanned
    assert max(n_roots) > 1


def test_effective_heights_use_the_one_surface_formula_at_twelve_harmonics():
    # past 7 harmonics a pairwise sum would move a height by an ulp; the solver's
    # heights are h_t - surface_height at d1, over the axis and one step at a time
    geom, v_w = _CRITERION_6[2]
    h = build_harmonics(WaveSpectrumConfig(v_w=v_w, n_harmonics=12, seed=3))
    t = np.arange(0.0, 20.05, 0.1)
    ht, hr, d1 = solve_effective_heights(geom, h, t)
    hs1 = surface_height(h, t, d1)
    assert np.array_equal(ht, geom.h_t - hs1)
    assert np.array_equal(hr, geom.h_r + surface_height(h, t, geom.d) - hs1)
    for i in range(0, t.size, 20):
        assert ht[i] == geom.h_t - surface_height(h, float(t[i]), float(d1[i]))


def test_simulate_swift_reproducible_and_demeaned():
    cfg = WaveSpectrumConfig(v_w=7.7)
    motion = MotionConfig.with_random_phases(0.05, 0.05, 0.02, 1.1, 1.1, 0.6, seed=2)
    s1 = simulate_swift(REF, cfg, motion, AntennaPattern(), duration=10.0, dt=0.1, seed=2)
    s2 = simulate_swift(REF, cfg, motion, AntennaPattern(), duration=10.0, dt=0.1, seed=2)
    assert np.array_equal(s1.fading_db, s2.fading_db, equal_nan=True)
    finite = s1.fading_db[np.isfinite(s1.fading_db)]
    assert float(np.mean(finite)) == pytest.approx(0.0, abs=1e-9)
    assert s1.t.size == 101


def test_simulate_swift_seed_changes_series():
    cfg = WaveSpectrumConfig(v_w=7.7)
    motion = MotionConfig()
    a = simulate_swift(REF, cfg, motion, AntennaPattern(), duration=10.0, dt=0.1, seed=1)
    b = simulate_swift(REF, cfg, motion, AntennaPattern(), duration=10.0, dt=0.1, seed=2)
    assert not np.allclose(a.fading_db, b.fading_db, equal_nan=True)


def test_empirical_pdf_normalized():
    rng = np.random.default_rng(0)
    centers, density = empirical_pdf(rng.normal(0, 1, 5000), bin_width=0.2)
    assert float(np.sum(density) * 0.2) == pytest.approx(1.0, abs=1e-6)
    assert centers.size == density.size


@pytest.mark.parametrize("bin_width", [0.0, -1.0, math.inf, math.nan])
def test_empirical_pdf_needs_a_positive_bin_width(bin_width):
    with pytest.raises(ValueError, match="bin width"):
        empirical_pdf(np.array([0.5, 1.5, -0.3]), bin_width=bin_width)


def test_decompose_scales_oracle():
    # two groups with mean amplitudes 1 and 2: dB deviations are +/- 10log10(2)
    g1 = np.full(100, 1.0)
    g2 = np.full(100, 2.0)
    swift_db, small = decompose_scales([g1, g2])
    half_gap = 10 * math.log10(2.0)
    assert swift_db[0] == pytest.approx(-half_gap)
    assert swift_db[1] == pytest.approx(+half_gap)
    assert float(np.mean(swift_db)) == pytest.approx(0.0, abs=1e-12)
    for s in small:
        assert np.allclose(s, 1.0)


def test_decompose_scales_validation():
    with pytest.raises(ValueError):
        decompose_scales([np.array([])])
    with pytest.raises(ValueError):
        decompose_scales([np.array([0.0, 0.0])])
    with pytest.raises(ValueError, match="non-negative"):
        decompose_scales([np.array([1.0, 2.0]), np.array([-1.0, -2.0])])
    with pytest.raises(ValueError, match="finite"):
        decompose_scales([np.array([1.0, np.nan])])


def test_motion_validation():
    with pytest.raises(ValueError):
        MotionConfig(amp_roll=2.0)
    with pytest.raises(ValueError):
        MotionConfig(rate_roll=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["rate_roll", "rate_pitch", "rate_yaw"])
def test_non_finite_rotation_rate_is_rejected(field, value):
    with pytest.raises(ValueError, match="rotation rate must be non-negative"):
        MotionConfig(**{field: value})


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_swift(REF, WaveSpectrumConfig(v_w=7.7), MotionConfig(),
                       AntennaPattern(), duration=1.0, dt=0.0)
