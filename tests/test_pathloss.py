"""Path loss model tests: analytic oracles and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mariner_chan import cli
from mariner_chan.geometry import LinkGeometry, SPEED_OF_LIGHT, break_distance
from mariner_chan.pathloss import (
    CiParams,
    DualSlopeParams,
    SeaStateParams,
    ci_path_loss,
    dual_ci_mtr_path_loss,
    dual_ci_path_loss,
    fspl,
    is_null,
    mtr_factors,
    mtr_path_loss,
    received_power,
    sample_shadow_fading,
    two_ray_simplified,
)

REF = LinkGeometry(5.8e9, 25.0, 4.0, 3000.0)
CALM = SeaStateParams(v_w=0.0)


def test_fspl_oracle():
    # independent form: 20log10(d) + 20log10(f) - 147.55...
    const = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)
    assert fspl(5.8e9, 1000.0) == pytest.approx(
        20 * math.log10(1000.0) + 20 * math.log10(5.8e9) + const)
    # doubling distance adds 6.02 dB
    assert fspl(5.8e9, 2000.0) - fspl(5.8e9, 1000.0) == pytest.approx(
        20 * math.log10(2), abs=1e-12)


def test_two_ray_nulls_and_peaks():
    lam = SPEED_OF_LIGHT / 5.8e9
    # nulls where 2*h_t*h_r/(lam*d) is an integer; floating-point evaluation
    # lands within rounding of the exact null, so the loss is merely enormous
    d_null = 2 * 25.0 * 4.0 / (lam * 2.0)
    assert two_ray_simplified(REF, d_null) > 300.0
    assert is_null(math.inf) and not is_null(150.0)
    # constructive peak (argument pi/2) sits 6.02 dB below FSPL
    d_peak = 4 * 25.0 * 4.0 / lam
    pl = two_ray_simplified(REF, d_peak)
    assert pl == pytest.approx(fspl(5.8e9, d_peak) - 20 * math.log10(2), abs=1e-9)


def test_mtr_degenerates_to_two_ray():
    d = np.array([1200.0, 2500.0, 5000.0, 7000.0])
    a = mtr_path_loss(REF, CALM, d=d, dsr_override=(1.0, 1.0, 1.0))
    b = two_ray_simplified(REF, d)
    finite = np.isfinite(a) & np.isfinite(b)
    assert finite.any()
    assert a[finite] == pytest.approx(b[finite], abs=0.05)


def test_mtr_factor_ranges():
    sea = SeaStateParams(v_w=7.7)
    f = mtr_factors(REF, sea)
    assert 0.0 < f.divergence <= 1.0
    assert 0.0 <= f.shadowing <= 1.0
    assert 0.0 < f.roughness <= 1.0
    assert f.beta0 == pytest.approx(0.003 + 0.00512 * 7.7)
    assert f.sigma_s == pytest.approx(0.0051 * 7.7**2)


def test_mtr_roughness_grows_with_wind():
    # higher wind -> rougher sea -> weaker coherent reflection
    r_low = mtr_factors(REF, SeaStateParams(v_w=3.0)).roughness
    r_high = mtr_factors(REF, SeaStateParams(v_w=15.0)).roughness
    assert r_high < r_low


# the reflection point splits d in the ratio h_t : h_r (flat-earth specular point)
_D = np.array([200.0, 1000.0, 3000.0, 20000.0])
_D1 = _D * REF.h_t / (REF.h_t + REF.h_r)


def test_mtr_divergence_forms():
    # D = 1/sqrt(1 + 2*d1*d2/(R_e*(h_t + h_r))): at most 1, falling with distance
    div = mtr_factors(REF, SeaStateParams(v_w=5.0), d=_D).divergence
    expected = 1.0 / np.sqrt(1.0 + 2.0 * _D1 * (_D - _D1)
                             / (REF.effective_radius * (REF.h_t + REF.h_r)))
    np.testing.assert_allclose(div, expected, rtol=1e-14)
    assert np.all(div <= 1.0) and np.all(np.diff(div) < 0)


def test_mtr_phase_forms():
    # phi = 2*pi*delta_d/lambda, delta_d the reflected-minus-direct path difference
    phase = mtr_factors(REF, SeaStateParams(v_w=5.0), d=_D).phase
    delta_d = (np.sqrt(_D**2 + (REF.h_t + REF.h_r) ** 2)
               - np.sqrt(_D**2 + (REF.h_t - REF.h_r) ** 2))
    np.testing.assert_allclose(phase, 2.0 * math.pi * delta_d * REF.f_c / SPEED_OF_LIGHT,
                               rtol=1e-12)


def test_smith_shadowing_limits():
    sea = SeaStateParams(v_w=7.7)
    # steep incidence: no shielding
    steep = LinkGeometry(5.8e9, 200.0, 100.0, 300.0)
    assert mtr_factors(steep, sea).shadowing == pytest.approx(1.0, abs=1e-6)
    # near-grazing incidence: significant shielding
    grazing = LinkGeometry(5.8e9, 2.0, 1.0, 30_000.0)
    assert mtr_factors(grazing, sea).shadowing < 0.6


def test_ci_path_loss():
    p = CiParams(n=3.14, d0=1.0)
    assert ci_path_loss(p, 5.8e9, 1.0) == pytest.approx(fspl(5.8e9, 1.0))
    # slope oracle: one decade adds 10n dB
    assert (ci_path_loss(p, 5.8e9, 10_000.0) - ci_path_loss(p, 5.8e9, 1000.0)
            == pytest.approx(10 * 3.14))
    with pytest.raises(ValueError):
        ci_path_loss(p, 5.8e9, 0.5)


def test_dual_ci_continuity_and_slopes():
    p = DualSlopeParams(n1=2.02, n2=3.27, d_break=break_distance(REF))
    eps = 1e-6
    below = dual_ci_path_loss(p, 5.8e9, p.d_break - eps)
    above = dual_ci_path_loss(p, 5.8e9, p.d_break + eps)
    assert below == pytest.approx(above, abs=1e-3)
    assert (dual_ci_path_loss(p, 5.8e9, 4 * p.d_break)
            - dual_ci_path_loss(p, 5.8e9, 2 * p.d_break)
            == pytest.approx(10 * 3.27 * math.log10(2)))


def test_dual_ci_mtr_continuity():
    sea = SeaStateParams(v_w=7.7)
    p = DualSlopeParams(n1=2.10, n2=6.03, d_break=break_distance(REF))
    eps = 1e-6
    below = dual_ci_mtr_path_loss(p, REF, sea, p.d_break - eps)
    above = dual_ci_mtr_path_loss(p, REF, sea, p.d_break + eps)
    assert below == pytest.approx(above, abs=1e-3)
    # second slope oracle beyond the break
    assert (dual_ci_mtr_path_loss(p, REF, sea, 4 * p.d_break)
            - dual_ci_mtr_path_loss(p, REF, sea, 2 * p.d_break)
            == pytest.approx(10 * 6.03 * math.log10(2)))


def test_received_power_budget():
    assert received_power(30.0, 120.0, 3.0, 1.5) == pytest.approx(-94.5)


def test_shadow_fading_sampling():
    x = sample_shadow_fading(4.0, 200_000, seed=0)
    assert abs(float(np.mean(x))) < 0.05
    assert float(np.std(x)) == pytest.approx(4.0, abs=0.05)
    assert np.array_equal(x, sample_shadow_fading(4.0, 200_000, seed=0))


@given(d=st.floats(100.0, 30_000.0), vw=st.floats(0.0, 20.0))
def test_mtr_loss_bounded_below_by_deep_interference(d, vw):
    """Composite magnitude <= 2 implies loss >= FSPL - 6.03 dB."""
    sea = SeaStateParams(v_w=vw)
    pl = mtr_path_loss(REF, sea, d=d)
    assert pl >= fspl(5.8e9, d) - 20 * math.log10(2) - 1e-9


def test_validation():
    with pytest.raises(ValueError):
        SeaStateParams(v_w=-1.0)
    with pytest.raises(ValueError):
        CiParams(n=-2.0)
    with pytest.raises(ValueError):
        DualSlopeParams(n1=2.0, n2=3.0, d_break=-1.0)
    with pytest.raises(ValueError):
        fspl(5.8e9, 0.0)
    with pytest.raises(ValueError):
        sample_shadow_fading(-1.0, 10)


def _sweep_evaluator(model, v_w):
    """A ``pathloss eval`` model at the CLI's default link and parameters."""
    return cli._pl_evaluator({"model": model, "geometry": cli._GEOMETRY_DEFAULTS,
                              "sea": dict(cli._SEA_DEFAULTS, v_w=v_w), "params": {}})


# the sea state reaches only the MTR models
@pytest.mark.parametrize("model, v_w", [(m, v) for m in cli._PL_MODELS
                                        for v in ((0.0, 7.7, 15.0) if "mtr" in m else (7.7,))])
def test_array_sweep_matches_per_point_loop(model, v_w):
    evaluate = _sweep_evaluator(model, v_w)
    d = np.arange(1000.0, 33_800.0 + 0.5, 1.0)
    swept = evaluate(d)
    looped = np.array([evaluate(float(x)) for x in d])
    assert swept.shape == d.shape
    assert np.array_equal(np.isinf(swept), np.isinf(looped))
    finite = np.isfinite(looped)
    assert np.max(np.abs(swept[finite] - looped[finite])) <= 1e-12


@pytest.mark.parametrize("model", cli._PL_MODELS)
def test_scalar_distance_gives_a_scalar(model):
    loss = _sweep_evaluator(model, 7.7)(3000.0)
    assert isinstance(loss, float) and np.ndim(loss) == 0


def test_non_positive_effective_height_in_an_array_raises():
    sea = SeaStateParams(v_w=7.7)
    ht = np.array([25.0, 24.0, 0.0, 23.0])
    with pytest.raises(ValueError, match="effective antenna heights must be positive"):
        mtr_path_loss(REF, sea, ht, np.full(4, 4.0))
    with pytest.raises(ValueError, match="effective antenna heights must be positive"):
        mtr_path_loss(REF, sea, np.full(4, 25.0), -ht)
