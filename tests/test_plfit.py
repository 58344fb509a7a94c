"""Path loss exponent fitting: noiseless round trips and degeneracy handling."""

import math

import numpy as np
import pytest

from mariner_chan import pathloss
from mariner_chan.geometry import LinkGeometry, break_distance
from mariner_chan.pathloss import (
    CiParams,
    DualSlopeParams,
    SeaStateParams,
    ci_path_loss,
    dual_ci_mtr_path_loss,
    dual_ci_path_loss,
    mtr_path_loss,
)
from mariner_chan.plfit import (
    fit_ci,
    fit_dual_ci,
    fit_dual_ci_mtr,
    mtr_regressor,
    shadow_sigma,
)

REF = LinkGeometry(5.8e9, 25.0, 4.0, 3000.0)
SEA = SeaStateParams(v_w=7.7)


def _samples(distances, evaluator):
    d = np.asarray(distances, dtype=float)
    return d, evaluator(d)


def test_fit_ci_noiseless_round_trip():
    true = CiParams(n=3.14)
    d, pl = _samples(np.linspace(100, 20_000, 60), lambda d: ci_path_loss(true, 5.8e9, d))
    rep = fit_ci(d, pl, 5.8e9)
    assert rep.params.n == pytest.approx(3.14, abs=1e-12)
    assert rep.rmse_db == pytest.approx(0.0, abs=1e-9)


def test_fit_ci_with_noise_is_unbiased():
    true = CiParams(n=2.5)
    rng = np.random.default_rng(1)
    d = np.linspace(100, 20_000, 500)
    pl = [ci_path_loss(true, 5.8e9, float(di)) + rng.normal(0, 4) for di in d]
    rep = fit_ci(d, pl, 5.8e9)
    assert rep.params.n == pytest.approx(2.5, abs=0.1)
    assert rep.rmse_db == pytest.approx(4.0, abs=0.5)


def test_fit_dual_ci_noiseless_round_trip():
    d_break = break_distance(REF)
    true = DualSlopeParams(n1=2.50, n2=4.94, d_break=d_break)
    d, pl = _samples(np.linspace(500, 30_000, 80),
                     lambda d: dual_ci_path_loss(true, 5.8e9, d))
    rep = fit_dual_ci(d, pl, 5.8e9, d_break)
    assert rep.params.n1 == pytest.approx(2.50, abs=1e-9)
    assert rep.params.n2 == pytest.approx(4.94, abs=1e-9)


def test_fit_dual_ci_no_samples_beyond_break():
    d_break = break_distance(REF)
    true = CiParams(n=2.0)
    d, pl = _samples(np.linspace(500, 5000, 30), lambda d: ci_path_loss(true, 5.8e9, d))
    rep = fit_dual_ci(d, pl, 5.8e9, d_break)
    assert rep.warnings
    assert rep.params.n1 == pytest.approx(2.0, abs=1e-9)
    assert math.isnan(rep.params.n2)


def test_fit_dual_ci_mtr_noiseless_round_trip():
    d_break = break_distance(REF)
    true = DualSlopeParams(n1=2.10, n2=6.03, d_break=d_break)
    d = np.arange(2000.0, 33_800.0, 100.0)
    pl = np.array([dual_ci_mtr_path_loss(true, REF, SEA, float(di)) for di in d])
    ok = np.isfinite(pl)
    rep = fit_dual_ci_mtr(d[ok], pl[ok], REF, SEA)
    assert rep.params.n1 == pytest.approx(2.10, abs=1e-6)
    assert rep.params.n2 == pytest.approx(6.03, abs=1e-6)
    assert rep.params.d_break == pytest.approx(d_break)


def test_fit_dual_ci_mtr_no_samples_beyond_break():
    d_break = break_distance(REF)
    true = DualSlopeParams(n1=2.0, n2=4.0, d_break=d_break)
    d, pl = _samples(np.arange(1000.0, 3001.0, 100.0),
                     lambda d: dual_ci_mtr_path_loss(true, REF, SEA, d))
    rep = fit_dual_ci_mtr(d, pl, REF, SEA)
    assert rep.warnings == ["no samples beyond the break distance; n2 unset"]
    assert rep.params.n1 == pytest.approx(2.0, abs=1e-9)
    assert math.isnan(rep.params.n2)


def test_mtr_regressor_scales_with_exponent():
    d = 5000.0
    g = mtr_regressor(REF, SEA, d, break_distance(REF))
    p1 = DualSlopeParams(n1=1.0, n2=2.0, d_break=break_distance(REF))
    p2 = DualSlopeParams(n1=2.0, n2=2.0, d_break=break_distance(REF))
    assert dual_ci_mtr_path_loss(p1, REF, SEA, d) == pytest.approx(g)
    assert dual_ci_mtr_path_loss(p2, REF, SEA, d) == pytest.approx(2 * g)


_D_BREAK = break_distance(REF)
# below, above and across the break, at it exactly, and NaN and inf entries
_REGRESSOR_SWEEPS = {
    "below": np.arange(100.0, 7700.0, 7.0),
    "above": np.arange(7800.0, 40_000.0, 13.0),
    "straddling": np.arange(1000.0, 33_801.0, 1.0),
    "at-break": np.array([_D_BREAK]),
    "nan-and-inf": np.array([np.nan, 5000.0, np.inf, _D_BREAK, 9000.0, np.nan, 100.0]),
    "empty": np.empty(0),
}


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", list(_REGRESSOR_SWEEPS))
def test_mtr_regressor_is_the_mtr_half_loss_at_the_clamped_distance(name):
    d = _REGRESSOR_SWEEPS[name]
    reference = 0.5 * mtr_path_loss(REF, SEA, d=np.minimum(d, _D_BREAK))
    np.testing.assert_array_equal(_bits(mtr_regressor(REF, SEA, d, _D_BREAK)), _bits(reference))


@pytest.mark.parametrize("d", [5000.0, _D_BREAK, 20_000.0, math.inf])
def test_mtr_regressor_of_a_scalar_is_a_float(d):
    g = mtr_regressor(REF, SEA, d, _D_BREAK)
    assert isinstance(g, float)
    assert _bits(g) == _bits(0.5 * mtr_path_loss(REF, SEA, d=min(d, _D_BREAK)))


@pytest.mark.parametrize("name", list(_REGRESSOR_SWEEPS))
def test_mtr_regressor_evaluates_each_clamped_distance_once(name, monkeypatch):
    # the chain sees the distances below the break and one point at it
    d = _REGRESSOR_SWEEPS[name]
    sizes, reflection_geometry = [], pathloss.reflection_geometry

    def counted(geom, h_t_eff=None, h_r_eff=None, d=None):
        sizes.append(np.size(d))
        return reflection_geometry(geom, h_t_eff, h_r_eff, d)

    monkeypatch.setattr(pathloss, "reflection_geometry", counted)
    mtr_regressor(REF, SEA, d, _D_BREAK)
    dual_ci_mtr_path_loss(DualSlopeParams(2.0, 4.0, _D_BREAK), REF, SEA, d)
    below = int(np.sum(~(d >= _D_BREAK)))
    assert sizes == [below + 1, below + 1]
    if name == "straddling":
        assert below + 1 < 0.25 * d.size


def test_shadow_sigma_oracle():
    sigma = shadow_sigma([1000.0, 2000.0], [103.0, 97.0], lambda d: 100.0)
    assert sigma == pytest.approx(3.0)


def test_degenerate_designs_raise():
    with pytest.raises(ValueError):
        fit_ci([100.0], [90.0], 5.8e9)
    with pytest.raises(ValueError):
        fit_ci([100.0, 100.0], [90.0, 91.0], 5.8e9)
    with pytest.raises(ValueError):
        fit_ci([0.5, 100.0], [90.0, 91.0], 5.8e9, d0=1.0)
    with pytest.raises(ValueError):
        shadow_sigma([], [], lambda d: 0.0)
    # no sample beyond the break, where the dual-slope design leaves n1 alone
    d_break = break_distance(REF)
    with pytest.raises(ValueError, match="at least 2 samples"):
        fit_dual_ci([100.0], [90.0], 5.8e9, d_break)
    with pytest.raises(ValueError, match="reference distance"):
        fit_dual_ci([1.0, 1.0], [47.7, 47.8], 5.8e9, d_break)
    with pytest.raises(ValueError, match="one distance"):
        fit_dual_ci([100.0, 100.0], [90.0, 91.0], 5.8e9, d_break)


# every entry point runs the same sample check
_FITS = (
    lambda d, pl: fit_ci(d, pl, 5.8e9),
    lambda d, pl: fit_dual_ci(d, pl, 5.8e9, break_distance(REF)),
    lambda d, pl: fit_dual_ci_mtr(d, pl, REF, SEA),
    lambda d, pl: shadow_sigma(d, pl, lambda d: 100.0),
)


def test_sample_validation():
    for fit in _FITS:
        with pytest.raises(ValueError, match="distance must be positive and finite, got -1.0"):
            fit([1000.0, -1.0, 2000.0], [100.0, 100.0, 110.0])
        with pytest.raises(ValueError, match="path loss must be finite, got inf"):
            fit([1000.0, 1500.0, 2000.0], [100.0, math.inf, 110.0])
        with pytest.raises(ValueError, match="distance must be positive and finite, got nan"):
            fit([1000.0, math.nan, 2000.0], [100.0, 100.0, 110.0])
        with pytest.raises(ValueError, match="differ in length"):
            fit([1000.0, 2000.0, 3000.0], [100.0, 110.0])
        with pytest.raises(ValueError, match="at least one sample"):
            fit([], [])
