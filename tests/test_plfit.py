"""Path loss exponent fitting: noiseless round trips and degeneracy handling."""

import math

import numpy as np
import pytest

from mariner_chan.geometry import LinkGeometry, break_distance
from mariner_chan.pathloss import (
    CiParams,
    DualSlopeParams,
    SeaStateParams,
    ci_path_loss,
    dual_ci_mtr_path_loss,
    dual_ci_path_loss,
)
from mariner_chan.plfit import (
    PathLossSample,
    fit_ci,
    fit_dual_ci,
    fit_dual_ci_mtr,
    mtr_regressor,
    shadow_sigma,
)

REF = LinkGeometry(5.8e9, 25.0, 4.0, 3000.0)
SEA = SeaStateParams(v_w=7.7)


def _samples(distances, evaluator):
    return [PathLossSample(float(d), float(evaluator(float(d)))) for d in distances]


def test_fit_ci_noiseless_round_trip():
    true = CiParams(n=3.14)
    s = _samples(np.linspace(100, 20_000, 60), lambda d: ci_path_loss(true, 5.8e9, d))
    rep = fit_ci(s, 5.8e9)
    assert rep.params.n == pytest.approx(3.14, abs=1e-12)
    assert rep.rmse_db == pytest.approx(0.0, abs=1e-9)


def test_fit_ci_with_noise_is_unbiased():
    true = CiParams(n=2.5)
    rng = np.random.default_rng(1)
    d = np.linspace(100, 20_000, 500)
    s = [PathLossSample(float(di), ci_path_loss(true, 5.8e9, float(di)) + rng.normal(0, 4))
         for di in d]
    rep = fit_ci(s, 5.8e9)
    assert rep.params.n == pytest.approx(2.5, abs=0.1)
    assert rep.rmse_db == pytest.approx(4.0, abs=0.5)


def test_fit_dual_ci_noiseless_round_trip():
    d_break = break_distance(REF)
    true = DualSlopeParams(n1=2.50, n2=4.94, d_break=d_break)
    s = _samples(np.linspace(500, 30_000, 80),
                 lambda d: dual_ci_path_loss(true, 5.8e9, d))
    rep = fit_dual_ci(s, 5.8e9, d_break)
    assert rep.params.n1 == pytest.approx(2.50, abs=1e-9)
    assert rep.params.n2 == pytest.approx(4.94, abs=1e-9)


def test_fit_dual_ci_no_samples_beyond_break():
    d_break = break_distance(REF)
    true = CiParams(n=2.0)
    s = _samples(np.linspace(500, 5000, 30), lambda d: ci_path_loss(true, 5.8e9, d))
    rep = fit_dual_ci(s, 5.8e9, d_break)
    assert rep.warnings
    assert rep.params.n1 == pytest.approx(2.0, abs=1e-9)
    assert math.isnan(rep.params.n2)


def test_fit_dual_ci_mtr_noiseless_round_trip():
    d_break = break_distance(REF)
    true = DualSlopeParams(n1=2.10, n2=6.03, d_break=d_break)
    d = np.arange(2000.0, 33_800.0, 100.0)
    pl = np.array([dual_ci_mtr_path_loss(true, REF, SEA, float(di)) for di in d])
    ok = np.isfinite(pl)
    s = [PathLossSample(float(di), float(pi)) for di, pi in zip(d[ok], pl[ok])]
    rep = fit_dual_ci_mtr(s, REF, SEA)
    assert rep.params.n1 == pytest.approx(2.10, abs=1e-6)
    assert rep.params.n2 == pytest.approx(6.03, abs=1e-6)
    assert rep.params.d_break == pytest.approx(d_break)


def test_fit_dual_ci_mtr_no_samples_beyond_break():
    d_break = break_distance(REF)
    true = DualSlopeParams(n1=2.0, n2=4.0, d_break=d_break)
    s = _samples(np.arange(1000.0, 3001.0, 100.0),
                 lambda d: dual_ci_mtr_path_loss(true, REF, SEA, d))
    rep = fit_dual_ci_mtr(s, REF, SEA)
    assert rep.warnings == ["no samples beyond the break distance; n2 unset"]
    assert rep.params.n1 == pytest.approx(2.0, abs=1e-9)
    assert math.isnan(rep.params.n2)


def test_mtr_regressor_scales_with_exponent():
    d = 5000.0
    g = mtr_regressor(REF, SEA, d)
    p1 = DualSlopeParams(n1=1.0, n2=2.0, d_break=break_distance(REF))
    p2 = DualSlopeParams(n1=2.0, n2=2.0, d_break=break_distance(REF))
    assert dual_ci_mtr_path_loss(p1, REF, SEA, d) == pytest.approx(g)
    assert dual_ci_mtr_path_loss(p2, REF, SEA, d) == pytest.approx(2 * g)


def test_shadow_sigma_oracle():
    s = [PathLossSample(1000.0, 103.0), PathLossSample(2000.0, 97.0)]
    sigma = shadow_sigma(s, lambda d: 100.0)
    assert sigma == pytest.approx(3.0)


def test_degenerate_designs_raise():
    with pytest.raises(ValueError):
        fit_ci([PathLossSample(100.0, 90.0)], 5.8e9)
    with pytest.raises(ValueError):
        fit_ci([PathLossSample(100.0, 90.0), PathLossSample(100.0, 91.0)], 5.8e9)
    with pytest.raises(ValueError):
        fit_ci([PathLossSample(0.5, 90.0), PathLossSample(100.0, 91.0)], 5.8e9, d0=1.0)
    with pytest.raises(ValueError):
        shadow_sigma([], lambda d: 0.0)


def test_sample_validation():
    with pytest.raises(ValueError):
        PathLossSample(-1.0, 100.0)
    with pytest.raises(ValueError):
        PathLossSample(100.0, math.inf)
    with pytest.raises(ValueError):
        PathLossSample(math.nan, 100.0)
