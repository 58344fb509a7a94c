"""Geometry and threshold-distance tests against independent oracles."""

import math

import pytest
from hypothesis import given, strategies as st

from mariner_chan.geometry import (
    EARTH_RADIUS,
    LinkGeometry,
    SPEED_OF_LIGHT,
    break_distance,
    fresnel_clearance_distance,
    max_los_distance,
    reflection_geometry,
    thresholds,
    wavelength,
)

REF = LinkGeometry(f_c=5.8e9, h_t=25.0, h_r=4.0, d=3000.0)


def test_wavelength():
    assert wavelength(REF) == pytest.approx(SPEED_OF_LIGHT / 5.8e9)
    assert wavelength(REF) == pytest.approx(0.0516883, abs=1e-6)


def test_break_distance_reference_link():
    # 4 * 25 * 4 / lambda evaluated by hand
    lam = SPEED_OF_LIGHT / 5.8e9
    assert break_distance(REF) == pytest.approx(400.0 / lam)
    assert break_distance(REF) == pytest.approx(7738.7, abs=1.0)


def test_max_los_distance_reference_link():
    # exact spherical tangent formula, cross-checked against the familiar
    # sqrt(2*R*h) approximation (valid since h << R)
    d = max_los_distance(REF)
    approx = math.sqrt(2 * EARTH_RADIUS * 25.0) + math.sqrt(2 * EARTH_RADIUS * 4.0)
    assert d == pytest.approx(approx, rel=1e-5)
    assert d == pytest.approx(24987.0, abs=5.0)


def test_fresnel_clearance_reference_link():
    assert fresnel_clearance_distance(REF) == pytest.approx(12630.0, abs=20.0)


def test_thresholds_bundle():
    th = thresholds(REF)
    assert th.d_break == break_distance(REF)
    assert th.d_06f == fresnel_clearance_distance(REF)
    assert th.d_los_vision == max_los_distance(REF)
    assert th.d_break < th.d_06f < th.d_los_vision


def test_effective_radius_multiplier():
    g43 = LinkGeometry(5.8e9, 25.0, 4.0, 3000.0, k_eff=4.0 / 3.0)
    assert g43.effective_radius == pytest.approx(4.0 / 3.0 * EARTH_RADIUS)
    # a larger effective radius extends the visible horizon
    assert max_los_distance(g43) > max_los_distance(REF)


def test_reflection_geometry_reference_link():
    r = reflection_geometry(REF)
    assert r.d1 + r.d2 == pytest.approx(REF.d)
    assert r.d1 == pytest.approx(3000.0 * 25.0 / 29.0)
    # image geometry oracle: delta_d ~ 2*h_t*h_r/d for d >> heights
    assert r.delta_d == pytest.approx(2 * 25.0 * 4.0 / 3000.0, rel=1e-3)
    assert r.grazing_angle == pytest.approx(math.atan(25.0 / r.d1))


def test_reflection_geometry_effective_heights():
    r = reflection_geometry(REF, h_t_eff=20.0, h_r_eff=5.0)
    assert r.d1 == pytest.approx(3000.0 * 20.0 / 25.0)
    with pytest.raises(ValueError):
        reflection_geometry(REF, h_t_eff=-1.0, h_r_eff=5.0)
    with pytest.raises(ValueError):
        reflection_geometry(REF, h_t_eff=[20.0, 0.0], h_r_eff=5.0)


@given(
    ht=st.floats(1.0, 100.0),
    hr=st.floats(1.0, 100.0),
    d=st.floats(100.0, 50_000.0),
)
def test_reflection_point_divides_in_height_ratio(ht, hr, d):
    g = LinkGeometry(5.8e9, ht, hr, d)
    r = reflection_geometry(g)
    assert r.d1 / r.d2 == pytest.approx(ht / hr, rel=1e-9)
    assert 0.0 < r.grazing_angle < math.pi / 2
    assert r.delta_d >= 0.0


_LINK = dict(f_c=5.8e9, h_t=25.0, h_r=4.0, d=3000.0)


@pytest.mark.parametrize("kwargs", [
    dict(f_c=0.0, h_t=25.0, h_r=4.0, d=3000.0),
    dict(f_c=5.8e9, h_t=0.0, h_r=4.0, d=3000.0),
    dict(f_c=5.8e9, h_t=25.0, h_r=-1.0, d=3000.0),
    dict(f_c=5.8e9, h_t=25.0, h_r=4.0, d=0.0),
    dict(f_c=5.8e9, h_t=25.0, h_r=4.0, d=3000.0, k_eff=0.5),
    *(pytest.param(dict(_LINK, **{f: math.nan}), id=f"{f}-nan")
      for f in ("f_c", "h_t", "h_r", "d", "r_e", "k_eff")),
    *(pytest.param(dict(_LINK, **{f: v}), id=f"{f}-{v}")
      for f in ("f_c", "h_t", "h_r", "d") for v in (math.inf, -math.inf)),
])
def test_validation(kwargs):
    with pytest.raises(ValueError):
        LinkGeometry(**kwargs)

