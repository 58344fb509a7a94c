"""Wave-spectrum tests: closed forms cross-checked by numerical integration."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mariner_chan.seastate import (
    GRAVITY,
    WaveSpectrumConfig,
    build_harmonics,
    pm_peak_frequency,
    pm_spectrum,
    pm_total_variance,
    significant_wave_height,
    surface_height,
)


def test_spectrum_peak_location():
    # derivative sign change around the analytic peak frequency
    wp = pm_peak_frequency(7.7)
    eps = 1e-4
    assert pm_spectrum(wp, 7.7) > pm_spectrum(wp - eps, 7.7)
    assert pm_spectrum(wp, 7.7) > pm_spectrum(wp + eps, 7.7)


def test_total_variance_matches_numeric_integral():
    for vw in (5.6, 7.7, 12.0):
        m0_num, _ = quad(lambda w: pm_spectrum(w, vw), 1e-3, np.inf,
                         points=None, limit=400)
        assert pm_total_variance(vw) == pytest.approx(m0_num, rel=1e-6)


def test_default_band_captures_most_variance():
    cfg = WaveSpectrumConfig(v_w=7.7)
    lo, hi = cfg.band()
    m_band, _ = quad(lambda w: pm_spectrum(w, 7.7), lo, hi, limit=400)
    assert m_band / pm_total_variance(7.7) > 0.95


def test_harmonics_reproducible_and_representative():
    cfg = WaveSpectrumConfig(v_w=7.7, n_harmonics=5, seed=3)
    h1 = build_harmonics(cfg)
    h2 = build_harmonics(cfg)
    assert np.array_equal(h1.phases, h2.phases)
    assert np.array_equal(h1.amplitudes, h2.amplitudes)
    # variance of the finite realization approximates the band variance
    lo, hi = cfg.band()
    m_band, _ = quad(lambda w: pm_spectrum(w, 7.7), lo, hi, limit=400)
    assert float(np.sum(h1.amplitudes**2) / 2) == pytest.approx(m_band, rel=0.15)


def test_significant_wave_height_scales_with_wind():
    hs = [significant_wave_height(build_harmonics(WaveSpectrumConfig(v_w=v)))
          for v in (5.6, 7.7, 10.0)]
    assert hs[0] < hs[1] < hs[2]
    # closed-form anchor: Hs = 4*sqrt(m0); band truncation loses a few percent
    assert hs[1] == pytest.approx(4 * math.sqrt(pm_total_variance(7.7)), rel=0.1)


def test_surface_height_bounded_and_periodic_components():
    h = build_harmonics(WaveSpectrumConfig(v_w=7.7, seed=0))
    bound = float(np.sum(h.amplitudes))
    for t in np.linspace(0, 120, 50):
        assert abs(surface_height(h, t, 1500.0)) <= bound + 1e-12


def test_deep_water_dispersion():
    h = build_harmonics(WaveSpectrumConfig(v_w=7.7))
    assert np.allclose(h.wavelengths, 2 * math.pi * GRAVITY / h.omegas**2)
    assert np.allclose(h.periods, 2 * math.pi / h.omegas)


def test_validation():
    with pytest.raises(ValueError):
        pm_spectrum(-1.0, 7.7)
    with pytest.raises(ValueError):
        pm_spectrum(1.0, 0.0)
    with pytest.raises(ValueError):
        pm_peak_frequency(0.0)
    with pytest.raises(ValueError):
        WaveSpectrumConfig(v_w=0.0)
    with pytest.raises(ValueError):
        WaveSpectrumConfig(v_w=7.7, n_harmonics=0)
    with pytest.raises(ValueError):
        WaveSpectrumConfig(v_w=7.7, omega_lo=2.0, omega_hi=1.0)
