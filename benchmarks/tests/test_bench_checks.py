"""Every correctness check passes on the program's output and fails on a
perturbed copy of it.
"""

import math

import numpy as np
import pytest
from scipy import stats

import checks
import workloads
from mariner_chan import smallscale, swift
from mariner_chan.geometry import LinkGeometry
from mariner_chan.seastate import WaveSpectrumConfig, build_harmonics

GEOM = LinkGeometry(5.8e9, 25.0, 4.0, 6000.0)
TIMES = np.arange(0.0, 10.05, 0.1)


@pytest.fixture(scope="module")
def solve():
    harmonics = build_harmonics(WaveSpectrumConfig(v_w=7.7, seed=3))
    return (harmonics, *swift.solve_effective_heights(GEOM, harmonics, TIMES))


def test_reflection_balance_fails_when_d1_moves_1_m(solve):
    _, ht, hr, d1 = solve
    assert checks.reflection_balance("t", GEOM.d, ht, hr, d1) == []
    moved = d1.copy()
    moved[40] += 1.0
    assert checks.reflection_balance("t", GEOM.d, ht, hr, moved)


def test_effective_heights_fail_off_the_summed_surface(solve):
    harmonics, ht, hr, d1 = solve
    args = ("t", GEOM.h_t, GEOM.h_r, GEOM.d, harmonics, TIMES[::7])
    assert checks.effective_heights(*args, ht[::7], hr[::7], d1[::7]) == []
    assert checks.effective_heights(*args, ht[::7], hr[::7], d1[::7] + 1.0)
    assert checks.effective_heights(*args, ht[::7] + 1e-6, hr[::7], d1[::7])


def test_monotone_needs_45_of_50_pairs():
    gains = np.full(50, 0.1)
    assert checks.monotone("t", gains) == []
    gains[:5] = -0.1
    assert checks.monotone("t", gains) == []
    gains[:6] = -0.1
    assert checks.monotone("t", gains)
    assert checks.monotone("t", np.full(49, 0.1))


def test_zero_mean_fails_on_a_shifted_series():
    fading = np.array([1.0, -1.0, np.nan, 0.5, -0.5])
    assert checks.zero_mean("t", fading) == []
    assert checks.zero_mean("t", fading + 0.01)


def test_twdp_cdf_check_fails_for_k_off_by_20_percent():
    k, delta, sigma = 10.0, 0.7, 0.1
    xs = np.array([0.3, 0.45, 0.6])
    ref = [checks.twdp_cdf_by_quad(x, k, delta, sigma) for x in xs]
    assert checks.matches("t", smallscale.Twdp(k, delta, sigma).cdf(xs), ref, 1e-9) == []
    assert checks.matches("t", smallscale.Twdp(1.2 * k, delta, sigma).cdf(xs), ref, 1e-9)


def test_ks_check_fails_for_k_off_by_20_percent():
    truth = smallscale.Twdp(10.0, 0.7, 0.1)
    x = smallscale.sample(truth, 4000, seed=5)
    assert checks.ks_below("t", smallscale.ks_statistic(x, truth), x.size) == []
    off = smallscale.Twdp(12.0, 0.7, 0.1)
    assert checks.ks_below("t", smallscale.ks_statistic(x, off), x.size)


def test_mle_check_fails_for_twdp_k_off_by_20_percent():
    truth = {"k": 10.0, "delta": 0.7, "sigma": 0.1}
    x = smallscale.sample(smallscale.Twdp(**truth), 2000, seed=6)
    truth_ll = checks.loglik("twdp", truth, x)
    assert checks.mle_not_worse("t", truth_ll, truth_ll, tol=1e-3) == []
    off_ll = checks.loglik("twdp", dict(truth, k=12.0), x)
    assert checks.mle_not_worse("t", off_ll, truth_ll, tol=1e-3)


def test_loglik_agrees_with_the_models_own_for_every_family():
    x = np.linspace(0.6, 1.4, 9)
    for family, params in [("rician", {"s": 0.994, "sigma": 0.081}),
                           ("twdp", {"k": 10.0, "delta": 0.7, "sigma": 0.2}),
                           ("nakagami", {"mu": 32.0, "omega": 1.0}),
                           ("lognormal", {"mu": -0.007, "sigma": 0.083}),
                           ("laplace", {"mu": 1.011, "b": 0.065}),
                           ("asym-laplace", {"mu": 1.033, "b1": 0.045, "b2": 0.081})]:
        model = workloads._model(family, params)
        assert checks.loglik(family, params, x) == pytest.approx(model.loglik(x), rel=1e-9)


def test_unit_mean_params_rescale_the_data():
    x = smallscale.sample(smallscale.Nakagami(32.0, 1.0), 1000, seed=1)
    c = 1.7
    p = checks.unit_mean_params("nakagami", {"mu": 32.0, "omega": 1.0}, c)
    # density of x/c under the rescaled model = c * density of x under the original
    lhs = checks.loglik("nakagami", p, x / c)
    rhs = checks.loglik("nakagami", {"mu": 32.0, "omega": 1.0}, x) + x.size * math.log(c)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_delta_zero_check_fails_on_a_perturbed_density():
    grid = np.linspace(0.0, 0.6, 31)
    rice = stats.rice.pdf(grid, math.sqrt(20.0), scale=0.1)
    twdp = smallscale.Twdp(10.0, 0.0, 0.1).pdf(grid)
    assert checks.matches("t", twdp, rice, tol=1e-8) == []
    assert checks.matches("t", twdp * (1 + 1e-6), rice, tol=1e-8)


def test_fspl_check_fails_on_a_shifted_point():
    d = np.array([100.0, 1000.0, 5000.0])
    pl = 20.0 * np.log10(4.0 * math.pi * 5.8e9 * d / checks.SPEED_OF_LIGHT)
    assert checks.fspl_points(d, pl, 5.8e9) == []
    pl[1] += 1e-6
    assert checks.fspl_points(d, pl, 5.8e9)


def test_dual_slope_recovery_fails_off_the_truth():
    rng = np.random.default_rng(0)
    d = np.linspace(1000.0, 30000.0, 3000)
    x2 = np.where(d > 7738.7, 10.0 * np.log10(d / 7738.7), 0.0)
    g = 10.0 * np.log10(np.minimum(d, 7738.7)) + 45.0
    design = np.column_stack([g, x2])
    pl = design @ [2.0, 4.0] + rng.normal(0.0, 4.0, d.size)
    coef, *_ = np.linalg.lstsq(design, pl, rcond=None)
    rmse = float(np.sqrt(np.mean((pl - design @ coef) ** 2)))
    fit = {"params": {"n1": coef[0], "n2": coef[1]}, "rmse_db": rmse}
    assert checks.dual_slope_recovery(fit, design, 4.0, 2.0, 4.0) == []
    assert checks.dual_slope_recovery({**fit, "params": {"n1": coef[0] + 0.05, "n2": coef[1]}},
                                      design, 4.0, 2.0, 4.0)
    assert checks.dual_slope_recovery({**fit, "rmse_db": rmse + 0.5}, design, 4.0, 2.0, 4.0)


def test_pdp_taps_fail_when_one_tap_moves_2_db():
    _, p = checks.exp_pdp(24e-9, 50e-9, 5)
    assert checks.pdp_taps(p, 24e-9, 50e-9) == []
    p[2] *= 10 ** 0.2
    assert checks.pdp_taps(p, 24e-9, 50e-9)


def test_delay_spread_and_sparsity_fail_off_the_closed_form():
    delays, p = checks.exp_pdp(24e-9, 50e-9, 5)
    mean = np.sum(delays * p)
    rms = math.sqrt(np.sum(delays**2 * p) - mean**2)
    assert checks.delay_spread(rms, 24e-9, 50e-9, 5) == []
    assert checks.delay_spread(1.05 * rms, 24e-9, 50e-9, 5)
    sorted_p = np.sort(p)
    n = p.size
    gini = 1.0 - 2.0 * np.sum(sorted_p / p.sum() * (n - np.arange(1, n + 1) + 0.5) / n)
    k_db = 10 * math.log10(p.max() / (p.sum() - p.max()))
    assert checks.sparsity_of_pdp({"gini": gini, "k_factor_db": k_db}, 24e-9, 50e-9, 5) == []
    assert checks.sparsity_of_pdp({"gini": gini + 0.05, "k_factor_db": k_db}, 24e-9, 50e-9, 5)


def test_lemma_report_fails_with_one_violation():
    good = {"n_trials": 100, "max_equal_split_gap": 1e-16, "random_split_violations": 0}
    assert checks.lemma_report(good, 100) == []
    assert checks.lemma_report(dict(good, random_split_violations=1), 100)
    assert checks.lemma_report(dict(good, max_equal_split_gap=1e-11), 100)


def test_density_and_replay_checks_fail_on_perturbed_output():
    assert checks.density_integrates([2.0, 2.0], 0.25) == []
    assert checks.density_integrates([2.0, 2.1], 0.25)
    assert checks.identical("t", b"a,b\n1,2\n", b"a,b\n1,2\n") == []
    assert checks.identical("t", b"a,b\n1,2\n", b"a,b\n1,3\n")
