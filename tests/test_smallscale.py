"""Fading-distribution tests: normalization, closed-form oracles, sampler
consistency, and fast MLE round trips.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.integrate import quad

from mariner_chan import smallscale
from mariner_chan.smallscale import (
    AsymLaplace,
    EnvelopeSamples,
    Laplace,
    Lognormal,
    Nakagami,
    Rician,
    Twdp,
    fit_mle,
    ks_statistic,
    params_from_voltages,
    pdf_rmse,
    rician_k_db,
    sample,
    voltages_from_params,
)

# representative parameter grid spanning measured sea-channel envelope fits
GRID = [
    Rician(s=0.994, sigma=0.081),
    Twdp(k=10 ** 1.8804, delta=0.004, sigma=0.081),
    Twdp(k=5.0, delta=0.8, sigma=0.2),
    Nakagami(mu=32.031, omega=1.015),
    Lognormal(mu=-0.007, sigma=0.083),
    Laplace(mu=1.011, b=0.065),
    AsymLaplace(mu=1.033, b1=0.045, b2=0.081),
]


@pytest.mark.parametrize("model", GRID, ids=lambda m: type(m).__name__)
def test_pdf_integrates_to_one(model):
    total, _ = quad(lambda x: model.pdf(x), -3.0, 8.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("model", GRID, ids=lambda m: type(m).__name__)
def test_cdf_consistent_with_pdf(model):
    xs = np.array([0.5, 0.9, 1.0, 1.1, 1.5])
    for x in xs:
        num, _ = quad(model.pdf, -3.0, float(x), limit=400)
        assert model.cdf(float(x)) == pytest.approx(num, abs=1e-7)
    c = np.atleast_1d(model.cdf(xs))
    assert np.all(np.diff(c) >= 0)


@pytest.mark.parametrize("model", GRID, ids=lambda m: type(m).__name__)
def test_sampler_matches_distribution(model):
    x = sample(model, 20_000, seed=0)
    # KS against the generating model should be small for 20k samples
    assert ks_statistic(np.asarray(x), model) < 0.015


def test_twdp_delta_zero_equals_rician():
    s, sigma = 0.994, 0.081
    k = s**2 / (2 * sigma**2)
    tw = Twdp(k=k, delta=0.0, sigma=sigma)
    ric = Rician(s=s, sigma=sigma)
    x = np.linspace(0.0, 2.5, 1001)
    assert float(np.max(np.abs(tw.pdf(x) - ric.pdf(x)))) < 1e-6
    assert float(np.max(np.abs(tw.cdf(x) - ric.cdf(x)))) < 1e-6


def test_rician_k_db_anchor():
    # the reference (K, s, sigma) triple is self-consistent within 0.1 dB
    assert rician_k_db(0.994, 0.081) == pytest.approx(18.806, abs=0.1)


def test_rician_k_db_is_minus_inf_without_a_specular_part():
    # K = 0: the Rician fit returns s = 0 for Rayleigh-like data
    assert rician_k_db(0.0, 0.5) == -math.inf


@given(v1=st.floats(0.1, 3.0), frac=st.floats(0.0, 1.0),
       sigma=st.floats(0.01, 1.0))
def test_voltage_parameter_round_trip(v1, frac, sigma):
    v2 = frac * v1
    k, delta = params_from_voltages(v1, v2, sigma)
    w1, w2 = voltages_from_params(k, delta, sigma)
    assert w1 == pytest.approx(v1, rel=1e-9, abs=1e-12)
    # the delta parameterization resolves v2 only down to ~sqrt(eps)*v1
    assert w2 == pytest.approx(v2, rel=1e-6, abs=1e-7 * v1)


def test_envelope_samples_normalized_to_unit_mean():
    data = EnvelopeSamples(np.array([1.0, 2.0, 3.0]))
    assert float(np.mean(data.values)) == pytest.approx(1.0)
    assert data.count == 3
    with pytest.raises(ValueError):
        EnvelopeSamples(np.array([]))
    with pytest.raises(ValueError):
        EnvelopeSamples(np.array([1.0, -0.5]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            EnvelopeSamples(np.array([1.0, bad]))


def test_ks_statistic_oracle():
    # two points at the median of a uniform CDF model
    class Uniform01:
        def cdf(self, x):
            return np.clip(np.asarray(x, dtype=float), 0, 1)

    stat = ks_statistic(np.array([0.5, 0.5]), Uniform01())
    assert stat == pytest.approx(0.5)


@pytest.mark.parametrize("family,model,atts", [
    ("lognormal", Lognormal(mu=-0.007, sigma=0.083), [("sigma", 0.05)]),
    ("laplace", Laplace(mu=1.011, b=0.065), [("b", 0.05)]),
    ("asym-laplace", AsymLaplace(mu=1.033, b1=0.045, b2=0.081),
     [("b1", 0.10), ("b2", 0.10)]),
    ("rician", Rician(s=0.994, sigma=0.081), [("s", 0.05), ("sigma", 0.05)]),
    ("nakagami", Nakagami(mu=32.0, omega=1.015), [("mu", 0.10), ("omega", 0.05)]),
])
def test_mle_round_trip_fast(family, model, atts):
    x = sample(model, 20_000, seed=4)
    data = EnvelopeSamples(x)
    scale = float(np.mean(x))  # data are renormalized to unit mean
    rep = fit_mle(family, data)
    for name, rel in atts:
        true = getattr(model, name)
        if name in ("sigma", "b", "b1", "b2", "s"):
            true = true / scale
        elif name == "omega":
            true = true / scale**2
        assert getattr(rep.model, name) == pytest.approx(true, rel=rel)
    assert rep.ks < 0.02
    assert math.isfinite(rep.loglik)


def _scipy_generic_fit(model, x, c):
    """scipy's generic rv_continuous.fit of unit-mean data x, started at the
    generating model scaled by 1/c, with the location pinned at 0 and the
    Nakagami shape clamped to 0.5."""
    if isinstance(model, Rician):
        b, _, scale = stats.rice.fit(x, model.s / model.sigma, floc=0, scale=model.sigma / c)
        return Rician(s=b * scale, sigma=scale)
    nu, _, scale = stats.nakagami.fit(x, model.mu, floc=0, scale=math.sqrt(model.omega) / c)
    return Nakagami(mu=max(nu, 0.5), omega=scale**2)


@pytest.mark.parametrize("family,model", [
    ("rician", Rician(s=0.994, sigma=0.081)), ("rician", Rician(s=0.3, sigma=0.5)),
    ("rician", Rician(s=0.0, sigma=0.5)), ("nakagami", Nakagami(mu=32.031, omega=1.015)),
    ("nakagami", Nakagami(mu=0.5, omega=1.0)), ("nakagami", Nakagami(mu=1.2, omega=1.0)),
], ids=str)
def test_likelihood_equation_fit_not_below_scipys_generic_fit(family, model):
    n = 2000
    for seed in range(10):
        x = sample(model, n, seed=seed)
        data = EnvelopeSamples(x)
        reference = _scipy_generic_fit(model, data.values, float(np.mean(x)))
        rep = fit_mle(family, data)
        assert rep.loglik >= reference.loglik(data.values) - 1e-9 * n, seed
        assert rep.converged and rep.n_evals > 0


def test_nakagami_fit_returns_the_boundary_shape():
    # log-spread data: ln mean(x^2) - mean(ln x^2) exceeds ln 0.5 - psi(0.5)
    data = EnvelopeSamples(np.geomspace(1e-3, 1.0, 200))
    rep = fit_mle("nakagami", data)
    assert rep.model.mu == 0.5
    assert rep.model.omega == pytest.approx(float(np.mean(data.values**2)), rel=1e-12)
    assert rep.n_evals == 1


def test_rician_fit_on_rayleigh_data():
    boundary = 0
    for seed in range(10):
        data = EnvelopeSamples(sample(Rician(s=0.0, sigma=0.5), 2000, seed=seed))
        rep = fit_mle("rician", data)
        assert isinstance(rep.model, Rician) and rep.model.s >= 0
        assert math.isfinite(rep.loglik)
        if rep.model.s == 0:
            # no interior root: the boundary MLE, sigma^2 = mean(x^2)/2
            boundary += 1
            assert 2 * rep.model.sigma**2 == pytest.approx(np.mean(data.values**2), rel=1e-12)
    assert boundary > 0


def test_twdp_mle_round_trip_moderate_n():
    model = Twdp(k=10.0, delta=0.7, sigma=0.1)
    x = sample(model, 20_000, seed=5)
    rep = fit_mle("twdp", EnvelopeSamples(x))
    assert rep.model.k == pytest.approx(10.0, rel=0.1)
    assert rep.model.delta == pytest.approx(0.7, abs=0.05)
    assert rep.model.sigma == pytest.approx(0.1 / float(np.mean(x)), rel=0.05)


def test_pdf_rmse_low_for_true_model():
    model = Rician(s=0.994, sigma=0.081)
    x = sample(model, 50_000, seed=6)
    data = EnvelopeSamples(x)
    scaled = Rician(s=0.994 / float(np.mean(x)), sigma=0.081 / float(np.mean(x)))
    assert pdf_rmse(data, scaled) < 0.2


def test_fit_mle_validation():
    data = EnvelopeSamples(np.linspace(0.5, 1.5, 100))
    with pytest.raises(ValueError):
        fit_mle("cauchy", data)
    with pytest.raises(ValueError):
        fit_mle("rician", EnvelopeSamples(np.linspace(0.9, 1.1, 5)))
    with pytest.raises(ValueError):
        fit_mle("rician", EnvelopeSamples(np.full(100, 2.0)))
    # rounding bounds ln mean(x^2) - mean(ln x^2) here only to about 7e-7 of itself
    with pytest.raises(ValueError, match="concentrated"):
        fit_mle("nakagami", EnvelopeSamples(np.linspace(1 - 1e-9, 1 + 1e-9, 200)))


# the shape that solves the likelihood equation for np.linspace(1 - a, 1 + a, 100),
# from a 60-digit evaluation of ln mean(x^2) - mean(ln x^2) and of ln m - psi(m)
@pytest.mark.parametrize("a, m", [(1e-4, 7.351485160184938e7), (1e-7, 7.351485147555494e13),
                                  (1e-8, 7.351485151744659e15)])
def test_nakagami_shape_of_a_nearly_constant_envelope(a, m):
    report = fit_mle("nakagami", EnvelopeSamples(np.linspace(1 - a, 1 + a, 100)))
    assert report.model.mu == pytest.approx(m, rel=1e-7)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Rician(s=-0.1, sigma=0.1)
    with pytest.raises(ValueError):
        Twdp(k=1.0, delta=1.5, sigma=0.1)
    with pytest.raises(ValueError):
        Nakagami(mu=0.2, omega=1.0)
    with pytest.raises(ValueError):
        Lognormal(mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        Laplace(mu=0.0, b=0.0)
    with pytest.raises(ValueError):
        AsymLaplace(mu=0.0, b1=0.1, b2=0.0)
    with pytest.raises(ValueError):
        voltages_from_params(1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        params_from_voltages(0.5, 1.0, 0.1)


REFERENCE_NODES = 2048


def _reference_cdf(u, k, delta, sigma):
    nodes, weights = smallscale._gauss_legendre(REFERENCE_NODES)
    nc = 2.0 * k * (1.0 - delta * np.cos(nodes))
    return stats.ncx2.cdf((u[:, None] / sigma) ** 2, 2, nc[None, :]) @ weights / math.pi


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("k", [0.0, 1.0, 10.0, 100.0, 1000.0, 1e4])
def test_twdp_node_rule_error_bound(k, delta):
    # unit mean-square envelope, amplitudes up to three times its RMS
    sigma = 1.0 / math.sqrt(2.0 * (1.0 + k))
    u = np.linspace(0.0, 3.0, 301)
    model = Twdp(k=k, delta=delta, sigma=sigma)
    ref_pdf = np.exp(smallscale._twdp_logpdf_order(u, k, delta, sigma, REFERENCE_NODES))
    assert float(np.max(np.abs(model.pdf(u) - ref_pdf))) <= 1e-9
    assert float(np.max(np.abs(model.cdf(u) - _reference_cdf(u, k, delta, sigma)))) <= 1e-12


def test_twdp_node_rule_grows_with_k_delta():
    assert smallscale._twdp_order(1e4, 0.0) == 8
    assert smallscale._twdp_order(10.0, 0.7) == 24
    orders = [smallscale._twdp_order(k, 1.0) for k in (0.0, 1.0, 10.0, 100.0, 1000.0, 1e4)]
    assert orders == sorted(orders)


def _reference_loglik(x, k, delta, sigma):
    return float(np.sum(smallscale._twdp_logpdf_order(x, k, delta, sigma, REFERENCE_NODES)))


@pytest.mark.parametrize("seed", range(10))
def test_twdp_mle_not_worse_than_truth(seed):
    truth = Twdp(k=10.0, delta=0.7, sigma=0.1)
    x = sample(truth, 200, seed=seed)
    data = EnvelopeSamples(x)
    rep = fit_mle("twdp", data)
    m = rep.model
    fitted = _reference_loglik(data.values, m.k, m.delta, m.sigma)
    generating = _reference_loglik(data.values, truth.k, truth.delta,
                                   truth.sigma / float(np.mean(x)))
    assert fitted >= generating - 1e-6 * x.size


def test_fit_report_diagnostics():
    x = sample(Twdp(k=10.0, delta=0.7, sigma=0.1), 200, seed=0)
    rep = fit_mle("twdp", EnvelopeSamples(x))
    diag = rep.to_dict()["diagnostics"]
    assert diag["quad_nodes"] == smallscale._twdp_order(rep.model.k, rep.model.delta)
    # twelve scored starts, then two coarse searches and a polish
    assert diag["objective_evals"] == rep.n_evals
    assert rep.n_evals > 12
    for family, model in (("rician", Rician(s=0.994, sigma=0.081)),
                          ("asym-laplace", AsymLaplace(mu=1.033, b1=0.045, b2=0.081)),
                          ("lognormal", Lognormal(mu=-0.007, sigma=0.083))):
        diag = fit_mle(family, EnvelopeSamples(sample(model, 2000, seed=1))).to_dict()[
            "diagnostics"]
        assert "quad_nodes" not in diag
        assert (diag["objective_evals"] > 0) == (family != "lognormal")


def test_laplace_samples_are_positive_amplitudes():
    # criterion 5's Laplace draws a non-positive value at seed 41
    model = Laplace(mu=1.011, b=0.065)
    assert np.min(np.random.default_rng(41).laplace(1.011, 0.065, size=100_000)) <= 0
    assert np.all(sample(model, 100_000, seed=41) > 0)
    # seeds with no bad draw give the plain generator's samples
    plain = np.random.default_rng(0).laplace(1.011, 0.065, size=100_000)
    assert sample(model, 100_000, seed=0).tobytes() == plain.tobytes()
    asym = AsymLaplace(mu=1.033, b1=0.045, b2=0.081)
    rng = np.random.default_rng(0)
    left = rng.random(100_000) < asym.b1 / (asym.b1 + asym.b2)
    plain = np.where(left, asym.mu - rng.exponential(asym.b1, size=100_000),
                     asym.mu + rng.exponential(asym.b2, size=100_000))
    assert sample(asym, 100_000, seed=0).tobytes() == plain.tobytes()


@pytest.mark.parametrize("model", [Laplace(mu=0.1, b=0.1),
                                   AsymLaplace(mu=0.1, b1=0.1, b2=0.05)],
                         ids=lambda m: type(m).__name__)
def test_laplace_families_redraw_non_positive_values(model):
    # about a sixth of the mass lies on x <= 0
    x = sample(model, 10_000, seed=3)
    assert x.size == 10_000 and np.all(x > 0)


@pytest.mark.parametrize("model", [Laplace(mu=-5.0, b=0.1),
                                   AsymLaplace(mu=-5.0, b1=0.1, b2=0.1)],
                         ids=lambda m: type(m).__name__)
def test_laplace_sampler_refuses_models_without_positive_mass(model):
    with pytest.raises(ValueError, match="x <= 0"):
        sample(model, 100, seed=0)
