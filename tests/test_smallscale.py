"""Fading-distribution tests: normalization, closed-form oracles, sampler
consistency, and fast MLE round trips.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import optimize, special, stats
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
# the boundary parameters: Rayleigh (s = 0) and the half-normal Nakagami (m = 0.5)
BOUNDARY = [Rician(s=0.0, sigma=0.5), Nakagami(mu=0.5, omega=1.0)]


def _model_id(m):
    return type(m).__name__ + ("-boundary" if m in BOUNDARY else "")


@pytest.mark.parametrize("model", GRID + BOUNDARY, ids=_model_id)
def test_pdf_integrates_to_one(model):
    total, _ = quad(lambda x: model.pdf(x), -3.0, 8.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("model", GRID + BOUNDARY, ids=_model_id)
def test_cdf_consistent_with_pdf(model):
    xs = np.array([0.5, 0.9, 1.0, 1.1, 1.5])
    for x in xs:
        num, _ = quad(model.pdf, -3.0, float(x), limit=400)
        assert model.cdf(float(x)) == pytest.approx(num, abs=1e-7)
    c = np.atleast_1d(model.cdf(xs))
    assert np.all(np.diff(c) >= 0)


@pytest.mark.parametrize("model", GRID + BOUNDARY, ids=_model_id)
def test_sampler_matches_distribution(model):
    x = sample(model, 20_000, seed=0)
    # KS against the generating model should be small for 20k samples
    assert ks_statistic(np.asarray(x), model) < 0.015


def _scipy_twin(m):
    """The scipy.stats law of a closed-form family: the independent oracle."""
    if isinstance(m, Rician):
        return stats.rice(m.s / m.sigma, scale=m.sigma)
    if isinstance(m, Nakagami):
        return stats.nakagami(m.mu, scale=math.sqrt(m.omega))
    return stats.lognorm(m.sigma, scale=math.exp(m.mu))


# criterion 5's Rician, Nakagami and lognormal parameters, and the boundary ones
_ORACLE = [m for m in GRID if isinstance(m, (Rician, Nakagami, Lognormal))] + [
    Rician(s=0.992, sigma=0.087), Nakagami(mu=38.219, omega=1.015),
    Lognormal(mu=-0.009, sigma=0.094)] + BOUNDARY


@pytest.mark.parametrize("model", _ORACLE, ids=str)
def test_closed_form_families_match_scipy_stats(model):
    ref = _scipy_twin(model)
    # x = 0 holds the Nakagami m = 0.5 density sqrt(2/pi) and the lognormal's 0;
    # at x < 0 every density is 0, every CDF 0 and every log-density -inf
    x = np.append(-0.5, np.linspace(0.0, 3.0, 301))
    if isinstance(model, Rician):
        assert model.cdf(x).tobytes() == ref.cdf(x).tobytes()
    else:
        np.testing.assert_allclose(model.cdf(x), ref.cdf(x), rtol=0, atol=1e-13)
    with np.errstate(divide="ignore"):
        ref_logpdf = ref.logpdf(x)
    logpdf = np.array([model.loglik(v) for v in x])
    finite = np.isfinite(ref_logpdf)
    assert np.array_equal(logpdf[~finite], ref_logpdf[~finite])
    np.testing.assert_allclose(logpdf[finite], ref_logpdf[finite], rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.pdf(x), ref.pdf(x), rtol=1e-12, atol=0)
    assert model.loglik(x) == pytest.approx(float(np.sum(ref_logpdf)), rel=1e-12)
    for seed in (0, 1, 7):
        draws = ref.rvs(size=10_000, random_state=np.random.default_rng(seed))
        assert sample(model, 10_000, seed=seed).tobytes() == draws.tobytes(), seed


@pytest.mark.parametrize("mu, b", [(1.011, 0.065), (0.1, 0.1), (1.0, 0.001)])
def test_laplace_is_the_asymmetric_law_at_equal_scales(mu, b):
    lap, asym = Laplace(mu=mu, b=b), AsymLaplace(mu=mu, b1=b, b2=b)
    x = np.linspace(-3.0, 8.0, 1101)
    for method in ("pdf", "cdf"):
        assert getattr(lap, method)(x).tobytes() == getattr(asym, method)(x).tobytes()
        assert type(getattr(lap, method)(1.0)) is float
        assert getattr(lap, method)(1.0) == getattr(asym, method)(1.0)
    assert lap.loglik(x) == asym.loglik(x)
    # the log-density stays finite where the density underflows to 0
    assert asym.loglik([mu + 1000 * b]) == pytest.approx(-1000.0 - math.log(2 * b), rel=1e-15)


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
@example(v1=0.20773567029958534, frac=0.9999999999999999, sigma=1.0)
def test_voltage_parameter_round_trip(v1, frac, sigma):
    v2 = frac * v1
    k, delta = params_from_voltages(v1, v2, sigma)
    w1, w2 = voltages_from_params(k, delta, sigma)
    # near Delta = 1 half an ulp of Delta (2**-54) moves 1 - Delta**2 by up
    # to 2**-53, sqrt(1 - Delta**2) by 2**-26.5 and v1 by 2**-27.5 ~ 5.3e-9
    # of itself; the 1e-15 covers the other roundings
    assert w1 == pytest.approx(v1, rel=2**-27.5 + 1e-15, abs=1e-12)
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


class Uniform01:
    """The uniform law on [0, 1]: a model with a CDF and nothing else."""

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0, 1)


def test_ks_statistic_oracle():
    # two points at the median of a uniform CDF model
    stat = ks_statistic(np.array([0.5, 0.5]), Uniform01())
    assert stat == pytest.approx(0.5)


def _full_ks(values, m):
    """The K-S statistic with the model CDF evaluated at every sample."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = np.atleast_1d(m.cdf(x))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


class _CountingModel:
    """Forwards cdf to a model and counts the calls and the points."""

    def __init__(self, model):
        self.model, self.calls, self.points = model, 0, 0

    def cdf(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.model.cdf(x)


_KS_SIZES = (1, 2, 7, 8, 9, 64, 65, 513, 10_000, 100_000)

# family -> (generating model, a model far from its data)
_KS_MODELS = {
    "rician": (Rician(s=0.994, sigma=0.081), Rician(s=3.0, sigma=0.081)),
    "twdp": (Twdp(k=10.0, delta=0.7, sigma=0.1), Twdp(k=10.0, delta=0.7, sigma=0.3)),
    "nakagami": (Nakagami(mu=32.031, omega=1.015), Nakagami(mu=32.031, omega=9.0)),
    "lognormal": (Lognormal(mu=-0.007, sigma=0.083), Lognormal(mu=1.1, sigma=0.083)),
    "laplace": (Laplace(mu=1.011, b=0.065), Laplace(mu=3.0, b=0.065)),
    "asym-laplace": (AsymLaplace(mu=1.033, b1=0.045, b2=0.081),
                     AsymLaplace(mu=3.0, b1=0.045, b2=0.081)),
    "uniform": (Uniform01(), Laplace(mu=5.0, b=0.1)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", list(_KS_MODELS))
def test_ks_statistic_equals_full_evaluation(family, seed):
    model, far = _KS_MODELS[family]
    rng = np.random.default_rng(seed)
    if family == "uniform":
        draw, models = rng.random, [model, far]
    else:
        fitted = fit_mle(family, EnvelopeSamples(model.sample(200, rng))).model
        draw, models = (lambda n: model.sample(n, rng)), [model, fitted, far]
    # the full TWDP CDF at 1e5 samples takes about a second, so one seed pays it
    sizes = _KS_SIZES[:-1] if family == "twdp" and seed else _KS_SIZES
    for n in sizes:
        x = draw(n)
        for m in models:
            assert ks_statistic(x, m) == _full_ks(x, m), (n, m)
        ties = np.round(x, 2)  # a few dozen distinct values
        assert ks_statistic(ties, model) == _full_ks(ties, model), n


@pytest.mark.parametrize("n", _KS_SIZES)
def test_ks_statistic_laplace_data_straddling_zero(n):
    # Laplace(0, 0.01)'s CDF is exactly 1 above x = 0.37 and below 1e-16 under
    # x = -0.37: flat in the tails, where most of these samples lie
    x = np.random.default_rng(n).laplace(0.0, 1.0, size=n)
    for m in (Laplace(mu=0.0, b=1.0), Laplace(mu=0.0, b=0.01), AsymLaplace(0.0, 0.01, 0.5)):
        with np.errstate(over="raise"):  # neither branch of the CDF may overflow far from mu
            assert ks_statistic(x, m) == _full_ks(x, m), m


class _RippledUniform:
    """Uniform01 plus a ripple of 1e-13: outside [0, 1] it falls by up to 2e-13."""

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(x, 0, 1) + 1e-13 * np.sin(1e6 * x)


def test_ks_statistic_slack_covers_a_cdf_off_monotone_by_1e13(monkeypatch):
    # F falls by 2e-13 across the first eight samples, so their block's
    # bound on the upper gap is 2e-13 below the eighth's; the ninth's gap
    # lies between the two, which hides the eighth without the slack
    x = np.append(np.linspace(-4.5e-6, -1.8e-6, 8), 1.0 / 9.0)
    m = _RippledUniform()
    assert np.all(np.diff(m.cdf(x[:8])) < 0)
    assert ks_statistic(x, m) == _full_ks(x, m)
    monkeypatch.setattr(smallscale, "_KS_SLACK", 0.0)
    assert ks_statistic(x, m) < _full_ks(x, m)


def test_ks_statistic_evaluates_a_few_percent_of_the_samples():
    n = 100_000
    model = Rician(s=0.994, sigma=0.081)
    x = sample(model, n, seed=42)
    counting = _CountingModel(model)
    assert ks_statistic(x, counting) == _full_ks(x, model)
    assert counting.points <= 0.05 * n
    assert counting.calls <= 1 + math.ceil(math.log(n, 8))


@pytest.mark.parametrize("bad,message", [
    (np.array([]), "empty"),
    (np.array([0.5, math.nan]), "finite"),
    (np.array([0.5, math.inf]), "finite"),
])
def test_goodness_of_fit_rejects_empty_or_non_finite_arrays(bad, message):
    m = Rician(s=1.0, sigma=0.1)
    with pytest.raises(ValueError, match=message):
        ks_statistic(bad, m)
    with pytest.raises(ValueError, match=message):
        pdf_rmse(bad, m)


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


def _asym_laplace_profile_best(x):
    """The largest log-likelihood over every location strictly inside the
    samples' range, each with its profile scales, summed directly."""
    n, best = x.size, -math.inf
    for mu in np.unique(x)[1:-1]:
        s_l, s_r = np.sum(np.maximum(mu - x, 0.0)), np.sum(np.maximum(x - mu, 0.0))
        root = math.sqrt(s_l * s_r)
        best = max(best, AsymLaplace(mu, (s_l + root) / n, (s_r + root) / n).loglik(x))
    return best


# the first set's log-likelihood at seed 3: a bounded search over mu stopped at -17.674414
@pytest.mark.parametrize("n, seed, decimals, loglik", [
    (30, 0, None, None), (100, 3, None, -17.636533), (300, 1, None, None),
    (1000, 2, None, None), (1000, 4, 2, None)])
def test_asym_laplace_fit_is_the_best_sample(n, seed, decimals, loglik):
    # an asymmetric Laplace set, and an exponential one whose smallest sample
    # would win if b1 could be 0
    sets = [sample(AsymLaplace(mu=1.0, b1=0.2, b2=0.1), n, seed=seed),
            0.5 + np.random.default_rng(seed).exponential(0.2, n)]
    for j, values in enumerate(sets):
        data = EnvelopeSamples(values if decimals is None else np.round(values, decimals))
        rep = fit_mle("asym-laplace", data)
        assert np.min(data.values) < rep.model.mu < np.max(data.values)
        assert rep.model.mu in data.values
        assert rep.loglik >= _asym_laplace_profile_best(data.values) - 1e-12 * n
        if j == 0 and loglik is not None:
            assert rep.loglik == pytest.approx(loglik, abs=1e-6)


def test_rician_fit_leaves_no_reference_to_the_samples():
    # the residual closes over the samples; were it caught in a reference
    # cycle, each set would stay alive until the cyclic collector runs
    data = EnvelopeSamples(sample(Rician(s=0.994, sigma=0.081), 2000, seed=0))
    samples = weakref.ref(data.values)
    gc.disable()
    try:
        fit_mle("rician", data)
        del data
        assert samples() is None
    finally:
        gc.enable()


def test_nakagami_fit_returns_the_boundary_shape():
    # log-spread data: ln mean(x^2) - mean(ln x^2) exceeds ln 0.5 - psi(0.5)
    data = EnvelopeSamples(np.geomspace(1e-3, 1.0, 200))
    rep = fit_mle("nakagami", data)
    assert rep.model.mu == 0.5
    assert rep.model.omega == pytest.approx(float(np.mean(data.values**2)), rel=1e-12)
    assert rep.n_evals == 1


def test_rician_fit_on_rayleigh_data():
    boundary = []
    for seed in range(10):
        data = EnvelopeSamples(sample(Rician(s=0.0, sigma=0.5), 2000, seed=seed))
        rep = fit_mle("rician", data)
        assert isinstance(rep.model, Rician) and rep.model.s >= 0
        assert math.isfinite(rep.loglik)
        if rep.model.s == 0:
            # no interior root: the boundary MLE, sigma^2 = mean(x^2)/2
            boundary.append(seed)
            assert 2 * rep.model.sigma**2 == pytest.approx(np.mean(data.values**2), rel=1e-12)
            assert rep.n_evals == smallscale._RICIAN_HALVINGS
    assert boundary == [1, 4, 8]  # the sets without an interior root


def test_rician_fit_takes_a_rounding_root_for_s_0():
    # 2*m2^2 < m4 here, yet at the 19th halving the residual reads +eps*nu/2, rounding's
    # sign; before the rounding bound the fit bisected that lower end for 40 more passes
    data = EnvelopeSamples(sample(Rician(s=0.2, sigma=0.5), 1000, seed=33))
    x, lo = data.values, 0.5 * float(np.mean(data.values)) / 2**18
    assert 2.0 * np.mean(x * x) ** 2 < np.mean(x**4)
    assert 0 < _rician_residual(lo, x) <= smallscale._RICIAN_ROUNDING * lo
    rep = fit_mle("rician", data)
    assert rep.model.s == 0 and rep.n_evals == smallscale._RICIAN_HALVINGS <= 28
    # the likelihood at that root, nu = 3.27e-6, is s = 0's to rounding: they differ by O(n*nu^4)
    nu = 3.27e-6
    root = Rician(s=nu, sigma=math.sqrt(0.5 * (np.mean(x * x) - nu * nu)))
    assert abs(rep.loglik - root.loglik(x)) <= 1e-12 * x.size


@pytest.mark.parametrize("model", [Rician(s=0.994, sigma=0.081), Rician(s=0.992, sigma=0.087)],
                         ids=str)
def test_rician_fit_takes_few_residual_passes(model):
    # criterion 5's sets: one halving check, then Newton steps from the moment seed
    rep = fit_mle("rician", EnvelopeSamples(sample(model, 100_000, seed=42)))
    assert rep.converged and rep.n_evals <= 5


def _rician_residual(nu, x):
    """The likelihood residual mean(x*I1/I0(x*nu/sigma^2)) - nu."""
    z = x * (nu / (0.5 * (np.mean(x * x) - nu * nu)))
    return float(np.mean(x * special.i1e(z) / special.i0e(z))) - nu


def _rician_bracket_and_root(x):
    """The halved lower end, the upper end, and brentq's root of the
    residual, to rounding; None where 20 halvings find no lower end."""
    lo = 0.5 * float(np.mean(x))
    for _ in range(20):
        if _rician_residual(lo, x) > 0:
            hi = math.sqrt(np.mean(x * x)) * (1.0 - 1e-12)
            return lo, hi, optimize.brentq(_rician_residual, lo, hi, args=(x,), xtol=1e-300,
                                           maxiter=500)
        lo *= 0.5
    return None


def _rician_sets():
    """18 sets across K and n, then the first in a seed range with an interior
    root but no moment seed (2*m2^2 <= m4), where the search starts at the
    bracket's midpoint."""
    for model in (Rician(s=0.994, sigma=0.081), Rician(s=1.0, sigma=0.01),
                  Rician(s=0.9, sigma=0.3), Rician(s=0.7, sigma=0.5),
                  Rician(s=0.5, sigma=0.5), Rician(s=0.45, sigma=0.5)):
        for n, seed in ((200, 0), (3000, 1), (30_000, 2)):
            yield EnvelopeSamples(sample(model, n, seed=seed)).values
    for seed in range(40):
        x = EnvelopeSamples(sample(Rician(s=0.2, sigma=0.5), 200, seed=seed)).values
        if 2.0 * np.mean(x * x) ** 2 <= np.mean(x**4) and _rician_bracket_and_root(x) is not None:
            yield x
            return
    raise AssertionError("no set without a moment seed in the seed range")


def test_rician_fit_is_the_likelihood_equations_root():
    eps = np.finfo(float).eps
    for x in _rician_sets():
        lo, hi, root = _rician_bracket_and_root(x)  # every set has an interior root
        nu = fit_mle("rician", EnvelopeSamples(x)).model.s
        assert lo <= nu <= hi
        assert abs(nu - root) <= 2e-12 + 4 * eps * root


def test_rician_newton_steps_stay_inside_the_sign_bracket(monkeypatch):
    # a Newton step from the moment seed leaves the bracket here and is bisected
    x = EnvelopeSamples(sample(Rician(s=0.45, sigma=0.5), 200, seed=28)).values
    msq = float(np.mean(x * x))
    nus, i1e = [], smallscale.i1e

    def recorded(z):  # nu from the Bessel argument x*2*nu/(m2 - nu^2)
        c = z[0] / x[0]
        nus.append(c * msq / (1.0 + math.sqrt(1.0 + c * c * msq)))
        return i1e(z)

    monkeypatch.setattr(smallscale, "i1e", recorded)
    fit_mle("rician", EnvelopeSamples(x))
    lo, hi, _ = _rician_bracket_and_root(x)
    halvings = round(math.log2(0.5 * float(np.mean(x)) / lo)) + 1
    bisected = False
    for nu in nus[halvings:]:
        assert lo < nu < hi
        bisected |= nu == pytest.approx(0.5 * (lo + hi), rel=1e-14)
        if _rician_residual(nu, x) > 0:
            lo = nu
        else:
            hi = nu
    assert bisected and len(nus) - halvings <= 8


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
    # no sample lies strictly between the two values, where b1, b2 > 0
    with pytest.raises(ValueError, match="three or more distinct"):
        fit_mle("asym-laplace", EnvelopeSamples(np.repeat([0.8, 1.3], [40, 60])))


# the shape that solves the likelihood equation for np.linspace(1 - a, 1 + a, 100),
# from a 60-digit evaluation of ln mean(x^2) - mean(ln x^2) and of ln m - psi(m)
@pytest.mark.parametrize("a, m", [(1e-4, 7.351485160184938e7), (1e-7, 7.351485147555494e13),
                                  (1e-8, 7.351485151744659e15)])
def test_nakagami_shape_of_a_nearly_constant_envelope(a, m):
    data = EnvelopeSamples(np.linspace(1 - a, 1 + a, 100))
    report = fit_mle("nakagami", data)
    assert report.model.mu == pytest.approx(m, rel=1e-7)
    # as m grows the law tends to the normal one, whose maximum log-likelihood
    # is -n/2 (ln(2 pi var) + 1).  The density's exponent has terms of size
    # 2m|x - 1| <= 1.5/a, so rounding them costs up to n*eps*1.5/a: 2e-9 of
    # the log-likelihood at a = 1e-8
    x = data.values
    normal = -x.size / 2 * (math.log(2 * math.pi * np.var(x)) + 1)
    assert report.loglik == pytest.approx(normal, rel=2e-9)


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


# sets on which a multi-start simplex search ended below the generating parameters
@pytest.mark.parametrize("k, delta, sigma, n, seed", [
    (100.0, 0.2, 0.05, 200, 1), (100.0, 0.2, 0.05, 2000, 0), (100.0, 0.2, 0.05, 2000, 1),
    (0.3, 0.0, 0.5, 200, 3), (0.3, 0.0, 0.5, 2000, 1), (0.3, 0.0, 0.5, 2000, 2),
    (0.3, 0.0, 0.5, 2000, 3)])
def test_twdp_mle_not_worse_than_truth_on_hard_sets(k, delta, sigma, n, seed):
    x = sample(Twdp(k=k, delta=delta, sigma=sigma), n, seed=seed)
    data = EnvelopeSamples(x)
    m = fit_mle("twdp", data).model
    fitted = _reference_loglik(data.values, m.k, m.delta, m.sigma)
    generating = _reference_loglik(data.values, k, delta, sigma / float(np.mean(x)))
    assert fitted >= generating - 1e-6 * n


@pytest.mark.parametrize("k, delta, sigma", [
    (10.0, 0.7, 0.1), (100.0, 0.2, 0.05), (0.3, 0.0, 0.5), (1000.0, 0.9, 0.02), (5.0, 1.0, 0.2)])
def test_twdp_loglik_gradient_matches_finite_differences(k, delta, sigma):
    u = sample(Twdp(k=k, delta=delta, sigma=sigma), 200, seed=0)
    w = np.random.default_rng(0).uniform(0.5, 2.0, u.size)
    order = smallscale._twdp_order(k, delta)

    def loglik(theta):  # in (ln K, Delta, ln sigma), at the fixed order
        return float(w @ smallscale._twdp_logpdf_order(
            u, math.exp(theta[0]), theta[1], math.exp(theta[2]), order))

    theta, h = np.array((math.log(k), delta, math.log(sigma))), 1e-4
    numeric = []
    for step in np.eye(3) * h:
        if step[1] and delta == 1.0:  # one-sided, inside Delta <= 1
            f = [loglik(theta - j * step) for j in range(4)]
            numeric.append((11 * f[0] - 18 * f[1] + 9 * f[2] - 2 * f[3]) / (6 * h))
        else:
            f = [loglik(theta + j * step) for j in (-2, -1, 1, 2)]
            numeric.append((f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h))
    value, grad = smallscale._twdp_loglik_grad(u, w, k, delta, sigma, order)
    assert value == pytest.approx(loglik(theta), rel=1e-12)
    # at Delta = 0 the Delta component is 0 by symmetry of the phase integral
    assert grad == pytest.approx(numeric, rel=1e-6, abs=1e-6 * max(map(abs, numeric)))


@pytest.mark.parametrize("k, delta, sigma", [(10.0, 0.7, 0.1), (1000.0, 0.9, 0.02),
                                               (0.3, 0.0, 0.5)])
def test_twdp_loglik_grad_takes_one_pass_of_each_bessel_function(monkeypatch, k, delta, sigma):
    u = sample(Twdp(k=k, delta=delta, sigma=sigma), 500, seed=1)
    w = np.random.default_rng(1).uniform(0.5, 2.0, u.size)
    order = smallscale._twdp_order(k, delta)
    # the value and gradient with a second I0 pass over the Bessel arguments
    logpdf, cosx, z, p, _ = smallscale._twdp_phase_sum(u, k, delta, sigma, order)
    q = special.i1e(z) * z
    q /= special.i0e(z, out=z)
    q *= p
    wp, wq, n = w @ p, w @ q, float(np.sum(w))
    w_cos, w_rz = float(wp @ cosx), float(np.sum(wq))
    expected = [k * delta * w_cos + 0.5 * w_rz - k * n,
                k * w_cos - 0.5 * float(wq @ (cosx / (1.0 - delta * cosx))),
                float(w @ u**2) / sigma**2 - 2.0 * n - w_rz]
    calls = []

    def counted(name):
        bessel = getattr(special, name)

        def call(*args, **kwargs):
            calls.append(name)
            return bessel(*args, **kwargs)
        return call

    for name in ("i0e", "i1e"):
        monkeypatch.setattr(smallscale, name, counted(name))
    value, grad = smallscale._twdp_loglik_grad(u, w, k, delta, sigma, order)
    assert sorted(calls) == ["i0e", "i1e"]
    assert value == float(w @ logpdf)
    assert grad.tolist() == expected


@pytest.mark.parametrize("k, delta, sigma, order", [
    (10.0, 0.7, 0.1, 24), (100.0, 0.9, 0.05, 96), (1000.0, 1.0, 0.02, 256)])
def test_twdp_logpdf_of_a_sample_does_not_depend_on_the_call(k, delta, sigma, order):
    u = sample(Twdp(k=k, delta=delta, sigma=sigma), 5000, seed=0)
    full = smallscale._twdp_logpdf_order(u, k, delta, sigma, order)
    part = smallscale._twdp_logpdf_order(u[1000:2000], k, delta, sigma, order)
    assert part.tobytes() == full[1000:2000].tobytes()
    single = np.concatenate([smallscale._twdp_logpdf_order(v, k, delta, sigma, order) for v in u])
    assert single.tobytes() == full.tobytes()


@pytest.mark.parametrize("k, delta, sigma", [(10.0, 0.7, 0.1), (1000.0, 1.0, 0.02)])
def test_twdp_density_in_blocks_is_bit_identical(monkeypatch, k, delta, sigma):
    """The density walks the samples in blocks of _TWDP_BLOCK grid cells, as the
    CDF does, so its memory does not grow with n times the node count; with a
    block of a few rows every value, and the log-likelihood, is unchanged."""
    model = Twdp(k=k, delta=delta, sigma=sigma)
    order = smallscale._twdp_order(k, delta)
    u = sample(model, 3001, seed=4)
    whole = smallscale._twdp_phase_sum(u, k, delta, sigma, order)[0]
    rows, phase_sum = [], smallscale._twdp_phase_sum

    def recorded(u, *args):
        rows.append(u.size)
        return phase_sum(u, *args)

    monkeypatch.setattr(smallscale, "_TWDP_BLOCK", 7 * order)
    monkeypatch.setattr(smallscale, "_twdp_phase_sum", recorded)
    assert smallscale._twdp_logpdf_order(u, k, delta, sigma, order).tobytes() == whole.tobytes()
    assert rows == [7] * 428 + [5]
    assert model.loglik(u) == float(np.sum(whole))


@pytest.mark.parametrize("n", [500, 6000])
def test_twdp_grid_scores_are_the_gradient_paths_values(monkeypatch, n):
    """The 12 grid starts are scored by log-likelihood alone.  Each score is
    the value the gradient path returns there, bit for bit, and the polishes
    start from the best four by that value, best first.  At n > 4096 the
    samples are histogram bins weighted by their counts."""
    x = EnvelopeSamples(sample(Twdp(k=10.0, delta=0.7, sigma=0.1), n, seed=3)).values
    scored, polished = [], []
    logpdf, minimize = smallscale._twdp_logpdf_order, optimize.minimize

    def recorded_logpdf(u, k, delta, sigma, order):
        scored.append(((u, k, delta, sigma, order), logpdf(u, k, delta, sigma, order)))
        return scored[-1][1]

    def recorded_minimize(fun, x0, **kwargs):
        polished.append((math.exp(x0[0]), x0[1], math.exp(x0[2])))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(smallscale, "_twdp_logpdf_order", recorded_logpdf)
    monkeypatch.setattr(optimize, "minimize", recorded_minimize)
    smallscale._fit_twdp(x)
    counts, _ = np.histogram(x, bins=4096)
    w = counts[counts > 0].astype(float) if n > 4096 else np.ones(n)
    assert len(scored) == 12
    values = [smallscale._twdp_loglik_grad(u, w, k, delta, sigma, order)[0]
              for (u, k, delta, sigma, order), _ in scored]
    assert [float(w @ logpdf_u) for _, logpdf_u in scored] == values
    best = np.argsort(-np.array(values), kind="stable")[:4]
    assert polished == [scored[i][0][1:4] for i in best]


def test_fit_report_diagnostics():
    x = sample(Twdp(k=10.0, delta=0.7, sigma=0.1), 200, seed=0)
    rep = fit_mle("twdp", EnvelopeSamples(x))
    diag = rep.to_dict()["diagnostics"]
    assert diag["quad_nodes"] == smallscale._twdp_order(rep.model.k, rep.model.delta)
    # twelve scored starts, then a gradient polish from the best four
    assert diag["objective_evals"] == rep.n_evals
    assert rep.n_evals > 12
    for family, model in (("rician", Rician(s=0.994, sigma=0.081)),
                          ("asym-laplace", AsymLaplace(mu=1.033, b1=0.045, b2=0.081)),
                          ("lognormal", Lognormal(mu=-0.007, sigma=0.083))):
        diag = fit_mle(family, EnvelopeSamples(sample(model, 2000, seed=1))).to_dict()[
            "diagnostics"]
        assert "quad_nodes" not in diag
        # the asymmetric Laplace fit is a closed-form scan, like lognormal's
        assert (diag["objective_evals"] > 0) == (family == "rician")


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
