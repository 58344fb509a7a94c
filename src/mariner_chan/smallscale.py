"""Small-scale fading distribution families: PDFs, CDFs, samplers, maximum
likelihood fitting, and goodness-of-fit statistics.

Six families: Rician, TWDP (two-wave with diffuse power), Nakagami-m,
lognormal, Laplace, and asymmetric Laplace; ``FAMILIES`` maps each tag to its
class and its fitter.  Each is written in closed form with ``scipy.special``,
TWDP through a midpoint-rule sum over the phase between its specular waves.
Amplitude data are normalized to unit mean before fitting, so fitted location
parameters land near 1 for well-behaved envelopes.  Rician and Nakagami are
fitted by the root of one likelihood equation each (Sijbers et al. for nu,
Cheng and Beaulieu for m), or at the boundary s = 0 or m = 0.5 without one;
the asymmetric Laplace at the sample that maximizes its profile likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import chndtr, digamma, gammainc, gammaln, i0e, i1e, ndtr, xlogy


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------

class _Amplitude:
    """pdf, cdf and log-likelihood from a family's ``_logpdf`` and ``_cdf`` on
    x >= ``_lower``, where ln 0 = -inf is expected; below it 0, 0 and -inf.
    Amplitude families start at 0; the untruncated Laplace laws at -inf."""

    _lower = 0.0

    def pdf(self, x):
        return self._on_support(x, lambda u: np.exp(self._logpdf(u)), 0.0)

    def cdf(self, x):
        return self._on_support(x, self._cdf, 0.0)

    def loglik(self, x: np.ndarray) -> float:
        return float(np.sum(self._on_support(x, self._logpdf, -np.inf)))

    def _on_support(self, x, fn, outside: float):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(arr.shape, outside)
        inside = arr >= self._lower
        with np.errstate(divide="ignore"):
            out[inside] = fn(arr[inside])
        return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class Rician(_Amplitude):
    s: float      # specular amplitude
    sigma: float  # diffuse scale

    def __post_init__(self):
        if self.s < 0 or self.sigma <= 0:
            raise ValueError(f"invalid Rician parameters s={self.s}, sigma={self.sigma}")

    def _logpdf(self, u):
        v = self.sigma**2
        return np.log(u / v) - (u - self.s) ** 2 / (2.0 * v) + np.log(i0e(u * self.s / v))

    def _cdf(self, u):
        return chndtr((u / self.sigma) ** 2, 2, (self.s / self.sigma) ** 2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        t = self.s / self.sigma / math.sqrt(2.0) + rng.standard_normal((2, n))
        return np.sqrt((t * t).sum(axis=0)) * self.sigma


@dataclass(frozen=True)
class Twdp(_Amplitude):
    """Two dominant specular waves plus a complex Gaussian diffuse sum.

    k is the specular-to-diffuse power ratio (linear), delta in [0, 1] the
    specular balance, and 2*sigma^2 the diffuse power.
    """

    k: float
    delta: float
    sigma: float

    def __post_init__(self):
        if not (0 <= self.k < math.inf and 0 <= self.delta <= 1 and 0 < self.sigma < math.inf):
            raise ValueError(
                f"invalid TWDP parameters k={self.k}, delta={self.delta}, sigma={self.sigma}")

    def _logpdf(self, u):
        return _twdp_logpdf_order(u, self.k, self.delta, self.sigma,
                                  _twdp_order(self.k, self.delta))

    def _cdf(self, u):
        return _twdp_cdf(u, self.k, self.delta, self.sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        v1, v2 = voltages_from_params(self.k, self.delta, self.sigma)
        psi1 = rng.uniform(0.0, 2.0 * math.pi, size=n)
        psi2 = rng.uniform(0.0, 2.0 * math.pi, size=n)
        diffuse = self.sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return np.abs(v1 * np.exp(1j * psi1) + v2 * np.exp(1j * psi2) + diffuse)


@dataclass(frozen=True)
class Nakagami(_Amplitude):
    mu: float     # shape m
    omega: float  # spread (mean square)

    def __post_init__(self):
        if self.mu < 0.5 or self.omega <= 0:
            raise ValueError(f"invalid Nakagami parameters mu={self.mu}, omega={self.omega}")

    def _logpdf(self, u):
        m, s = self.mu, math.sqrt(self.omega)
        if m < 100.0:
            # xlogy keeps pdf(0) = sqrt(2/(pi*omega)) at m = 0.5
            x = u / s
            return (math.log(2.0) + xlogy(m, m) - gammaln(m) + xlogy(2.0 * m - 1.0, x)
                    - m * x * x - 0.5 * math.log(self.omega))
        # terms of size m cancel to rounding above; here c = m ln m - ln Gamma(m) - m by
        # Stirling's series (truncated below 1e-17) and the exponent's rest in x - 1
        w, delta = 1.0 / (m * m), (u - s) / s
        c = 0.5 * math.log(m / (2.0 * math.pi)) - (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / m
        return (math.log(2.0) + c + (2.0 * m - 1.0) * np.log1p(delta) - m * delta * (2.0 + delta)
                - 0.5 * math.log(self.omega))

    def _cdf(self, u):
        return gammainc(self.mu, self.mu * u * u / self.omega)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.sqrt(rng.standard_gamma(self.mu, n) / self.mu) * math.sqrt(self.omega)


@dataclass(frozen=True)
class Lognormal(_Amplitude):
    mu: float     # mean of log amplitude
    sigma: float  # std of log amplitude

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"invalid lognormal sigma={self.sigma}")

    def _logpdf(self, u):
        # -z^2/2 - ln u - ln(sigma*sqrt(2*pi)) with ln u = mu + sigma*z: -inf at u = 0
        z = (np.log(u) - self.mu) / self.sigma
        return -z * (0.5 * z + self.sigma) - self.mu - math.log(self.sigma * math.sqrt(2 * math.pi))

    def _cdf(self, u):
        return ndtr((np.log(u) - self.mu) / self.sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(self.sigma * rng.standard_normal(n)) * math.exp(self.mu)


@dataclass(frozen=True)
class Laplace(_Amplitude):
    mu: float
    b: float
    _lower = -math.inf

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError(f"invalid Laplace scale b={self.b}")

    def _logpdf(self, u):
        return _asym_laplace_logpdf(u, self.mu, self.b, self.b)

    def _cdf(self, u):
        return _asym_laplace_cdf(u, self.mu, self.b, self.b)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _positive_draws(lambda size: rng.laplace(self.mu, self.b, size=size), n)


@dataclass(frozen=True)
class AsymLaplace(_Amplitude):
    """Asymmetric Laplace: separate exponential scales left and right of mu."""

    mu: float
    b1: float  # left-tail scale
    b2: float  # right-tail scale
    _lower = -math.inf

    def __post_init__(self):
        if self.b1 <= 0 or self.b2 <= 0:
            raise ValueError(f"invalid asymmetric Laplace scales b1={self.b1}, b2={self.b2}")

    def _logpdf(self, u):
        return _asym_laplace_logpdf(u, self.mu, self.b1, self.b2)

    def _cdf(self, u):
        return _asym_laplace_cdf(u, self.mu, self.b1, self.b2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        w1 = self.b1 / (self.b1 + self.b2)

        def draw(size: int) -> np.ndarray:
            left = rng.random(size) < w1
            return np.where(left,
                            self.mu - rng.exponential(self.b1, size=size),
                            self.mu + rng.exponential(self.b2, size=size))
        return _positive_draws(draw, n)


# the Laplace law is the asymmetric one at b1 = b2 = b
def _asym_laplace_logpdf(u, mu: float, b1: float, b2: float):
    return -np.abs(u - mu) / np.where(u < mu, b1, b2) - math.log(b1 + b2)


def _asym_laplace_cdf(u, mu: float, b1: float, b2: float):
    # exp(-|u - mu|/b) on each side, so neither branch overflows far from mu
    left = u < mu
    tail = np.exp(-np.abs(u - mu) / np.where(left, b1, b2))
    w1 = b1 / (b1 + b2)
    return np.where(left, w1 * tail, 1.0 - (1.0 - w1) * tail)


_MAX_REDRAWS = 100


def _positive_draws(draw, n: int) -> np.ndarray:
    """n draws of ``draw(size)`` in which every non-positive value is drawn
    again from the same generator: an amplitude is positive, while the
    Laplace families put mass on x <= 0.  All-positive draws come back as drawn.
    """
    x = draw(n)
    for _ in range(_MAX_REDRAWS):
        bad = x <= 0
        if not np.any(bad):
            return x
        x[bad] = draw(int(np.sum(bad)))
    raise ValueError("the model puts too much mass on x <= 0 to draw positive amplitudes")


FadingModel = Rician | Twdp | Nakagami | Lognormal | Laplace | AsymLaplace


# ---------------------------------------------------------------------------
# TWDP density via quadrature
# ---------------------------------------------------------------------------

_TWDP_BLOCK = 1 << 18  # grid cells per block of the TWDP density and CDF, which bounds memory


def _twdp_order(k: float, delta: float) -> int:
    """Midpoint-rule node count n = ceil(1.2*(3 + 3.2*sqrt(K*Delta))), at most
    1024, for the TWDP phase integral.  The integrand is even, 2*pi-periodic
    and analytic in the phase, so the rule converges geometrically in n
    (Trefethen and Weideman, SIAM Rev. 2014); it peaks more sharply as K*Delta
    grows.  Against a 2048-node Gauss-Legendre reference, at unit mean-square
    envelope and amplitudes up to 3, the fewest nodes that keep the absolute
    pdf error <= 1e-9 and the CDF error <= 1e-12 are about 3 + 3.2*sqrt(K*Delta)
    at Delta = 1, fewer below it; 1.2 is the margin (at n/1.2 the CDF error
    reaches its bound at K = 3000, Delta = 1).  Verified for K <= 1e4 and
    Delta in [0, 1] (tests/test_smallscale.py); at another RMS envelope the
    pdf error scales as 1/RMS.  Above K*Delta ~ 7e4 n stays at 1024, unverified.
    """
    return min(1024, math.ceil(1.2 * (3.0 + 3.2 * math.sqrt(k * delta))))


def _phase_nodes(order: int) -> np.ndarray:
    """Nodes x_j = pi*(j + 1/2)/order of the midpoint rule on [0, pi], all of
    weight pi/order: exact for cos(m*x), m < 2*order, with no eigenvalue solve."""
    return (np.arange(order) + 0.5) * (math.pi / order)


def _twdp_phase_sum(u: np.ndarray, k: float, delta: float, sigma: float, order: int):
    """ln f(u) by the midpoint rule at fixed order, stably in log domain, with
    cos x_j and, per sample and node, the Bessel argument z_j, normalised term
    p_j of the phase sum and I0e(z_j); the weight pi/order joins the prefactor
    1/(pi*sigma^2).  Node sums are row reductions: unlike a BLAS product, they
    do not round a sample by its place in the call."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cosx = np.cos(_phase_nodes(order))
    z = (u[:, None] / sigma) * np.sqrt(2.0 * k * (1.0 - delta * cosx))
    i0 = i0e(z)
    p = np.log(i0)
    p += k * delta * cosx + z
    shift = np.max(p, axis=1)  # log-sum-exp, shifted by each row's maximum
    p -= shift[:, None]
    p = np.exp(p, out=p)
    total = np.sum(p, axis=1)
    with np.errstate(divide="ignore"):
        prefactor = np.log(u) - math.log(order * sigma**2) - u**2 / (2.0 * sigma**2) - k
    return prefactor + shift + np.log(total), cosx, z, np.divide(p, total[:, None], out=p), i0


def _twdp_logpdf_order(u: np.ndarray, k: float, delta: float, sigma: float,
                       order: int) -> np.ndarray:
    """ln f(u) at fixed quadrature order, over the samples in blocks of _TWDP_BLOCK
    grid cells; each value is a row reduction, so the blocks do not change it."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    rows = max(1, _TWDP_BLOCK // order)
    out = np.empty(u.shape)
    for i in range(0, u.size, rows):
        out[i:i + rows] = _twdp_phase_sum(u[i:i + rows], k, delta, sigma, order)[0]
    return out


def _twdp_loglik_grad(u: np.ndarray, w: np.ndarray, k: float, delta: float, sigma: float,
                      order: int) -> tuple[float, np.ndarray]:
    """sum(w * ln f(u)) at fixed order and its gradient in (ln K, Delta, ln sigma).
    With r_j = I1/I0(z_j): d/dK = -1 + sum p_j (Delta cos x_j + r_j z_j/2K),
    d/dDelta = sum p_j (K - r_j z_j/2(1 - Delta cos x_j)) cos x_j and
    d/dsigma = -2/sigma + u^2/sigma^3 - sum p_j r_j z_j/sigma."""
    logpdf, cosx, z, p, i0 = _twdp_phase_sum(u, k, delta, sigma, order)
    q = i1e(z)
    q *= z
    q /= i0
    q *= p  # p_j r_j z_j
    wp, wq, n = w @ p, w @ q, float(np.sum(w))  # per node, summed over the samples
    w_cos, w_rz = float(wp @ cosx), float(np.sum(wq))
    return float(w @ logpdf), np.array((
        k * delta * w_cos + 0.5 * w_rz - k * n,
        k * w_cos - 0.5 * float(wq @ (cosx / (1.0 - delta * cosx))),
        float(w @ u**2) / sigma**2 - 2.0 * n - w_rz))


def _twdp_cdf(u: np.ndarray, k: float, delta: float, sigma: float) -> np.ndarray:
    """CDF by conditioning on the inter-wave phase: for a fixed relative phase
    the envelope is Rician with specular power 2*sigma^2*K*(1 - Delta*cos(x)),
    mixed uniformly over [0, pi]; each conditional CDF is chndtr, as in Rician.

    Their mean over the _twdp_order(K, Delta) midpoint-rule nodes has error
    <= 1e-12 for K <= 1e4 and amplitudes up to 3 RMS.  The samples
    are taken in blocks of _TWDP_BLOCK grid cells.  As in _twdp_phase_sum, each
    node sum is a row reduction, so a sample's CDF does not depend on the call;
    ks_statistic evaluates subsets and relies on that.
    """
    order = _twdp_order(k, delta)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    nc = 2.0 * k * (1.0 - delta * np.cos(_phase_nodes(order)))
    x = (u / sigma) ** 2
    rows = max(1, _TWDP_BLOCK // order)
    out = np.empty(u.shape)
    for i in range(0, u.size, rows):
        out[i:i + rows] = np.sum(chndtr(x[i:i + rows, None], 2, nc[None, :]), axis=1)
    return out / order


def params_from_voltages(v1: float, v2: float, sigma: float) -> tuple[float, float]:
    """(K, Delta) from the two specular amplitudes and diffuse scale."""
    if not (0 <= v2 <= v1):
        raise ValueError(f"need 0 <= v2 <= v1, got v1={v1}, v2={v2}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    p = v1**2 + v2**2
    k = p / (2.0 * sigma**2)
    # 1 - (v1 - v2)^2/p, not 2*v1*v2/p: the small term carries the rounding,
    # so Delta = 1 comes out exactly at v1 = v2 and within half an ulp near it
    delta = 0.0 if p == 0 else 1.0 - (v1 - v2) ** 2 / p
    return k, delta


def voltages_from_params(k: float, delta: float, sigma: float) -> tuple[float, float]:
    """Inverse map: specular amplitudes (V1, V2) with V1 >= V2 >= 0."""
    if not (0 <= delta <= 1):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if k < 0 or sigma <= 0:
        raise ValueError(f"invalid parameters k={k}, sigma={sigma}")
    p = 2.0 * sigma**2 * k
    root = math.sqrt(max(0.0, 1.0 - delta**2))
    v1 = math.sqrt(p * (1.0 + root) / 2.0)
    v2 = math.sqrt(p * (1.0 - root) / 2.0)
    return v1, v2


# ---------------------------------------------------------------------------
# data container, sampling, goodness of fit
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeSamples:
    """Linear amplitude samples normalized to unit mean."""

    values: np.ndarray

    def __post_init__(self):
        v = _finite_values(self.values)
        if np.any(v <= 0):
            raise ValueError("amplitude samples must be positive")
        self.values = v / np.mean(v)

    @property
    def count(self) -> int:
        return int(self.values.size)


@dataclass
class FitReport:
    model: FadingModel
    ks: float
    pdf_rmse: float
    loglik: float
    converged: bool = True
    notes: list[str] = field(default_factory=list)
    n_evals: int = 0                # objective or residual evaluations made by the fitter
    quad_nodes: int | None = None   # TWDP: midpoint-rule phase nodes at the fitted model

    def to_dict(self) -> dict:
        diagnostics = {"objective_evals": self.n_evals}
        if self.quad_nodes is not None:
            diagnostics["quad_nodes"] = self.quad_nodes
        return {
            "family": type(self.model).__name__,
            "params": dict(vars(self.model)),
            "ks": self.ks,
            "pdf_rmse": self.pdf_rmse,
            "loglik": self.loglik,
            "converged": self.converged,
            "notes": self.notes,
            "diagnostics": diagnostics,
        }


def sample(m: FadingModel, n: int, seed: int | None = None) -> np.ndarray:
    """Draw n i.i.d. samples from a fading model (un-normalized)."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    return m.sample(n, np.random.default_rng(seed))


def _finite_values(values) -> np.ndarray:
    """values as a float array, refused if empty or not all finite."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample set")
    if not np.all(np.isfinite(v)):
        raise ValueError("amplitude samples must be finite (NaN or inf found)")
    return v


def _sample_values(data: EnvelopeSamples | np.ndarray) -> np.ndarray:
    return data.values if isinstance(data, EnvelopeSamples) else _finite_values(data)


_KS_STRIDE_FACTOR = 8  # each bracketing level in ks_statistic divides the stride by this
_KS_SLACK = 1e-12      # block bounds this close below the best gap are still refined


def ks_statistic(data: EnvelopeSamples | np.ndarray, m: FadingModel) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against the model CDF.

    Exact, bit for bit: the largest of i/n - F(x_i) and F(x_i) - (i-1)/n
    over the n sorted samples x_1 <= ... <= x_n, while ``m.cdf`` sees only
    the samples where that largest gap can lie.  F is non-decreasing, so in
    a block between evaluated samples x_a <= x_i <= x_b the upper gap
    i/n - F(x_i) is at most b/n - F(x_a) and the lower gap
    F(x_i) - (i-1)/n at most F(x_b) - a/n.  F is evaluated first at every
    s-th sorted sample and at the last one, s being the largest power of 8
    below n; each further level divides s by 8 and evaluates F only inside
    the blocks whose bound exceeds the largest gap found so far minus a
    slack of 1e-12, until s = 1.  The slack sends near-ties and rounding in
    F to exact evaluation.  Preconditions: F is non-decreasing to within
    that slack, and F(x) does not depend on the other points of the call.
    A NaN from F is returned only if an evaluated point has it.

    Cost: one sort and at most 1 + ceil(log8 n) vectorized ``m.cdf`` calls,
    on about 2-4 % of the points at n = 1e5 when the model is near the data.
    """
    x = np.sort(_sample_values(data))
    n = x.size
    cdf = np.empty(n)
    stride = 1
    while stride * _KS_STRIDE_FACTOR < n:
        stride *= _KS_STRIDE_FACTOR
    new = np.append(np.arange(0, n - 1, stride), n - 1)  # 0-based indices to evaluate
    starts = new[:-1]  # block j spans starts[j] .. min(starts[j] + stride, n - 1)
    best = -np.inf
    while True:
        if new.size:  # a short last block can leave a level with nothing new
            cdf[new] = m.cdf(x[new])
            gaps = np.maximum((new + 1) / n - cdf[new], cdf[new] - new / n)
            best = np.maximum(best, np.max(gaps))
        ends = np.minimum(starts + stride, n - 1)
        bound = np.maximum(ends / n - cdf[starts], cdf[ends] - (starts + 1) / n)
        keep = (ends - starts > 1) & (bound > best - _KS_SLACK)
        if not np.any(keep):
            return float(best)
        stride //= _KS_STRIDE_FACTOR
        sub = starts[keep, None] + stride * np.arange(_KS_STRIDE_FACTOR)
        inside = sub < ends[keep, None]
        starts = sub[inside]
        new = sub[:, 1:][inside[:, 1:]]


def pdf_rmse(data: EnvelopeSamples | np.ndarray, m: FadingModel, bins: int = 50) -> float:
    """RMSE between the normalized data histogram and the model PDF at bin centers."""
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    density, edges = np.histogram(_sample_values(data), bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model_density = np.atleast_1d(m.pdf(centers))
    return float(np.sqrt(np.mean((density - model_density) ** 2)))


def rician_k_db(s: float, sigma: float) -> float:
    """Rician K factor in dB from the envelope parameters: 10*log10(s^2/(2*sigma^2)),
    -inf at s = 0 (Rayleigh)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 10.0 * math.log10(s**2 / (2.0 * sigma**2)) if s else -math.inf


# ---------------------------------------------------------------------------
# maximum likelihood fitting
# ---------------------------------------------------------------------------

# Every fitter maps unit-mean samples to (model, converged, objective or
# residual evaluations); converged is False only where a search can stop short.

def _fit_lognormal(x: np.ndarray) -> tuple[Lognormal, bool, int]:
    logs = np.log(x)
    return Lognormal(mu=float(np.mean(logs)), sigma=float(np.std(logs))), True, 0


def _fit_laplace(x: np.ndarray) -> tuple[Laplace, bool, int]:
    mu = float(np.median(x))
    return Laplace(mu=mu, b=float(np.mean(np.abs(x - mu)))), True, 0


def _fit_asym_laplace(x: np.ndarray) -> tuple[AsymLaplace, bool, int]:
    """With s_l and s_r the summed distances of the samples below and above
    mu, b1 = (s_l + sqrt(s_l*s_r))/n, b2 = (s_r + sqrt(s_l*s_r))/n and the
    log-likelihood is n*ln(n) - n - 2n*ln(sqrt(s_l) + sqrt(s_r)).  Between
    samples both sums are linear in mu, so sqrt(s_l) + sqrt(s_r) is concave
    there and its minimum lies on a sample.  Gap k between sorted samples k
    and k+1 adds (k+1)*gap to s_l above it and (n-1-k)*gap to s_r below it:
    a cumulative sum from each end, of non-negative terms, 0 exactly at the
    samples tied with an end, where no maximum has b1, b2 > 0.  The minimum
    is taken over the samples with both sums > 0; with none (data on two
    values) a ValueError is raised.
    """
    xs = np.sort(x)
    n = xs.size
    s_l = np.cumsum(np.diff(xs) * np.arange(1.0, n))[:-1]  # at sorted samples 1 .. n-2
    s_r = np.cumsum(np.diff(xs)[::-1] * np.arange(1.0, n))[-2::-1]
    cost = np.sqrt(s_l) + np.sqrt(s_r)
    cost[(s_l == 0) | (s_r == 0)] = np.inf
    if not np.any(cost < np.inf):
        raise ValueError("the asymmetric Laplace fit needs samples on three or more distinct values")
    i = int(np.argmin(cost))
    left, right = float(s_l[i]), float(s_r[i])
    root = math.sqrt(left * right)
    return AsymLaplace(mu=float(xs[i + 1]), b1=(left + root) / n, b2=(right + root) / n), True, 0


# lower-end trials before the Rician fit settles on s = 0: below
# mean(x)/2**21 the likelihood differs from that at s = 0 by O(n*nu^4)
_RICIAN_HALVINGS = 20
# a lower-end residual at or below this times nu may be rounding's sign (_fit_rician)
_RICIAN_ROUNDING = 32.0 * np.finfo(float).eps


def _fit_rician(x: np.ndarray) -> tuple[Rician, bool, int]:
    """The likelihood equations of Sijbers et al. (IEEE TMI 1998):
    sigma^2 = (m2 - nu^2)/2 and g(nu) = mean(x*A(c*x)) - nu = 0, with
    m2 = mean(x^2), A = I1/I0 and c = 2*nu/(m2 - nu^2); one root in nu.
    Near sqrt(m2) the residual is negative (Jensen); nu = 0 is always a
    trivial root, so the lower end starts at mean(x)/2 and is halved while
    the residual is <= 32*eps*nu, the bound on its rounding: each term of
    mean(x*A) carries about 16 eps (I1e's and I0e's quoted peak errors, 9
    and 2.4 eps, and five roundings in c, z, the ratio and the product),
    doubled for the mean.  Near 0, g/nu = O(nu^2) falls under that bound
    and its sign is rounding's.  If no lower end above it is found, s = 0
    (Rayleigh) is the boundary MLE.  Otherwise Newton steps, each one that
    leaves the sign bracket [lo, sqrt(m2)*(1 - 1e-12)] replaced by
    bisection, run from the moment estimate nu^4 = 2*m2^2 - m4 (else the
    bracket's midpoint) until a step or the bracket is within brentq's
    tolerance 2e-12 + 4*eps*nu.  Near 0, g ~ nu^3*(2*m2^2 - m4)/(2*m2^3),
    so the estimate exists exactly when the residual starts out positive.
    The slope takes no Bessel pass of its own: g' = c'*mean(x^2*A'(c*x)) - 1
    with A'(z) = 1 - A/z - A^2 and c' = 2*(m2 + nu^2)/(m2 - nu^2)^2, and
    mean(x^2*A') = m2 - mean(x*A)/c - mean((x*A)^2).  The count is of
    residual-and-slope passes.
    """
    x2 = x * x
    msq = float(np.mean(x2))

    def residual(nu: float) -> tuple[float, float]:  # g(nu) and g'(nu)
        d = msq - nu * nu
        c = 2.0 * nu / d
        z = x * c
        xa = i1e(z)
        xa /= i0e(z)
        xa *= x
        mean_xa = float(np.mean(xa))
        # np.mean, not a BLAS dot: OpenBLAS threads a dot above 1e4 elements, and on
        # a 2-core machine that slowed the benchmark's envelope_fit rounds, not sped them
        slope = 2.0 * (msq + nu * nu) / (d * d) * (msq - mean_xa / c - float(np.mean(xa * xa)))
        return mean_xa - nu, slope - 1.0

    lo = 0.5 * float(np.mean(x))
    for evals in range(1, _RICIAN_HALVINGS + 1):
        if residual(lo)[0] > _RICIAN_ROUNDING * lo:
            break
        lo *= 0.5
    else:
        return Rician(s=0.0, sigma=math.sqrt(0.5 * msq)), True, evals
    hi = math.sqrt(msq) * (1.0 - 1e-12)
    seed = max(0.0, 2.0 * msq * msq - float(np.mean(x2 * x2))) ** 0.25
    nu = seed if lo < seed < hi else 0.5 * (lo + hi)
    while True:
        g, slope = residual(nu)
        evals += 1
        step = g / slope if slope < 0 else math.inf  # g falls through the root: bisect
        tol = 2e-12 + 4.0 * np.finfo(float).eps * nu
        if abs(step) <= tol:
            nu -= step
            break
        if g > 0:
            lo = nu
        else:
            hi = nu
        if hi - lo <= tol:
            break
        nu -= step
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return Rician(s=nu, sigma=math.sqrt(0.5 * (msq - nu * nu))), True, evals


def _fit_nakagami(x: np.ndarray) -> tuple[Nakagami, bool, int]:
    """Omega = mean(x^2), and m solves ln m - psi(m) = ln Omega - mean(ln x^2)
    (Cheng and Beaulieu, IEEE Commun. Lett. 2001).  ln m - psi(m) falls from
    +inf to 0 and lies below 1/m, so the root is bracketed by [0.5, 1/rhs].
    When the residual at m = 0.5 is <= 0, m = 0.5 is the constrained MLE.

    With r = x^2/Omega, mean(r - 1) = 0, so rhs = mean(r - 1 - ln r), free of
    the cancellation between ln Omega and mean(ln x^2).  Rounding x^2 bounds
    the relative error of rhs, and so of m, by 2*eps*mean|r - 1|/rhs; m is
    returned when that bound is below 1e-7, else the samples are too
    concentrated and a ValueError is raised.
    """
    from scipy import optimize
    x2 = x * x
    omega = float(np.mean(x2))
    r = x2 / omega
    rhs = float(np.mean((r - 1.0) - np.log(r)))

    def residual(m: float) -> float:
        if m < 100.0:
            return math.log(m) - float(digamma(m)) - rhs
        # the asymptotic series (truncation below 1e-16 relative): ln m - psi(m),
        # about 1/(2m), falls under the rounding of ln m as m grows
        w = 1.0 / (m * m)
        return 0.5 / m + w * (1.0 / 12.0 - w * (1.0 / 120.0 - w / 252.0)) - rhs

    if residual(0.5) <= 0:
        return Nakagami(mu=0.5, omega=omega), True, 1
    if not 2.0 * np.finfo(float).eps * float(np.mean(np.abs(r - 1.0))) < 1e-7 * rhs:
        raise ValueError("samples too concentrated to fit the Nakagami shape")
    mu, res = optimize.brentq(residual, 0.5, 1.0 / rhs, full_output=True)
    return Nakagami(mu=mu, omega=omega), True, 1 + res.function_calls


def _fit_twdp(x: np.ndarray) -> tuple[Twdp, bool, int]:
    """The likelihood is multi-modal in (K, Delta): 12 grid starts are scored,
    and an L-BFGS-B polish on the analytic gradient in (ln K, Delta, ln sigma)
    (Byrd et al., SIAM J. Sci. Comput. 1995) runs from the best four within
    K <= 1e4, Delta in [0, 1] and sigma in [0.1*sqrt(m2/2e4), sqrt(m2)],
    m2 = mean(x^2); without the lower bound the line search reaches sigma = 0.
    The best polish is kept, with its success flag and the evaluation count,
    the 12 value-only scores included.  Each evaluation takes the phase
    integral by the midpoint rule at _twdp_order(K, Delta) nodes (Trefethen and
    Weideman): density error <= 1e-9 for K <= 1e4, amplitudes <= 3 RMS.  Large
    sample sets are first compressed into a fine weighted histogram, whose
    likelihood at thousands of bins is indistinguishable from the exact one at
    the fitting tolerances.
    """
    from scipy import optimize
    msq = float(np.mean(x**2))
    if x.size > 4096:
        counts, edges = np.histogram(x, bins=4096)
        keep = counts > 0
        data = (0.5 * (edges[:-1] + edges[1:]))[keep]
        weights = counts[keep].astype(float)
    else:
        data, weights = x, np.ones(x.size)

    def negloglik(params: np.ndarray) -> tuple[float, np.ndarray]:
        k, delta, sigma = math.exp(params[0]), params[1], math.exp(params[2])
        value, grad = _twdp_loglik_grad(data, weights, k, delta, sigma, _twdp_order(k, delta))
        return -value, -grad

    def twdp(s: np.ndarray) -> Twdp:  # the model at (ln K, Delta, ln sigma)
        return Twdp(k=math.exp(s[0]), delta=float(s[1]), sigma=math.exp(s[2]))

    starts = sorted((np.array((math.log(k0), delta0, math.log(math.sqrt(msq / (2.0 * (1.0 + k0))))))
                     for k0 in (1.0, 10.0, 100.0, 1000.0) for delta0 in (0.0, 0.5, 1.0)),
                    key=lambda start: -float(weights @ twdp(start)._logpdf(data)))
    bounds = ((None, math.log(1e4)), (0.0, 1.0),
              (math.log(0.1 * math.sqrt(msq / 2e4)), 0.5 * math.log(msq)))
    polishes = [optimize.minimize(negloglik, start, jac=True, method="L-BFGS-B", bounds=bounds)
                for start in starts[:4]]
    res = min(polishes, key=lambda r: r.fun)
    return twdp(res.x), bool(res.success), len(starts) + sum(r.nfev for r in polishes)


# tag -> (model class, fitter)
FAMILIES: dict[str, tuple[type, Callable[[np.ndarray], tuple]]] = {
    "rician": (Rician, _fit_rician),
    "twdp": (Twdp, _fit_twdp),
    "nakagami": (Nakagami, _fit_nakagami),
    "lognormal": (Lognormal, _fit_lognormal),
    "laplace": (Laplace, _fit_laplace),
    "asym-laplace": (AsymLaplace, _fit_asym_laplace),
}


def fit_mle(family: str, data: EnvelopeSamples) -> FitReport:
    """Maximum likelihood fit of one distribution family to envelope samples.

    Lognormal, Laplace and the asymmetric Laplace in closed form, the last
    at the sample that maximizes its profile likelihood (ValueError on data
    with fewer than three distinct values); Rician and Nakagami by one root
    of their likelihood equations, with the boundary MLEs s = 0 and m = 0.5
    where the equation has no interior root (Rician's root by safeguarded
    Newton steps from its moment seed, whose slope reuses the residual's
    I1/I0 pass; Nakagami's by brentq); TWDP by bounded L-BFGS-B
    polishes from the best four of 12 grid starts, the only fitter that can
    report converged = False (the best polish's success flag).
    The report always carries the K-S statistic, PDF RMSE, and
    log-likelihood of the returned model.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    x = data.values
    if x.size < 30:
        raise ValueError(f"need at least 30 samples, got {x.size}")
    if float(np.std(x)) == 0.0:
        raise ValueError("degenerate constant data: zero variance")

    model, converged, n_evals = FAMILIES[family][1](x)
    report = FitReport(model=model, ks=ks_statistic(data, model),
                       pdf_rmse=pdf_rmse(data, model), loglik=model.loglik(x),
                       converged=converged, n_evals=n_evals,
                       quad_nodes=(_twdp_order(model.k, model.delta)
                                   if isinstance(model, Twdp) else None))
    if not converged:
        report.notes.append("optimizer did not report convergence; best-found parameters")
    return report
