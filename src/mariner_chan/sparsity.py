"""Channel-sparsity metrics over power delay profiles.

The Gini index measures how concentrated the multipath power is across
components (0 = uniform, -> 1 = single dominant path); the Rician K factor is
the strongest-path-to-rest power ratio.  Resolution-change constructions
(equal and random splitting, coarsening) provide executable checks of the
bandwidth-monotonicity properties of the Gini index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PdpRecord:
    """A power delay profile: strictly increasing delays with linear powers."""

    delays: np.ndarray       # s
    powers: np.ndarray       # linear power per MPC, >= 0

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=float)
        self.powers = np.asarray(self.powers, dtype=float)
        if self.delays.shape != self.powers.shape:
            raise ValueError("delays and powers must have the same length")
        if self.delays.size == 0:
            raise ValueError("empty PDP")
        if not (np.all(np.isfinite(self.delays)) and np.all(np.isfinite(self.powers))):
            raise ValueError("delays and powers must be finite")
        if np.any(np.diff(self.delays) <= 0):
            raise ValueError("delays must be strictly increasing")
        if np.any(self.powers < 0):
            raise ValueError("powers must be non-negative")
        if not np.any(self.powers > 0):
            raise ValueError("at least one power must be positive")

    @property
    def n_mpc(self) -> int:
        return int(self.delays.size)

    @property
    def total_power(self) -> float:
        return float(np.sum(self.powers))


@dataclass(frozen=True)
class SparsityMetrics:
    gini: float
    k_factor_db: float
    n_mpc: int


def gini(p: PdpRecord) -> float:
    """Power-concentration index over ascending-sorted MPC powers."""
    return float(gini_rows(p.powers))


def gini_rows(powers: np.ndarray) -> np.ndarray:
    """Gini index along the last axis of a power array, one row at a time
    with the same pairwise sums, so a row equals ``gini`` of its profile."""
    return _gini_sorted(np.sort(powers, axis=-1))


def _gini_sorted(powers: np.ndarray) -> np.ndarray:
    """``gini_rows`` of rows already sorted ascending."""
    total = np.add.reduce(powers, axis=-1, keepdims=True)
    n = powers.shape[-1]
    weights = (n - np.arange(1, n + 1) + 0.5) / n
    return 1.0 - 2.0 * np.add.reduce(powers / total * weights, axis=-1)


def rician_k_from_pdp(p: PdpRecord) -> tuple[float, float]:
    """Strongest-path-to-rest power ratio as (linear, dB); +inf for a
    single-component profile.
    """
    p_max = float(np.max(p.powers))
    rest = p.total_power - p_max
    if p.n_mpc < 2 or rest <= 0:
        return math.inf, math.inf
    k = p_max / rest
    return k, 10.0 * math.log10(k)


def metrics(p: PdpRecord) -> SparsityMetrics:
    _, k_db = rician_k_from_pdp(p)
    return SparsityMetrics(gini=gini(p), k_factor_db=k_db, n_mpc=p.n_mpc)


def mpc_extract(delays: np.ndarray, powers: np.ndarray, noise_floor: float,
                threshold_db: float = 6.0) -> PdpRecord:
    """Retain dense-PDP bins strictly above noise_floor * 10^(threshold_db/10)."""
    if threshold_db < 0:
        raise ValueError(f"threshold must be non-negative dB, got {threshold_db}")
    delays = np.asarray(delays, dtype=float)
    powers = np.asarray(powers, dtype=float)
    cut = noise_floor * 10.0 ** (threshold_db / 10.0)
    keep = powers > cut
    if not np.any(keep):
        raise ValueError("no components above the detection threshold")
    return PdpRecord(delays=delays[keep], powers=powers[keep])


def split_equal(p: PdpRecord, m: int) -> PdpRecord:
    """Replace each MPC by m sub-components of equal power P_n/m; this leaves
    the Gini index unchanged.
    """
    return _split(p, m, lambda: np.repeat(p.powers / m, m))


def split_random(p: PdpRecord, m: int, seed: int | None = None) -> PdpRecord:
    """Replace each MPC by m sub-components with Dirichlet(1) random shares of
    its power; the Gini index can only grow relative to the equal split.
    """
    return _split(p, m, lambda: _random_split_powers(p.powers, m, seed))


def _random_split_powers(powers: np.ndarray, m: int, seed: int | np.random.Generator | None):
    shares = np.random.default_rng(seed).dirichlet(np.ones(m), size=powers.shape)
    return (shares * powers[..., None]).reshape(*powers.shape[:-1], -1)


def _split(p: PdpRecord, m: int, sub_powers) -> PdpRecord:
    """m sub-components per MPC, nested inside its delay bin, powers ``sub_powers()``."""
    if m < 1:
        raise ValueError(f"split factor must be >= 1, got {m}")
    if m == 1:
        return PdpRecord(p.delays.copy(), p.powers.copy())
    gaps = np.diff(p.delays)
    widths = np.append(gaps, gaps[-1] if gaps.size else 1.0)
    delays = (p.delays[:, None] + (np.arange(m) / m)[None, :] * widths[:, None]).ravel()
    return PdpRecord(delays=delays, powers=sub_powers())


def split_lemma_batch(n: np.ndarray, m: np.ndarray, powers: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split lemmas for trial i on the first n[i] powers of row i, split m[i]
    ways: the gap |G(split_equal) - G| and whether a Dirichlet(1) random split
    falls below the equal split by more than 1e-12.  The random splits are drawn
    from ``rng``, one draw per (n, m) cell in sorted order.  The cells come
    from one stable sort of the trials; each row is sorted once, and its
    equal split, the sorted row over m repeated m times, needs no sort.
    """
    gaps, violations = np.empty(n.size), np.zeros(n.size, dtype=bool)
    order = np.lexsort((m, n))
    cells = np.split(order, np.flatnonzero(np.diff(n[order]) | np.diff(m[order])) + 1)
    for idx in cells if n.size else ():
        nk, mk = int(n[idx[0]]), int(m[idx[0]])
        p = powers[idx, :nk]
        p_sorted = np.sort(p, axis=1)
        g_eq = _gini_sorted(np.repeat(p_sorted / mk, mk, axis=1))
        gaps[idx] = np.abs(g_eq - _gini_sorted(p_sorted))
        violations[idx] = gini_rows(_random_split_powers(p, mk, rng)) < g_eq - 1e-12
    return gaps, violations


def coarsen_pdp(fine: PdpRecord, bin_width: float) -> PdpRecord:
    """Sum powers per delay bin of the given width (incoherent power addition);
    delays become bin centers.  Coarsening cannot increase the Gini index.
    """
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    # nudge ratios sitting a rounding error below a bin edge onto the edge
    ratio = fine.delays / bin_width + 1e-9
    idx = np.floor(ratio).astype(int)
    idx -= idx.min()
    powers = np.bincount(idx, weights=fine.powers)
    used = powers > 0
    first_bin = int(np.floor(ratio.min()))
    centers = (np.arange(powers.size) + first_bin + 0.5) * bin_width
    return PdpRecord(delays=centers[used], powers=powers[used])
