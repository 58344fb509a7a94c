"""Gini/K sparsity metric tests, including property-based split invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mariner_chan import sparsity
from mariner_chan.sparsity import (
    PdpRecord,
    coarsen_pdp,
    gini,
    gini_rows,
    metrics,
    mpc_extract,
    rician_k_from_pdp,
    split_equal,
    split_lemma_batch,
    split_random,
)


def _pdp(powers):
    powers = np.asarray(powers, dtype=float)
    return PdpRecord(delays=np.arange(powers.size) * 50e-9, powers=powers)


def test_gini_equal_powers_is_zero():
    assert gini(_pdp([0.25] * 4)) == pytest.approx(0.0, abs=1e-15)
    assert gini(_pdp([3.0] * 17)) == pytest.approx(0.0, abs=1e-12)


def test_gini_one_hot_oracle():
    # single dominant path among N components: G = 1 - 1/N
    assert gini(_pdp([0, 0, 0, 1.0])) == pytest.approx(0.75)
    assert gini(_pdp([0] * 39 + [1.0])) == pytest.approx(1 - 1 / 40)


def test_gini_invariant_to_scale_and_order():
    p = _pdp([0.5, 0.1, 0.3, 0.1])
    assert gini(_pdp([5.0, 1.0, 3.0, 1.0])) == pytest.approx(gini(p))
    assert gini(_pdp([0.1, 0.1, 0.3, 0.5])) == pytest.approx(gini(p))


powers_strategy = st.lists(st.floats(1e-6, 1e3), min_size=2, max_size=50)


@given(powers=powers_strategy, m=st.integers(1, 8))
@settings(max_examples=200)
def test_equal_split_preserves_gini(powers, m):
    p = _pdp(powers)
    assert abs(gini(split_equal(p, m)) - gini(p)) < 1e-12


@given(powers=powers_strategy, m=st.integers(2, 8), seed=st.integers(0, 2**31))
@settings(max_examples=200)
def test_random_split_cannot_reduce_gini(powers, m, seed):
    p = _pdp(powers)
    assert gini(split_random(p, m, seed=seed)) >= gini(split_equal(p, m)) - 1e-12


@given(powers=powers_strategy, m=st.integers(2, 6))
@settings(max_examples=100)
def test_coarsening_a_split_recovers_the_original(powers, m):
    p = _pdp(powers)
    fine = split_random(p, m, seed=1)
    coarse = coarsen_pdp(fine, bin_width=50e-9)
    assert coarse.n_mpc == p.n_mpc
    assert np.allclose(np.sort(coarse.powers), np.sort(p.powers))
    # coarsening pools power: the index cannot increase
    assert gini(coarse) <= gini(fine) + 1e-12


def test_split_preserves_total_power_and_ordering():
    p = _pdp([0.6, 0.3, 0.1])
    for splitter in (lambda q: split_equal(q, 4), lambda q: split_random(q, 4, seed=0)):
        s = splitter(p)
        assert s.total_power == pytest.approx(p.total_power)
        assert np.all(np.diff(s.delays) > 0)
        assert s.n_mpc == 12


def test_rician_k_from_pdp_oracle():
    k_lin, k_db = rician_k_from_pdp(_pdp([9.0, 0.5, 0.5]))
    assert k_lin == pytest.approx(9.0)
    assert k_db == pytest.approx(10 * math.log10(9.0))
    k_lin, k_db = rician_k_from_pdp(_pdp([1.0]))
    assert math.isinf(k_lin) and math.isinf(k_db)


def test_metrics_bundle():
    m = metrics(_pdp([9.0, 0.5, 0.5]))
    assert m.n_mpc == 3
    assert m.gini == pytest.approx(gini(_pdp([9.0, 0.5, 0.5])))
    assert m.k_factor_db == pytest.approx(10 * math.log10(9.0))


def test_mpc_extract_threshold():
    delays = np.arange(5) * 50e-9
    powers = np.array([10.0, 3.9, 4.1, 0.5, 8.0])
    # floor 1.0, 6 dB threshold -> keep strictly above 3.981
    out = mpc_extract(delays, powers, noise_floor=1.0, threshold_db=6.0)
    assert np.allclose(out.powers, [10.0, 4.1, 8.0])
    with pytest.raises(ValueError):
        mpc_extract(delays, powers, noise_floor=100.0)
    with pytest.raises(ValueError):
        mpc_extract(delays, powers, noise_floor=1.0, threshold_db=-1.0)


def test_pdp_validation():
    with pytest.raises(ValueError):
        PdpRecord(delays=np.array([0.0, 0.0]), powers=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PdpRecord(delays=np.array([0.0, 1e-9]), powers=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        PdpRecord(delays=np.array([0.0]), powers=np.array([0.0]))
    with pytest.raises(ValueError, match="finite"):
        PdpRecord(delays=np.array([0.0, 1e-9]), powers=np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        PdpRecord(delays=np.array([0.0, np.inf]), powers=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        split_equal(_pdp([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        coarsen_pdp(_pdp([1.0, 2.0]), bin_width=0.0)


def _gini_reference(powers):
    """The Gini index as computed one profile at a time."""
    powers = np.sort(powers)
    total = np.sum(powers)
    n = powers.size
    weights = (n - np.arange(1, n + 1) + 0.5) / n
    return float(1.0 - 2.0 * np.sum(powers / total * weights))


def test_gini_rows_matches_gini_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 8, 9, 50, 127, 128, 129, 400):
        rows = rng.exponential(1.0, size=(20, n))
        rows[0, : n // 2] = 0.0
        expected = [_gini_reference(row) for row in rows]
        assert [gini(_pdp(row)) for row in rows] == expected
        assert gini_rows(rows).tolist() == expected


def _lemma_trial_reference(n, m, powers, split_seed):
    """One split-lemma trial as the CLI ran it trial by trial: three
    ``PdpRecord``s and three ``gini`` calls.
    """
    pdp = PdpRecord(delays=np.arange(n) * 50e-9, powers=powers[:n])
    g0 = gini(pdp)
    g_eq = gini(split_equal(pdp, m))
    g_rand = gini(split_random(pdp, m, seed=split_seed))
    return abs(g_eq - g0), g_rand < g_eq - 1e-12


def test_split_lemma_batch_matches_the_trial_loop_in_every_cell():
    max_n, max_m = 50, 8
    rng = np.random.default_rng(11)
    # every (n, m) cell twice, n = 2 and n = max_n and m = 1 included, shuffled
    n, m = np.meshgrid(np.arange(2, max_n + 1), np.arange(1, max_m + 1))
    n, m = np.tile(n.ravel(), 2), np.tile(m.ravel(), 2)
    order = rng.permutation(n.size)
    n, m = n[order], m[order]
    powers = rng.exponential(1.0, size=(n.size, max_n))
    seeds = rng.integers(0, 2**63, size=n.size)
    gaps, violations = split_lemma_batch(n, m, powers, seeds)
    expected = [_lemma_trial_reference(int(a), int(b), row, int(s))
                for a, b, row, s in zip(n, m, powers, seeds)]
    assert gaps.tolist() == [gap for gap, _ in expected]
    assert violations.tolist() == [bad for _, bad in expected]


def test_split_lemma_batch_flags_a_violation_beyond_its_tolerance(monkeypatch):
    """A random split whose Gini falls 1e-11 below the equal split's is a
    violation; one that falls 1e-13 below is within the 1e-12 tolerance."""

    def equal_split_moved_toward_its_mean(powers, m, seed):
        # moving toward the mean by eps scales the Gini by (1 - eps);
        # the seed names the drop, 10**-seed
        equal = np.repeat(powers / m, m)
        eps = 10.0 ** -seed / gini_rows(equal)
        return equal + eps * (equal.mean() - equal)

    monkeypatch.setattr(sparsity, "_random_split_powers", equal_split_moved_toward_its_mean)
    powers = np.tile(np.random.default_rng(2).exponential(1.0, size=6), (2, 1))
    seeds = np.array([11, 13])
    _, violations = split_lemma_batch(np.array([6, 6]), np.array([3, 3]), powers, seeds)
    assert violations.tolist() == [True, False]
    g_eq = gini_rows(np.repeat(powers[0] / 3, 3))
    for seed in seeds:
        drop = g_eq - gini_rows(equal_split_moved_toward_its_mean(powers[0], 3, seed))
        assert 0.5 * 10.0 ** -seed < drop < 2.0 * 10.0 ** -seed
