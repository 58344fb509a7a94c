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


def test_gini_rows_is_the_gini_of_rows_sorted_once():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 50, 129):
        rows = rng.exponential(1.0, size=(20, n))
        rows[0, : n // 2] = 0.0
        assert gini_rows(rows).tobytes() == sparsity._gini_sorted(np.sort(rows)).tobytes()
        for m in (1, 2, 3, 8, 12):
            # the equal split of the sorted row is the sorted equal split, bit for bit
            assert (np.repeat(np.sort(rows) / m, m, axis=1).tobytes()
                    == np.sort(np.repeat(rows / m, m, axis=1)).tobytes())


def _lemma_trial_reference(n, m, powers, split_seed):
    """One split-lemma trial on its own: three ``PdpRecord``s and three
    ``gini`` calls, the random split seeded by ``split_seed``.
    """
    pdp = PdpRecord(delays=np.arange(n) * 50e-9, powers=powers[:n])
    g0 = gini(pdp)
    g_eq = gini(split_equal(pdp, m))
    g_rand = gini(split_random(pdp, m, seed=split_seed))
    return abs(g_eq - g0), g_rand < g_eq - 1e-12


def _every_cell_twice(seed, max_n=50, max_m=8):
    """Trials (n, m, powers) covering every (n, m) cell twice, n = 2,
    n = max_n and m = 1 included, in shuffled order."""
    rng = np.random.default_rng(seed)
    n, m = np.meshgrid(np.arange(2, max_n + 1), np.arange(1, max_m + 1))
    n, m = np.tile(n.ravel(), 2), np.tile(m.ravel(), 2)
    order = rng.permutation(n.size)
    n, m = n[order], m[order]
    return n, m, rng.exponential(1.0, size=(n.size, max_n))


def _record_random_splits(monkeypatch):
    """Route the batch's random splits through a recorder; the returned list
    gets one (powers, m, sub-powers) entry per call."""
    calls, draw = [], sparsity._random_split_powers

    def recorded(powers, m, seed):
        calls.append((powers, m, draw(powers, m, seed)))
        return calls[-1][2]

    monkeypatch.setattr(sparsity, "_random_split_powers", recorded)
    return calls


def test_split_lemma_batch_matches_the_trial_loop_in_every_cell():
    """The gaps equal the trial loop's bit for bit.  The random splits are
    drawn from another stream than split_random's, so the violation flags
    agree only in being all False, as the lemma requires of both."""
    n, m, powers = _every_cell_twice(11)
    gaps, violations = split_lemma_batch(n, m, powers, np.random.default_rng(11))
    expected = [_lemma_trial_reference(int(a), int(b), row, i)
                for i, (a, b, row) in enumerate(zip(n, m, powers))]
    assert gaps.tolist() == [gap for gap, _ in expected]
    assert violations.tolist() == [bad for _, bad in expected] == [False] * n.size


def test_split_lemma_batch_flags_a_violation_beyond_its_tolerance(monkeypatch):
    """A random split whose Gini falls 1e-11 below the equal split's is a
    violation; one that falls 1e-13 below is within the 1e-12 tolerance."""
    drops = np.array([1e-11, 1e-13])

    def equal_split_moved_toward_its_mean(powers, m, rng):
        # moving row i toward its mean by eps scales its Gini by (1 - eps),
        # a drop of drops[i]; one call splits the whole (n, m) cell
        assert isinstance(rng, np.random.Generator)
        equal = np.repeat(powers / m, m, axis=1)
        eps = drops[:, None] / gini_rows(equal)[:, None]
        return equal + eps * (np.mean(equal, axis=1, keepdims=True) - equal)

    monkeypatch.setattr(sparsity, "_random_split_powers", equal_split_moved_toward_its_mean)
    powers = np.tile(np.random.default_rng(2).exponential(1.0, size=6), (2, 1))
    _, violations = split_lemma_batch(np.array([6, 6]), np.array([3, 3]), powers,
                                      np.random.default_rng(11))
    assert violations.tolist() == [True, False]
    g_eq = gini_rows(np.repeat(powers / 3, 3, axis=1))
    drop = g_eq - gini_rows(equal_split_moved_toward_its_mean(powers, 3, np.random.default_rng()))
    assert np.all((0.5 * drops < drop) & (drop < 2.0 * drops))


def test_split_lemma_batch_splits_each_power_into_shares_of_it(monkeypatch):
    calls = _record_random_splits(monkeypatch)
    n, m, powers = _every_cell_twice(12)
    split_lemma_batch(n, m, powers, np.random.default_rng(12))
    # one draw per cell, in sorted cell order
    assert [(p.shape[1], mk) for p, mk, _ in calls] == sorted({*zip(n.tolist(), m.tolist())})
    for p, mk, sub in calls:
        assert p.shape[0] == 2 and sub.shape == (2, p.shape[1] * mk)
        assert np.all(sub >= 0)
        # each MPC's m sub-powers sum to its power within a few ulps
        assert np.all(np.abs(sub.reshape(*p.shape, mk).sum(axis=2) - p) <= 4 * np.spacing(p))


def test_split_lemma_batch_draws_each_cells_rows_in_trial_order(monkeypatch):
    """m up to 12 beside n up to 3, where a cell key packed as 10*n + m would
    merge (2, 12) with (3, 2): one draw per cell in sorted order, on the
    cell's rows as given, in ascending trial order."""
    calls = _record_random_splits(monkeypatch)
    n, m, powers = _every_cell_twice(16, max_n=3, max_m=12)
    split_lemma_batch(n, m, powers, np.random.default_rng(16))
    cells = sorted({*zip(n.tolist(), m.tolist())})
    assert [(p.shape[1], mk) for p, mk, _ in calls] == cells
    for (nk, mk), (p, _, _) in zip(cells, calls):
        assert p.tobytes() == powers[(n == nk) & (m == mk), :nk].tobytes()


def test_split_lemma_batch_shares_follow_the_dirichlet_law(monkeypatch):
    """At m = 2 a Dirichlet(1) share is Uniform(0, 1): the K-S distance of the
    first shares stays within the DKW bound (Massart 1990) at alpha = 1e-3."""
    calls = _record_random_splits(monkeypatch)
    rows = 20_000
    powers = np.random.default_rng(5).exponential(1.0, size=(rows, 2))
    split_lemma_batch(np.full(rows, 2), np.full(rows, 2), powers, np.random.default_rng(6))
    ((p, _, sub),) = calls
    u = np.sort((sub[:, ::2] / p).ravel())
    ranks = np.arange(1, u.size + 1)
    ks = max(np.max(ranks / u.size - u), np.max(u - (ranks - 1) / u.size))
    assert ks < math.sqrt(math.log(2 / 1e-3) / (2 * u.size))


def test_split_lemma_batch_is_deterministic(monkeypatch):
    calls = _record_random_splits(monkeypatch)
    n, m, powers = _every_cell_twice(13)
    first, second = (split_lemma_batch(n, m, powers, np.random.default_rng(13)) for _ in range(2))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    half = len(calls) // 2
    assert all(np.array_equal(a[2], b[2]) for a, b in zip(calls[:half], calls[half:]))
    # the gaps do not depend on the trials' order
    order = np.random.default_rng(14).permutation(n.size)
    gaps, _ = split_lemma_batch(n[order], m[order], powers[order], np.random.default_rng(15))
    assert gaps.tolist() == first[0][order].tolist()
