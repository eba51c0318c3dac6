import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import block_diag, coo_matrix, csc_matrix, vstack

from conftest import from_periodic, length_one_marginal
from deltachain import measures
from deltachain.builders import circle_doubling, random_metric
from deltachain.chain import build_chain_graph, is_delta_chain
from deltachain.core import TOL, FiniteMetricSystem, FiniteTrajectory
from deltachain.errors import DegenerateWeights, EmptySet, Infeasible, SchemaError
from deltachain.measures import (
    FiniteMeasure,
    MarkovMeasure,
    PeriodicOrbitMeasure,
    empirical_measure,
    ergodic_measures_of_graph,
    hausdorff_distance,
    mixture_cylinders,
    pi_bar_matrices,
    pi_bar_mixture_upper,
    pi_bar_periodic,
    rho_bar_markov_upper,
    rho_bar_periodic,
    sigmund_approximation,
    simple_cycle_words,
    w1_distance,
    weakstar_proxies,
    weakstar_proxy,
)


def orbit_coupling_lp(wp, wq, cost):
    """Independent reference for the d-bar value between periodic orbits.

    Minimizes expected cost over joint distributions on positions (i, j)
    that are invariant under the simultaneous +1 shift and have uniform
    marginals.  No phase formula is used anywhere here.
    """
    p, q = len(wp), len(wq)
    cost = np.asarray(cost, dtype=float)
    nvars = p * q

    def var(i, j):
        return i * q + j

    rows, cols, data, b_eq = [], [], [], []
    r = 0
    # shift invariance
    for i in range(p):
        for j in range(q):
            rows += [r, r]
            cols += [var(i, j), var((i + 1) % p, (j + 1) % q)]
            data += [1.0, -1.0]
            b_eq.append(0.0)
            r += 1
    # marginals (last column dropped as redundant)
    for i in range(p):
        for j in range(q):
            rows.append(r)
            cols.append(var(i, j))
            data.append(1.0)
        b_eq.append(1.0 / p)
        r += 1
    for j in range(q - 1):
        for i in range(p):
            rows.append(r)
            cols.append(var(i, j))
            data.append(1.0)
        b_eq.append(1.0 / q)
        r += 1
    from scipy.sparse import coo_matrix

    a_eq = coo_matrix((data, (rows, cols)), shape=(r, nvars))
    c = np.array([cost[wp[i], wq[j]] for i in range(p) for j in range(q)])
    res = linprog(c, A_eq=a_eq, b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


class TestFiniteMeasure:
    def test_accepts_probability_vector(self):
        m = FiniteMeasure([0.25, 0.75])
        assert m.weights.sum() == 1.0

    def test_rejects_negative(self):
        with pytest.raises(SchemaError):
            FiniteMeasure([1.5, -0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(SchemaError):
            FiniteMeasure([0.5, 0.6])


class TestPeriodicOrbitMeasure:
    def test_canonical_primitive(self):
        assert PeriodicOrbitMeasure((0, 1, 0, 1)).word == (0, 1)

    def test_canonical_rotation(self):
        assert PeriodicOrbitMeasure((2, 0, 1)).word == (0, 1, 2)

    def test_rotations_compare_equal(self):
        a = PeriodicOrbitMeasure((3, 1, 2))
        b = PeriodicOrbitMeasure((1, 2, 3))
        assert a == b

    def test_length_one_marginal(self):
        m = PeriodicOrbitMeasure((0, 0, 2))
        marg = length_one_marginal(m, 4)
        assert marg.weights.tolist() == pytest.approx([2 / 3, 0.0, 1 / 3, 0.0])

    def test_fast_path_matches_canonical_form(self):
        rng = np.random.default_rng(31)
        words = []
        for _ in range(200):
            n = int(rng.integers(1, 8))
            words.append(tuple(int(v) for v in rng.integers(0, 4, n)))  # repeated letters
            base = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 4))))
            words.append(base * int(rng.integers(2, 4)))  # non-primitive
            distinct = tuple(int(v) for v in rng.permutation(9)[:n])
            words.append(distinct)  # distinct letters, any starting letter
            i = distinct.index(min(distinct))
            words.append(distinct[i:] + distinct[:i])  # distinct, least letter first
        fast = [w for w in words if w[0] == min(w) and len(set(w)) == len(w)]
        assert 0 < len(fast) < len(words)
        for w in words:
            assert PeriodicOrbitMeasure(w).word == measures._least_rotation(
                measures._primitive_root(w)
            )

    def test_least_rotation_equals_the_minimum_over_rotations(self):
        rng = np.random.default_rng(32)
        for case in range(2000):
            w = tuple(int(v) for v in rng.integers(0, int(rng.integers(1, 4)), int(rng.integers(1, 16))))
            if case % 3 == 0:
                w = w * int(rng.integers(2, 4))  # not primitive
            assert measures._least_rotation(w) == min(w[i:] + w[:i] for i in range(len(w))), w

    def test_least_rotation_of_a_long_word_is_linear(self):
        # all ones but one zero: min over the rotations compares O(p) letters
        # per pair, and took 2.7 s at p = 20,000 where this takes about 10 ms
        w = [1] * 20_000
        w[777] = 0
        w = tuple(w)
        start = time.perf_counter()
        got = measures._least_rotation(w)
        assert time.perf_counter() - start < 0.5
        assert got == w[777:] + w[:777]


class TestMarkovMeasure:
    def test_from_periodic_is_cyclic(self):
        pm = PeriodicOrbitMeasure((0, 1, 2))
        mm = from_periodic(pm)
        assert mm.n == 3
        assert mm.kernel[0, 1] == 1.0 and mm.kernel[2, 0] == 1.0
        assert mm.stationary.tolist() == pytest.approx([1 / 3] * 3)

    def test_rejects_non_stochastic(self):
        with pytest.raises(SchemaError):
            MarkovMeasure(np.array([[0.5, 0.4], [0.0, 1.0]]), np.array([0.5, 0.5]))

    def test_rejects_non_stationary(self):
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SchemaError):
            MarkovMeasure(kernel, np.array([0.9, 0.1]))


class TestW1Distance:
    def test_point_mass_to_uniform(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = w1_distance(np.array([1.0, 0.0]), np.array([0.5, 0.5]), cost)
        assert res.value == pytest.approx(0.5)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(0)
        sys = random_metric(6, seed=1)
        for _ in range(10):
            a = rng.dirichlet(np.ones(6))
            b = rng.dirichlet(np.ones(6))
            ab = w1_distance(a, b, sys.dist).value
            ba = w1_distance(b, a, sys.dist.T).value
            assert ab == pytest.approx(ba, abs=1e-9)
            assert w1_distance(a, a, sys.dist).value == pytest.approx(0.0, abs=1e-9)

    def test_line_metric_matches_cdf_formula(self):
        # on the line, W1 is the L1 distance between the CDFs
        rng = np.random.default_rng(1)
        pts = np.sort(rng.uniform(0, 1, 5))
        cost = np.abs(np.subtract.outer(pts, pts))
        for _ in range(20):
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            res = w1_distance(a, b, cost)
            cdf_gap = np.cumsum(a - b)[:-1]
            expected = float(np.sum(np.abs(cdf_gap) * np.diff(pts)))
            assert res.value == pytest.approx(expected, abs=1e-9)

    def test_plan_marginals(self):
        rng = np.random.default_rng(2)
        sys = random_metric(5, seed=3)
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        res = w1_distance(a, b, sys.dist)
        assert np.allclose(res.plan.sum(axis=1), a, atol=1e-9)
        assert np.allclose(res.plan.sum(axis=0), b, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            w1_distance(np.array([1.0]), np.array([1.0]), np.zeros((2, 2)))

    def test_matches_loop_built_lp_bit_for_bit(self, monkeypatch):
        # the transport LP assembled entry by entry, in the same COO order,
        # solved with the options of the library's own solve
        rng = np.random.default_rng(4)
        for n1, n2 in ((1, 1), (1, 5), (4, 1), (7, 3), (12, 12)):
            a, b = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))
            cost = rng.random((n1, n2))
            rows, cols = [], []
            for i in range(n1):
                for j in range(n2):
                    rows.append(i)
                    cols.append(i * n2 + j)
            for j in range(n2 - 1):
                for i in range(n1):
                    rows.append(n1 + j)
                    cols.append(i * n2 + j)
            a_eq = coo_matrix(([1.0] * len(rows), (rows, cols)), shape=(n1 + n2 - 1, n1 * n2))
            calls = counting_solve(monkeypatch)
            res = w1_distance(a, b, cost)
            assert len(calls) == 1
            ((c, got, b_eq),) = calls
            assert_same_csc(recorded_matrix(c, got), a_eq.tocsc())
            assert np.array_equal(c, cost.ravel())
            assert np.array_equal(b_eq, np.concatenate([a, b[:-1]]))
            ref = linprog(
                cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b[:-1]]),
                bounds=(0, None), method="highs", options={"presolve": False},
            )
            assert res.value == float(ref.fun)
            assert np.array_equal(res.plan, ref.x.reshape(n1, n2))


def counting_solve(monkeypatch):
    """Route ``measures._solve`` through a recorder; returns its ``(c, a_eq, b_eq)`` calls.

    ``a_eq`` is recorded as passed: ``(n_rows, start, index, value)``; see
    :func:`recorded_matrix`.
    """
    calls = []
    real = measures._solve

    def recording(c, a_eq, b_eq, what, price=None):
        calls.append((c, a_eq, b_eq))
        return real(c, a_eq, b_eq, what, price)

    monkeypatch.setattr(measures, "_solve", recording)
    return calls


def recorded_matrix(c, a_eq):
    """A recorded ``(n_rows, start, index, value)`` as a scipy CSC matrix, arrays as given."""
    n_rows, start, index, value = a_eq
    assert start.dtype == index.dtype == np.int32
    return csc_matrix((value, index, start), shape=(n_rows, len(c)))


def assert_same_csc(got, ref):
    """Same shape and the same CSC arrays, entry for entry, as ``ref`` (a ``tocsc()`` result)."""
    assert got.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def dense_transport_value(a, b, cost):
    """Independent transport LP: dense constraints, every row and column sum."""
    n1, n2 = cost.shape
    a_eq = np.vstack([np.kron(np.eye(n1), np.ones(n2)), np.kron(np.ones(n1), np.eye(n2))])
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs"
    )
    assert res.success
    return float(res.fun)


class TestTransportLPs:
    def test_mixed_blocks_match_separate_lps(self, monkeypatch):
        rng = np.random.default_rng(8)
        problems = []
        for n1, n2 in ((1, 1), (3, 5), (6, 2), (1, 4), (5, 5)):
            a, b = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))
            problems.append((a, b, rng.random((n1, n2))))
        # zero mass on some support points of both sides
        a, b = np.array([0.5, 0.0, 0.25, 0.0, 0.25]), np.array([0.0, 0.6, 0.0, 0.4])
        problems.insert(2, (a, b, rng.random((5, 4))))
        calls = counting_solve(monkeypatch)
        results = measures._transport_lps(problems)
        assert len(calls) == 1 and len(results) == len(problems)
        for (a, b, cost), res in zip(problems, results):
            assert res.plan.shape == cost.shape
            assert res.value == pytest.approx(dense_transport_value(a, b, cost), abs=1e-9)
            assert res.value == pytest.approx(float(np.sum(res.plan * cost)), abs=1e-12)
            assert np.max(np.abs(res.plan.sum(axis=1) - a)) <= measures.MARGINAL_TOL
            assert np.max(np.abs(res.plan.sum(axis=0) - b)) <= measures.MARGINAL_TOL
            assert res.plan.min() >= -1e-12

    def test_one_block_is_w1_distance(self):
        rng = np.random.default_rng(9)
        a, b, cost = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(6)), rng.random((4, 6))
        (res,) = measures._transport_lps([(a, b, cost)])
        ref = w1_distance(a, b, cost)
        assert res.value == ref.value and np.array_equal(res.plan, ref.plan)

    def test_unequal_mass_block_raises(self):
        rng = np.random.default_rng(10)
        good = (rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)), rng.random((3, 3)))
        for b in (np.array([0.5, 0.3]), np.array([0.7, 0.5])):  # mass 0.8 and 1.2 against 1
            bad = (np.array([0.25, 0.25, 0.5]), b, rng.random((3, 2)))
            with pytest.raises(Infeasible):
                measures._transport_lps([good, bad, good])

    def test_empty_stack_makes_no_call(self, monkeypatch):
        calls = counting_solve(monkeypatch)
        assert measures._transport_lps([]) == []
        assert weakstar_proxies([], 3, circle_doubling(4)) == []
        assert calls == []

    def test_weakstar_proxies_match_single_calls(self, monkeypatch):
        sys = random_metric(7, seed=31)
        rng = np.random.default_rng(11)
        cyls = [
            empirical_measure(
                PeriodicOrbitMeasure(tuple(int(x) for x in rng.integers(0, 7, rng.integers(1, 9)))),
                3,
            )
            for _ in range(6)
        ]
        pairs = [(cyls[i], cyls[j]) for i, j in ((0, 1), (2, 3), (4, 4), (5, 0), (1, 2))]
        calls = counting_solve(monkeypatch)
        together = weakstar_proxies(pairs, 3, sys)
        assert len(calls) == 1
        single = [weakstar_proxy(x, y, 3, sys) for x, y in pairs]
        assert len(calls) == 1 + len(pairs)
        assert together == pytest.approx(single, abs=1e-12)
        assert together[2] == pytest.approx(0.0, abs=1e-12)
        for (x, y), got in zip(pairs, together):
            want = 0.0
            for w in range(1, 4):
                support = sorted(set(x[w]) | set(y[w]))
                blocks = np.array(support)
                cost = np.max(sys.dist[blocks[:, None, :], blocks[None, :, :]], axis=2)
                a = np.array([x[w].get(k, 0.0) for k in support])
                b = np.array([y[w].get(k, 0.0) for k in support])
                want += 2.0 ** -w * dense_transport_value(a, b, cost)
            assert got == pytest.approx(want, abs=1e-9)


def dropped_row_transport_value(a, b, cost):
    """Independent transport LP on the rows HiGHS gets: the last column's sum is implied."""
    n1, n2 = cost.shape
    a_eq = np.vstack([np.kron(np.eye(n1), np.ones(n2)), np.kron(np.ones(n1), np.eye(n2))[:-1]])
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs-ds", options={"presolve": False})
    assert res.success
    return float(res.fun)


class TestPlanRepair:
    """A HiGHS plan off its marginals by more than ``MARGINAL_TOL`` is rounded onto them."""

    def test_skewed_masses_are_repaired_not_rejected(self, monkeypatch):
        # Dirichlet(0.1) masses: HiGHS's plans miss a marginal by up to its 1e-7
        # feasibility tolerance, and these problems raised Infeasible before the repair
        repaired, real = [], measures._round_to_marginals

        def recording(*args):
            repaired.append(real(*args))
            return repaired[-1]

        monkeypatch.setattr(measures, "_round_to_marginals", recording)
        for shape in ((40, 50), (8, 10), (16, 16)):
            count = len(repaired)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                a, b = (rng.dirichlet(np.full(n, 0.1)) for n in shape)
                cost = rng.random(shape)
                res = w1_distance(a, b, cost)
                assert abs(res.value - dropped_row_transport_value(a, b, cost)) <= 1e-7
                assert res.value == float(cost.ravel() @ res.plan.ravel())
                gaps = np.concatenate([res.plan.sum(axis=1) - a, res.plan.sum(axis=0) - b])
                if repaired and repaired[-1] is res.plan:
                    assert res.plan.min() >= 0.0 and np.abs(gaps).max() <= 1e-12
                else:
                    assert np.abs(gaps).max() <= measures.MARGINAL_TOL
            assert len(repaired) > count

    def test_plan_within_tolerance_is_left_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(measures, "_round_to_marginals", lambda *args: calls.append(args))
        rng = np.random.default_rng(4)
        a, b, cost = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(6)), rng.random((5, 6))
        res = w1_distance(a, b, cost)
        assert calls == [] and res.value == float(cost.ravel() @ res.plan.ravel())

    def test_rounding_meets_equal_marginals(self):
        a, b = np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])
        plan = np.array([[0.3, 0.25], [0.2, -1e-8], [0.05, 0.1]])  # rows 0.55, 0.2, 0.15
        got = measures._round_to_marginals(plan, a, b)
        assert got.min() >= 0.0
        assert np.abs(got.sum(axis=1) - a).max() <= 1e-15
        assert np.abs(got.sum(axis=0) - b).max() <= 1e-15


def dense_weakstar_value(cyl_a, cyl_b, depth, sys):
    """Independent weak* proxy: one dense LP per depth over the union of both supports."""
    total = 0.0
    for w in range(1, depth + 1):
        support = sorted(set(cyl_a[w]) | set(cyl_b[w]))
        cost = np.array([[max(sys.rho(u, v) for u, v in zip(s, t)) for t in support] for s in support])
        a = np.array([cyl_a[w].get(k, 0.0) for k in support])
        b = np.array([cyl_b[w].get(k, 0.0) for k in support])
        total += 2.0 ** -w * dense_transport_value(a, b, cost)
    return total


class TestMassSupport:
    """Each transport block is solved on the rows where a != 0 and the columns where b != 0."""

    def problems(self):
        rng = np.random.default_rng(21)
        rows = np.array([0.0, 0.3, 0.0, 0.2, 0.5])
        cols = np.array([0.25, 0.0, 0.25, 0.0, 0.0, 0.5])
        full5, full6 = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(6))
        return [
            (rows, full6, rng.random((5, 6))),  # zero-mass rows
            (full5, cols, rng.random((5, 6))),  # zero-mass columns
            (rows, cols, rng.random((5, 6))),  # both
            (np.array([1.0]), np.array([0.0, 0.4, 0.6, 0.0]), rng.random((1, 4))),  # 1 x n
            (np.zeros(3), np.zeros(4), rng.random((3, 4))),  # no mass at all
            (full5, full6, rng.random((5, 6))),  # full support
            # over every column, HiGHS returns -0.0 in this problem's dropped row
            (np.array([0.0, 1.0]), np.array([0.5, 0.5, 0.0]), np.array([[0, 1, 2], [1, 0, 1.0]])),
        ]

    def test_matches_dense_lp_over_every_column(self):
        problems = self.problems()
        stacked = measures._transport_lps(problems)
        for (a, b, cost), res in zip(problems, stacked):
            (single,) = measures._transport_lps([(a, b, cost)])
            for got in (res, single):
                assert got.plan.shape == cost.shape
                assert got.value == pytest.approx(dense_transport_value(a, b, cost), abs=1e-9)
                assert np.max(np.abs(got.plan.sum(axis=1) - a)) <= measures.MARGINAL_TOL
                assert np.max(np.abs(got.plan.sum(axis=0) - b)) <= measures.MARGINAL_TOL
                # a dropped row or column is exactly 0.0, never -0.0
                off = got.plan[(a == 0)[:, None] | (b == 0)[None, :]]
                assert np.all(off == 0.0) and not np.any(np.signbit(off))

    def test_stacked_lp_has_only_support_columns(self, monkeypatch):
        problems = self.problems()
        calls = counting_solve(monkeypatch)
        measures._transport_lps(problems)
        ((c, a_eq, _),) = calls
        sizes = [(np.count_nonzero(a), np.count_nonzero(b)) for a, b, _ in problems]
        n_rows, n_cols = recorded_matrix(c, a_eq).shape
        assert len(c) == n_cols == sum(m1 * m2 for m1, m2 in sizes)
        assert n_rows == sum(m1 + m2 - 1 for m1, m2 in sizes if m1 * m2)

    def test_block_without_mass_makes_no_call(self, monkeypatch):
        cost = np.random.default_rng(22).random((3, 4))
        calls = counting_solve(monkeypatch)
        (res,) = measures._transport_lps([(np.zeros(3), np.zeros(4), cost)])
        assert calls == []
        assert res.value == 0.0 and np.array_equal(res.plan, np.zeros((3, 4)))
        for a, b in ((np.array([0.0, 1.0, 0.0]), np.zeros(4)), (np.zeros(3), np.full(4, 0.25))):
            with pytest.raises(Infeasible):  # mass on one side only
                measures._transport_lps([(a, b, cost)])
        assert calls == []

    def test_weakstar_disjoint_and_identical_supports(self):
        sys = random_metric(7, seed=23)
        p, q = PeriodicOrbitMeasure((0, 1, 2)), PeriodicOrbitMeasure((3, 4, 5, 6, 4))
        pairs = [
            # disjoint: every union support splits into the two words' blocks
            (empirical_measure(p, 3), empirical_measure(q, 3)),
            # identical supports with different weights: nothing is dropped
            (mixture_cylinders([(p, 0.3), (q, 0.7)], 3), mixture_cylinders([(p, 0.6), (q, 0.4)], 3)),
            (empirical_measure(q, 3), empirical_measure(q, 3)),
        ]
        got = weakstar_proxies(pairs, 3, sys)
        for (x, y), value in zip(pairs, got):
            assert value == pytest.approx(dense_weakstar_value(x, y, 3, sys), abs=1e-9)
        assert got[0] > 0.0 and got[2] == pytest.approx(0.0, abs=1e-12)

    def test_weakstar_cost_is_built_on_the_two_supports(self, monkeypatch):
        sys = random_metric(7, seed=23)
        x = empirical_measure(PeriodicOrbitMeasure((0, 1, 2)), 3)
        mix = [(PeriodicOrbitMeasure((3, 4)), 0.5), (PeriodicOrbitMeasure((1,)), 0.5)]
        y = mixture_cylinders(mix, 3)
        seen = []
        real = measures._transport_lps

        def recording(problems):
            seen.extend(problems)
            return real(problems)

        monkeypatch.setattr(measures, "_transport_lps", recording)
        value = weakstar_proxy(x, y, 3, sys)
        for w, (a, b, cost) in enumerate(seen, start=1):
            # the union support squared used to be gathered and then cut back
            assert cost.shape == (len(x[w]), len(y[w]))
            assert np.all(a > 0) and np.all(b > 0)
            blocks_a, blocks_b = list(x[w]), list(y[w])  # the build order
            for i, j in itertools.product(range(len(blocks_a)), range(len(blocks_b))):
                pairs = zip(blocks_a[i], blocks_b[j])
                assert cost[i, j] == max(sys.rho(u, v) for u, v in pairs)
        assert value == pytest.approx(dense_weakstar_value(x, y, 3, sys), abs=1e-9)

    def test_weakstar_both_empty_is_zero(self, monkeypatch):
        # a bare IndexError from indexing the metric with an empty float array
        empty = mixture_cylinders([], 2)
        calls = counting_solve(monkeypatch)
        assert weakstar_proxy(empty, empty, 2, circle_doubling(4)) == 0.0
        assert calls == []

    def test_weakstar_one_empty_side_is_infeasible(self, monkeypatch):
        empty = mixture_cylinders([], 2)
        full = empirical_measure(PeriodicOrbitMeasure((0, 1)), 2)
        calls = counting_solve(monkeypatch)
        for pair in ((empty, full), (full, empty)):
            with pytest.raises(Infeasible):  # decided without a solve
                weakstar_proxy(*pair, 2, circle_doubling(4))
        assert calls == []


def loop_transport_pattern(n1, n2):
    """The transport constraint pattern entry by entry: row sums, then column sums but the last."""
    rows = [i for i in range(n1) for _ in range(n2)]
    cols = [i * n2 + j for i in range(n1) for j in range(n2)]
    rows += [n1 + j for j in range(n2 - 1) for _ in range(n1)]
    cols += [i * n2 + j for j in range(n2 - 1) for i in range(n1)]
    return coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n1 + n2 - 1, n1 * n2))


class TestTransportCSC:
    """``_transport_csc`` writes the arrays ``coo_matrix(...).tocsc()`` gives, by arithmetic."""

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 6), (6, 1), (2, 2), (5, 3)])
    def test_matches_tocsc(self, n1, n2):
        start, index = measures._transport_csc(np.arange(n1 * n2), n1, n2)
        assert start.dtype == index.dtype == np.int32
        got = csc_matrix((np.ones(len(index)), index, start), shape=(n1 + n2 - 1, n1 * n2))
        assert_same_csc(got, loop_transport_pattern(n1, n2).tocsc())

    def test_one_column_has_no_column_sum_rows(self):
        start, index = measures._transport_csc(np.arange(4), 4, 1)
        assert np.array_equal(start, np.arange(5)) and np.array_equal(index, np.arange(4))

    @pytest.mark.parametrize("n1, n2", [(1, 6), (6, 1), (5, 3), (7, 9)])
    def test_partial_cell_list_is_those_columns(self, n1, n2):
        # any subset of cells, last-column cells included, in any order
        rng = np.random.default_rng(n1 * n2)
        cells = rng.permutation(n1 * n2)[: max(1, n1 * n2 // 2)]
        cells[0] = n1 * n2 - 1
        start, index = measures._transport_csc(cells, n1, n2)
        assert start.dtype == index.dtype == np.int32
        got = csc_matrix((np.ones(len(index)), index, start), shape=(n1 + n2 - 1, len(cells)))
        assert_same_csc(got, loop_transport_pattern(n1, n2).tocsc()[:, cells])

    def test_stacked_blocks_on_their_supports(self, monkeypatch):
        # zero-mass rows and columns cut, the massless block skipped, a 1 x n block
        problems = TestMassSupport().problems()
        calls = counting_solve(monkeypatch)
        measures._transport_lps(problems)
        ((c, a_eq, b_eq),) = calls
        supports = [(np.flatnonzero(a), np.flatnonzero(b)) for a, b, _ in problems]
        kept = [(p, i, j) for p, (i, j) in zip(problems, supports) if len(i) and len(j)]
        assert len(kept) == len(problems) - 1
        ref = block_diag([loop_transport_pattern(len(i), len(j)) for _, i, j in kept])
        assert_same_csc(recorded_matrix(c, a_eq), ref.tocsc())
        ref_c = [cost[np.ix_(i, j)].ravel() for (_, _, cost), i, j in kept]
        ref_b = [np.concatenate([a[i], b[j[:-1]]]) for (a, b, _), i, j in kept]
        assert np.array_equal(c, np.concatenate(ref_c))
        assert np.array_equal(b_eq, np.concatenate(ref_b))


def recording_solves(monkeypatch):
    """Route ``measures._solve`` through a recorder of each solve and its pricing rounds.

    Each solve is a dict: the first LP's ``c`` and ``a_eq``, ``rounds`` (what
    each ``price`` call returned: new ``(c, start, index, value)`` columns, or
    None at the last), the row duals of each call and the final ``row_dual``.
    """
    solves = []
    real = measures._solve

    def recording(c, a_eq, b_eq, what, price=None):
        solve = {"c": c, "a_eq": a_eq, "rounds": [], "duals": []}
        solves.append(solve)

        def priced(row_dual):
            solve["duals"].append(row_dual)
            solve["rounds"].append(price(row_dual))
            return solve["rounds"][-1]

        x, objective, solve["row_dual"] = real(c, a_eq, b_eq, what, priced if price else None)
        return x, objective, solve["row_dual"]

    monkeypatch.setattr(measures, "_solve", recording)
    return solves


def block_cells(start, index, shapes):
    """(block, i, j) of each recorded column of a stacked transport LP of blocks with ``shapes``.

    A column holds its row-sum row and, unless j is the block's last column,
    its column-sum row; the row ranges of the blocks name the block.
    """
    row_lo = np.cumsum([0] + [n1 + n2 - 1 for n1, n2 in shapes])
    cells = []
    for k in range(len(start) - 1):
        rows = index[start[k] : start[k + 1]]
        block = int(np.searchsorted(row_lo, rows[0], side="right")) - 1
        n1, n2 = shapes[block]
        i = rows[0] - row_lo[block]
        j = rows[1] - row_lo[block] - n1 if len(rows) == 2 else n2 - 1
        cells.append((block, int(i), int(j)))
    return cells


def lp_cells(solve, costs, y=None):
    """Per block: the mask of cells that entered the recorded LP, and every cell's reduced cost.

    Reduced costs are taken at the row duals ``y``, by default the final ones.
    """
    shapes = [cost.shape for cost in costs]
    columns = [solve["a_eq"][1:3]] + [new[1:3] for new in solve["rounds"][:-1]]
    seen = [np.zeros(shape, dtype=bool) for shape in shapes]
    for start, index in columns:
        for block, i, j in block_cells(start, index, shapes):
            seen[block][i, j] = True
    y, row, reduced = solve["row_dual"] if y is None else y, 0, []
    for cost in costs:
        n1, n2 = cost.shape
        u, v = y[row : row + n1], np.append(y[row + n1 : row + n1 + n2 - 1], 0.0)
        reduced.append(cost - u[:, None] - v[None, :])
        row += n1 + n2 - 1
    assert row == len(y)
    return seen, reduced


def concentrated(rng, n):
    """Marginal with most of its mass on a few points, which need more than their shortlists."""
    w = rng.random(n) ** 16 + 0.001
    return w / w.sum()


def assert_full_optimum(res, a, b, cost):
    assert res.value == pytest.approx(dense_transport_value(a, b, cost), abs=1e-9)
    assert np.max(np.abs(res.plan.sum(axis=1) - a)) <= measures.MARGINAL_TOL
    assert np.max(np.abs(res.plan.sum(axis=0) - b)) <= measures.MARGINAL_TOL


class TestShortlist:
    """Blocks larger than ``_SHORTLIST`` start on a cell shortlist; the rest is priced in."""

    def test_uniform_costs_match_the_full_lp(self, monkeypatch):
        rng = np.random.default_rng(3)
        solves = recording_solves(monkeypatch)
        adding = []
        for n1, n2 in ((40, 50), (73, 91), (120, 150)):
            a, b = concentrated(rng, n1), rng.dirichlet(np.ones(n2))
            cost = rng.random((n1, n2))
            res = w1_distance(a, b, cost)
            assert_full_optimum(res, a, b, cost)
            solve = solves[-1]
            assert len(solve["c"]) < n1 * n2 and solve["rounds"][-1] is None
            adding.append(len(solve["rounds"]) - 1)
        assert len(solves) == 3 and max(adding) >= 2  # one block is priced twice

    def test_northwest_corner_keeps_the_lp_feasible(self, monkeypatch):
        # rows and columns 16 .. 23 are 1 dearer, so every row's and every column's
        # 16 cheapest cells avoid the block r, s >= 16; those rows hold 0.9 of the
        # mass and those columns too, but the rest of the columns only 0.1
        n, k = 24, measures._SHORTLIST
        rng = np.random.default_rng(5)
        far = np.arange(n) >= k
        cost = far[:, None] * 1.0 + far[None, :] + 0.5 * rng.random((n, n))
        a = b = np.where(far, 0.9 / (n - k), 0.1 / k)
        assert np.all(np.argsort(cost, axis=1)[:, :k] < k)
        assert np.all(np.argsort(cost, axis=0)[:k] < k)
        rows, cols = np.nonzero(~(far[:, None] & far[None, :]))  # the row and column shortlists
        ones, ids = np.ones(len(rows)), np.arange(len(rows))
        a_eq = vstack([coo_matrix((ones, (r, ids)), shape=(n, len(ids))) for r in (rows, cols)])
        b_eq = np.concatenate([a, b])
        alone = linprog(cost[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert alone.status == 2  # infeasible on the row and column shortlists alone
        solves = recording_solves(monkeypatch)
        res = w1_distance(a, b, cost)
        assert_full_optimum(res, a, b, cost)
        (solve,) = solves
        _, start, index, _ = solve["a_eq"]
        first = {(i, j) for _, i, j in block_cells(start, index, [(n, n)])}
        corner = set(zip(*(v.tolist() for v in measures._northwest_corner(a, b))))
        assert len(corner) == 2 * n - 1 and corner <= first
        assert not corner <= {(int(i), int(j)) for i, j in zip(rows, cols)}

    def test_stacked_blocks_gain_columns_in_different_rounds(self, monkeypatch):
        # added columns go into the block whose rows they hold; a column put in the
        # wrong block shows only as a marginal miss
        rng = np.random.default_rng(6)
        problems = []
        for n1, n2 in ((40, 50), (5, 7), (73, 91), (30, 20)):
            a, b = concentrated(rng, n1), rng.dirichlet(np.ones(n2))
            problems.append((a, b, rng.random((n1, n2))))
        solves = recording_solves(monkeypatch)
        results = measures._transport_lps(problems)
        (solve,) = solves
        shapes = [cost.shape for *_, cost in problems]
        gained = [
            {block for block, _, _ in block_cells(start, index, shapes)}
            for _, start, index, _ in solve["rounds"][:-1]
        ]
        assert gained[0] == {0, 2} and {2} in gained  # block 2 gains where block 0 does not
        assert 1 not in set().union(*gained)  # the 5 x 7 block enters whole
        for (a, b, cost), res in zip(problems, results):
            assert_full_optimum(res, a, b, cost)
            (single,) = measures._transport_lps([(a, b, cost)])
            assert res.value == pytest.approx(single.value, abs=1e-9)

    def test_final_duals_price_every_excluded_cell_nonnegative(self, monkeypatch):
        rng = np.random.default_rng(3)
        problems = []
        for n1, n2 in ((40, 50), (73, 91), (18, 40)):
            a, b = concentrated(rng, n1), rng.dirichlet(np.ones(n2))
            problems.append((a, b, rng.random((n1, n2))))
        solves = recording_solves(monkeypatch)
        measures._transport_lps(problems)
        (solve,) = solves
        for mask, reduced in zip(*lp_cells(solve, [cost for *_, cost in problems])):
            assert np.any(~mask)
            assert reduced[~mask].min() >= 0.0  # the stop rule, with no tolerance
            assert reduced[mask].min() >= -1e-7  # HiGHS's dual feasibility on the LP's own cells

    def test_a_cell_priced_just_below_zero_is_added(self, monkeypatch):
        # one excluded cell made 1e-10 cheaper than its final duals price it at
        # 0; it stays off the shortlist and prices at >= 0 in every earlier
        # round, so every LP up to the last is the same
        rng = np.random.default_rng(5)
        a, b = concentrated(rng, 40), rng.dirichlet(np.ones(50))
        cost = rng.random((40, 50))
        solves = recording_solves(monkeypatch)
        w1_distance(a, b, cost)
        (mask,), (reduced,) = lp_cells(solves[0], [cost])
        lowered = cost - reduced - 1e-10
        k = measures._SHORTLIST
        pick = ~mask & (lowered > np.sort(cost, axis=1)[:, k - 1 : k])
        pick &= lowered > np.sort(cost, axis=0)[k - 1]
        for y in solves[0]["duals"][:-1]:
            pick &= lp_cells(solves[0], [cost], y)[1][0] >= reduced + 1e-10
        i, j = np.argwhere(pick)[0]
        cheaper = cost.copy()
        cheaper[i, j] = lowered[i, j]
        res = w1_distance(a, b, cheaper)
        assert_full_optimum(res, a, b, cheaper)
        first, second = solves
        assert len(second["rounds"]) == len(first["rounds"]) + 1
        _, start, index, _ = second["rounds"][-2]
        assert block_cells(start, index, [cost.shape]) == [(0, i, j)]

    def test_small_blocks_enter_whole(self, monkeypatch):
        rng = np.random.default_rng(6)
        solves = recording_solves(monkeypatch)
        for n1, n2 in ((16, 200), (200, 16), (17, 17)):
            a, b = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))
            w1_distance(a, b, rng.random((n1, n2)))
        assert [len(s["c"]) for s in solves[:2]] == [3200, 3200] and len(solves[2]["c"]) < 17 * 17
        assert [s["rounds"] for s in solves[:2]] == [[], []]  # nothing to price


class TestHighsBindings:
    """The scipy HiGHS bindings that ``_solve`` uses beyond ``passModel`` and ``run``."""

    def test_add_cols_and_one_row_dual_per_row(self):
        highs = measures._highs._Highs
        assert hasattr(highs, "addCols"), "scipy's HiGHS bindings lack _Highs.addCols"
        # 2 x 2 transport on cells (0, 1), (1, 0), (1, 1); cell (0, 0) is priced in
        start, index = measures._transport_csc(np.array([1, 2, 3]), 2, 2)
        cost = np.array([0.0, 1.0, 1.0, 0.0])
        duals = []

        def price(row_dual):
            duals.append(row_dual)
            if len(duals) > 1:
                return None
            new_start, new_index = measures._transport_csc(np.array([0]), 2, 2)
            return cost[:1], new_start, new_index, np.ones(len(new_index))

        a_eq = (3, start, index, np.ones(len(index)))
        x, value, row_dual = measures._solve(cost[1:], a_eq, np.full(3, 0.5), "test", price)
        assert len(duals) == 2 and all(len(y) == 3 for y in duals), "getSolution().row_dual length"
        assert row_dual is duals[-1]
        assert np.array_equal(x, [0.0, 0.0, 0.5, 0.5]) and value == 0.0


class TestRhoBarPeriodic:
    def test_two_symbol_example(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        value, phase = rho_bar_periodic(
            PeriodicOrbitMeasure((0, 1)), PeriodicOrbitMeasure((0, 0, 1)), cost
        )
        assert value == pytest.approx(0.5)
        assert phase == 0

    def test_equal_orbits_zero(self):
        sys = circle_doubling(8)
        pm = PeriodicOrbitMeasure((1, 2, 4))
        value, _ = rho_bar_periodic(pm, pm, sys.dist)
        assert value == 0.0

    def test_matches_coupling_lp_random(self):
        sys = random_metric(5, seed=7)
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(1, 5))
            wp = tuple(int(v) for v in rng.integers(0, 5, p))
            wq = tuple(int(v) for v in rng.integers(0, 5, q))
            pm, qm = PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq)
            value, _ = rho_bar_periodic(pm, qm, sys.dist)
            oracle = orbit_coupling_lp(pm.word, qm.word, sys.dist)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_triangle_inequality(self):
        sys = random_metric(4, seed=11)
        words = [(0,), (1, 2), (0, 3), (2, 2, 3), (1,)]
        ms = [PeriodicOrbitMeasure(w) for w in words]
        for a, b, c in itertools.permutations(ms, 3):
            ab, _ = rho_bar_periodic(a, b, sys.dist)
            bc, _ = rho_bar_periodic(b, c, sys.dist)
            ac, _ = rho_bar_periodic(a, c, sys.dist)
            assert ac <= ab + bc + 1e-12


class TestPiBarPeriodic:
    def test_fixed_points(self):
        sys = circle_doubling(4)
        value, phase, tail = pi_bar_periodic(
            PeriodicOrbitMeasure((0,)), PeriodicOrbitMeasure((2,)), sys, 8
        )
        assert value == pytest.approx(0.5)  # center coordinate dominates
        assert tail == pytest.approx(0.1)

    def test_floor_at_tail(self):
        sys = circle_doubling(4)
        pm = PeriodicOrbitMeasure((0,))
        value, _, tail = pi_bar_periodic(pm, pm, sys, 8)
        assert value == pytest.approx(tail)

    def test_dominates_rho_bar(self):
        # pi >= min(rho at center, 1), so pi_bar >= rho_bar when rho <= 1
        sys = random_metric(6, seed=13)
        rng = np.random.default_rng(4)
        for _ in range(15):
            wp = tuple(int(v) for v in rng.integers(0, 6, int(rng.integers(1, 5))))
            wq = tuple(int(v) for v in rng.integers(0, 6, int(rng.integers(1, 5))))
            pm, qm = PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq)
            rho_val, _ = rho_bar_periodic(pm, qm, sys.dist)
            pi_val, _, _ = pi_bar_periodic(pm, qm, sys, 8)
            assert pi_val >= rho_val - 1e-12

    def test_radius_tightens_monotonically(self):
        sys = random_metric(6, seed=17)
        pm = PeriodicOrbitMeasure((0, 3, 5))
        qm = PeriodicOrbitMeasure((1, 4))
        prev = None
        for radius in (2, 4, 8, 16):
            value, _, tail = pi_bar_periodic(pm, qm, sys, radius)
            if prev is not None:
                # larger radius only refines terms that sat at the old tail
                assert value <= prev + 1e-12
            prev = value


def pi_bar_loop_oracle(wp, wq, dist, radius):
    """Independent reference for pi_bar between two periodic words.

    Writes both periodic sequences out explicitly, takes the windowed
    product-metric term at every shift of one joint period and averages;
    phase a shifts the first sequence by a.  Phases are scanned in order and
    a later phase wins only when lower by more than TOL.  Returns (value,
    phase, phase-0 value).
    """
    p, q = len(wp), len(wq)
    joint = p * q // math.gcd(p, q)
    base = joint * (radius // joint + 1)  # a multiple of both periods, > radius
    x = list(wp) * ((base + p + joint + radius) // p + 1)
    y = list(wq) * ((base + joint + radius) // q + 1)
    tail = 1.0 / (radius + 2)
    values = []
    for a in range(math.gcd(p, q)):
        per_shift = []
        for t in range(joint):
            term = tail
            for k in range(-radius, radius + 1):
                d = float(dist[x[base + a + t + k], y[base + t + k]])
                term = max(term, min(d, 1.0 / (abs(k) + 1)))
            per_shift.append(term)
        values.append(math.fsum(per_shift) / joint)
    best, phase = math.inf, 0
    for a, value in enumerate(values):
        if value < best - TOL:
            best, phase = value, a
    return best, phase, values[0]


class TestPiBarMatrices:
    def sets(self, rng, n_points):
        def orbit(length):
            return PeriodicOrbitMeasure(tuple(int(v) for v in rng.integers(0, n_points, length)))

        # every period 1-6 appears; random words add repeated letters
        set_a = [PeriodicOrbitMeasure(tuple(range(p))) for p in range(1, 7)]
        set_a += [orbit(int(rng.integers(1, 7))) for _ in range(6)]
        set_b = [PeriodicOrbitMeasure(tuple(range(n_points - p, n_points))) for p in (2, 5, 6)]
        set_b += [orbit(int(rng.integers(1, 7))) for _ in range(5)]
        return set_a, set_b

    @pytest.mark.parametrize("radius", [0, 1, 6, 8])
    def test_matches_loop_oracle(self, radius):
        sys = random_metric(8, seed=41 + radius)
        set_a, set_b = self.sets(np.random.default_rng(radius), 8)
        assert {pm.period for pm in set_a} == set(range(1, 7))
        value, phase, aligned = pi_bar_matrices(set_a, set_b, sys, radius)
        assert value.shape == phase.shape == aligned.shape == (len(set_a), len(set_b))
        for i, pm in enumerate(set_a):
            for j, qm in enumerate(set_b):
                ref_value, ref_phase, ref_aligned = pi_bar_loop_oracle(
                    pm.word, qm.word, sys.dist, radius
                )
                assert abs(value[i, j] - ref_value) <= 1e-12
                assert phase[i, j] == ref_phase
                assert abs(aligned[i, j] - ref_aligned) <= 1e-12

    def test_tie_rule_keeps_earlier_phase(self):
        # phase 1 is lower than phase 0 by less than TOL, so phase 0 stays
        near = 0.7 - 0.5 * TOL
        dist = np.array(
            [
                [0.0, 0.5, 0.7, near],
                [0.5, 0.0, near, 0.7],
                [0.7, near, 0.0, 0.5],
                [near, 0.7, 0.5, 0.0],
            ]
        )
        sys = FiniteMetricSystem(("a", "b", "c", "d"), dist, (1, 0, 3, 2))
        pm, qm = PeriodicOrbitMeasure((0, 1)), PeriodicOrbitMeasure((2, 3))
        value, phase, aligned = pi_bar_matrices([pm], [qm], sys, 0)
        assert pi_bar_loop_oracle(pm.word, qm.word, dist, 0) == (0.7, 0, 0.7)
        assert (value[0, 0], phase[0, 0], aligned[0, 0]) == (0.7, 0, 0.7)

    def test_phases_matter(self):
        # a nonzero best phase occurs, so the phase scan is really exercised
        sys = random_metric(8, seed=47)
        set_a, set_b = self.sets(np.random.default_rng(7), 8)
        value, phase, aligned = pi_bar_matrices(set_a, set_b, sys, 6)
        assert phase.max() > 0
        assert np.all(value <= aligned)
        assert np.any(value < aligned)

    def test_chunked_gather_identical(self, monkeypatch):
        sys = random_metric(8, seed=43)
        set_a, set_b = self.sets(np.random.default_rng(3), 8)
        whole = pi_bar_matrices(set_a, set_b, sys, 6)
        monkeypatch.setattr(measures, "_GATHER_FLOATS", 1)  # one row per gather
        for full, chunked in zip(whole, pi_bar_matrices(set_a, set_b, sys, 6)):
            assert np.array_equal(full, chunked)

    def test_singleton_is_pi_bar_periodic(self):
        sys = random_metric(8, seed=45)
        set_a, set_b = self.sets(np.random.default_rng(5), 8)
        value, phase, _ = pi_bar_matrices(set_a, set_b, sys, 6)
        for i, pm in enumerate(set_a):
            for j, qm in enumerate(set_b):
                assert pi_bar_periodic(pm, qm, sys, 6) == (value[i, j], phase[i, j], 1.0 / 8)


def full_window_scan(set_a, set_b, radius, per_shift):
    """The phase scan over full windows of 2 * radius + 1 offsets, as it was before
    the per-phase cost sequences, unchunked: the reference for bit-for-bit checks.

    Gathers the id windows (row, col, phase, shift, k), |k| <= radius, for
    each period group; ``per_shift`` maps the two id arrays to the
    (row, col, phase, shift) terms, whose contiguous mean over the shifts is
    scanned over the phases in order (a later phase wins only when lower by
    more than TOL).  Returns (value, phase, phase-0 value) matrices.
    """
    def by_period(orbits):
        groups = {}
        for i, pm in enumerate(orbits):
            groups.setdefault(pm.period, []).append((i, pm.word))
        return {p: tuple(np.array(col) for col in zip(*group)) for p, group in groups.items()}

    ks = np.arange(-radius, radius + 1)
    value, aligned = np.empty((2, len(set_a), len(set_b)))
    phase = np.zeros(value.shape, dtype=int)
    for p, (rows, words_a) in by_period(set_a).items():
        for q, (cols, words_b) in by_period(set_b).items():
            g, L = math.gcd(p, q), math.lcm(p, q)
            shift = np.arange(L)[:, None] + ks[None, :]
            idx_a = words_a[:, (np.arange(g)[:, None, None] + shift) % p]
            idx_b = words_b[:, shift % q][None, :, None]
            terms = per_shift(idx_a[:, None], idx_b)
            by_phase = np.ascontiguousarray(terms).mean(axis=-1)
            best, arg = by_phase[..., 0], np.zeros(by_phase.shape[:2], dtype=int)
            for a in range(1, g):
                better = by_phase[..., a] < best - TOL
                best = np.where(better, by_phase[..., a], best)
                arg[better] = a
            block = np.ix_(rows, cols)
            value[block], phase[block], aligned[block] = best, arg, by_phase[..., 0]
    return value, phase, aligned


def full_window_pi_bar(set_a, set_b, dist, radius):
    """pi_bar terms as the window maximum of min(dist, 1/(|k|+1)), raised to 1/(radius+2)."""
    weights = 1.0 / (np.abs(np.arange(-radius, radius + 1)) + 1.0)
    tail = 1.0 / (radius + 2)

    def per_shift(a, b):
        terms = dist[a, b]
        return np.maximum(np.minimum(terms, weights, out=terms).max(axis=-1), tail)

    return full_window_scan(set_a, set_b, radius, per_shift)


def full_window_rho_bar(set_a, set_b, cost):
    """rho_bar terms: the coordinate cost itself, no weight and no tail."""
    return full_window_scan(set_a, set_b, 0, lambda a, b: cost[a[..., 0], b[..., 0]])


class TestCostSequenceKernel:
    """pi_bar_matrices and _rho_bar_matrices against the full-window scan, bit for bit."""

    @staticmethod
    def orbits(rng, letters, periods, count):
        words = (rng.choice(letters, int(rng.choice(periods))) for _ in range(count))
        return [PeriodicOrbitMeasure(tuple(int(v) for v in word)) for word in words]

    @pytest.fixture(params=["default", "one float"])
    def gather(self, request, monkeypatch):
        if request.param == "one float":
            monkeypatch.setattr(measures, "_GATHER_FLOATS", 1)  # one pair per gather
        return request.param

    @staticmethod
    def assert_same(got, ref):
        for g, r in zip(got, ref, strict=True):
            assert g.dtype == r.dtype and np.array_equal(g, r)

    @pytest.mark.parametrize(
        "periods, radius",
        [
            ((1, 2, 3, 4, 5, 6, 7, 8), 2),  # K < L // 2 for most groups
            ((1, 2, 3, 4), 9),  # K > L // 2 for every group
            ((2, 4, 6), 5),  # g > 1 in every group
            ((1, 2, 3, 4, 5, 6), 0),  # radius 0: the k = 0 weight and the tail only
        ],
    )
    def test_random_sets(self, periods, radius, gather):
        rng = np.random.default_rng(radius)
        sys = random_metric(9, seed=50 + radius)
        set_a, set_b = (self.orbits(rng, 9, periods, count) for count in (14, 11))
        set_b += set_a[:3]  # identical orbits: terms of 0
        self.assert_same(
            pi_bar_matrices(set_a, set_b, sys, radius),
            full_window_pi_bar(set_a, set_b, sys.dist, radius),
        )

    def test_entries_up_to_one_plus_tol_meet_the_unit_weight(self, gather):
        # a system admits entries up to 1 + TOL; the k = 0 weight 1 clamps them
        dist = (1.0 + 0.5 * TOL) * (1.0 - np.eye(3))
        sys = FiniteMetricSystem(("a", "b", "c"), dist, (1, 2, 0))
        set_a = [PeriodicOrbitMeasure((0,)), PeriodicOrbitMeasure((0, 1, 2))]
        set_b = [PeriodicOrbitMeasure((1,)), PeriodicOrbitMeasure((2, 1))]
        got = pi_bar_matrices(set_a, set_b, sys, 0)
        self.assert_same(got, full_window_pi_bar(set_a, set_b, sys.dist, 0))
        assert got[0][0, 0] == 1.0

    @pytest.mark.parametrize("periods", [(1, 2, 3, 4, 5, 6), (2, 4, 6)])
    def test_rho_bar_costs_above_one_count_in_full(self, periods, gather):
        rng = np.random.default_rng(len(periods))
        cost = 3.0 * rng.random((8, 8))
        set_a, set_b = (self.orbits(rng, 8, periods, count) for count in (12, 10))
        got = measures._rho_bar_matrices(set_a, set_b, cost)
        self.assert_same(got, full_window_rho_bar(set_a, set_b, cost))
        assert got[0].max() > 1.0

    def test_period_30_memory_is_bounded(self):
        # the full window gathered 61 offsets per term: 174 MB at this size
        rng = np.random.default_rng(30)
        words = rng.integers(0, 40, (2, 200, 30))
        set_a, set_b = ([PeriodicOrbitMeasure(tuple(w.tolist())) for w in side] for side in words)
        assert {pm.period for pm in set_a + set_b} == {30}
        sys = random_metric(40)
        tracemalloc.start()
        try:
            value, phase, aligned = pi_bar_matrices(set_a, set_b, sys, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * measures._GATHER_FLOATS + value.nbytes + phase.nbytes + aligned.nbytes
        assert np.all(value <= aligned) and np.all(value >= 1.0 / 32)


class TestRhoBarMarkovUpper:
    def test_deterministic_encodings_match_periodic(self):
        sys = random_metric(5, seed=19)
        rng = np.random.default_rng(5)
        for _ in range(10):
            wp = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 4))))
            wq = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 4))))
            pm, qm = PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq)
            mu = from_periodic(pm)
            nu = from_periodic(qm)
            cost = sys.dist[np.array(pm.word)[:, None], np.array(qm.word)[None, :]]
            res = rho_bar_markov_upper(mu, nu, cost)
            value, _ = rho_bar_periodic(pm, qm, sys.dist)
            assert res.value == pytest.approx(value, abs=1e-9)

    def test_lower_bound_below_value(self):
        sys = random_metric(4, seed=23)
        pm = PeriodicOrbitMeasure((0, 1))
        qm = PeriodicOrbitMeasure((2, 3, 3))
        mu = from_periodic(pm)
        nu = from_periodic(qm)
        cost = sys.dist[np.array(pm.word)[:, None], np.array(qm.word)[None, :]]
        res = rho_bar_markov_upper(mu, nu, cost)
        assert res.lower_bound <= res.value + 1e-9


def loop_markov_lp(mu, nu, cost):
    """The Markov coupling LP assembled entry by entry: (c, COO A_eq, b_eq)."""
    n1, n2 = mu.n, nu.n
    edges_mu = [np.nonzero(mu.kernel[u] > measures.MARGINAL_TOL)[0] for u in range(n1)]
    edges_nu = [np.nonzero(nu.kernel[v] > measures.MARGINAL_TOL)[0] for v in range(n2)]
    npairs = n1 * n2

    def pair(u, v):
        return u * n2 + v

    flows = []  # (uv, u'v')
    for u in range(n1):
        for v in range(n2):
            for up in edges_mu[u]:
                for vp in edges_nu[v]:
                    flows.append((pair(u, v), pair(int(up), int(vp))))
    flow_index = {key: idx for idx, key in enumerate(flows)}
    rows, cols, data, b_eq = [], [], [], []
    row = 0

    def add(r, c, x):
        rows.append(r)
        cols.append(c)
        data.append(x)

    for u in range(n1):
        for v in range(n2):
            for up in edges_mu[u]:
                for vp in edges_nu[v]:
                    add(row, npairs + flow_index[(pair(u, v), pair(int(up), int(vp)))], 1.0)
                add(row, pair(u, v), -float(mu.kernel[u, up]))
                b_eq.append(0.0)
                row += 1
            for vp in edges_nu[v]:
                for up in edges_mu[u]:
                    add(row, npairs + flow_index[(pair(u, v), pair(int(up), int(vp)))], 1.0)
                add(row, pair(u, v), -float(nu.kernel[v, vp]))
                b_eq.append(0.0)
                row += 1
    incoming = {}
    for idx, (_, dst) in enumerate(flows):
        incoming.setdefault(dst, []).append(idx)
    for dst, idxs in sorted(incoming.items()):
        for idx in idxs:
            add(row, npairs + idx, 1.0)
        add(row, dst, -1.0)
        b_eq.append(0.0)
        row += 1
    for u in range(n1):
        for v in range(n2):
            add(row, pair(u, v), 1.0)
        b_eq.append(float(mu.stationary[u]))
        row += 1
    for v in range(n2 - 1):
        for u in range(n1):
            add(row, pair(u, v), 1.0)
        b_eq.append(float(nu.stationary[v]))
        row += 1
    a_eq = coo_matrix((data, (rows, cols)), shape=(row, npairs + len(flows)))
    c = np.concatenate([np.asarray(cost, dtype=float).ravel(), np.zeros(len(flows))])
    return c, a_eq, np.array(b_eq)


def random_markov(rng, n):
    """Irreducible kernel on n states with random sparsity, and its stationary vector."""
    kernel = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    kernel[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # a Hamiltonian cycle
    if n > 2:
        kernel[0, 2] = 1e-12  # below the edge threshold: not a successor
    kernel /= kernel.sum(axis=1, keepdims=True)
    eq = np.vstack([kernel.T - np.eye(n), np.ones(n)])
    s = np.linalg.lstsq(eq, np.concatenate([np.zeros(n), [1.0]]), rcond=None)[0]
    return MarkovMeasure(kernel, s)


class TestMarkovAssembly:
    def test_matches_loop_built_lp_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(12)
        sizes = [(1, 1), (1, 4), (5, 1), (2, 2), (3, 7), (8, 8)]
        sizes += [tuple(int(k) for k in rng.integers(1, 9, 2)) for _ in range(14)]
        for n1, n2 in sizes:
            mu, nu = random_markov(rng, n1), random_markov(rng, n2)
            cost = rng.random((n1, n2))
            calls = counting_solve(monkeypatch)
            res = rho_bar_markov_upper(mu, nu, cost)
            c, got, b_eq = calls[0]
            ref_c, ref_a, ref_b = loop_markov_lp(mu, nu, cost)
            assert_same_csc(recorded_matrix(c, got), ref_a.tocsc())
            assert np.array_equal(b_eq, ref_b) and np.array_equal(c, ref_c)
            ref = linprog(
                ref_c, A_eq=ref_a, b_eq=ref_b, bounds=(0, None), method="highs",
                options={"presolve": False},
            )
            assert res.value == float(ref.fun)
            assert np.array_equal(res.plan, ref.x[: n1 * n2].reshape(n1, n2))


class TestSolve:
    """``measures._solve`` calls HiGHS directly, with the options of linprog's presolve-off call."""

    def library_lps(self, monkeypatch):
        """The (c, a_eq, b_eq) of transport, stacked weak* and Markov coupling solves."""
        calls = counting_solve(monkeypatch)
        rng = np.random.default_rng(41)
        for n1, n2 in ((1, 1), (1, 7), (9, 1), (2, 2), (13, 5), (40, 40), (60, 100), (100, 100)):
            w1_distance(rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2)), rng.random((n1, n2)))
        sys = random_metric(7, seed=42)
        words = [(0, 1, 2), (3, 4), (5,), (6, 2, 4, 1), (0, 3, 5, 6, 1)]
        cyls = [empirical_measure(PeriodicOrbitMeasure(w), 3) for w in words]
        weakstar_proxies([(cyls[i], cyls[i + 1]) for i in range(len(cyls) - 1)], 3, sys)
        for n1, n2 in ((2, 2), (2, 5), (3, 3), (4, 7), (6, 2), (8, 8)):
            mu, nu = random_markov(rng, n1), random_markov(rng, n2)
            rho_bar_markov_upper(mu, nu, rng.random((n1, n2)))
        return calls

    def test_bit_identical_to_linprog(self, monkeypatch):
        solve = measures._solve
        lps = self.library_lps(monkeypatch)
        assert len(lps) >= 20
        for c, a_eq, b_eq in lps:
            x, value, _ = solve(c, a_eq, b_eq, "test")
            matrix = recorded_matrix(c, a_eq)
            assert matrix.has_canonical_format  # sorted row indices, no duplicates
            ref = linprog(
                c, A_eq=matrix, b_eq=b_eq, bounds=(0, None), method="highs",
                options={"presolve": False},
            )
            assert ref.success
            assert np.array_equal(x, ref.x) and value == ref.fun

    def test_unequal_mass_names_the_highs_status(self):
        # every row and every column sum: mass 1 against mass 0.9 has no feasible plan
        n1, n2 = 2, 3
        dense = np.vstack([np.kron(np.eye(n1), np.ones(n2)), np.kron(np.ones(n1), np.eye(n2))])
        a = csc_matrix(dense)
        start, index = a.indptr.astype(np.int32), a.indices.astype(np.int32)
        c, b_eq = np.ones(n1 * n2), np.array([0.5, 0.5, 0.2, 0.3, 0.4])
        with pytest.raises(Infeasible, match="LP failed: Infeasible$"):
            measures._solve(c, (5, start, index, a.data), b_eq, "transport")
        # lengths HiGHS reads unchecked: fewer right-hand sides than rows, a short
        # start, a short index or value
        for a_eq, rhs in (
            ((5, start, index, a.data), b_eq[:3]),
            ((5, start[:-1], index, a.data), b_eq),
            ((5, start, index[:-1], a.data), b_eq),
            ((5, start, index, a.data[:-1]), b_eq),
            ((5, start, index[:-1], a.data[:-1]), b_eq),
        ):
            with pytest.raises(Infeasible, match="^transport LP: HiGHS rejected the model$"):
                measures._solve(c, a_eq, rhs, "transport")

    def test_prints_nothing(self, capfd):
        rng = np.random.default_rng(43)
        w1_distance(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(4)), rng.random((5, 4)))
        assert capfd.readouterr() == ("", "")


class TestHausdorff:
    def test_hand_case(self):
        a = [0.0, 1.0]
        b = [0.4]
        d = lambda x, y: abs(x - y)
        assert hausdorff_distance(a, b, d) == pytest.approx(0.6)

    def test_subset_one_sided(self):
        a = [0.0, 0.5, 1.0]
        b = [0.0, 1.0]
        d = lambda x, y: abs(x - y)
        assert hausdorff_distance(a, b, d) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            hausdorff_distance([], [1], lambda x, y: 0.0)


def oracle_cycles(adjacency, max_period):
    """Brute force: all cyclic words up to max_period, deduped by orbit."""
    n = adjacency.shape[0]
    seen = set()
    for length in range(1, max_period + 1):
        for word in itertools.product(range(n), repeat=length):
            if len(set(word)) != len(word):
                continue  # simple cycles only
            if all(adjacency[word[i], word[(i + 1) % length]] for i in range(length)):
                canon = min(word[i:] + word[:i] for i in range(length))
                seen.add(canon)
    return seen


class TestErgodicEnumeration:
    def test_grid4_fixed_points(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        measures, truncated = ergodic_measures_of_graph(g, 1)
        assert not truncated
        assert sorted(m.word for m in measures) == [(0,), (1,), (3,)]

    def test_matches_brute_force(self):
        for seed in range(6):
            sys = random_metric(6, seed=seed)
            for delta in (0.3, 0.5):
                g = build_chain_graph(sys, delta)
                measures, truncated = ergodic_measures_of_graph(g, 4)
                assert not truncated
                got = {m.word for m in measures}
                assert got == oracle_cycles(g.adjacency, 4)

    def test_truncation_flag(self):
        g = build_chain_graph(circle_doubling(8), 1.0)  # complete graph
        measures, truncated = ergodic_measures_of_graph(g, 4, cap=10)
        assert truncated
        assert len(measures) == 10

    def test_truncation_prefix_deterministic(self):
        g = build_chain_graph(circle_doubling(8), 1.0)
        short, _ = ergodic_measures_of_graph(g, 4, cap=10)
        longer, _ = ergodic_measures_of_graph(g, 4, cap=25)
        assert [m.word for m in longer[:10]] == [m.word for m in short]


def sorted_cycle_oracle(adjacency, max_period):
    """Brute force: every simple cycle rooted at its least vertex, by (length, word)."""
    n = adjacency.shape[0]
    out = []
    for length in range(1, max_period + 1):
        for word in itertools.permutations(range(n), length):
            if word[0] == min(word) and all(
                adjacency[word[i], word[(i + 1) % length]] for i in range(length)
            ):
                out.append(word)
    return sorted(out, key=lambda w: (len(w), w))


def flat_words(words):
    return [tuple(w) for arr in words for w in arr.tolist()]


class TestSimpleCycleWords:
    def graphs(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 7):
            for density in (0.2, 0.5, 0.9):
                yield rng.random((n, n)) < density
        yield build_chain_graph(circle_doubling(8), 0.3).adjacency

    def test_matches_sorted_oracle_uncapped(self):
        for adj in self.graphs():
            expected = sorted_cycle_oracle(adj, 5)
            words, truncated = simple_cycle_words(adj, 5, 10_000)
            assert not truncated
            assert flat_words(words) == expected
            assert [arr.shape[1] for arr in words] == [1, 2, 3, 4, 5]
            assert [len(arr) for arr in words] == [
                sum(len(w) == k for w in expected) for k in range(1, 6)
            ]

    def test_cap_cutting_inside_one_length(self):
        adj = np.ones((6, 6), dtype=bool)
        expected = sorted_cycle_oracle(adj, 4)
        short = sum(len(w) <= 2 for w in expected)  # 6 loops + 15 two-cycles
        for cap in (short + 1, short + 17, len(expected) - 1):
            words, truncated = simple_cycle_words(adj, 4, cap)
            assert truncated
            assert flat_words(words) == expected[:cap]

    def test_cap_equal_to_count_does_not_truncate(self):
        for adj in self.graphs():
            expected = sorted_cycle_oracle(adj, 4)
            words, truncated = simple_cycle_words(adj, 4, len(expected))
            assert not truncated
            assert flat_words(words) == expected

    def test_cap_zero(self):
        for adj in self.graphs():
            words, truncated = simple_cycle_words(adj, 3, 0)
            assert flat_words(words) == []
            assert truncated == bool(sorted_cycle_oracle(adj, 3))

    @staticmethod
    def traced_peak(adj, max_period, cap):
        tracemalloc.start()
        try:
            result = simple_cycle_words(adj, max_period, cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_dense_graph_memory_is_bounded(self):
        # an unblocked frontier of 5-paths on K60 would hold ~1.6e8 rows
        adj = np.ones((60, 60), dtype=bool)
        (words, truncated), peak = self.traced_peak(adj, 6, 10_000)
        assert peak < 64 * 2**20
        assert truncated
        loops_and_pairs = [(v,) for v in range(60)] + list(itertools.combinations(range(60), 2))
        triangles = sorted(
            w for w in itertools.permutations(range(60), 3) if w[0] < min(w[1:])
        )
        assert flat_words(words) == (loops_and_pairs + triangles)[:10_000]

    def test_sparse_cycles_memory_is_bounded(self):
        # all paths u -> v with u < v plus one back edge 59 -> 0: every cycle
        # runs 0 -> ... -> 59 -> 0, so the cap is reached only at length 5,
        # after ~C(60, 4) paths of 4 vertices; unblocked, that frontier and
        # its successor masks peak near 0.5 GB
        adj = np.triu(np.ones((60, 60), dtype=bool), 1)
        adj[59, 0] = True
        (words, truncated), peak = self.traced_peak(adj, 6, 10_000)
        assert peak < 64 * 2**20
        assert truncated
        expected = [  # lengths up to 5 already pass the cap
            (0, *middle, 59) for k in range(2, 6)
            for middle in itertools.combinations(range(1, 59), k - 2)
        ]
        assert flat_words(words) == expected[:10_000]

    def test_wrapper_builds_one_measure_per_word(self):
        g = build_chain_graph(circle_doubling(8), 1.0)
        words, truncated = simple_cycle_words(g.adjacency, 4, 50)
        measures, wrapped = ergodic_measures_of_graph(g, 4, cap=50)
        assert wrapped == truncated
        assert [m.word for m in measures] == flat_words(words)


class TestSigmund:
    def test_single_component_identity(self):
        g = build_chain_graph(circle_doubling(15), 0.2)
        pm = PeriodicOrbitMeasure((0,))
        assert sigmund_approximation([(pm, 1.0)], g, 32) == pm

    def test_word_is_cyclic_chain(self):
        sys = circle_doubling(15)
        g = build_chain_graph(sys, 0.2)
        target = [
            (PeriodicOrbitMeasure((0,)), 0.5),
            (PeriodicOrbitMeasure((5, 10)), 0.5),
        ]
        approx = sigmund_approximation(target, g, 64)
        closed = FiniteTrajectory(list(approx.word) + [approx.word[0]], origin=0)
        assert is_delta_chain(closed, g)

    def test_marginal_converges_to_mixture(self):
        sys = circle_doubling(15)
        g = build_chain_graph(sys, 0.2)
        target = [
            (PeriodicOrbitMeasure((0,)), 0.5),
            (PeriodicOrbitMeasure((5, 10)), 0.5),
        ]
        want = np.zeros(15)
        want[0] = 0.5
        want[5] = want[10] = 0.25
        gaps = []
        for L in (16, 64, 256):
            approx = sigmund_approximation(target, g, L)
            got = length_one_marginal(approx, 15).weights
            gaps.append(float(np.abs(got - want).sum()))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

    def test_degenerate_weight_raises(self):
        g = build_chain_graph(circle_doubling(15), 0.2)
        target = [
            (PeriodicOrbitMeasure((0,)), 0.999),
            (PeriodicOrbitMeasure((5, 10)), 0.001),
        ]
        with pytest.raises(DegenerateWeights):
            sigmund_approximation(target, g, 8)


class TestCylinders:
    def test_empirical_hand_case(self):
        cyl = empirical_measure(PeriodicOrbitMeasure((0, 1)), 2)
        assert cyl[1] == {(0,): 0.5, (1,): 0.5}
        assert cyl[2] == {(0, 1): 0.5, (1, 0): 0.5}

    def test_mixture_combines(self):
        mix = [
            (PeriodicOrbitMeasure((0,)), 0.25),
            (PeriodicOrbitMeasure((1,)), 0.75),
        ]
        cyl = mixture_cylinders(mix, 1)
        assert cyl[1] == {(0,): 0.25, (1,): 0.75}

    def test_mixture_adds_each_occurrence_in_first_seen_order(self):
        mix = [(PeriodicOrbitMeasure((0, 1, 2)), 0.3), (PeriodicOrbitMeasure((2, 1)), 0.7)]
        cyl = mixture_cylinders(mix, 2)
        assert list(cyl[2]) == [(0, 1), (1, 2), (2, 0), (2, 1)]
        assert list(cyl[2].values()) == pytest.approx([0.1, 0.1 + 0.35, 0.1, 0.35], abs=1e-15)

    def test_depth_below_one_is_rejected(self):
        pm = PeriodicOrbitMeasure((0, 1))
        cases = [(empirical_measure, pm), (mixture_cylinders, []), (mixture_cylinders, [(pm, 1.0)])]
        for build, arg in cases:
            with pytest.raises(SchemaError) as err:
                build(arg, 0)
            assert err.value.pointer == "/depth"
        cyl, sys = empirical_measure(pm, 2), circle_doubling(4)
        for depth in (0, -3):
            with pytest.raises(SchemaError) as err:
                weakstar_proxy(cyl, cyl, depth, sys)
            assert err.value.pointer == "/depth"
            with pytest.raises(SchemaError) as err:
                weakstar_proxies([], depth, sys)
            assert err.value.pointer == "/depth"

    def test_weakstar_zero_on_equal(self):
        sys = circle_doubling(4)
        cyl = empirical_measure(PeriodicOrbitMeasure((0, 1)), 3)
        assert weakstar_proxy(cyl, cyl, 3, sys) == pytest.approx(0.0, abs=1e-9)

    def test_weakstar_hand_value(self):
        sys = circle_doubling(4)
        a = empirical_measure(PeriodicOrbitMeasure((0,)), 1)
        b = empirical_measure(PeriodicOrbitMeasure((2,)), 1)
        # single depth: 2^-1 * W1(delta_0, delta_2) = 0.5 * 0.5
        assert weakstar_proxy(a, b, 1, sys) == pytest.approx(0.25)

    def test_weakstar_symmetry(self):
        sys = random_metric(5, seed=29)
        a = empirical_measure(PeriodicOrbitMeasure((0, 2, 4)), 3)
        b = empirical_measure(PeriodicOrbitMeasure((1, 3)), 3)
        assert weakstar_proxy(a, b, 3, sys) == pytest.approx(
            weakstar_proxy(b, a, 3, sys), abs=1e-9
        )


def orbit_mixture_joining_lp(word, target, sys, radius):
    """Independent reference for the pi_bar value between one orbit and a mixture.

    The joinings of the orbit measure of ``word`` with sum w_i A_i are the
    distributions on (position s in word) x (component i, position t in A_i)
    invariant under the joint +1 shift, with marginals 1/p on s and w_i/q_i
    on (i, t).  Minimizes the expected per-shift cost, max over |k| <= radius
    of min(rho, 1/(|k|+1)) raised to the tail 1/(radius+2), each term from a
    plain loop.  No phase formula is used.
    """
    p = len(word)
    cells = [(i, t) for i, (pm, _) in enumerate(target) for t in range(pm.period)]
    states = [(s, i, t) for s in range(p) for i, t in cells]
    index = {z: k for k, z in enumerate(states)}
    rows, cols, data, b_eq, cost = [], [], [], [], []
    for k, (s, i, t) in enumerate(states):
        other = target[i][0].word
        q = len(other)
        terms = [
            min(sys.rho(word[(s + j) % p], other[(t + j) % q]), 1.0 / (abs(j) + 1))
            for j in range(-radius, radius + 1)
        ]
        cost.append(max(max(terms), 1.0 / (radius + 2)))
        rows += [k, k]
        cols += [k, index[(s + 1) % p, i, (t + 1) % q]]
        data += [1.0, -1.0]
        b_eq.append(0.0)
    marginals = [(("mu", s), 1.0 / p) for s in range(p)]
    marginals += [(("nu", i, t), target[i][1] / target[i][0].period) for i, t in cells]
    row_of = {key: len(states) + r for r, (key, _) in enumerate(marginals)}
    for k, (s, i, t) in enumerate(states):
        rows += [row_of["mu", s], row_of["nu", i, t]]
        cols += [k, k]
        data += [1.0, 1.0]
    b_eq += [mass for _, mass in marginals]
    a_eq = coo_matrix((data, (rows, cols)), shape=(len(b_eq), len(states)))
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


class TestPiBarMixture:
    @pytest.mark.parametrize("radius", [8, 4])
    @pytest.mark.parametrize("block_scale", [8, 16, 32, 64])
    @pytest.mark.parametrize("words", [[(0,), (5, 10)], [(0,), (5, 10), (1, 2, 4, 8)]])
    def test_one_orbit_against_a_mixture_is_exact(self, words, block_scale, radius):
        # a joining of one orbit with sum w_i A_i splits into joinings with each A_i
        sys = circle_doubling(15)
        graph = build_chain_graph(sys, 0.2)
        weights = [0.5, 0.5] if len(words) == 2 else [0.25, 0.25, 0.5]
        target = [(PeriodicOrbitMeasure(w), wt) for w, wt in zip(words, weights)]
        approx = sigmund_approximation(target, graph, block_scale)
        upper = pi_bar_mixture_upper([(approx, 1.0)], target, sys, radius)
        exact = orbit_mixture_joining_lp(approx.word, target, sys, radius)
        assert upper == pytest.approx(exact, abs=1e-12)

    def test_trivial_mixture_equals_pairwise(self):
        sys = circle_doubling(4)
        pm = PeriodicOrbitMeasure((0,))
        qm = PeriodicOrbitMeasure((2,))
        upper = pi_bar_mixture_upper([(pm, 1.0)], [(qm, 1.0)], sys, 8)
        value, _, _ = pi_bar_periodic(pm, qm, sys, 8)
        assert upper == pytest.approx(value)

    def test_weighted_average(self):
        sys = circle_doubling(4)
        p0 = PeriodicOrbitMeasure((0,))
        p1 = PeriodicOrbitMeasure((1,))
        q = PeriodicOrbitMeasure((2,))
        upper = pi_bar_mixture_upper([(p0, 0.5), (p1, 0.5)], [(q, 1.0)], sys, 8)
        v0, _, _ = pi_bar_periodic(p0, q, sys, 8)
        v1, _, _ = pi_bar_periodic(p1, q, sys, 8)
        assert upper == pytest.approx(0.5 * v0 + 0.5 * v1)
