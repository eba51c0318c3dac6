import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

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
        marg = m.length_one_marginal(4)
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


class TestMarkovMeasure:
    def test_from_periodic_is_cyclic(self):
        pm = PeriodicOrbitMeasure((0, 1, 2))
        mm = MarkovMeasure.from_periodic(pm)
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
            calls = counting_linprog(monkeypatch)
            res = w1_distance(a, b, cost)
            ref = linprog(
                cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b[:-1]]),
                bounds=(0, None), method="highs", options=calls[0][1]["options"],
            )
            assert res.value == float(ref.fun)
            assert np.array_equal(res.plan, ref.x.reshape(n1, n2))


def counting_linprog(monkeypatch):
    """Route ``measures.linprog`` through a recorder; returns the call list."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(measures, "linprog", recording)
    return calls


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
        calls = counting_linprog(monkeypatch)
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
        calls = counting_linprog(monkeypatch)
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
        calls = counting_linprog(monkeypatch)
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
        calls = counting_linprog(monkeypatch)
        measures._transport_lps(problems)
        (c,), kwargs = calls[0]
        sizes = [(np.count_nonzero(a), np.count_nonzero(b)) for a, b, _ in problems]
        assert len(c) == kwargs["A_eq"].shape[1] == sum(m1 * m2 for m1, m2 in sizes)
        assert kwargs["A_eq"].shape[0] == sum(m1 + m2 - 1 for m1, m2 in sizes if m1 * m2)
        assert kwargs["method"] == "highs" and kwargs["options"] == {"presolve": False}

    def test_block_without_mass_makes_no_call(self, monkeypatch):
        cost = np.random.default_rng(22).random((3, 4))
        calls = counting_linprog(monkeypatch)
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
            blocks_a, blocks_b = sorted(x[w]), sorted(y[w])
            for i, j in itertools.product(range(len(blocks_a)), range(len(blocks_b))):
                pairs = zip(blocks_a[i], blocks_b[j])
                assert cost[i, j] == max(sys.rho(u, v) for u, v in pairs)
        assert value == pytest.approx(dense_weakstar_value(x, y, 3, sys), abs=1e-9)

    def test_weakstar_both_empty_is_zero(self, monkeypatch):
        # a bare IndexError from indexing the metric with an empty float array
        empty = mixture_cylinders([], 2)
        calls = counting_linprog(monkeypatch)
        assert weakstar_proxy(empty, empty, 2, circle_doubling(4)) == 0.0
        assert calls == []

    def test_weakstar_one_empty_side_is_infeasible(self, monkeypatch):
        empty = mixture_cylinders([], 2)
        full = empirical_measure(PeriodicOrbitMeasure((0, 1)), 2)
        calls = counting_linprog(monkeypatch)
        for pair in ((empty, full), (full, empty)):
            with pytest.raises(Infeasible):  # decided without a solve
                weakstar_proxy(*pair, 2, circle_doubling(4))
        assert calls == []


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


class TestRhoBarMarkovUpper:
    def test_deterministic_encodings_match_periodic(self):
        sys = random_metric(5, seed=19)
        rng = np.random.default_rng(5)
        for _ in range(10):
            wp = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 4))))
            wq = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 4))))
            pm, qm = PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq)
            mu = MarkovMeasure.from_periodic(pm)
            nu = MarkovMeasure.from_periodic(qm)
            cost = sys.dist[np.array(pm.word)[:, None], np.array(qm.word)[None, :]]
            res = rho_bar_markov_upper(mu, nu, cost)
            value, _ = rho_bar_periodic(pm, qm, sys.dist)
            assert res.value == pytest.approx(value, abs=1e-9)

    def test_lower_bound_below_value(self):
        sys = random_metric(4, seed=23)
        pm = PeriodicOrbitMeasure((0, 1))
        qm = PeriodicOrbitMeasure((2, 3, 3))
        mu = MarkovMeasure.from_periodic(pm)
        nu = MarkovMeasure.from_periodic(qm)
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
            calls = counting_linprog(monkeypatch)
            res = rho_bar_markov_upper(mu, nu, cost)
            (c,), kwargs = calls[0]
            ref_c, ref_a, ref_b = loop_markov_lp(mu, nu, cost)
            got = kwargs["A_eq"]
            assert got.shape == ref_a.shape
            for attr in ("row", "col", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref_a, attr))
            assert np.array_equal(kwargs["b_eq"], ref_b) and np.array_equal(c, ref_c)
            ref = linprog(
                ref_c, A_eq=ref_a, b_eq=ref_b, bounds=(0, None), method="highs",
                options=kwargs["options"],
            )
            assert res.value == float(ref.fun)
            assert np.array_equal(res.plan, ref.x[: n1 * n2].reshape(n1, n2))


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
            got = approx.length_one_marginal(15).weights
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


class TestPiBarMixture:
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
