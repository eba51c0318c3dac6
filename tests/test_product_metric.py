"""The windowed product-metric kernel and every caller, against loop oracles.

Each oracle below is the per-coordinate (or per-pair) loop that computed the
quantity before the shared gather, copied here so the tests do not depend on
the code they check.  Sums in the oracles add in the old order, so the
comparisons are exact.
"""

import math
import types

import numpy as np
import pytest

from deltachain import measures
from deltachain.builders import circle_doubling, random_metric
from deltachain.chain import build_chain_graph
from deltachain.core import (
    TOL,
    FiniteMetricSystem,
    FiniteTrajectory,
    IntervalSegment,
    _coordinate_distances,
    _pi_values,
    _windows_within,
    pi_distance,
    window_radius,
)
from deltachain.errors import EmptySet, InsufficientWindow
from deltachain.measures import (
    PeriodicOrbitMeasure,
    hausdorff_distance,
    pi_bar_matrices,
    pi_bar_periodic,
    rho_bar_matrices,
    sigmund_approximation,
    simple_cycle_words,
)
from deltachain.pipeline import PipelineConfig, density_demo
from deltachain.shadowing import besicovitch_pi
from deltachain.specification import (
    PeriodicChain,
    SpacedSpecification,
    spacing_constant,
    trace_specification,
    verify_trace,
)

# ---------------------------------------------------------------------------
# loop oracles


def loop_pi_distance(sys, x, y, K):
    tail = 1.0 / (K + 2)
    value = 0.0
    for k in range(-K, K + 1):
        term = min(sys.rho(x.at(k), y.at(k)), 1.0 / (abs(k) + 1))
        if term > value:
            value = term
    if value > tail + TOL:
        return value, True
    return tail, False


def loop_besicovitch_pi(x, y, sys, N, K):
    total = 0.0
    for j in range(N):
        shifted = (FiniteTrajectory(t.entries, t.origin + j) for t in (x, y))
        value, _ = loop_pi_distance(sys, *shifted, K)
        total += value
    return total / N


def loop_window_check(sys, eps, x, y):
    W = int(max(1.0, 1.0 / eps) + TOL) - 1
    return all(sys.rho(x.at(k), y.at(k)) < eps - TOL for k in range(-W, W + 1))


def loop_pi_exceeds(sys, x, y, k, level):
    W = int(1.0 / level - 1.0 + TOL)
    for j in range(-W, W + 1):
        if sys.rho(x.at(k + j), y.at(k + j)) >= level - TOL:
            return True
    return False


def loop_verify_trace(y, spec, adjacency, dist, eps, n_margin):
    """The checks of verify_trace after the primitivity gate, one shift at a time."""
    word = y.word
    for i in range(len(word)):
        if not adjacency[word[i], word[(i + 1) % len(word)]]:
            return False, {"failed": "cyclic chain", "index": i}
    W = int(max(1.0, 1.0 / eps) + TOL) - 1
    for idx, seg in enumerate(spec.segments):
        lo, hi = seg.a - n_margin + 1, seg.b + n_margin - 2
        for c in range(lo, hi + 1):
            if y.at(c) != seg.source.at(c):
                return False, {"failed": "margin equality", "segment": idx, "coordinate": c}
        for j in range(seg.a, seg.b):
            terms = [dist[y.at(j + t), seg.source.at(j + t)] for t in range(-W, W + 1)]
            if not all(term < eps - TOL for term in terms):
                return False, {"failed": "window check", "segment": idx, "shift": j}
    return True, {"failed": None, "period": y.period}


def loop_rho_bar_periodic(pm, qm, cost):
    cost = np.asarray(cost, dtype=float)
    wp, wq = np.asarray(pm.word), np.asarray(qm.word)
    p, q = len(wp), len(wq)
    t = np.arange(math.lcm(p, q))
    best_value, best_phase = np.inf, 0
    for a in range(math.gcd(p, q)):
        value = float(np.mean(cost[wp[(a + t) % p], wq[t % q]]))
        if value < best_value - TOL:
            best_value, best_phase = value, a
    return best_value, best_phase


def loop_pi_bar_mixture_upper(mix_a, mix_b, sys, radius):
    total = 0.0
    for pm, wa in mix_a:
        for qm, wb in mix_b:
            value, _, _ = pi_bar_periodic(pm, qm, sys, radius)
            total += wa * wb * value
    return total


def loop_hausdorff(set_a, set_b, dist):
    forward = max(min(dist(a, b) for b in set_b) for a in set_a)
    backward = max(min(dist(a, b) for a in set_a) for b in set_b)
    return max(forward, backward)


def random_trajectory(rng, n, lo, hi, extra=3):
    """Ids covering [lo - a, hi + b] for random a, b in [0, extra]."""
    before, after = (int(v) for v in rng.integers(0, extra + 1, 2))
    entries = rng.integers(0, n, hi - lo + 1 + before + after).tolist()
    return FiniteTrajectory(entries, origin=before - lo)


def near_eps_system(eps):
    """Point 0 at distances eps - 2 TOL, eps - TOL/2, eps, eps + TOL/2 from 1..4.

    All other pairs sit at eps, so the triangle inequality holds with room.
    """
    offsets = (-2 * TOL, -TOL / 2, 0.0, TOL / 2)
    n = len(offsets) + 1
    dist = np.full((n, n), eps)
    np.fill_diagonal(dist, 0.0)
    for j, off in enumerate(offsets, start=1):
        dist[0, j] = dist[j, 0] = eps + off
    return FiniteMetricSystem(tuple(str(i) for i in range(n)), dist, tuple(range(n)))


# ---------------------------------------------------------------------------


class TestTailRules:
    """pi_distance keeps a value only past tail + TOL; pi_bar takes max(value, tail)."""

    def two_point(self, d):
        dist = np.array([[0.0, d], [d, 0.0]])
        return FiniteMetricSystem(("a", "b"), dist, (0, 1))

    def test_edge_between_tail_and_tail_plus_tol(self):
        K = 1
        tail = 1.0 / (K + 2)
        d = tail + TOL / 2
        assert tail < d <= tail + TOL
        sys = self.two_point(d)
        x = FiniteTrajectory([0, 0, 0], origin=1)
        y = FiniteTrajectory([0, 1, 0], origin=1)
        assert pi_distance(sys, x, y, K) == (tail, False) == loop_pi_distance(sys, x, y, K)
        orbits = [PeriodicOrbitMeasure((0,))], [PeriodicOrbitMeasure((1,))]
        value, _, aligned = pi_bar_matrices(*orbits, sys, K)
        assert value[0, 0] == d and aligned[0, 0] == d
        ones = FiniteTrajectory([1] * 7, origin=1)
        zeros = FiniteTrajectory([0] * 7, origin=1)
        assert besicovitch_pi(zeros, ones, sys, 5, K).value == tail

    def test_just_past_the_edge_is_exact(self):
        K = 1
        d = 1.0 / 3 + 2 * TOL
        sys = self.two_point(d)
        x = FiniteTrajectory([0, 0, 0], origin=1)
        y = FiniteTrajectory([0, 1, 0], origin=1)
        assert pi_distance(sys, x, y, K) == (d, True) == loop_pi_distance(sys, x, y, K)

    def test_entry_above_one_meets_the_unit_weight(self):
        # a system admits entries up to 1 + TOL; the k = 0 weight 1 clamps them
        sys = self.two_point(1.0 + TOL / 2)
        x = FiniteTrajectory([0, 0, 0], origin=1)
        y = FiniteTrajectory([0, 1, 0], origin=1)
        assert pi_distance(sys, x, y, 1) == (1.0, True) == loop_pi_distance(sys, x, y, 1)

    def test_window_errors(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0] * 5, origin=2)
        with pytest.raises(InsufficientWindow):
            pi_distance(sys, x, x, 3)
        with pytest.raises(InsufficientWindow):
            pi_distance(sys, x, x, 0)
        with pytest.raises(InsufficientWindow):
            besicovitch_pi(x, x, sys, 2, 2)
        with pytest.raises(InsufficientWindow):
            besicovitch_pi(x, x, sys, 1, 0)


class TestBesicovitchPi:
    def test_random_cases_equal_the_loop(self):
        rng = np.random.default_rng(20)
        for case in range(60):
            n = int(rng.integers(5, 50))
            sys = random_metric(n, seed=case)
            K = int(rng.integers(1, 10))
            N = 300 if case % 10 == 0 else int(rng.integers(1, 301))
            x = random_trajectory(rng, n, -K, N - 1 + K)
            y = x if case % 7 == 0 else random_trajectory(rng, n, -K, N - 1 + K)
            est = besicovitch_pi(x, y, sys, N, K)
            assert est.value == loop_besicovitch_pi(x, y, sys, N, K)
            assert est.error_bar == 1.0 / (K + 2)
            assert type(est.value) is float

    def test_integral_float_radius(self):
        sys = random_metric(9, seed=3)
        rng = np.random.default_rng(22)
        x, y = (random_trajectory(rng, 9, -3, 12) for _ in range(2))
        assert besicovitch_pi(x, y, sys, 10, 3.0) == besicovitch_pi(x, y, sys, 10, 3)

    def test_pi_distance_equals_the_loop(self):
        rng = np.random.default_rng(21)
        for case in range(200):
            n = int(rng.integers(2, 12))
            sys = random_metric(n, seed=100 + case)
            K = int(rng.integers(1, 10))
            x, y = (random_trajectory(rng, n, -K, K) for _ in range(2))
            got = pi_distance(sys, x, y, K)
            assert got == loop_pi_distance(sys, x, y, K)
            assert type(got[0]) is float and type(got[1]) is bool


class TestWindowBoundaries:
    """Threshold tests at eps = 1/(W+1), with distances within TOL of eps."""

    @pytest.mark.parametrize("eps, W", [(1.0 / 3, 2), (1.0 / 4, 3), (1.0 / 7, 6)])
    def test_window_check_and_pi_exceeds_equal_the_loops(self, eps, W):
        assert window_radius(eps) == W
        sys = near_eps_system(eps)
        rng = np.random.default_rng(W)
        outcomes = set()
        for trial in range(150):
            y = random_trajectory(rng, sys.n, -W - 2, W + 2)
            # x redraws a few of y's ids, so some windows pass and some fail
            redraw = rng.random(len(y.entries)) < (trial % 5) / (2 * W + 1)
            ids = np.where(redraw, rng.integers(0, sys.n, len(redraw)), y.entries)
            x = FiniteTrajectory(ids.tolist(), origin=y.origin)
            got = bool(_windows_within(sys, eps, x, y, 0, 0)[0])
            assert got == loop_window_check(sys, eps, x, y)
            outcomes.add(got)
            singles = []
            for k in range(-2, 3):
                within = bool(_windows_within(sys, eps, x, y, k, k)[0])
                assert within is not loop_pi_exceeds(sys, x, y, k, eps)
                singles.append(within)
            # one range call lines each shift up with its own window
            assert _windows_within(sys, eps, x, y, -2, 2).tolist() == singles
        assert outcomes == {True, False}

    @pytest.mark.parametrize("eps, W", [(1.0 / 3, 2), (1.0 / 4, 3), (1.0 / 7, 6)])
    def test_binding_offset_is_the_window_edge(self, eps, W):
        sys = near_eps_system(eps)
        span = 2 * W + 3
        for point, binds in ((1, False), (2, True), (3, True), (4, True)):
            # distance eps - 2 TOL never binds; eps - TOL/2 and above do
            for offset in (W, W + 1):
                x = FiniteTrajectory([0] * span, origin=W + 1)
                entries = [0] * span
                entries[W + 1 + offset] = point
                y = FiniteTrajectory(entries, origin=W + 1)
                expect = binds and offset == W
                assert bool(_windows_within(sys, eps, x, y, 0, 0)[0]) is (not expect)


    @pytest.mark.parametrize("eps, W", [(1.0, 0), (0.3, 2)])
    def test_empty_shift_range(self, eps, W):
        # hi = lo - 1 is no shift: empty arrays, with [lo - W, hi + W] still checked
        assert window_radius(eps) == W
        sys = circle_doubling(15)
        x = FiniteTrajectory(sys.orbit(3, 9), origin=4)  # coordinates -4 .. 4
        y = FiniteTrajectory(sys.orbit(7, 9), origin=4)
        within = _windows_within(sys, eps, x, y, 1, 0)
        assert within.dtype == bool and within.shape == (0,)
        assert _pi_values(sys, x, y, 1, 0, max(W, 1))[0].shape == (0,)
        assert _coordinate_distances(sys, x, y, 1, 0).shape == (0,)
        with pytest.raises(InsufficientWindow):
            _windows_within(sys, eps, x, y, 6 - W, 5 - W)  # needs coordinate 5


class TestVerifyTrace:
    EPS = 1.0 / 3

    def setup(self):
        sys = circle_doubling(15)
        g = build_chain_graph(sys, 0.2)
        n_margin, k = spacing_constant(self.EPS, g.certificate)
        rng = np.random.default_rng(30)
        segs, a = [], 0
        for _ in range(3):
            b = a + int(rng.integers(3, 7))
            lo, hi = a - n_margin + 1, b + n_margin - 2
            entries = [int(rng.integers(0, sys.n))]
            for _ in range(hi - lo):
                entries.append(int(rng.choice(g.successors(entries[-1]))))
            segs.append(IntervalSegment(a, b, FiniteTrajectory(entries, origin=-lo)))
            a = b + k + int(rng.integers(0, 3))
        spec = SpacedSpecification(tuple(segs))
        return sys, g, spec, trace_specification(spec, g, self.EPS), n_margin

    @staticmethod
    def with_source_change(spec, index, coordinate, value):
        segs = list(spec.segments)
        src = segs[index].source
        entries = list(src.entries)
        entries[src.origin + coordinate] = value
        changed = FiniteTrajectory(entries, src.origin)
        segs[index] = IntervalSegment(segs[index].a, segs[index].b, changed)
        return SpacedSpecification(tuple(segs))

    @staticmethod
    def graph_with_dist(g, dist):
        """The graph's certificate and edges with another distance matrix."""
        system = types.SimpleNamespace(dist=dist)
        return types.SimpleNamespace(
            certificate=g.certificate, adjacency=g.adjacency, system=system
        )

    def test_corrupted_chains_fail_where_the_loop_fails(self):
        sys, g, spec, y, n_margin = self.setup()
        assert verify_trace(y, spec, g, self.EPS) == (True, {"failed": None, "period": y.period})
        rng = np.random.default_rng(31)
        kinds = set()
        for trial in range(300):
            word, cur_spec, dist = list(y.word), spec, sys.dist.copy()
            if trial % 3 == 0:  # a letter of the chain
                word[int(rng.integers(0, len(word)))] = int(rng.integers(0, sys.n))
            if trial % 3 == 1:  # a source coordinate inside or beside a margin window
                index = int(rng.integers(0, len(spec.segments)))
                seg = spec.segments[index]
                c = int(rng.integers(seg.source.min_coord, seg.source.max_coord + 1))
                cur_spec = self.with_source_change(spec, index, c, int(rng.integers(0, sys.n)))
            if trial % 2 == 0:  # a point that no window can pass
                v = int(rng.integers(0, sys.n))
                dist[v, v] = 0.5
            chain = PeriodicChain(tuple(word), y.origin_offset)
            got = verify_trace(chain, cur_spec, self.graph_with_dist(g, dist), self.EPS)
            want = loop_verify_trace(chain, cur_spec, g.adjacency, dist, self.EPS, n_margin)
            assert got == want
            kinds.add(got[1]["failed"])
        assert kinds == {None, "cyclic chain", "margin equality", "window check"}

    def test_margins_before_windows_within_a_segment(self):
        sys, g, spec, y, _ = self.setup()
        poisoned = self.graph_with_dist(g, sys.dist + 0.5 * np.eye(sys.n))
        seg0, seg1 = spec.segments[:2]
        first_window = {"failed": "window check", "segment": 0, "shift": seg0.a}
        assert verify_trace(y, spec, poisoned, self.EPS) == (False, first_window)
        # a margin mismatch in segment 0 is reported before its window checks
        changed = self.with_source_change(spec, 0, seg0.b, (y.at(seg0.b) + 1) % sys.n)
        margin = {"failed": "margin equality", "segment": 0, "coordinate": seg0.b}
        assert verify_trace(y, changed, poisoned, self.EPS) == (False, margin)
        # segment 0's window checks come before segment 1's margins
        changed = self.with_source_change(spec, 1, seg1.a, (y.at(seg1.a) + 1) % sys.n)
        assert verify_trace(y, changed, poisoned, self.EPS) == (False, first_window)


class TestRhoBarPeriodic:
    def test_costs_above_one_equal_the_loop(self):
        rng = np.random.default_rng(40)
        above_one = 0
        for case in range(150):
            n = int(rng.integers(2, 9))
            cost = rng.random((n, n)) * 3.0
            if case % 5 == 0:
                cost = np.round(cost)  # ties between phases
            pm, qm = (PeriodicOrbitMeasure(tuple(rng.integers(0, n, int(rng.integers(1, 9)))))
                      for _ in range(2))
            value, phase, _ = rho_bar_matrices([pm], [qm], cost)
            assert value.dtype == float and phase.dtype == int
            got = value[0, 0], phase[0, 0]
            assert got == loop_rho_bar_periodic(pm, qm, cost)
            above_one += got[0] > 1.0
        assert above_one > 0

    def test_matrix_rows_equal_singletons(self):
        rng = np.random.default_rng(41)
        cost = rng.random((6, 6)) * 2.0
        orbits = [PeriodicOrbitMeasure(tuple(rng.integers(0, 6, p))) for p in (1, 2, 3, 4, 6, 6)]
        value, phase, _ = rho_bar_matrices(orbits, orbits, cost)
        for i, pm in enumerate(orbits):
            for j, qm in enumerate(orbits):
                assert (value[i, j], phase[i, j]) == loop_rho_bar_periodic(pm, qm, cost)


class TestMixtureAndHausdorff:
    def test_mixture_upper_equals_the_singleton_loop(self):
        # density_demo's pi_bar_upper column, bit for bit
        sys = circle_doubling(15)
        graph = build_chain_graph(sys, 0.2)
        cycles = [tuple(w) for arr in simple_cycle_words(graph.adjacency, 4, 10_000)[0]
                  for w in arr.tolist()]
        rng = np.random.default_rng(50)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            w = rng.random(m) + 0.1
            words = [cycles[k] for k in rng.choice(len(cycles), m, replace=False)]
            weights = (w / w.sum()).tolist()
            target = [(PeriodicOrbitMeasure(wd), wt) for wd, wt in zip(words, weights)]
            radius = int(rng.integers(0, 7))
            cfg = PipelineConfig(system={"builtin": "circle-doubling", "n": 15}, pi_radius=radius,
                                 target=tuple(zip(words, weights)), block_scales=(64, 96, 128))
            rows = density_demo(cfg, 5, sys=sys, graph=graph)["rows"]
            for row in rows:
                approx = sigmund_approximation(target, graph, row["block_scale"])
                want = loop_pi_bar_mixture_upper([(approx, 1.0)], target, sys, radius)
                assert row["pi_bar_upper"] == want
                assert type(row["pi_bar_upper"]) is float

    def test_reduction_equals_the_callable_form(self):
        rng = np.random.default_rng(51)
        for shape in ((1, 1), (1, 5), (5, 1), (7, 3), (12, 12)):
            matrix = np.round(rng.random(shape), 2)  # repeated values
            rows, cols = range(shape[0]), range(shape[1])
            want = loop_hausdorff(rows, cols, lambda i, j: float(matrix[i, j]))
            assert measures._hausdorff(matrix) == want
            assert hausdorff_distance(rows, cols, lambda i, j: float(matrix[i, j])) == want
            assert type(measures._hausdorff(matrix)) is float

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptySet):
            measures._hausdorff(np.zeros((0, 3)))
        with pytest.raises(EmptySet):
            hausdorff_distance([1], [], lambda a, b: 0.0)
