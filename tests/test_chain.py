import math
import pickle
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from deltachain import chain
from deltachain.builders import circle_doubling, random_metric
from deltachain.chain import (
    build_chain_graph,
    finite_chain,
    is_delta_chain,
    mixing_certificate,
    to_adjacency_lines,
    to_dot,
    wielandt_bound,
)
from deltachain.core import TOL, FiniteMetricSystem, FiniteTrajectory, IntervalSegment
from deltachain.errors import NoChain
from deltachain.measures import PeriodicOrbitMeasure, sigmund_approximation
from deltachain.pipeline import config_from_dict, run_pipeline
from deltachain.specification import SpacedSpecification, trace_specification, verify_trace


def oracle_mixing_constant(adj, cap=10_000):
    """Independent reference: scan boolean powers one by one."""
    a = np.asarray(adj, dtype=bool)
    power = a.copy()
    for m in range(1, cap + 1):
        if power.all():
            return m
        power = power @ a
    return None


class TestBuildChainGraph:
    def test_doubling_grid_four_quarter(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        expected = {0: [0, 1, 3], 1: [1, 2, 3], 2: [0, 1, 3], 3: [1, 2, 3]}
        for u, succ in expected.items():
            assert g.successors(u).tolist() == succ

    def test_delta_one_complete(self):
        for n in (3, 4, 7):
            g = build_chain_graph(circle_doubling(n), 1.0)
            assert g.adjacency.all()

    def test_delta_zero_functional(self):
        sys = circle_doubling(5)
        g = build_chain_graph(sys, 0.0)
        for u in range(5):
            assert g.successors(u).tolist() == [sys.map_image[u]]

    def test_true_orbit_edge_always_present(self):
        # rho(T(u), T(u)) = 0 <= delta, so u -> T(u) at every threshold
        for seed in range(5):
            sys = random_metric(8, seed=seed)
            g = build_chain_graph(sys, 0.0)
            assert all(g.adjacency[u, sys.map_image[u]] for u in range(8))

    def test_monotone_in_delta(self):
        sys = random_metric(10, seed=3)
        prev = build_chain_graph(sys, 0.1).adjacency
        for delta in (0.2, 0.4, 0.7, 1.0):
            cur = build_chain_graph(sys, delta).adjacency
            assert (prev <= cur).all()
            prev = cur

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_chain_graph(circle_doubling(4), 1.5)


class TestMixingCertificate:
    def test_doubling_grid_four_constant_two(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        cert = mixing_certificate(g)
        assert cert.strongly_connected
        assert cert.period == 1
        assert cert.mixing_constant == 2
        # minimality witness: some pair is not joined by a length-1 walk
        assert not g.adjacency.all()

    def test_matches_power_oracle(self):
        for seed in range(12):
            sys = random_metric(9, seed=seed)
            for delta in (0.3, 0.5, 0.8):
                g = build_chain_graph(sys, delta)
                cert = mixing_certificate(g)
                if cert.mixing_constant is not None:
                    assert cert.mixing_constant == oracle_mixing_constant(g.adjacency)

    def test_pure_cycle_has_period_n(self):
        n = 6
        dist = np.minimum(
            np.abs(np.subtract.outer(np.arange(n), np.arange(n))),
            n - np.abs(np.subtract.outer(np.arange(n), np.arange(n))),
        ) / n
        sys = FiniteMetricSystem(
            tuple(str(i) for i in range(n)),
            dist,
            tuple((i + 1) % n for i in range(n)),
        )
        g = build_chain_graph(sys, 0.0)
        cert = mixing_certificate(g)
        assert cert.strongly_connected
        assert cert.period == n
        assert cert.mixing_constant is None

    def test_disconnected_not_strong(self):
        # two fixed points farther apart than delta
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        sys = FiniteMetricSystem(("a", "b"), dist, (0, 1))
        cert = mixing_certificate(build_chain_graph(sys, 0.1))
        assert not cert.strongly_connected
        assert cert.mixing_constant is None

    def test_path_counts_past_256_do_not_wrap(self):
        # at n = 640 a path count of 256 used to wrap to 0 in uint8 and
        # report M = 3; float path counts (scaled by 1/n per step, so they
        # stay finite and positive) give the least all-positive power
        g = build_chain_graph(circle_doubling(640), 0.3)
        a = g.adjacency.astype(float)
        power, oracle = a, 1
        while not (power > 0).all():
            power = power @ a / g.n
            oracle += 1
        assert oracle == 2
        assert mixing_certificate(g).mixing_constant == oracle

    def test_wielandt_bound_respected(self):
        for seed in range(10):
            sys = random_metric(11, seed=100 + seed)
            g = build_chain_graph(sys, 0.5)
            cert = mixing_certificate(g)
            if cert.mixing_constant is not None:
                assert cert.mixing_constant <= wielandt_bound(11)


def oracle_period(adj):
    """gcd of the lengths k <= 2n with a closed walk, from traces of float powers."""
    a = np.asarray(adj, dtype=float)
    n = a.shape[0]
    power, g = np.eye(n), 0
    for k in range(1, 2 * n + 1):
        power = (power @ a > 0).astype(float)
        if np.trace(power) > 0:
            g = math.gcd(g, k)
    return g


class TestGraphPeriod:
    def test_cycles(self):
        for n in range(1, 9):
            adj = np.zeros((n, n), dtype=bool)
            adj[np.arange(n), (np.arange(n) + 1) % n] = True
            assert chain._certify(adj).period == n == oracle_period(adj)

    def test_cycle_with_chord(self):
        # a 6-cycle with chord 0 -> 4 has cycles of lengths 6 and 3
        adj = np.zeros((6, 6), dtype=bool)
        adj[np.arange(6), (np.arange(6) + 1) % 6] = True
        adj[0, 4] = True
        assert chain._certify(adj).period == 3 == oracle_period(adj)

    def test_bipartite(self):
        rng = np.random.default_rng(6)
        for left, right in ((1, 1), (2, 3), (4, 4), (5, 2)):
            n = left + right
            adj = np.zeros((n, n), dtype=bool)
            adj[:left, left:] = rng.random((left, right)) < 0.7
            adj[left:, :left] = True
            adj[np.arange(left), left + np.arange(left) % right] = True  # no sink
            assert chain._certify(adj).period == 2 == oracle_period(adj)

    def test_random_strongly_connected(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 10))
            adj = rng.random((n, n)) < 0.25
            ncomp, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
            if ncomp == 1:
                assert chain._certify(adj).period == oracle_period(adj)
                checked += 1
        assert checked > 20

    def test_random_graphs_against_scipy_and_trace_oracles(self):
        # graphs on 1-12 vertices at several densities; a third are rebuilt so
        # that vertex 0 reaches every vertex but is reached from none (one-way
        # out), a third are those transposed (one-way in)
        rng = np.random.default_rng(18)
        kinds = {"strong": 0, "not strong": 0, "one-way out": 0, "one-way in": 0}
        for trial in range(360):
            n = int(rng.integers(1, 13))
            adj = rng.random((n, n)) < rng.choice([0.05, 0.15, 0.3, 0.6])
            if trial % 3 and n > 1:
                order = np.concatenate([[0], 1 + rng.permutation(n - 1)])
                parents = order[rng.integers(0, np.arange(1, n))]
                adj[parents, order[1:]] = True  # an out-tree from vertex 0
                adj[:, 0] = False
                if trial % 3 == 2:
                    adj = adj.T
                kinds["one-way out" if trial % 3 == 1 else "one-way in"] += 1
            ncomp, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
            strong = ncomp == 1
            kinds["strong" if strong else "not strong"] += 1
            period = oracle_period(adj) if strong else 0
            m = scan_mixing_constant(adj) if period == 1 else None
            assert chain._certify(adj) == chain.MixingCertificate(strong, period, m)
        assert min(kinds.values()) > 20

    def test_import_loads_no_csgraph(self):
        code = "import deltachain, sys; print('scipy.sparse.csgraph' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"


class TestCachedCertificate:
    def counting(self, monkeypatch):
        calls = []
        real = chain._certify

        def counted(adjacency):
            calls.append(adjacency)
            return real(adjacency)

        monkeypatch.setattr(chain, "_certify", counted)
        return calls

    def test_computed_once_per_graph(self, monkeypatch):
        calls = self.counting(monkeypatch)
        g = build_chain_graph(circle_doubling(15), 0.2)
        first = g.certificate
        assert g.certificate is first
        # the gluing constructions and their verifier reuse it
        a, b = PeriodicOrbitMeasure((0,)), PeriodicOrbitMeasure((5, 10))
        sigmund_approximation([(a, 0.5), (b, 0.5)], g, 32)
        segment = IntervalSegment(0, 2, FiniteTrajectory([0] * 7, origin=2))
        spec = SpacedSpecification((segment,))
        ok, _ = verify_trace(trace_specification(spec, g, 0.5), spec, g, 0.5)
        assert ok
        assert len(calls) == 1
        assert first == mixing_certificate(g)

    def test_pipeline_certifies_each_level_once(self, monkeypatch):
        calls = self.counting(monkeypatch)
        cfg = config_from_dict(
            {
                "system": {"builtin": "circle-doubling", "n": 15},
                "n_max": 4,
                "period_cap": 2,
                "target": [{"word": [0], "weight": 0.5}, {"word": [5, 10], "weight": 0.5}],
                "block_scales": [8, 32],
            }
        )
        report = run_pipeline(cfg)
        assert report.density is not None and not report.errors
        assert len(calls) == 4 and len({id(g) for g in calls}) == 4


class TestFiniteChain:
    def test_doubling_grid_example(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        assert finite_chain(g, 0, 2, 2) == [0, 1, 2]

    def test_endpoints_and_length(self):
        sys = circle_doubling(15)
        g = build_chain_graph(sys, 0.2)
        cert = mixing_certificate(g)
        for length in range(cert.mixing_constant, cert.mixing_constant + 4):
            for x, y in ((0, 7), (3, 3), (14, 1)):
                walk = finite_chain(g, x, y, length)
                assert walk[0] == x and walk[-1] == y
                assert len(walk) == length + 1
                assert is_delta_chain(FiniteTrajectory(walk, 0), g)

    def test_deterministic_lowest_id(self):
        g = build_chain_graph(circle_doubling(4), 1.0)
        # complete graph: interior vertices must all be 0
        assert finite_chain(g, 2, 3, 3) == [2, 0, 0, 3]

    def test_no_chain_raises(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        sys = FiniteMetricSystem(("a", "b"), dist, (0, 1))
        g = build_chain_graph(sys, 0.1)
        with pytest.raises(NoChain):
            finite_chain(g, 0, 1, 5)

    def test_too_short_raises(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        with pytest.raises(NoChain):
            finite_chain(g, 0, 2, 0)


class TestChainFamily:
    def test_nesting(self):
        sys = random_metric(10, seed=1)
        family = [build_chain_graph(sys, 1.0 / n) for n in range(1, 7)]
        for coarse, fine in zip(family, family[1:]):
            assert (fine.adjacency <= coarse.adjacency).all()

    def test_first_level_complete(self):
        assert build_chain_graph(circle_doubling(9), 1.0).adjacency.all()


def critical_deltas(sys):
    """The distances rho(T(u), v): the only deltas at which the chain graph can change."""
    return np.unique(sys.dist[np.asarray(sys.map_image)]).tolist()


class TestCriticalDeltas:
    def test_graph_constant_between_criticals(self):
        sys = random_metric(8, seed=4)
        cuts = critical_deltas(sys)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            a = build_chain_graph(sys, lo).adjacency
            b = build_chain_graph(sys, mid).adjacency
            assert np.array_equal(a, b)

    def test_graph_changes_at_criticals(self):
        sys = random_metric(8, seed=4)
        cuts = [c for c in critical_deltas(sys) if 0.0 < c < 1.0]
        for c in cuts:
            below = build_chain_graph(sys, c - 1e-6).adjacency
            at = build_chain_graph(sys, c).adjacency
            assert at.sum() > below.sum()


class TestExports:
    def test_adjacency_lines(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        lines = to_adjacency_lines(g).strip().split("\n")
        assert lines[0] == "0: 0 1 3"
        assert lines[2] == "2: 0 1 3"

    def test_dot_contains_all_edges(self):
        g = build_chain_graph(circle_doubling(4), 0.25)
        dot = to_dot(g)
        assert dot.startswith("digraph")
        assert dot.count("->") == g.edge_count()


def wielandt_adjacency(n):
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1; M = (n-1)^2 + 1."""
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n), (np.arange(n) + 1) % n] = True
    adj[n - 1, 1] = True
    return adj


def power_positive(adj, e):
    """Whether the boolean power A^e (e >= 1) is all-positive: float64 squaring, thresholded."""
    base = np.asarray(adj, dtype=float)
    result = None
    while e:
        if e & 1:
            result = base if result is None else (result @ base > 0).astype(float)
        e >>= 1
        if e:
            base = (base @ base > 0).astype(float)
    return bool(result.all())


def scan_mixing_constant(adj):
    """The one-power-at-a-time scan the certificate used before squaring, as an oracle."""
    a = np.asarray(adj, dtype=np.float64)
    power, m = a, 1
    while not power.all():
        power = (power @ a > 0).astype(np.float64)
        m += 1
    return m


def wielandt_graph(n):
    return chain.ChainGraph(circle_doubling(n), 0.0, wielandt_adjacency(n))


class TestMixingConstantBySquaring:
    @pytest.mark.parametrize("n", [40, 80, 120, 257])
    def test_wielandt_graphs(self, n):
        g = wielandt_graph(n)
        start = time.perf_counter()
        cert = mixing_certificate(g)
        elapsed = time.perf_counter() - start
        m = cert.mixing_constant
        assert (cert.strongly_connected, cert.period) == (True, 1)
        assert m == wielandt_bound(n) == (n - 1) ** 2 + 1
        # least: A^M is all-positive and A^(M-1) is not (the powers are monotone from M on)
        assert power_positive(g.adjacency, m) and not power_positive(g.adjacency, m - 1)
        assert elapsed < 1.0

    def test_random_primitive_graphs_match_the_scan(self):
        rng = np.random.default_rng(9)
        checked = []
        while len(checked) < 200:
            n = int(rng.integers(2, 61))
            adj = np.zeros((n, n), dtype=bool)
            cycle = rng.permutation(n)
            adj[cycle, np.roll(cycle, -1)] = True  # a Hamiltonian cycle: strongly connected
            density = rng.choice([0.5, 0.1, 2.0 / n, 0.0])
            adj |= rng.random((n, n)) < density
            if density == 0.0:  # one chord: M up to the Wielandt bound
                adj[rng.integers(n), rng.integers(n)] = True
            if oracle_period(adj) != 1:
                continue
            m = scan_mixing_constant(adj)
            assert chain._certify(adj) == chain.MixingCertificate(True, 1, m)
            checked.append(m)
        assert min(checked) <= 2 and max(checked) > 500

    def test_not_primitive_has_no_constant(self):
        adj = np.zeros((6, 6), dtype=bool)
        adj[np.arange(6), (np.arange(6) + 1) % 6] = True
        adj[0, 4] = True  # cycles of lengths 6 and 3: period 3
        assert chain._certify(adj) == chain.MixingCertificate(True, 3, None)
        adj[1, 0] = True  # adds a 2-cycle: period gcd(3, 2) = 1
        assert chain._certify(adj).mixing_constant == scan_mixing_constant(adj)

    def test_one_point(self):
        assert chain._certify(np.ones((1, 1), dtype=bool)) == chain.MixingCertificate(True, 1, 1)
        assert chain._certify(np.zeros((1, 1), dtype=bool)).mixing_constant is None


class TestCertifiedOnce:
    def test_certify_call_order_computes_once(self, monkeypatch):
        calls = []
        real = chain._certify
        monkeypatch.setattr(chain, "_certify", lambda adjacency: calls.append(1) or real(adjacency))
        g = build_chain_graph(circle_doubling(15), 0.2)
        cert = mixing_certificate(g)
        segment = IntervalSegment(0, 2, FiniteTrajectory([0] * 7, origin=2))
        spec = SpacedSpecification((segment, IntervalSegment(20, 22, FiniteTrajectory([0] * 27, origin=2))))
        chain_out = trace_specification(spec, g, 0.5)
        assert verify_trace(chain_out, spec, g, 0.5)[0]
        assert mixing_certificate(g) is cert
        assert len(calls) == 1

    def test_adjacency_and_dist_cannot_be_made_writable(self):
        g = build_chain_graph(circle_doubling(9), 0.2)
        for array in (g.system.dist, g.adjacency):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.setflags(write=True)
            with pytest.raises(ValueError):
                array[0, 0] = array[0, 1]

    def test_adjacency_is_a_copy(self):
        adj = wielandt_adjacency(5)
        g = chain.ChainGraph(circle_doubling(5), 0.0, adj)
        adj[0, 0] = True
        assert not g.adjacency[0, 0]
        assert g.certificate.mixing_constant == wielandt_bound(5)


class TestPickle:
    def test_round_trip_stays_frozen(self):
        g = build_chain_graph(circle_doubling(5), 0.4)
        cert = g.certificate  # cached before pickling
        back = pickle.loads(pickle.dumps(g))
        system = pickle.loads(pickle.dumps(circle_doubling(5)))
        for array in (system.dist, back.system.dist, back.adjacency):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.setflags(write=True)
        assert "certificate" not in vars(back)  # recomputed from the frozen copy
        assert back.certificate == cert
        assert np.array_equal(back.adjacency, g.adjacency) and back.delta == g.delta
        for s in (system, back.system):
            assert np.array_equal(s.dist, g.system.dist)
            assert (s.labels, s.map_image) == (g.system.labels, g.system.map_image)


class TestIsDeltaChain:
    def loop(self, ids, g):
        return all(g.adjacency[ids[i], ids[i + 1]] for i in range(len(ids) - 1))

    def test_equals_the_step_loop(self):
        rng = np.random.default_rng(40)
        verdicts = set()
        for case in range(300):
            sys = random_metric(int(rng.integers(1, 10)), seed=case)
            g = build_chain_graph(sys, float(rng.uniform(0.0, 0.6)))
            walk = [int(rng.integers(0, sys.n))]
            for _ in range(int(rng.integers(0, 12))):
                step = g.successors(walk[-1]) if rng.random() < 0.9 else np.arange(sys.n)
                walk.append(int(rng.choice(step)))
            got = is_delta_chain(FiniteTrajectory(walk), g)
            assert got is self.loop(walk, g)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_one_entry_is_a_chain_of_any_graph(self):
        sys = circle_doubling(5)
        g = chain.ChainGraph(sys, 0.0, np.zeros((5, 5), dtype=bool))
        assert is_delta_chain(FiniteTrajectory([3]), g) is True
        assert is_delta_chain(FiniteTrajectory([3, 3]), g) is False

    def test_cycle_missing_its_closing_edge(self):
        # at delta 1/5 on the 15-point doubling grid, 0 -> 3 is an edge, 3 -> 0 is not
        g = build_chain_graph(circle_doubling(15), 0.2)
        assert is_delta_chain(FiniteTrajectory([0, 3]), g) is True
        assert is_delta_chain(FiniteTrajectory([0, 3, 0]), g) is False

    def test_true_orbit_is_delta_chain_for_any_delta(self):
        for sys in (circle_doubling(15), random_metric(9, seed=4)):
            orbit = FiniteTrajectory(sys.orbit(7, 20))
            for delta in (0.0, 0.01, 0.5, 1.0):  # X_T is the delta = 0 chain system
                assert is_delta_chain(orbit, build_chain_graph(sys, delta))

    def test_a_corrupted_entry_breaks_the_chain_at_its_step(self):
        sys = circle_doubling(15)
        g = build_chain_graph(sys, 0.1)
        ids = sys.orbit(7, 20)
        ids[5] = (ids[5] + 7) % 15  # the step 4 -> 5 errs by 7/15
        assert is_delta_chain(FiniteTrajectory(ids[:5]), g)
        assert not is_delta_chain(FiniteTrajectory(ids[:6]), g)
        assert not is_delta_chain(FiniteTrajectory(ids), g)

    def test_equals_the_step_error_rule(self):
        # a walk is a delta chain iff every step error rho(T(u), v) is <= delta + TOL,
        # ties included: circle_doubling(15) has step errors of exactly 0.2
        for sys, delta in ((random_metric(9, seed=2), 0.4), (circle_doubling(15), 0.2)):
            g = build_chain_graph(sys, delta)
            rng = np.random.default_rng(0)
            outcomes = set()
            for _ in range(300):
                start = int(rng.integers(0, sys.n))
                ids = [start, int(rng.choice(g.successors(start)))] + rng.integers(0, sys.n, 4).tolist()
                errors = [sys.rho(sys.map_image[u], v) for u, v in zip(ids, ids[1:])]
                got = is_delta_chain(FiniteTrajectory(ids), g)
                assert got is all(e <= delta + TOL for e in errors)
                outcomes.add(got)
            assert outcomes == {True, False}

    def test_readme_walk_is_a_delta_chain(self):
        sys = circle_doubling(15)
        g = build_chain_graph(sys, 0.2)
        traj = FiniteTrajectory(finite_chain(g, 0, 7, 6))
        errors = [sys.rho(sys.map_image[u], v) for u, v in zip(traj.entries, traj.entries[1:])]
        assert max(errors) == 0.2  # the last step sits on the threshold
        assert is_delta_chain(traj, g)


def full_table_walk(g, x, y, length):
    """The walk read from the full (length + 1) x n reachability table, as an oracle."""
    a = g.adjacency.astype(np.float32)
    reach = np.zeros((length + 1, g.n), dtype=bool)
    reach[0, y] = True
    for t in range(1, length + 1):
        np.greater(a @ reach[t - 1], 0, out=reach[t])
    assert reach[length, x]
    walk = [x]
    for t in range(length, 0, -1):
        walk.append(int(np.nonzero(g.adjacency[walk[-1]] & reach[t - 1])[0][0]))
    return walk


class TestFiniteChainAtTheMixingConstant:
    def test_wielandt_257_at_length_m(self):
        g = wielandt_graph(257)
        m = g.certificate.mixing_constant
        # 0 -> 0 needs a closed walk of length M or more: lengths are a*n + b*(n-1)
        with pytest.raises(NoChain):
            finite_chain(g, 0, 0, m - 1)
        tracemalloc.start()
        walk = finite_chain(g, 0, 0, m)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(walk) == m + 1 and walk[0] == walk[-1] == 0
        assert g.adjacency[walk[:-1], walk[1:]].all()
        # column 0 first fills at row m: the worst case, the table the docstring states
        table = (m + 1) * g.n  # bytes
        assert table < peak < table + 4 * 2**20
        assert walk == full_table_walk(g, 0, 0, m)

    def test_wielandt_257_table_stops_at_its_first_all_true_row(self):
        g = wielandt_graph(257)
        m = g.certificate.mixing_constant
        tracemalloc.start()
        walk = finite_chain(g, 0, 0, 2 * m)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # rows past m read row m: the table stays at (m + 1) * n, not the 33.7 MB full table
        assert peak < (m + 1) * g.n + 2 * 2**20
        assert walk == full_table_walk(g, 0, 0, 2 * m)

    def test_walks_past_the_all_true_row_match_the_full_table(self):
        g = build_chain_graph(circle_doubling(15), 0.2)
        m = g.certificate.mixing_constant
        for length in (m, m + 1, 2 * m, 3 * m + 2):
            for x, y in ((0, 7), (3, 3), (14, 1), (5, 0)):
                assert finite_chain(g, x, y, length) == full_table_walk(g, x, y, length)
