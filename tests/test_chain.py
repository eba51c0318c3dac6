import numpy as np
import pytest

from deltachain.builders import circle_doubling, random_metric
from deltachain.chain import (
    build_chain_graph,
    chain_family,
    critical_deltas,
    finite_chain,
    is_delta_chain,
    mixing_certificate,
    to_adjacency_lines,
    to_dot,
    wielandt_bound,
)
from deltachain.core import FiniteMetricSystem, FiniteTrajectory
from deltachain.errors import NoChain


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
        family = chain_family(sys, 6)
        assert len(family) == 6
        for coarse, fine in zip(family, family[1:]):
            assert (fine.adjacency <= coarse.adjacency).all()

    def test_first_level_complete(self):
        family = chain_family(circle_doubling(9), 3)
        assert family[0].adjacency.all()


class TestCriticalDeltas:
    def test_graph_constant_between_criticals(self):
        sys = random_metric(8, seed=4)
        cuts = critical_deltas(sys)
        assert cuts == sorted(cuts)
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
