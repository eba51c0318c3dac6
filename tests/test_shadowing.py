import numpy as np
import pytest

from deltachain.builders import circle_doubling, random_metric
from deltachain.core import TOL, FiniteMetricSystem, FiniteTrajectory, _windows_within
from deltachain.errors import BadHorizon, InsufficientWindow
from deltachain.shadowing import (
    besicovitch_pi,
    besicovitch_rho,
    equivalence_bound_check,
    hat_rho,
)


class TestBesicovitchRho:
    def test_hand_average(self):
        sys = circle_doubling(10)
        x = FiniteTrajectory([0, 0, 0, 0], origin=0)
        y = FiniteTrajectory([0, 1, 2, 5], origin=0)
        est = besicovitch_rho(x, y, sys, 4)
        assert est.value == pytest.approx((0.0 + 0.1 + 0.2 + 0.5) / 4)
        assert est.variant == "rho_B"

    def test_pseudometric_properties(self):
        sys = random_metric(8, seed=9)
        rng = np.random.default_rng(1)
        ts = [
            FiniteTrajectory(rng.integers(0, 8, 12).tolist(), origin=0)
            for _ in range(4)
        ]
        for a in ts:
            assert besicovitch_rho(a, a, sys, 12).value == 0.0
            for b in ts:
                ab = besicovitch_rho(a, b, sys, 12).value
                assert ab == besicovitch_rho(b, a, sys, 12).value
                for c in ts:
                    assert ab <= (
                        besicovitch_rho(a, c, sys, 12).value
                        + besicovitch_rho(c, b, sys, 12).value
                        + 1e-12
                    )

    def test_bad_horizon(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0], origin=0)
        with pytest.raises(BadHorizon):
            besicovitch_rho(x, x, sys, 0)


class TestBesicovitchPi:
    def test_equal_trajectories_give_tail_bound(self):
        # every shifted pi is inexact at the tail bound 1/(K+2)
        sys = circle_doubling(4)
        x = FiniteTrajectory([0] * 21, origin=5)
        est = besicovitch_pi(x, x, sys, 10, 5)
        assert est.value == pytest.approx(1.0 / 7)
        assert est.error_bar == pytest.approx(1.0 / 7)

    def test_dominates_nothing_below_error_bar(self):
        sys = random_metric(7, seed=3)
        rng = np.random.default_rng(2)
        x = FiniteTrajectory(rng.integers(0, 7, 25).tolist(), origin=6)
        y = FiniteTrajectory(rng.integers(0, 7, 25).tolist(), origin=6)
        est = besicovitch_pi(x, y, sys, 12, 6)
        assert est.value >= 1.0 / 8 - TOL  # each term is >= the tail bound

    def test_coverage_requirement(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0] * 10, origin=2)
        with pytest.raises(InsufficientWindow):
            besicovitch_pi(x, x, sys, 8, 5)

    def test_pi_dominates_rho_average(self):
        # pi(S^k x, S^k y) >= min(rho(x_k, y_k), 1/1) >= contribution at j=0
        sys = random_metric(9, seed=5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = FiniteTrajectory(rng.integers(0, 9, 30).tolist(), origin=8)
            y = FiniteTrajectory(rng.integers(0, 9, 30).tolist(), origin=8)
            pi_est = besicovitch_pi(x, y, sys, 10, 8)
            rho_est = besicovitch_rho(x, y, sys, 10)
            assert pi_est.value >= min(rho_est.value, 1.0) - TOL or (
                pi_est.value + pi_est.error_bar >= rho_est.value - TOL
            )


class TestHatRho:
    def test_hand_case_quarter(self):
        # distances (0, 0, 1, 1): fraction >= delta is 1/2 for delta in (0, 1];
        # need fraction < delta, first achieved at delta = 1/2
        sys = circle_doubling(4)
        x = FiniteTrajectory([0, 0, 0, 0], origin=0)
        y = FiniteTrajectory([0, 0, 2, 2], origin=0)
        est = hat_rho(x, y, sys, 4)
        assert est.value == pytest.approx(0.5)

    def test_equal_is_zero(self):
        sys = circle_doubling(8)
        x = FiniteTrajectory([3, 6, 4, 0, 0], origin=0)
        assert hat_rho(x, x, sys, 5).value == 0.0

    def test_definition_oracle(self):
        # est.value satisfies the defining condition and nothing much smaller does
        sys = random_metric(10, seed=7)
        rng = np.random.default_rng(4)
        for _ in range(50):
            N = 17
            x = FiniteTrajectory(rng.integers(0, 10, N).tolist(), origin=0)
            y = FiniteTrajectory(rng.integers(0, 10, N).tolist(), origin=0)
            d = [sys.rho(x.at(k), y.at(k)) for k in range(N)]
            v = hat_rho(x, y, sys, N).value

            def frac_at(delta):
                return sum(1 for t in d if t >= delta) / N

            # condition holds just above v (infimum), fails just below it
            assert frac_at(v + 1e-7) <= v + 1e-7
            if v > 1e-7:
                probe = v - 1e-7
                assert frac_at(probe) >= probe

    def test_bounded_by_exceedance_structure(self):
        sys = circle_doubling(6)
        x = FiniteTrajectory([0] * 12, origin=0)
        y = FiniteTrajectory([3] * 12, origin=0)  # all distances 0.5
        # fraction >= delta is 1 for delta <= 0.5, then 0: infimum is 0.5
        assert hat_rho(x, y, sys, 12).value == pytest.approx(0.5)


class TestEquivalenceBound:
    def test_counts_match_direct_loop(self):
        sys = random_metric(9, seed=11)
        rng = np.random.default_rng(6)
        for delta in (0.5, 1.0 / 3, 0.2):
            n_d = int(1.0 / delta - 1.0 + TOL)
            N = 30
            span = N + 2 * n_d + 1
            x = FiniteTrajectory(rng.integers(0, 9, span).tolist(), origin=n_d)
            y = FiniteTrajectory(rng.integers(0, 9, span).tolist(), origin=n_d)
            ok, counts = equivalence_bound_check(x, y, sys, N, delta)
            direct = sum(1 for k in range(N) if loop_pi_exceeds(sys, x, y, k, delta))
            assert counts["pi_at_delta"] == direct
            assert ok

    def test_identical_trajectories(self):
        sys = circle_doubling(8)
        x = FiniteTrajectory([0] * 40, origin=5)
        ok, counts = equivalence_bound_check(x, x, sys, 20, 1.0 / 3)
        assert ok
        assert counts["pi_at_delta"] == 0
        assert counts["rho_at_delta_prime"] == 0

    def test_delta_prime_value(self):
        sys = circle_doubling(8)
        x = FiniteTrajectory([0] * 40, origin=5)
        _, counts = equivalence_bound_check(x, x, sys, 20, 1.0 / 3)
        assert counts["window_radius"] == 2
        assert counts["delta_prime"] == pytest.approx((1.0 / 3) / 5)

    def test_isolated_exceedance_tight_side(self):
        # one binding coordinate serves exactly 2*N_d + 1 shifts
        sys = circle_doubling(8)
        delta = 1.0 / 3
        ids = [0] * 41
        ids[20] = 4  # rho(0, 4) = 0.5 >= delta
        x = FiniteTrajectory([0] * 41, origin=2)
        y = FiniteTrajectory(ids, origin=2)
        ok, counts = equivalence_bound_check(x, y, sys, 36, delta)
        assert ok
        assert counts["pi_at_delta"] == 2 * counts["window_radius"] + 1
        assert counts["rho_at_delta"] == 1

    def test_bad_inputs(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0] * 10, origin=2)
        with pytest.raises(BadHorizon):
            equivalence_bound_check(x, x, sys, 0, 0.5)
        with pytest.raises(BadHorizon):
            equivalence_bound_check(x, x, sys, 5, 0.0)
        with pytest.raises(InsufficientWindow):
            equivalence_bound_check(x, x, sys, 5, 0.1)
        with pytest.raises(BadHorizon):  # 1 / delta is inf: an OverflowError in window_radius
            equivalence_bound_check(x, x, sys, 5, 1e-320)


# ---------------------------------------------------------------------------
# The per-cut, per-coordinate loops these functions ran before they shared the
# core gathers, kept here as oracles.


def loop_hat_rho(d, N):
    cuts = sorted(set([0.0] + [float(v) for v in d if v > TOL] + [1.0]))
    best = 1.0
    for idx in range(len(cuts)):
        lo = cuts[idx]
        hi = cuts[idx + 1] if idx + 1 < len(cuts) else float("inf")
        threshold = int(np.count_nonzero(d > lo + TOL)) / N
        if threshold < hi - TOL:
            best = max(lo, threshold)
            break
    return min(best, 1.0)


def loop_pi_exceeds(sys, x, y, k, level):
    W = int(1.0 / level - 1.0 + TOL)
    return any(sys.rho(x.at(k + j), y.at(k + j)) >= level - TOL for j in range(-W, W + 1))


def loop_equivalence_counts(x, y, sys, N, delta):
    n_d = int(1.0 / delta - 1.0 + TOL)
    rho = {k: sys.rho(x.at(k), y.at(k)) for k in range(-n_d, N + n_d)}
    return {
        "pi_at_delta": sum(
            any(rho[k + j] >= delta - TOL for j in range(-n_d, n_d + 1)) for k in range(N)
        ),
        "rho_at_delta_prime": sum(v >= delta / (2 * n_d + 1) - TOL for v in rho.values()),
        "rho_at_delta": sum(rho[k] >= delta - TOL for k in range(N)),
        "window_radius": n_d,
        "delta_prime": delta / (2 * n_d + 1),
    }


def near_pair(rng, sys, lo, hi):
    """Trajectories covering [lo, hi]: random ids, or an orbit and a copy with a few ids redrawn."""
    span = hi - lo + 1
    if rng.random() < 0.5:
        return [FiniteTrajectory(rng.integers(0, sys.n, span).tolist(), -lo) for _ in range(2)]
    ids = sys.orbit(int(rng.integers(0, sys.n)), span)
    other = list(ids)
    for j in rng.integers(0, span, int(rng.integers(0, 4))):
        other[j] = int(rng.integers(0, sys.n))
    return FiniteTrajectory(ids, -lo), FiniteTrajectory(other, -lo)


SYSTEMS = (circle_doubling(8), circle_doubling(15), random_metric(9, seed=4))


class TestFoldedKernelsAgainstLoops:
    def test_hat_rho_equals_the_per_cut_loop(self):
        rng = np.random.default_rng(30)
        for case in range(300):
            sys = SYSTEMS[case % 3]
            N = int(rng.integers(1, 60))
            x, y = near_pair(rng, sys, 0, N - 1 + int(rng.integers(0, 3)))
            d = np.array([sys.rho(x.at(k), y.at(k)) for k in range(N)])
            value = hat_rho(x, y, sys, N).value
            assert type(value) is float
            assert value == loop_hat_rho(d, N)

    def test_hat_rho_at_distances_within_tol_of_a_cut(self):
        # point 0 sits at distances within TOL of 1/4 and 1/2, the fractions
        # count / N takes for N = 4, 8, and TOL/2 from the last point, its
        # twin; all other pairs are at 0.4
        near = [0.25, 0.25 + TOL / 2, 0.25 + TOL, 0.5 - TOL / 2, 0.5, 0.5 + TOL / 2, 0.5 + TOL]
        n = len(near) + 2
        dist = np.full((n, n), 0.4)
        np.fill_diagonal(dist, 0.0)
        dist[0, 1:-1] = dist[1:-1, 0] = dist[-1, 1:-1] = dist[1:-1, -1] = near
        dist[0, -1] = dist[-1, 0] = TOL / 2
        sys = FiniteMetricSystem(tuple(str(i) for i in range(n)), dist, tuple(range(n)))
        rng = np.random.default_rng(33)
        for case in range(400):
            N = (4, 8)[case % 2]
            x = FiniteTrajectory([0] * N)
            y = FiniteTrajectory(rng.choice(n, N, p=[0.4] + [0.6 / (n - 1)] * (n - 1)).tolist())
            d = np.array([sys.rho(0, v) for v in y.entries])
            assert hat_rho(x, y, sys, N).value == loop_hat_rho(d, N)

    @pytest.mark.parametrize("level", [1.0, 0.5, 1.0 / 3, 1.0 / 7, None])
    def test_pi_exceeds_equals_the_window_scan(self, level):
        rng = np.random.default_rng(31)
        for case in range(100):
            sys = SYSTEMS[case % 3]
            lv = float(rng.uniform(0.05, 1.0)) if level is None else level
            W = int(1.0 / lv - 1.0 + TOL)
            x, y = near_pair(rng, sys, -W - 2, W + 2)
            for k in range(-2, 3):
                passed = bool(_windows_within(sys, lv, x, y, k, k)[0])
                assert passed is not loop_pi_exceeds(sys, x, y, k, lv)

    @pytest.mark.parametrize("delta", [1.0, 0.5, 1.0 / 3, 1.0 / 7, None])
    def test_equivalence_counts_equal_the_loop(self, delta):
        rng = np.random.default_rng(32)
        for case in range(60):
            sys = SYSTEMS[case % 3]
            dl = float(rng.uniform(0.05, 1.0)) if delta is None else delta
            n_d = int(1.0 / dl - 1.0 + TOL)
            N = int(rng.integers(1, 40))
            x, y = near_pair(rng, sys, -n_d, N - 1 + n_d)
            ok, counts = equivalence_bound_check(x, y, sys, N, dl)
            expected = loop_equivalence_counts(x, y, sys, N, dl)
            assert counts == expected
            assert [type(counts[key]) for key in ("pi_at_delta", "rho_at_delta")] == [int, int]
            assert ok is (
                expected["pi_at_delta"] <= (2 * n_d + 1) * expected["rho_at_delta_prime"]
                and expected["pi_at_delta"] >= expected["rho_at_delta"]
            )
