import json

import numpy as np
import pytest

from deltachain.builders import circle_doubling, random_metric
from deltachain.chain import build_chain_graph, mixing_certificate
from deltachain.core import (
    FiniteMetricSystem,
    FiniteTrajectory,
    _windows_within,
    normalize_metric,
    pi_distance,
    surjective_core,
    system_from_dict,
)
from deltachain.errors import InsufficientWindow, NotAMetric, SchemaError
from deltachain.specification import spacing_constant


def two_point_system():
    return FiniteMetricSystem(("u", "v"), 1.0 - np.eye(2), (1, 0))


class TestNormalizeMetric:
    def test_clamps_above_one(self):
        raw = np.array([[0.0, 2.5], [2.5, 0.0]])
        assert normalize_metric(raw)[0, 1] == 1.0

    def test_identity_below_one(self):
        raw = np.array([[0.0, 0.3], [0.3, 0.0]])
        assert normalize_metric(raw)[0, 1] == 0.3

    def test_three_point_line(self):
        # points 0, 0.7, 1.6 with absolute-value distances
        pts = [0.0, 0.7, 1.6]
        raw = np.abs(np.subtract.outer(pts, pts))
        out = normalize_metric(raw)
        assert out[0, 1] == pytest.approx(0.7)
        assert out[1, 2] == pytest.approx(0.9)
        assert out[0, 2] == 1.0
        # triangle inequality survives the clamp (direct check)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert out[i, k] <= out[i, j] + out[j, k] + 1e-12

    def test_idempotent(self):
        raw = np.abs(np.subtract.outer([0.0, 0.7, 1.6], [0.0, 0.7, 1.6]))
        once = normalize_metric(raw)
        assert np.array_equal(normalize_metric(once), once)

    def test_rejects_asymmetry(self):
        raw = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(NotAMetric):
            normalize_metric(raw)

    def test_rejects_triangle_violation(self):
        raw = np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
        with pytest.raises(NotAMetric) as err:
            normalize_metric(raw)
        assert err.value.witness is not None


class TestPiDistance:
    def test_equal_windows_report_tail_bound(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0, 1, 2, 0, 0, 0, 0], origin=3)
        value, exact = pi_distance(sys, x, x, 3)
        assert value == pytest.approx(1.0 / 5)
        assert not exact

    def test_single_midweight_difference(self):
        # equal except rho(x_2, y_2) = 0.4; sup attained by the 1/3 cap
        sys = circle_doubling(10)  # distances in multiples of 1/10
        x = FiniteTrajectory([0, 0, 0, 0, 0, 0, 0], origin=3)
        y = FiniteTrajectory([0, 0, 0, 0, 0, 4, 0], origin=3)
        assert sys.rho(0, 4) == pytest.approx(0.4)
        value, exact = pi_distance(sys, x, y, 3)
        assert value == pytest.approx(1.0 / 3)
        assert exact

    def test_center_difference_dominates(self):
        sys = two_point_system()
        x = FiniteTrajectory([0, 0, 0, 0, 0, 0, 0], origin=3)
        y = FiniteTrajectory([0, 0, 0, 1, 0, 0, 0], origin=3)
        value, exact = pi_distance(sys, x, y, 3)
        assert value == 1.0
        assert exact

    def test_insufficient_window(self):
        sys = two_point_system()
        x = FiniteTrajectory([0, 0, 0], origin=1)
        with pytest.raises(InsufficientWindow):
            pi_distance(sys, x, x, 3)

    def test_symmetry(self):
        sys = circle_doubling(8)
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = FiniteTrajectory(rng.integers(0, 8, 9).tolist(), origin=4)
            b = FiniteTrajectory(rng.integers(0, 8, 9).tolist(), origin=4)
            assert pi_distance(sys, a, b, 4) == pi_distance(sys, b, a, 4)

    def test_triangle_inequality_when_exact(self):
        sys = circle_doubling(8)
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = [
                FiniteTrajectory(rng.integers(0, 8, 7).tolist(), origin=3)
                for _ in range(3)
            ]
            vals = [
                pi_distance(sys, t[i], t[j], 3)
                for i, j in ((0, 1), (1, 2), (0, 2))
            ]
            if all(exact for _, exact in vals):
                assert vals[2][0] <= vals[0][0] + vals[1][0] + 1e-12


class TestTrajectoryInput:
    @pytest.mark.parametrize("entries", [[-1, 2], [0, 2.7], [0, 2.0], [True, 1], ["1"]])
    def test_entries_must_be_point_ids(self, entries):
        with pytest.raises(SchemaError) as err:
            FiniteTrajectory(entries)
        assert err.value.pointer == "/entries"

    @pytest.mark.parametrize("origin", [1.5, 1.0, True, "1", None])
    def test_origin_must_be_an_integer(self, origin):
        with pytest.raises(SchemaError) as err:
            FiniteTrajectory([0, 1], origin)
        assert err.value.pointer == "/origin"

    def test_numpy_integers_are_accepted(self):
        x = FiniteTrajectory(np.array([3, 0, 2]), np.int64(1))
        assert x.entries == (3, 0, 2) and x.at(0) == 0
        assert {type(v) for v in x.entries} == {int}


def window_check(sys, eps, x, y):
    """The window test at shift 0: rho(x_k, y_k) < eps at every |k| + 1 <= max(1, 1/eps)."""
    return bool(_windows_within(sys, eps, x, y, 0, 0)[0])


class TestWindowCheck:
    def test_window_size_matches_condition(self):
        # eps = 1/2 checks k in {-1, 0, 1}: coverage of exactly that must do
        sys = two_point_system()
        x = FiniteTrajectory([0, 0, 0], origin=1)
        assert window_check(sys, 0.5, x, x)
        with pytest.raises(InsufficientWindow):
            window_check(sys, 1.0 / 3, x, x)
        # the first trajectory covers k in {-2, ..., 2}: only the second is short
        wide = FiniteTrajectory([0] * 5, origin=2)
        assert window_check(sys, 1.0 / 3, wide, wide)
        with pytest.raises(InsufficientWindow):
            window_check(sys, 1.0 / 3, wide, x)

    def test_equal_passes(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0, 1, 2, 0, 1], origin=2)
        assert window_check(sys, 0.5, x, x)

    def test_boundary_coordinate_counts(self):
        # eps = 1/3 includes |k| = 2; a 0.5 mismatch there must fail
        sys = circle_doubling(4)
        x = FiniteTrajectory([0, 0, 0, 0, 0], origin=2)
        y = FiniteTrajectory([0, 0, 0, 0, 2], origin=2)
        assert sys.rho(0, 2) == pytest.approx(0.5)
        assert not window_check(sys, 1.0 / 3, x, y)

    def test_certifies_pi_distance(self):
        # cross-op consistency: window_check true + exact pi => pi < eps
        sys = circle_doubling(8)
        rng = np.random.default_rng(11)
        eps = 0.5
        for _ in range(200):
            x = FiniteTrajectory(rng.integers(0, 8, 11).tolist(), origin=5)
            y = FiniteTrajectory(rng.integers(0, 8, 11).tolist(), origin=5)
            if window_check(sys, eps, x, y):
                value, exact = pi_distance(sys, x, y, 5)
                if exact:
                    assert value < eps

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5, float("nan"), 1e-320])
    def test_eps_outside_unit_interval(self, eps):
        # eps is checked where it enters: the gluing's spacing constant
        cert = mixing_certificate(build_chain_graph(circle_doubling(4), 0.5))
        with pytest.raises(SchemaError) as err:
            spacing_constant(eps, cert)
        assert err.value.pointer == "/eps"

    def test_eps_one_is_the_centre_coordinate(self):
        sys = circle_doubling(4)
        x = FiniteTrajectory([0, 0, 0], origin=1)
        assert window_check(sys, 1.0, x, FiniteTrajectory([2, 0, 2], origin=1))
        assert not window_check(sys, 0.5, x, FiniteTrajectory([0, 2, 0], origin=1))


class TestSurjectiveCore:
    def test_bijective_map_keeps_everything(self):
        sys = circle_doubling(15)  # doubling is a permutation mod odd n
        core, restricted = surjective_core(sys)
        assert core == list(range(15))
        assert restricted.n == 15

    def test_doubling_grid_four_collapses(self):
        # image sets iterate {0,1/2} -> {0} -> {0}
        sys = circle_doubling(4)
        core, restricted = surjective_core(sys)
        assert core == [0]
        assert restricted.map_image == (0,)

    def test_two_cycle_with_tails(self):
        dist = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) / 4.0
        sys = FiniteMetricSystem(("a", "b", "c", "d"), dist, (1, 0, 0, 2))
        core, restricted = surjective_core(sys)
        assert core == [0, 1]
        # restricted map is a permutation of the core
        assert sorted(restricted.map_image) == [0, 1]

    def test_core_forward_invariant(self):
        for seed in range(8):
            sys = random_metric(7, seed=seed)
            core, restricted = surjective_core(sys)
            assert all(sys.map_image[u] in core for u in core)
            assert sorted(restricted.map_image) == list(range(len(core)))


class TestSystemFiles:
    def test_loader_applies_normalization(self):
        data = {
            "points": ["a", "b"],
            "metric": {"matrix": [[0.0, 3.0], [3.0, 0.0]]},
            "map": [1, 0],
        }
        sys, clamped = system_from_dict(data)
        assert clamped
        assert sys.rho(0, 1) == 1.0

    def test_circle_grid_shortcut(self):
        data = {"points": ["0", "1", "2", "3"], "metric": {"circle_grid": 4}, "map": [0, 2, 0, 2]}
        sys, clamped = system_from_dict(data)
        assert not clamped
        assert sys.rho(0, 1) == pytest.approx(0.25)

    def test_line_grid_shortcut(self):
        data = {"points": ["0", "1", "2"], "metric": {"line_grid": 3}, "map": [0, 2, 1]}
        sys, clamped = system_from_dict(data)
        assert not clamped
        assert sys.dist.tolist() == [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]

    def test_unknown_field_rejected(self):
        from deltachain.errors import SchemaError

        with pytest.raises(SchemaError):
            system_from_dict({"points": [], "metric": {"circle_grid": 2}, "map": [], "bogus": 1})

    def test_round_trip(self, tmp_path):
        from deltachain.core import load_system, system_to_dict

        sys = circle_doubling(4)
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_to_dict(sys)))
        loaded, clamped = load_system(path)
        assert not clamped
        assert loaded.map_image == sys.map_image
        assert np.allclose(loaded.dist, sys.dist)
