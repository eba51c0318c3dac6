"""The metric check at the trust boundary, against the per-middle-point loop.

``loop_check_metric`` is the triangle check as it was before the Chebyshev
fast accept, with the same tolerances: 1e-9 for a negative or diagonal entry,
1e-9 times ``max(1, d)`` of the entry for an asymmetry or a triangle slack;
``core._check_metric`` must reach the same decision and name the same
witness on every input.
"""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from deltachain import core
from deltachain.builders import circle_doubling, circle_rotation, random_metric
from deltachain.cli import main
from deltachain.core import (
    FiniteMetricSystem,
    _check_metric,
    normalize_metric,
    surjective_core,
    system_from_dict,
)
from deltachain.errors import NotAMetric, SchemaError

TOL = 1e-9


def loop_check_metric(d):
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotAMetric("matrix is not square")
    n = d.shape[0]
    scale = np.clip(d, 1.0, np.finfo(float).max)
    if np.any(d < -TOL):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        raise NotAMetric("negative entry", (int(i), int(j)))
    asym = np.abs(d - d.T) / np.minimum(scale, scale.T)
    if np.max(asym) > TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise NotAMetric("not symmetric", (int(i), int(j)))
    if np.max(np.abs(np.diag(d))) > TOL:
        i = int(np.argmax(np.abs(np.diag(d))))
        raise NotAMetric("nonzero diagonal", (i, i))
    for j in range(n):
        slack = (d - (d[:, j][:, None] + d[j, :][None, :])) / scale
        if np.max(slack) > TOL:
            i, k = np.unravel_index(np.argmax(slack), slack.shape)
            raise NotAMetric("triangle inequality fails", (int(i), j, int(k)))


def outcome(check, d):
    try:
        check(d)
    except NotAMetric as exc:
        return exc.reason, exc.witness
    return None


def euclidean(rng, n):
    pts = rng.random((n, int(rng.integers(1, 4))))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return d


def ultrametric(rng, n):
    """Weight of the first differing bit of random codes: exact ties everywhere."""
    codes = rng.integers(0, 2, size=(n, 6))
    weights = np.sort(rng.random(6))[::-1]
    differ = codes[:, None, :] != codes[None, :, :]
    first = np.where(differ.any(axis=2), differ.argmax(axis=2), 0)
    return np.where(differ.any(axis=2), weights[first], 0.0)


def line_with_planted_slack(rng, n, slack):
    """Collinear points; one outer pair moved apart so its triangles carry ``slack``."""
    x = np.sort(rng.random(n))
    d = np.abs(x[:, None] - x[None, :])
    i, j, k = sorted(rng.choice(n, size=3, replace=False))
    d[i, k] = d[k, i] = d[i, j] + d[j, k] + slack
    return d


def random_matrix(rng, index):
    n = int(rng.integers(3, 41))
    kind = index % 6
    if kind == 0:
        d = euclidean(rng, n)
    elif kind == 1:
        d = core._circle_grid_metric(n)  # exact ties
    elif kind == 2:
        d = ultrametric(rng, n)
    elif kind == 3:
        d = line_with_planted_slack(rng, n, TOL + rng.choice([-1e-12, 1e-12, -5e-10, 5e-10, 0.0]))
    elif kind == 4:
        d = rng.random((n, n))  # mostly not a metric: exercises the witness
        d = np.triu(d, 1) + np.triu(d, 1).T
    else:
        d = euclidean(rng, n)
        a, b = rng.choice(n, size=2, replace=False)
        d[a, b] = d[b, a] = d[a, b] * float(rng.choice([1.5, 3.0]))
    d = d * float(rng.choice([1e-2, 1.0, 1e3, 1e6]))
    if rng.random() < 0.3:  # asymmetry and diagonal within tol
        d = d + rng.uniform(-0.45 * TOL, 0.45 * TOL, size=d.shape)
    return d


class TestAgainstTheLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_decision_and_witness_match(self, seed):
        rng = np.random.default_rng([17, seed])
        for index in range(100):
            d = random_matrix(rng, index)
            assert outcome(_check_metric, d) == outcome(loop_check_metric, d), (seed, index)

    @pytest.mark.parametrize("seed", range(3))
    def test_next_to_a_far_point_and_after_clamping(self, seed):
        # a point 1e12 from all others keeps a metric a metric and must not
        # loosen the check of the other entries; what is accepted stays a
        # metric to an absolute 1e-9 once clamped to 1
        rng = np.random.default_rng([18, seed])
        for index in range(60):
            d = random_matrix(rng, index)
            d = np.pad(d, (0, 1), constant_values=1e12)
            d[-1, -1] = 0.0
            expect = outcome(loop_check_metric, d)
            assert outcome(_check_metric, d) == expect, (seed, index)
            if expect is None:
                assert outcome(loop_check_metric, np.minimum(d, 1.0)) is None, (seed, index)

    def test_far_point_does_not_forgive_a_small_triangle(self):
        # 0.9 > 0.01 + 0.01 among the first three points, all 1e12 from the fourth
        matrix = [[0, 0.01, 0.9, 1e12], [0.01, 0, 0.01, 1e12], [0.9, 0.01, 0, 1e12], [1e12, 1e12, 1e12, 0]]
        expect = ("triangle inequality fails", (0, 1, 2))
        assert outcome(loop_check_metric, matrix) == expect
        assert outcome(_check_metric, matrix) == expect
        assert outcome(normalize_metric, matrix) == expect
        data = {"points": ["a", "b", "c", "d"], "map": [1, 2, 3, 0], "metric": {"matrix": matrix}}
        assert outcome(system_from_dict, data) == expect

    def test_fuzz_reaches_both_verdicts(self):
        rng = np.random.default_rng([17, 0])
        verdicts = [outcome(loop_check_metric, random_matrix(rng, i)) for i in range(100)]
        assert any(v is None for v in verdicts)
        assert any(v is not None and v[0] == "triangle inequality fails" for v in verdicts)

    def test_valid_n600_never_reaches_the_loop(self, monkeypatch):
        d = euclidean(np.random.default_rng(600), 600)

        def fail(*args):
            raise AssertionError("triangle loop reached")

        monkeypatch.setattr(core, "_check_triangles", fail)
        _check_metric(d)
        normalize_metric(d)

    def test_noisy_valid_n300_never_reaches_the_loop(self, monkeypatch):
        # off-diagonal noise of 0.45 tol makes d asymmetric, so both passes run.
        # 3-D points: in 2-D at this n some triples are tight to 1e-9, and the
        # noise makes them true violations
        rng = np.random.default_rng(300)
        pts = rng.random((300, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        noise = rng.uniform(-0.45 * TOL, 0.45 * TOL, size=d.shape)
        np.fill_diagonal(noise, 0.0)
        d = d + noise
        assert not np.array_equal(d, d.T)

        def fail(*args):
            raise AssertionError("triangle loop reached")

        monkeypatch.setattr(core, "_check_triangles", fail)
        _check_metric(d)

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_noise_n300_never_reaches_the_loop(self, monkeypatch, seed):
        # the noise of the test above on every entry, the diagonal too: a
        # negative d[j,j] used to fail the pair {i, j} at column j, and each
        # of these took the loop, about ten times the fast accept's time
        rng = np.random.default_rng([300, seed])
        pts = rng.random((300, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        d = d + rng.uniform(-0.45 * TOL, 0.45 * TOL, size=d.shape)
        assert np.diag(d).min() < 0 < np.diag(d).max()
        assert outcome(loop_check_metric, d) is None
        calls = []
        check_triangles = core._check_triangles
        monkeypatch.setattr(core, "_check_triangles", lambda *a: calls.append(1) or check_triangles(*a))
        _check_metric(d)
        assert calls == []

    def test_diagonal_noise_next_to_coincident_points_matches_the_loop(self):
        # coincident points and entries within tol of 0: the triples through a
        # repeated point, the ones the fast accept's diagonal enters, decide
        rng = np.random.default_rng(19)
        edge = 1e-9 - 16 * np.finfo(float).eps
        verdicts = set()
        for case in range(400):
            n = int(rng.integers(2, 24))
            d = euclidean(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            d[j], d[:, j] = d[i], d[:, i]
            noise = rng.choice([0.0, edge, -edge, 0.45 * TOL, -0.45 * TOL, TOL, -TOL], size=(n, n))
            d = d + noise * (rng.random((n, n)) < 0.5)
            expect = outcome(loop_check_metric, d)
            assert outcome(_check_metric, d) == expect, case
            verdicts.add(None if expect is None else expect[0])
        assert {None, "triangle inequality fails"} <= verdicts

    def test_violation_seen_only_by_the_transposed_pass(self, monkeypatch):
        # 30 lies on the segment from 0 to 20; raising d[20,0] and lowering
        # d[20,30] and d[30,0] by 0.6 tol each (asymmetric within tol) breaks
        # only the ordered triple (20, 30, 0).  Its far point 0 precedes the
        # block of rows 16-31, so the later columns alone never compare the
        # pair {20, 30} at column 0: the one pass over every column finds it.
        pts = np.random.default_rng(40).random((40, 3))
        pts[30] = 0.25 * pts[0] + 0.75 * pts[20]
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        d[20, 0] += 0.6 * TOL
        d[20, 30] -= 0.6 * TOL
        d[30, 0] -= 0.6 * TOL
        passes = []
        rows_within = core._rows_within

        def recording(*args):
            passes.append(rows_within(*args))
            return passes[-1]

        monkeypatch.setattr(core, "_rows_within", recording)
        expect = outcome(loop_check_metric, d)
        assert expect == ("triangle inequality fails", (20, 30, 0))
        assert outcome(_check_metric, d) == expect
        assert passes == [False]
        assert outcome(_check_metric, d.T) == outcome(loop_check_metric, d.T) == (
            "triangle inequality fails", (0, 30, 20))

    def test_degenerate_triple_at_a_block_start(self):
        # points 16 and 17 coincide; d[16,16] - d[16,17] - d[17,16] = 1.5 tol
        # fails though every entry is within tol of a metric.  Only column 16,
        # the first of its block, holds it: the fast accept must read it.
        d = euclidean(np.random.default_rng(3), 20)
        d[17] = d[16]
        d[:, 17] = d[:, 16]
        d[16, 17] = d[17, 16] = -0.5 * TOL
        d[16, 16] = 0.5 * TOL
        d[17, 17] = -0.5 * TOL
        expect = outcome(loop_check_metric, d)
        assert expect == ("triangle inequality fails", (16, 17, 16))
        assert outcome(_check_metric, d) == expect

    def test_planted_violation_n600_names_the_loop_witness(self):
        d = line_with_planted_slack(np.random.default_rng(601), 600, 2 * TOL)
        expect = outcome(loop_check_metric, d)
        assert expect is not None and expect[0] == "triangle inequality fails"
        assert outcome(_check_metric, d) == expect

    def test_rounding_margin_at_large_scale(self):
        # The exact slack c - a - b is within 1e-9, but the loop rounds a + b down
        # and sees it above: against an absolute 1e-9 rounding would set the
        # verdict.  Relative to max|d| = c the tolerance is near 8e-4.
        a = 3 * 2.0**17 + 2.0**-34
        b = 3 * 2.0**17
        c = (a + b) + 9 * 2.0**-33
        assert Fraction(c) - Fraction(a) - Fraction(b) <= Fraction(TOL) < c - (a + b)
        d = np.array([[0.0, a, c], [a, 0.0, b], [c, b, 0.0]])
        assert outcome(loop_check_metric, d) is None
        assert outcome(_check_metric, d) is None
        # a slack of twice the relative tolerance is rejected by both, with one witness
        d[0, 2] = d[2, 0] = (a + b) + 2 * TOL * c
        expect = outcome(loop_check_metric, d)
        assert expect == ("triangle inequality fails", (0, 1, 2))
        assert outcome(_check_metric, d) == expect

    def test_valid_at_scale_1e6_never_reaches_the_loop(self, monkeypatch):
        # at this scale the rounding margin 16 eps max|d| exceeds an absolute 1e-9
        d = euclidean(np.random.default_rng(200), 200) * 1e6

        def fail(*args):
            raise AssertionError("triangle loop reached")

        monkeypatch.setattr(core, "_check_triangles", fail)
        _check_metric(d)

    @pytest.mark.parametrize("slack", [1.8e-9, 2.2e-9])
    def test_near_tight_triple_same_verdict_at_scales_1_and_1e6(self, slack):
        # sides 1, 1 and 2 + slack: tol is 1e-9 * (2 + slack) at scale 1
        d = np.array([[0.0, 1.0, 2.0 + slack], [1.0, 0.0, 1.0], [2.0 + slack, 1.0, 0.0]])
        expect = None if slack < 2e-9 else ("triangle inequality fails", (0, 1, 2))
        for scale in (1.0, 1e6):
            assert outcome(loop_check_metric, d * scale) == expect
            assert outcome(_check_metric, d * scale) == expect

    def test_asymmetry_within_tol_uses_the_smaller_entry(self):
        # Collinear 0, 1/4, 1/2 with both lower-triangle entries lowered by
        # 0.6 tol: the upper triangle alone is tight, the loop sees 1.2 tol.
        d = np.array([[0.0, 0.25, 0.5], [0.25, 0.0, 0.25], [0.5, 0.25, 0.0]])
        d[1, 0] -= 0.6 * TOL
        d[2, 1] -= 0.6 * TOL
        expect = outcome(loop_check_metric, d)
        assert expect == ("triangle inequality fails", (2, 1, 0))
        assert outcome(_check_metric, d) == expect

    def test_valid_at_large_scale_is_accepted(self):
        d = euclidean(np.random.default_rng(5), 30) * 1e6
        assert outcome(loop_check_metric, d) is None
        assert outcome(_check_metric, d) is None


NAN3 = np.array([[0.0, 0.5, np.nan], [0.5, 0.0, 0.5], [np.nan, 0.5, 0.0]])


class TestNotANumber:
    def test_normalize_metric(self):
        with pytest.raises(NotAMetric) as err:
            normalize_metric(NAN3)
        assert (err.value.reason, err.value.witness) == ("entry is not a number", (0, 2))

    def test_finite_metric_system(self):
        with pytest.raises(NotAMetric) as err:
            FiniteMetricSystem(("a", "b", "c"), NAN3, (0, 1, 2))
        assert err.value.reason == "entry is not a number"

    def test_checked_before_the_other_entry_checks(self):
        d = NAN3.copy()
        d[1, 2] = -1.0  # also negative and asymmetric
        with pytest.raises(NotAMetric, match="not a number"):
            normalize_metric(d)

    def test_json_nan_literal(self):
        text = '{"points": ["a", "b", "c"], "map": [0, 1, 2],' \
            ' "metric": {"matrix": [[0, 0.5, NaN], [0.5, 0, 0.5], [NaN, 0.5, 0]]}}'
        with pytest.raises(NotAMetric, match="not a number"):
            system_from_dict(json.loads(text))

    def test_cli_distances_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "nan.json"
        spec.write_text(
            '{"points": ["a", "b", "c"], "map": [1, 2, 0],'
            ' "metric": {"matrix": [[0, 0.5, NaN], [0.5, 0, 0.5], [NaN, 0.5, 0]]}}'
        )
        out = tmp_path / "d.csv"
        assert main(["distances", "--system", str(spec), "--delta", "0.6", "--out", str(out)]) == 1
        assert "not a number" in capsys.readouterr().err

    def test_infinity_still_clamps_to_one(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with np.errstate(invalid="ignore"):
            assert normalize_metric(d).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def spec(**metric):
    return {"points": ["a", "b", "c"], "map": [1, 2, 0], "metric": metric}


class TestSystemSpecPointers:
    @pytest.mark.parametrize(
        "data, pointer",
        [
            (spec(matrix=[[0, 0.5, 0.5], [0.5, 0], [0.5, 0.5, 0]]), "/metric/matrix"),
            (spec(matrix=[[0, 0.5, "x"], [0.5, 0, 0.5], ["x", 0.5, 0]]), "/metric/matrix"),
            (spec(matrix=[[0, True, 1], [True, 0, 1], [1, 1, 0]]), "/metric/matrix"),
            (spec(matrix=[0, 1, 2]), "/metric/matrix"),
            (spec(matrix="0 1"), "/metric/matrix"),
            (spec(circle_grid=0), "/metric/circle_grid"),
            (spec(circle_grid=3.0), "/metric/circle_grid"),
            (spec(circle_grid=True), "/metric/circle_grid"),
            (spec(line_grid=0), "/metric/line_grid"),
            (spec(line_grid="3"), "/metric/line_grid"),
            ({"points": [], "map": [], "metric": {"circle_grid": 3}}, "/points"),
            ({"points": "abc", "map": [1, 2, 0], "metric": {"circle_grid": 3}}, "/points"),
            ({"points": ["a", "b", "c"], "map": [1, "x", 0], "metric": {"circle_grid": 3}}, "/map"),
        ],
    )
    def test_rejected_at_pointer(self, data, pointer):
        with pytest.raises(SchemaError) as err:
            system_from_dict(data)
        assert err.value.pointer == pointer

    def test_grids_of_one_point(self):
        for kind in ("circle_grid", "line_grid"):
            system, _ = system_from_dict({"points": ["a"], "map": [0], "metric": {kind: 1}})
            assert system.dist.tolist() == [[0.0]]

    def test_empty_system_constructed_directly(self):
        with pytest.raises(SchemaError) as err:
            FiniteMetricSystem((), np.zeros((0, 0)), ())
        assert err.value.pointer == "/points"

    def test_cli_distances_ragged_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(spec(matrix=[[0, 0.5, 0.5], [0.5, 0], [0.5, 0.5, 0]])))
        assert main(["distances", "--system", str(path), "--delta", "0.6"]) == 2
        assert "/metric/matrix" in capsys.readouterr().err


@pytest.fixture
def check_calls(monkeypatch):
    calls = []
    real = core._check_metric

    def counting(d):
        calls.append(np.shape(d))
        return real(d)

    monkeypatch.setattr(core, "_check_metric", counting)
    return calls


class TestDerivedSystemsAreNotRechecked:
    def test_surjective_core(self, check_calls):
        parent = circle_doubling(12)
        check_calls.clear()
        core_ids, sub = surjective_core(parent)
        assert check_calls == []
        assert np.array_equal(sub.dist, parent.dist[np.ix_(core_ids, core_ids)])
        assert not np.shares_memory(sub.dist, parent.dist)

    def test_builders(self, check_calls):
        circle_doubling(9)
        circle_rotation(9, 4)
        assert check_calls == []
        random_metric(9, seed=3)
        assert check_calls == [(9, 9)]

    def test_system_from_dict_checks_the_input_once(self, check_calls):
        system, clamped = system_from_dict(spec(matrix=[[0, 2, 2], [2, 0, 2], [2, 2, 0]]))
        assert check_calls == [(3, 3)]
        assert clamped and system.dist.max() == 1.0

    def test_direct_construction_is_still_checked(self, check_calls):
        FiniteMetricSystem(("a", "b"), 1.0 - np.eye(2), (1, 0))
        assert check_calls == [(2, 2)]
        with pytest.raises(NotAMetric, match="triangle"):
            FiniteMetricSystem(("a", "b", "c"), np.array([[0, 1, 0.1], [1, 0, 0.1], [0.1, 0.1, 0]]), (0, 1, 2))
        with pytest.raises(NotAMetric, match="exceeds 1"):
            FiniteMetricSystem(("a", "b"), 2.0 * (1.0 - np.eye(2)), (1, 0))

    def test_dist_is_a_read_only_copy(self):
        raw = np.array([[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
        system, _ = system_from_dict(dict(spec(matrix=raw.tolist()), map=[1, 0, 0]))
        sub = surjective_core(system)[1]
        for s in (system, sub, circle_doubling(4), random_metric(4)):
            assert not s.dist.flags.writeable
        assert not np.shares_memory(sub.dist, system.dist)

    def test_labels_and_map_still_checked(self):
        with pytest.raises(SchemaError) as err:
            system_from_dict({"points": ["a", "b"], "map": [1, 0], "metric": {"circle_grid": 3}})
        assert err.value.pointer == "/points"
        with pytest.raises(SchemaError) as err:
            system_from_dict({"points": ["a", "b", "c"], "map": [1, 0, 3], "metric": {"circle_grid": 3}})
        assert err.value.pointer == "/map"


class TestCheckedOnce:
    def test_normalized_matrix_is_adopted_unchecked(self, check_calls):
        raw = euclidean(np.random.default_rng(2), 12) * 3
        dist = normalize_metric(raw)
        system = FiniteMetricSystem(tuple("abcdefghijkl"), dist, tuple(range(12)))
        assert check_calls == [(12, 12)]
        assert system.dist is dist
        assert np.array_equal(dist, np.minimum(raw, 1.0))

    def test_equal_but_other_arrays_are_checked(self, check_calls):
        dist = normalize_metric(1.0 - np.eye(3))
        for other in (np.array(dist), dist[:], dist.copy(), dist.tolist()):
            FiniteMetricSystem(("a", "b", "c"), other, (1, 2, 0))
        assert check_calls == [(3, 3)] * 5

    def test_a_checked_system_dist_is_reused_unchecked(self, check_calls):
        system = FiniteMetricSystem(("a", "b"), 1.0 - np.eye(2), (1, 0))
        again = FiniteMetricSystem(("c", "d"), system.dist, (0, 1))
        assert check_calls == [(2, 2)]
        assert again.dist is system.dist

    def test_frozen_arrays_cannot_be_made_writable(self):
        raw = np.array([[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
        system, _ = system_from_dict(dict(spec(matrix=raw.tolist()), map=[1, 0, 0]))
        systems = (system, surjective_core(system)[1], circle_doubling(4), circle_rotation(4), random_metric(4))
        for s in systems:
            for array in (s.dist, s.dist.base):
                with pytest.raises(ValueError):
                    array.setflags(write=True)
        with pytest.raises(ValueError):
            normalize_metric(raw).setflags(write=True)

    def test_registry_forgets_dead_arrays(self):
        dist = normalize_metric(1.0 - np.eye(2))
        key = id(dist)
        assert core._VALID.get(key) is dist
        del dist
        assert core._VALID.get(key) is None


class TestMapEntries:
    @pytest.mark.parametrize("image", [(1.7, 0.2), (1.0, 0.0), (True, False), ("1", "0"), (np.bool_(True), 0)])
    def test_non_integer_entries_are_rejected(self, image):
        with pytest.raises(SchemaError) as err:
            FiniteMetricSystem(("a", "b"), 1.0 - np.eye(2), image)
        assert err.value.pointer == "/map"

    def test_numpy_integers_are_accepted(self):
        for image in ((np.int64(1), np.int32(0)), np.array([1, 0]), np.array([1, 0], dtype=np.uint8)):
            system = FiniteMetricSystem(("a", "b"), 1.0 - np.eye(2), image)
            assert system.map_image == (1, 0) and all(type(v) is int for v in system.map_image)


INF = np.inf


class TestInfiniteEntries:
    def test_two_points_at_infinity_normalize_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_metric(np.array([[0.0, INF], [INF, 0.0]])).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_infinite_third_side_is_rejected_with_the_loop_witness(self):
        d = np.array([[0.0, 1.0, INF], [1.0, 0.0, 1.0], [INF, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            expect = outcome(loop_check_metric, d)
        assert expect == ("triangle inequality fails", (0, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(_check_metric, d) == expect
            assert outcome(normalize_metric, d) == expect

    def test_violation_next_to_an_infinite_pair_is_found(self):
        # at middle point 1, inf - (inf + 0.1) is NaN; a NaN maximum used to hide 0.5 > 0.1 + 0.1
        d = np.array([[0, INF, INF, INF], [INF, 0, 0.1, 0.1], [INF, 0.1, 0, 0.5], [INF, 0.1, 0.5, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(_check_metric, d) == ("triangle inequality fails", (2, 1, 3))

    def test_asymmetry_next_to_an_infinite_pair_is_found(self):
        d = np.array([[0, INF, INF], [INF, 0, 0.5], [INF, 0.4, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(_check_metric, d) == ("not symmetric", (1, 2))
