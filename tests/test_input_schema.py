"""One object check for every JSON object deltachain reads.

Each input below used to run on with a field dropped, or fail with a bare
Python error or at another pointer; each is now a schema error (exit 2) at
the field's JSON pointer, or at the path of a file that cannot be read or
parsed, before any output is written.
"""

import json

import numpy as np
import pytest

from deltachain import cli
from deltachain.builders import random_metric
from deltachain.cli import main
from deltachain.core import FiniteMetricSystem, FiniteTrajectory, _object, load_system, system_from_dict
from deltachain.errors import SchemaError
from deltachain.measures import PeriodicOrbitMeasure
from deltachain.pipeline import config_from_dict, resolve_system
from deltachain.specification import PeriodicChain


@pytest.fixture
def grid15_file(tmp_path):
    path = tmp_path / "sys15.json"
    assert main(["generate", "circle-doubling", "--n", "15", "--out", str(path)]) == 0
    return str(path)


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestObjectCheck:
    FIELDS = {"a": ((int,), False), "b": ((list,), True), "x/y~z": ((str,), False)}

    @pytest.mark.parametrize(
        "data, pointer",
        [
            ([1], "/top"),
            ({"a": 1, "c": 2}, "/top/c"),
            ({"b": []}, "/top/a"),
            ({"a": 1.0}, "/top/a"),
            ({"a": True}, "/top/a"),
            ({"a": None}, "/top/a"),
            ({"a": 1, "b": "x"}, "/top/b"),
            ({"a": 1, "x/y~z": 3}, "/top/x~1y~0z"),  # RFC 6901 escapes
            ({"a": 1, "c~/": 3}, "/top/c~0~1"),
        ],
    )
    def test_rejected_at_pointer(self, data, pointer):
        with pytest.raises(SchemaError) as err:
            _object(data, "/top", self.FIELDS, ("a",))
        assert err.value.pointer == pointer

    def test_accepted_as_given(self):
        data = {"a": 1, "b": None}
        assert _object(data, "", self.FIELDS, ("a",)) is data
        assert _object({}, "", self.FIELDS) == {}


class TestEntryPoints:
    """The inputs that ran on, or failed bare, before the one check."""

    def test_trajectory_with_a_misspelt_origin(self, grid15_file, tmp_path, capsys):
        # ran with origin 0, silently
        x = write(tmp_path / "x.json", {"entries": list(range(15)), "orign": 4})
        y = write(tmp_path / "y.json", {"entries": list(range(15))})
        args = ["besicovitch", "--system", grid15_file, "--horizon", "5", "--x", x, "--y", y]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and "schema error: /orign: unknown field" in err

    def test_trajectory_with_only_entries_has_origin_0(self, grid15_file):
        system = resolve_system(grid15_file)
        traj = cli._load_trajectory({"entries": [3, 4, 5]}, system)
        assert traj == FiniteTrajectory((3, 4, 5), 0) and traj.origin == 0

    def test_trace_spec_segment_with_an_unknown_field(self, grid15_file, tmp_path, capsys):
        # the segment's "bee" was ignored and the run exited 0
        source = {"entries": [0] * 6, "origin": 1}
        segment = {"a": 0, "b": 3, "source": source, "bee": 9}
        spec = write(tmp_path / "spec.json", {"segments": [segment]})
        out = tmp_path / "trace.json"
        args = ["trace-spec", "--system", grid15_file, "--delta", "0.2", "--eps", "0.5"]
        assert main(args + ["--spec", spec, "--emit", str(out)]) == 2
        assert "schema error: /segments/0/bee: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_spec_segment_with_an_empty_interval(self, grid15_file, tmp_path, capsys):
        # was /segment, which names no field of the file
        source = {"entries": [8, 1, 2, 4, 8, 1, 2, 4], "origin": 1}
        segments = [{"a": 0, "b": 3, "source": source}, {"a": 5, "b": 5, "source": source}]
        spec = write(tmp_path / "spec.json", {"segments": segments})
        args = ["trace-spec", "--system", grid15_file, "--delta", "0.2", "--eps", "0.5"]
        assert main(args + ["--spec", spec]) == 2
        assert "schema error: /segments/1/b: need a < b" in capsys.readouterr().err

    def test_trace_spec_file_with_an_unknown_field(self, grid15_file, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", {"segments": [], "extra": 1})
        args = ["trace-spec", "--system", grid15_file, "--delta", "0.2", "--eps", "0.5"]
        assert main(args + ["--spec", spec]) == 2
        assert "schema error: /extra: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, pointer",
        [
            # was /extra: the inline system's errors lacked the /system prefix
            ({"points": ["a"], "metric": {"circle_grid": 1}, "map": [0], "extra": 1}, "/system/extra"),
            ({"points": [], "metric": {"circle_grid": 1}, "map": []}, "/system/points"),
            ({"points": ["a"], "metric": {"circle_grid": 1}, "map": [1]}, "/system/map"),
            ({"points": ["a"], "metric": {"circle_grid": 0}, "map": [0]}, "/system/metric/circle_grid"),
            ({"builtin": "circle-doubling", "n": "x"}, "/system/n"),  # bare TypeError, exit 1
            ({"builtin": "circle-doubling", "m": 3}, "/system/m"),  # bare TypeError, exit 1
            ({"builtin": "circle-doubling"}, "/system/n"),  # bare TypeError, exit 1
            ({"builtin": "circle-doubling", "n": 5, "k": 2}, "/system/k"),  # bare TypeError, exit 1
            ({"builtin": "circle-rotation", "n": 5, "k": 2.5}, "/system/k"),  # was /map
            ({"builtin": "random-metric", "n": 5, "seed": -1}, "/system/seed"),  # bare ValueError
            ({"builtin": "random-metric", "n": 5, "seed": 1.5}, "/system/seed"),
            ({"builtin": "circle-doubling", "n": 0}, "/system/n"),  # was /points
            ({"builtin": "random-metric", "n": 0}, "/system/n"),
            ({"builtin": ["circle-doubling"], "n": 5}, "/system/builtin"),  # bare TypeError
        ],
    )
    def test_config_system(self, tmp_path, capsys, system, pointer):
        out = tmp_path / "out"
        config = write(tmp_path / "cfg.json", {"system": system, "n_max": 2, "period_cap": 2})
        assert main(["analyze", "--config", config, "--out", str(out)]) == 2
        assert f"schema error: {pointer}:" in capsys.readouterr().err
        assert not out.exists()

    def test_builtin_fields_are_the_builder_parameters(self):
        assert resolve_system({"builtin": "circle-rotation", "n": 5, "k": 2}).map_image == (2, 3, 4, 0, 1)
        seeded = resolve_system({"builtin": "random-metric", "n": 5, "seed": 3})
        assert seeded.dist.tolist() == random_metric(5, seed=3).dist.tolist()
        assert seeded.dist.tolist() != random_metric(5).dist.tolist()

    @pytest.mark.parametrize(
        "argv, pointer",
        [
            (["random-metric", "--n", "5", "--seed", "-1"], "/seed"),  # bare ValueError, exit 1
            (["circle-doubling", "--n", "0"], "/n"),  # was /points
            (["random-metric", "--n", "-2"], "/n"),
        ],
    )
    def test_generate(self, tmp_path, capsys, argv, pointer):
        out = tmp_path / "sys.json"
        assert main(["generate", *argv, "--out", str(out)]) == 2
        assert f"schema error: {pointer}:" in capsys.readouterr().err
        assert not out.exists()

    def test_system_file_pointer_has_no_prefix(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            system_from_dict({"points": ["a"], "metric": {"circle_grid": 1}, "map": [0], "x": 1})
        assert err.value.pointer == "/x"
        with pytest.raises(SchemaError) as err:
            system_from_dict({"points": ["a"], "metric": {"ring": 1}, "map": [0]}, "/system")
        assert err.value.pointer == "/system/metric/ring"

    def test_config_target_entry_with_an_unknown_field(self):
        target = [{"word": [0], "weight": 1.0, "label": "fixed point"}]
        with pytest.raises(SchemaError) as err:
            config_from_dict({"system": "sys.json", "target": target})
        assert err.value.pointer == "/target/0/label"


class TestUnreadableFiles:
    """A file that cannot be read or is no JSON used to end in a traceback, exit 1."""

    def test_missing_system_file(self, tmp_path, capsys):
        x = write(tmp_path / "x.json", {"entries": [0, 1]})
        missing = str(tmp_path / "nonexist.json")
        args = ["besicovitch", "--system", missing, "--x", x, "--y", x, "--horizon", "2"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"schema error: {missing}: cannot read: No such file" in err

    def test_truncated_trajectory_file(self, grid15_file, tmp_path, capsys):
        x = tmp_path / "x.json"
        x.write_text('{"entries": [0, 1,')
        args = ["besicovitch", "--system", grid15_file, "--x", str(x), "--y", str(x), "--horizon", "2"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"schema error: {x}: not JSON: " in err
        assert "line 1 column 19 (char 18)" in err

    def test_missing_config_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = str(tmp_path / "cfg.json")
        assert main(["analyze", "--config", missing, "--out", str(out)]) == 2
        assert f"schema error: {missing}: cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000], ids=["no-text", "too-deep"])
    def test_unparsable_system_file(self, tmp_path, content):
        path = tmp_path / "sys.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError) as err:
            load_system(str(path))
        assert err.value.pointer == str(path) and err.value.reason.startswith("not JSON")


class TestPointLabels:
    """Labels are JSON strings: an object, a null or a number used to become its str()."""

    @pytest.mark.parametrize("i, label", [(1, {"x": 1}), (1, None), (2, 3)])
    def test_non_string_label(self, tmp_path, capsys, i, label):
        points = ["a", "b", "c"]
        points[i] = label
        system = {"points": points, "metric": {"circle_grid": 3}, "map": [0, 1, 2]}
        with pytest.raises(SchemaError) as err:
            system_from_dict(system)
        assert err.value.pointer == f"/points/{i}"
        out = tmp_path / "out"
        config = write(tmp_path / "cfg.json", {"system": system, "n_max": 2, "period_cap": 2})
        assert main(["analyze", "--config", config, "--out", str(out)]) == 2
        assert f"schema error: /system/points/{i}: expected str" in capsys.readouterr().err
        assert not out.exists()

    def test_library_labels_are_still_converted(self):
        system = FiniteMetricSystem((1, None), np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 0))
        assert system.labels == ("1", "None")


class TestPointIds:
    """One rule for the ids of trajectories, orbit words and periodic chains."""

    @pytest.mark.parametrize(
        "word", [(1.7, 0.2), (1.7, 2.9), (True, 0), ("1", 0), (-1, 0), (np.bool_(True), 0), ()]
    )
    def test_rejected_at_word(self, word):
        for cls in (PeriodicOrbitMeasure, PeriodicChain):
            with pytest.raises(SchemaError) as err:
                cls(word)
            assert err.value.pointer == "/word"
        with pytest.raises(SchemaError) as err:
            FiniteTrajectory(word)
        assert err.value.pointer == "/entries"

    def test_numpy_integers_become_ints(self):
        for word in ((np.int64(1), np.int32(0)), np.array([1, 0], dtype=np.uint8), [1, 0]):
            assert PeriodicOrbitMeasure(word).word == (0, 1)
            chain = PeriodicChain(word)
            assert chain.word == (1, 0) and all(type(v) is int for v in chain.word)
            assert FiniteTrajectory(word).entries == (1, 0)
