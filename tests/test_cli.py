import json
import time

import pytest

from deltachain import cli
from deltachain.chain import build_chain_graph
from deltachain.cli import main
from deltachain.core import FiniteTrajectory, load_system
from deltachain.measures import ergodic_measures_of_graph, pi_bar_periodic, rho_bar_matrices
from deltachain.shadowing import besicovitch_pi, hat_rho


@pytest.fixture
def grid4_file(tmp_path):
    path = tmp_path / "sys.json"
    assert main(["generate", "circle-doubling", "--n", "4", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def grid15_file(tmp_path):
    path = tmp_path / "sys15.json"
    assert main(["generate", "circle-doubling", "--n", "15", "--out", str(path)]) == 0
    return str(path)


class TestGenerate:
    def test_writes_loadable_system(self, grid4_file):
        data = json.loads(open(grid4_file).read())
        assert len(data["points"]) == 4
        assert data["map"] == [0, 2, 0, 2]

    def test_rotation_takes_k(self, tmp_path):
        path = tmp_path / "rot.json"
        assert main(
            ["generate", "circle-rotation", "--n", "5", "--k", "2", "--out", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert data["map"] == [2, 3, 4, 0, 1]


class TestChainGraph:
    def test_adjacency_output(self, grid4_file, tmp_path, capsys):
        out = tmp_path / "adj.txt"
        code = main(
            ["chain-graph", "--system", grid4_file, "--delta", "0.25", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "0: 0 1 3"

    def test_dot_output(self, grid4_file, capsys):
        code = main(["chain-graph", "--system", grid4_file, "--delta", "0.25", "--emit", "dot"])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestBesicovitch:
    def test_rho_variant(self, grid4_file, tmp_path, capsys):
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        x.write_text(json.dumps({"entries": [0, 0, 0, 0], "origin": 0}))
        y.write_text(json.dumps({"entries": [0, 2, 0, 2], "origin": 0}))
        code = main(
            [
                "besicovitch",
                "--system", grid4_file,
                "--x", str(x),
                "--y", str(y),
                "--variant", "rho",
                "--horizon", "4",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.25)

    @pytest.mark.parametrize("variant", ["pi", "hat"])
    def test_pi_and_hat_variants_match_the_library(self, grid4_file, tmp_path, capsys, variant):
        entries = {"x": [0, 1, 2, 3, 0, 1, 2, 3], "y": [0, 2, 0, 2, 1, 2, 0, 2]}
        args = ["besicovitch", "--system", grid4_file, "--variant", variant, "--horizon", "4"]
        for name, ids in entries.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({"entries": ids, "origin": 2}))
            args += [f"--{name}", str(tmp_path / f"{name}.json")]
        assert main(args + ["--radius", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        system, _ = load_system(grid4_file)
        x, y = (FiniteTrajectory(ids, origin=2) for ids in entries.values())
        est = besicovitch_pi(x, y, system, 4, 2) if variant == "pi" else hat_rho(x, y, system, 4)
        assert doc == {
            "variant": est.variant, "value": est.value, "horizon": 4, "error_bar": est.error_bar
        }

    def test_window_error_exit_code(self, grid4_file, tmp_path, capsys):
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"entries": [0, 0], "origin": 0}))
        code = main(
            [
                "besicovitch",
                "--system", grid4_file,
                "--x", str(x),
                "--y", str(x),
                "--variant", "rho",
                "--horizon", "10",
            ]
        )
        assert code == 1


class TestTraceSpec:
    def test_round_trip(self, grid4_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "segments": [
                        {
                            "a": 0,
                            "b": 3,
                            "source": {"entries": [0, 0, 0, 0, 0, 0], "origin": 1},
                        }
                    ]
                }
            )
        )
        code = main(
            [
                "trace-spec",
                "--system", grid4_file,
                "--delta", "0.25",
                "--eps", "0.5",
                "--spec", str(spec),
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"]
        assert doc["period"] == len(doc["word"])

    def test_not_mixing_exit_code(self, tmp_path, capsys):
        sysfile = tmp_path / "frozen.json"
        sysfile.write_text(
            json.dumps(
                {
                    "points": ["a", "b"],
                    "metric": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
                    "map": [0, 1],
                }
            )
        )
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "segments": [
                        {"a": 0, "b": 2, "source": {"entries": [0, 0, 0, 0], "origin": 1}}
                    ]
                }
            )
        )
        code = main(
            [
                "trace-spec",
                "--system", str(sysfile),
                "--delta", "0.1",
                "--eps", "0.5",
                "--spec", str(spec),
            ]
        )
        assert code == 3


class TestDistances:
    def test_csv_table(self, grid4_file, tmp_path):
        out = tmp_path / "d.csv"
        code = main(
            [
                "distances",
                "--system", grid4_file,
                "--delta", "0.25",
                "--period-cap", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "i,j,rho_bar,pi_bar"
        # three fixed points -> three unordered pairs
        assert len(lines) == 4

    def test_rows_equal_the_pairwise_loop(self, grid15_file, tmp_path):
        # the per-pair singleton calls that wrote the table before the batched rows
        out = tmp_path / "d.csv"
        args = ["distances", "--system", grid15_file, "--delta", "0.2", "--period-cap", "3"]
        assert main(args + ["--radius", "5", "--out", str(out)]) == 0
        system, _ = load_system(grid15_file)
        orbits, _ = ergodic_measures_of_graph(build_chain_graph(system, 0.2), 3)
        expected = ["i,j,rho_bar,pi_bar"]
        for i, a in enumerate(orbits):
            for j in range(i + 1, len(orbits)):
                rho_val = float(rho_bar_matrices([a], [orbits[j]], system.dist)[0][0, 0])
                pi_val, _, _ = pi_bar_periodic(a, orbits[j], system, 5)
                expected.append(f"{i},{j},{rho_val!r},{pi_val!r}")
        assert len(orbits) > 20
        assert out.read_bytes().decode().split("\r\n") == expected + [""]

    @pytest.mark.parametrize("pairs", [1, 7, 100])
    def test_row_blocks_give_the_same_table(self, grid15_file, tmp_path, monkeypatch, pairs):
        # 1 pair per block is one row per call; 7 and 100 put block edges mid-table
        args = ["distances", "--system", grid15_file, "--delta", "0.2", "--period-cap", "3"]
        assert main(args + ["--out", str(tmp_path / "one.csv")]) == 0
        monkeypatch.setattr(cli, "_DISTANCE_PAIRS", pairs)
        assert main(args + ["--out", str(tmp_path / "blocks.csv")]) == 0
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_truncation_comment_on_stderr(self, grid15_file, tmp_path, capsys):
        out = tmp_path / "d.csv"
        args = ["distances", "--system", grid15_file, "--delta", "0.2", "--period-cap", "3"]
        assert main(args + ["--cap", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "# ergodic enumeration truncated at cap 2\n"
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,1,")  # the two kept orbits
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_pair_cap_exits_before_any_output(self, tmp_path, capsys, monkeypatch):
        # at the defaults, 10,000 orbits: 5e7 pairs, minutes of kernel work and GBs of CSV
        path = tmp_path / "sys31.json"
        assert main(["generate", "circle-doubling", "--n", "31", "--out", str(path)]) == 0
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "pi_bar_matrices", lambda *args: calls.append(args))
        started = time.perf_counter()
        assert main(["distances", "--system", str(path), "--delta", "0.2"]) == 1
        assert time.perf_counter() - started < 10.0
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert err == (
            "error: 10000 orbits give 49995000 pairs, over the cap of 1000000; "
            "lower --cap or --period-cap\n"
        )
        csv_path = tmp_path / "d.csv"
        args = ["distances", "--system", str(path), "--delta", "0.2", "--out", str(csv_path)]
        assert main(args) == 1 and not csv_path.exists()

    def test_pair_cap_is_inclusive(self, grid15_file, tmp_path, monkeypatch):
        args = ["distances", "--system", grid15_file, "--delta", "0.2", "--period-cap", "3"]
        assert main(args + ["--cap", "5", "--out", str(tmp_path / "d.csv")]) == 0
        monkeypatch.setattr(cli, "_MAX_PAIRS", 10)  # 5 orbits: exactly 10 pairs
        assert main(args + ["--cap", "5", "--out", str(tmp_path / "at.csv")]) == 0
        assert (tmp_path / "at.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
        assert main(args + ["--cap", "6", "--out", str(tmp_path / "over.csv")]) == 1
        assert not (tmp_path / "over.csv").exists()


class TestAnalyze:
    def test_full_run_and_schema_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "system": {"builtin": "circle-doubling", "n": 15},
                    "n_max": 2,
                    "period_cap": 2,
                    "pi_radius": 6,
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"system": {"builtin": "circle-doubling", "n": 15}, "zz": 1}))
        assert main(["analyze", "--config", str(bad)]) == 2

    def test_density_demo_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "system": {"builtin": "circle-doubling", "n": 15},
                    "n_max": 5,
                    "period_cap": 2,
                    "target": [
                        {"word": [0], "weight": 0.5},
                        {"word": [5, 10], "weight": 0.5},
                    ],
                    "block_scales": [8, 16],
                }
            )
        )
        code = main(["density-demo", "--config", str(cfg), "--level", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["level"] == 5
        assert len(doc["rows"]) == 2


class TestParserOncePerProcess:
    def test_other_commands_leave_analyze_unchanged(self, grid15_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        target = [{"word": [0], "weight": 0.5}, {"word": [5, 10], "weight": 0.5}]
        cfg.write_text(json.dumps({"system": {"builtin": "circle-doubling", "n": 15}, "n_max": 3,
                                   "period_cap": 2, "target": target, "block_scales": [8, 16]}))

        names = ["density.csv", "distances.csv", "plot_data.json", "report.json"]

        def analyze(out):
            """The lines of each file written, but the report's ``generated_at``."""
            assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
            assert sorted(path.name for path in out.iterdir()) == names
            lines = [(out / name).read_text().splitlines() for name in names]
            return [[x for x in text if '"generated_at"' not in x] for text in lines]

        cli.build_parser.cache_clear()  # the next call builds the parser, as in a new process
        separate = analyze(tmp_path / "separate")
        system = ["--system", grid15_file, "--delta", "0.2"]
        assert main(["chain-graph", *system, "--emit", "dot"]) == 0
        assert main(["distances", *system, "--period-cap", "2"]) == 0
        assert analyze(tmp_path / "after") == separate
        assert cli.build_parser.cache_info().misses == 1


class TestInputValidation:
    """Each malformed input is a schema error (exit 2) where it enters."""

    @pytest.mark.parametrize(
        "x, pointer",
        [
            ({"entries": [-1, 2]}, "/entries"),
            ({"entries": [0, 2.7]}, "/entries"),
            ({"entries": [0, True]}, "/entries"),
            ({"entries": [0, 99]}, "/entries"),
            ({"entries": "0 1"}, "/entries"),
            ({"origin": 0}, "/entries"),
            ({"entries": [0, 1], "origin": 0.5}, "/origin"),
        ],
    )
    def test_besicovitch_trajectories(self, grid15_file, tmp_path, capsys, x, pointer):
        (tmp_path / "x.json").write_text(json.dumps(x))
        (tmp_path / "y.json").write_text(json.dumps({"entries": [0, 1]}))
        args = ["besicovitch", "--system", grid15_file, "--horizon", "2"]
        assert main(args + ["--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json")]) == 2
        assert f"schema error: {pointer}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "segment, pointer",
        [
            ({"a": 0, "b": 3, "source": {"entries": [0] * 5 + [15], "origin": 1}},
             "/segments/0/source/entries"),
            ({"a": 0, "b": 3, "source": {"entries": [0] * 6, "origin": "1"}},
             "/segments/0/source/origin"),
            ({"a": 0, "source": {"entries": [0] * 6, "origin": 1}}, "/segments/0/b"),
            ({"a": 0.0, "b": 3, "source": {"entries": [0] * 6, "origin": 1}}, "/segments/0/a"),
            ({"a": 0, "b": 3}, "/segments/0/source"),
        ],
    )
    def test_trace_spec_segments(self, grid15_file, tmp_path, capsys, segment, pointer):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"segments": [segment]}))
        args = ["trace-spec", "--system", grid15_file, "--delta", "0.2", "--eps", "0.5"]
        assert main(args + ["--spec", str(spec)]) == 2
        assert f"schema error: {pointer}:" in capsys.readouterr().err

    def test_trace_spec_without_segments(self, grid15_file, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"segment": []}))
        args = ["trace-spec", "--system", grid15_file, "--delta", "0.2", "--eps", "0.5"]
        assert main(args + ["--spec", str(spec)]) == 2

    @pytest.mark.parametrize("delta", ["1.5", "-0.1", "nan", "x"])
    def test_delta_outside_the_unit_interval(self, grid15_file, delta):
        with pytest.raises(SystemExit) as exit_:
            main(["chain-graph", "--system", grid15_file, "--delta", delta])
        assert exit_.value.code == 2

    @pytest.mark.parametrize("flag", ["--radius", "--cap"])
    def test_distances_negative_radius_or_cap(self, grid15_file, tmp_path, capsys, flag):
        out = tmp_path / "dist.csv"
        args = ["distances", "--system", grid15_file, "--delta", "0.2", "--period-cap", "2"]
        assert main(args + [flag, "-1", "--out", str(out)]) == 2
        assert f"schema error: /{flag[2:]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["rho", "pi", "hat"])
    def test_besicovitch_negative_radius(self, grid15_file, tmp_path, capsys, variant):
        # exit 1 after loading every file under pi; ignored under rho and hat
        (tmp_path / "x.json").write_text(json.dumps({"entries": [0, 1, 2, 3]}))
        args = ["besicovitch", "--system", grid15_file, "--horizon", "2", "--variant", variant]
        args += ["--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "x.json")]
        assert main(args + ["--radius", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "schema error: /radius:" in err

    def test_trace_spec_subnormal_eps_writes_nothing(self, grid15_file, tmp_path, capsys):
        # 1 / eps is inf: an OverflowError at the spacing constant
        spec, out = tmp_path / "spec.json", tmp_path / "trace.json"
        source = {"entries": [0] * 6, "origin": 1}
        spec.write_text(json.dumps({"segments": [{"a": 0, "b": 3, "source": source}]}))
        args = ["trace-spec", "--system", grid15_file, "--delta", "0.2", "--spec", str(spec)]
        assert main(args + ["--eps", "1e-320", "--emit", str(out)]) == 2
        assert "schema error: /eps:" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--eps", "0.5", "--emit", str(out)]) == 0

    def test_distances_negative_radius_writes_no_file(self, grid15_file, tmp_path, capsys):
        out = tmp_path / "d.csv"
        args = ["distances", "--system", grid15_file, "--delta", "0.2", "--radius", "-1"]
        assert main(args + ["--out", str(out)]) == 2
        assert "schema error: /radius:" in capsys.readouterr().err
        assert not out.exists()

    def test_distances_negative_radius_without_cycles(self, tmp_path, capsys):
        # no cycle is enumerated at delta 0 with period cap 1, so no kernel sees the radius
        system, out = tmp_path / "rot.json", tmp_path / "d.csv"
        assert main(["generate", "circle-rotation", "--n", "5", "--k", "1", "--out", str(system)]) == 0
        args = ["distances", "--system", str(system), "--delta", "0", "--period-cap", "1"]
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text() == "i,j,rho_bar,pi_bar\n"
        out.unlink()
        assert main(args + ["--radius", "-1", "--out", str(out)]) == 2
        assert "schema error: /radius:" in capsys.readouterr().err
        assert not out.exists()

    def test_random_metric_needs_a_point(self, tmp_path, capsys):
        out = tmp_path / "sys.json"
        assert main(["generate", "random-metric", "--n", "-1", "--out", str(out)]) == 2
        assert main(["generate", "random-metric", "--n", "0", "--out", str(out)]) == 2
        assert not out.exists()
