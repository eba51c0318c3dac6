import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "bench_summary", os.path.join(HERE, os.pardir, "tools", "bench_summary.py")
)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_run(directory, workload, seed, p50, ops, commit):
    record = {
        "workload": workload, "seed": seed, "trace": 0, "attempted": 100, "failed": 0,
        "git_commit": commit, "src_sha256": commit * 2, "python": "3.11.7", "numpy": "2.4.6",
        "scipy": "1.17.1", "metrics": {"op_ms.p50": p50, "ops_per_s": ops},
    }
    with open(os.path.join(directory, f"{workload}-seed{seed}-trace0.json"), "w") as fh:
        json.dump(record, fh)


class TestBenchSummary:
    def runs(self, tmp_path):
        parent, change = tmp_path / "parent", tmp_path / "change"
        parent.mkdir()
        change.mkdir()
        p50s = [(10.0, 8.0), (12.0, 9.0), (11.0, 11.0), (9.0, 10.0)]  # (parent, change)
        for seed, (p, c) in enumerate(p50s, start=1):
            write_run(parent, "transport", seed, p, 1000.0 / p, "a")
            write_run(change, "transport", seed, c, 1000.0 / c, "b")
        write_run(change, "transport", 99, 1.0, 1000.0, "b")  # no parent run: left out
        write_run(parent, "certify", 5, 3.0, 300.0, "a")  # no change run: left out
        (parent / "transport-seed7-trace1.json").write_text("{}")  # traced: not read
        return str(parent), str(change)

    def test_pairs_medians_and_wins(self, tmp_path):
        parent, change = self.runs(tmp_path)
        out = tmp_path / "bench.json"
        metrics = {"op_ms.p50": ("lower", 0.25), "ops_per_s": ("higher", 0.25)}
        summary = bench_summary.summarize(
            bench_summary.load_runs(parent), bench_summary.load_runs(change), metrics
        )
        assert list(summary) == ["transport"]
        entry = summary["transport"]
        assert entry["seeds"] == [1, 2, 3, 4] and entry["pairs"] == 4
        p50 = entry["metrics"]["op_ms.p50"]
        assert p50["parent"]["median"] == pytest.approx(10.5)
        assert p50["change"]["median"] == pytest.approx(9.5)
        assert (p50["change_wins"], p50["parent_wins"]) == (2, 1)  # seed 3 ties
        assert p50["parent_iqr"] == pytest.approx(11.25 - 9.75)
        assert entry["metrics"]["ops_per_s"]["change_wins"] == 2  # higher is better
        assert entry["parent"]["git_commit"] == ["a"] and entry["change"]["src_sha256"] == ["bb"]
        benchmark = tmp_path / "BENCHMARK.json"
        directions = [{"name": k, "better": v, "bound": b} for k, (v, b) in metrics.items()]
        benchmark.write_text(json.dumps({"end_to_end": directions}))
        args = ["--parent", parent, "--change", change, "--benchmark", str(benchmark)]
        assert bench_summary.main(args + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["workloads"]["transport"]["pairs"] == 4

    def test_beyond_bound_on_each_side(self, tmp_path, capsys):
        # bound 0.25 on both metrics, parent medians 10 ms and 100 ops/s
        parent, change = tmp_path / "parent", tmp_path / "change"
        parent.mkdir()
        change.mkdir()
        sides = {"analyze": (12.4, 76.0), "certify": (12.6, 74.0), "transport": (5.0, 200.0)}
        for workload, (p50, ops) in sides.items():
            write_run(parent, workload, 1, 10.0, 100.0, "a")
            write_run(change, workload, 1, p50, ops, "b")
        metrics = {"op_ms.p50": ("lower", 0.25), "ops_per_s": ("higher", 0.25)}
        summary = bench_summary.summarize(
            bench_summary.load_runs(str(parent)), bench_summary.load_runs(str(change)), metrics
        )
        beyond = {
            w: {name: m["beyond_bound"] for name, m in entry["metrics"].items()}
            for w, entry in summary.items()
        }
        assert beyond == {
            "analyze": {"op_ms.p50": False, "ops_per_s": False},  # 24% worse on both
            "certify": {"op_ms.p50": True, "ops_per_s": True},  # 26% worse on both
            "transport": {"op_ms.p50": False, "ops_per_s": False},  # better on both
        }
        assert summary["certify"]["metrics"]["op_ms.p50"]["bound"] == 0.25
        benchmark = tmp_path / "BENCHMARK.json"
        entries = [{"name": k, "better": v, "bound": b} for k, (v, b) in metrics.items()]
        benchmark.write_text(json.dumps({"end_to_end": entries}))
        args = ["--parent", str(parent), "--change", str(change), "--benchmark", str(benchmark)]
        assert bench_summary.main(args + ["--out", str(tmp_path / "bench.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  beyond bound: none"
        assert lines[5] == "  beyond bound: op_ms.p50, ops_per_s"
        assert lines[9] == "  beyond bound: none"
        assert lines[10] == "  gain shown: op_ms.p50, ops_per_s"  # one pair, won, parent q3 - q1 0

    def test_no_common_run_is_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        parent, _ = self.runs(tmp_path)
        out = tmp_path / "bench.json"
        args = ["--parent", parent, "--change", str(empty), "--out", str(out)]
        assert bench_summary.main(args) == 1
        assert not out.exists()


def summary_of(tmp_path, parent_p50s, change_p50s, bound=0.25):
    """The op_ms.p50 summary of one workload over seeds 1, 2, ... of the given pairs."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(parents=True)
    change.mkdir()
    for seed, (p, c) in enumerate(zip(parent_p50s, change_p50s), start=1):
        write_run(parent, "transport", seed, p, 1000.0 / p, "a")
        write_run(change, "transport", seed, c, 1000.0 / c, "b")
    summary = bench_summary.summarize(
        bench_summary.load_runs(str(parent)), bench_summary.load_runs(str(change)),
        {"op_ms.p50": ("lower", bound)},
    )
    return summary["transport"]["metrics"]["op_ms.p50"]


class TestClaimFlags:
    """``gain_shown`` and ``unresolved`` on ten pairs."""

    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # q3 - q1 = 0.9

    def test_nine_wins_and_a_gap_beyond_the_parent_spread_show_a_gain(self, tmp_path):
        change = [p - 1.0 for p in self.parent[:9]] + [12.0]  # 9 wins, median 1.0 lower
        m = summary_of(tmp_path, self.parent, change)
        assert m["change_wins"] == 9 and m["parent_iqr"] == pytest.approx(0.9)
        assert m["gain_shown"] and not m["unresolved"]

    def test_eight_wins_show_no_gain(self, tmp_path):
        change = [p - 1.0 for p in self.parent[:8]] + [12.0, 12.0]
        m = summary_of(tmp_path, self.parent, change)
        assert m["change_wins"] == 8 and not m["gain_shown"]

    def test_a_gap_within_the_parent_spread_shows_no_gain(self, tmp_path):
        change = [p - 0.5 for p in self.parent]  # 10 wins, median 0.5 lower
        m = summary_of(tmp_path, self.parent, change)
        assert m["change_wins"] == 10 and not m["gain_shown"]

    def test_a_parent_spread_beyond_the_bound_is_unresolved(self, tmp_path):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]  # q3 - q1 4.5 > 3.1
        change = [p + 0.5 if k % 2 else p - 0.5 for k, p in enumerate(parent)]
        m = summary_of(tmp_path, parent, change)
        assert m["unresolved"] and not m["beyond_bound"]
        assert not summary_of(tmp_path / "bound", parent, change, bound=0.5)["unresolved"]

    def test_every_change_run_better_resolves_a_wide_spread(self, tmp_path):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        m = summary_of(tmp_path, parent, [7.9] * 10)
        assert not m["unresolved"] and m["gain_shown"]
