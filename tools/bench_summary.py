"""Summarize paired benchmark runs of a parent and a change into one JSON file.

Each run of ``perfbench/run.py --trace 0`` leaves a record
``<workload>-seed<seed>-trace0.json`` in the ``perfbench/out/`` of the
checkout it ran in.  Run the parent and the change from two checkouts with
the same seeds, alternating which side runs first, then:

    python3 tools/bench_summary.py --parent PARENT/perfbench/out \\
        --change CHANGE/perfbench/out --out BENCH_<n>.json

Runs are paired by (workload, seed); a seed run on one side only is left
out.  For each workload and each end-to-end metric of ``BENCHMARK.json``
the file holds the median and quartiles (inclusive method) over the runs
of each side, the change's wins over its pairs (ties count for neither
side), the median gap, the parent's q3 - q1, the metric's ``bound`` and
``beyond_bound``: whether the change's median is worse than the parent's
by more than bound x the parent's median.  The seeds, the runs'
``git_commit`` (null outside a git checkout) and ``src_sha256``, their
length in seconds and the Python, numpy and scipy versions are recorded
too.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"(?P<workload>[a-z_]+)-seed(?P<seed>-?\d+)-trace0\.json$")
PROVENANCE = ("git_commit", "src_sha256", "python", "numpy", "scipy", "seconds")


def load_runs(directory):
    """{(workload, seed): record} of the untraced run records in ``directory``."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        match = RECORD.search(os.path.basename(path))
        if match:
            with open(path) as fh:
                runs[match["workload"], int(match["seed"])] = json.load(fh)
    return runs


def spread(values):
    """Median and quartiles, inclusive method (as ``perfbench/run.py`` reports its samples)."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent_runs, change_runs, metrics):
    """Per-workload summary of the runs present on both sides.

    ``metrics`` maps each metric name to its ``better`` direction and ``bound``.
    """
    out = {}
    for workload in sorted({w for w, _ in parent_runs.keys() & change_runs.keys()}):
        seeds = sorted(s for w, s in parent_runs.keys() & change_runs.keys() if w == workload)
        sides = {
            "parent": [parent_runs[workload, s] for s in seeds],
            "change": [change_runs[workload, s] for s in seeds],
        }
        entry = {"seeds": seeds, "pairs": len(seeds), "metrics": {}}
        for name, (better, bound) in metrics.items():
            values = {side: [run["metrics"][name] for run in runs] for side, runs in sides.items()}
            sign = 1.0 if better == "higher" else -1.0
            pairs = list(zip(values["parent"], values["change"]))
            stats = {side: spread(vals) for side, vals in values.items()}
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            entry["metrics"][name] = {
                "better": better,
                **stats,
                "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
                "parent_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                "median_gap": change - parent,
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                "bound": bound,
                "beyond_bound": sign * (parent - change) > bound * parent,
                "parent_runs": values["parent"],
                "change_runs": values["change"],
            }
        for side, runs in sides.items():
            entry[side] = {
                **{key: sorted({run.get(key) for run in runs}, key=str) for key in PROVENANCE},
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
            }
        out[workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="run records of the parent checkout")
    parser.add_argument(
        "--change", default=os.path.join(ROOT, "perfbench", "out"), help="run records of the change"
    )
    parser.add_argument(
        "--benchmark",
        default=os.path.join(ROOT, "BENCHMARK.json"),
        help="metric directions and bounds",
    )
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    summary = summarize(load_runs(args.parent), load_runs(args.change), metrics)
    if not summary:
        print("error: no workload and seed has a run record on both sides", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump({"workloads": summary}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in summary.items():
        p50 = entry["metrics"]["op_ms.p50"]
        print(
            f"{workload}: {entry['pairs']} pairs, op_ms.p50 {p50['parent']['median']:.2f} -> "
            f"{p50['change']['median']:.2f} ms, change wins {p50['change_wins']}/{entry['pairs']}"
        )
        beyond = [name for name, m in entry["metrics"].items() if m["beyond_bound"]]
        print(f"  beyond bound: {', '.join(beyond) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
