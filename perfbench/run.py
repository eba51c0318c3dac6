#!/usr/bin/env python3
"""deltachain benchmark: one workload, one closed-loop client, every op checked.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each input
untraced and traced (alternating which goes first) and reports the
per-layer metrics.  ``--workload all`` runs every workload both ways in
fresh processes and prints everything.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; a full record with
every sample goes to perfbench/out/.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

#: One BLAS thread: one client on a shared 2-core machine, and CPU time per
#: op then equals busy time.  Must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("analyze", "certify", "transport")
SETUP_CHILDREN = 4  # plus this process: set-up is the median of five fresh processes
COUNT_OPS = 10  # traced counts are per op over the first COUNT_OPS traced ops (2 transport cycles)
MIN_P90_OPS = 100

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("op_cpu_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    from tracing import TARGETS

    names = []
    for prefix, _, _, extra, _ in TARGETS:
        names.append((f"{prefix}.calls", "count"))
        names.append((f"{prefix}.self_ms", "ms"))
        names.extend((f"{prefix}.{c}", "bytes" if c == "bytes" else "count") for c in extra)
    names += [
        ("trace.op_ms", "ms"),
        ("trace.residual_ms", "ms"),
        ("trace.overhead_share", "share"),
        ("trace.missing_targets", "count"),
    ]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import deltachain from it."""
    if not os.path.isfile(os.path.join(SRC, "deltachain", "__init__.py")):
        print(f"error: no deltachain sources under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import deltachain

    where = os.path.realpath(deltachain.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: deltachain imported from {where}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return deltachain


def quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]} if values else {}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def percentile90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def source_identity():
    """git commit if the checkout is a repository, and a hash of src/deltachain."""
    commit = None
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "deltachain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def child_setup_seconds(args):
    """Set-up time of one fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs one workload: warm-up, the timed loop, checks, metrics, record."""

    def __init__(self, args, work_dir):
        from workloads import WORKLOADS

        self.args = args
        self.workload = WORKLOADS[args.workload](args.seed, work_dir)
        self.failures = []
        self.attempted = 0

    def timed(self, inp):
        """One op: (output or None, wall ms, cpu ms, error text or None)."""
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out, err = self.workload.run(inp), None
        except Exception:  # the op failed; counted, reported, the loop goes on
            out, err = None, traceback.format_exc(limit=3)
        w1, c1 = time.perf_counter(), time.process_time()
        return out, (w1 - w0) * 1000.0, (c1 - c0) * 1000.0, err

    def judge(self, index, inp, out, err):
        """Count one attempted op; run its oracle; return whether it passed."""
        self.attempted += 1
        if err is None:
            try:
                self.workload.check(inp, out)
            except Exception as exc:  # OracleMismatch, or an output the oracle cannot read
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append({"op": index, "kind": self.workload.kind(inp), "error": err})
            print(f"op {index} failed: {err.strip().splitlines()[-1]}", file=sys.stderr)
        return err is None

    def loop(self, body):
        """Closed loop over inputs 1, 2, ... until the measuring window closes."""
        start = time.perf_counter()
        index = 1
        while time.perf_counter() - start < self.args.seconds or not body.enough():
            inp = self.workload.make_input(index)
            try:
                body(index, inp)
            finally:
                self.workload.cleanup(inp)
            index += 1
        return time.perf_counter() - start


class Plain:
    """Untraced ops: the end-to-end samples."""

    def __init__(self, runner):
        self.runner = runner
        self.op_ms, self.cpu_ms, self.kinds = [], [], []

    def enough(self):
        return True

    def __call__(self, index, inp):
        out, wall, cpu, err = self.runner.timed(inp)
        self.op_ms.append(wall)
        self.cpu_ms.append(cpu)
        self.kinds.append(self.runner.workload.kind(inp))
        self.runner.judge(index, inp, out, err)


class Paired:
    """Each input untraced and traced, in alternating order; outputs must match."""

    def __init__(self, runner):
        from tracing import Tracer

        self.runner = runner
        self.tracer = Tracer()
        self.plain_ms, self.traced_ms, self.residual_s = [], [], 0.0
        self.counts = None

    def enough(self):
        return self.counts is not None

    def traced(self, inp):
        self.tracer.install()
        before = self.tracer.self_total
        try:
            out, wall, cpu, err = self.runner.timed(inp)
        finally:
            self.tracer.uninstall()
        self.residual_s += wall / 1000.0 - (self.tracer.self_total - before)
        self.traced_ms.append(wall)
        if len(self.traced_ms) == COUNT_OPS:
            self.counts = self.tracer.counts()
        return out, err

    def __call__(self, index, inp):
        runner = self.runner
        results = []
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                out, err = self.traced(inp)
            else:
                out, wall, _, err = runner.timed(inp)
                self.plain_ms.append(wall)
            passed = runner.judge(index, inp, out, err)
            results.append(runner.workload.fingerprint(inp, out) if passed else None)
        if None not in results and results[0] != results[1]:
            runner.failures.append({"op": index, "kind": runner.workload.kind(inp), "error": "traced and untraced outputs differ"})

    def metrics(self):
        n = len(self.traced_ms)
        values = {}
        for prefix, stats in self.tracer.stats.items():
            values[f"{prefix}.self_ms"] = stats["self_s"] * 1000.0 / n
        values.update({name: count / COUNT_OPS for name, count in self.counts.items()})
        values["trace.op_ms"] = sum(self.traced_ms) / n
        values["trace.residual_ms"] = self.residual_s * 1000.0 / n
        values["trace.overhead_share"] = statistics.median(self.traced_ms) / statistics.median(self.plain_ms) - 1.0
        values["trace.missing_targets"] = len(self.tracer.missing)
        return values


def fingerprint_check(runner, inp, first_out):
    """Second emit of the warm-up input must reproduce the first byte for byte."""
    out, _, _, err = runner.timed(inp)
    if err is not None:
        return f"second emit raised: {err}"
    if runner.workload.fingerprint(inp, out) != runner.workload.fingerprint(inp, first_out):
        return "two emits of one input differ"
    return None


def run_one(args):
    import_program()
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        runner = Runner(args, work_dir)
        workload = runner.workload
        inp0 = workload.make_input(0)
        out0, _, _, err0 = runner.timed(inp0)  # warm-up: lazy imports, caches
        setup_main = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0 if err0 is None else 1
        return measure(args, runner, inp0, out0, err0, setup_main)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, runner, inp0, out0, err0, setup_main):
    import selftest

    workload = runner.workload
    problems = []
    try:
        if err0 is not None:
            raise RuntimeError(err0)
        workload.check(inp0, out0)
    except Exception as exc:
        problems.append(f"warm-up op failed: {exc}")

    setup = [setup_main]
    body = Paired(runner) if args.trace else Plain(runner)
    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            try:
                setup.append(child_setup_seconds(args))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                problems.append(f"set-up child: {exc}")
    window = runner.loop(body)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not problems:
        cases = selftest.known_cases() + selftest.workload_cases(workload, inp0, out0)
        problems += [f"self-test: {name}" for name in selftest.run_cases(cases)]
        mismatch = fingerprint_check(runner, inp0, out0)
        if mismatch:
            problems.append(mismatch)

    failed = len(runner.failures)
    if args.trace:
        metrics = body.metrics()
        units = dict(per_layer_names())
        accounted = sum(v for k, v in metrics.items() if k.endswith(".self_ms")) + metrics["trace.residual_ms"]
        if abs(accounted - metrics["trace.op_ms"]) > 1e-6 * metrics["trace.op_ms"]:
            problems.append(f"self times + residual = {accounted} ms, traced op = {metrics['trace.op_ms']} ms")
        samples = {"untraced_op_ms": body.plain_ms, "traced_op_ms": body.traced_ms, "missing_targets": body.tracer.missing}
    else:
        op_ms, cpu_ms = body.op_ms, body.cpu_ms
        metrics = {
            "ops_per_s": len(op_ms) / (sum(op_ms) / 1000.0),
            "op_ms.p50": statistics.median(op_ms),
            "op_ms.p90": percentile90(op_ms),
            "op_cpu_ms.p50": statistics.median(cpu_ms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        if len(op_ms) < MIN_P90_OPS:
            print(f"warning: {len(op_ms)} timed ops; p90 wants {MIN_P90_OPS}", file=sys.stderr)
        samples = {"op_ms": op_ms, "op_cpu_ms": cpu_ms, "op_kind": body.kinds, "setup_s": setup}

    if set(metrics) != set(units):
        problems.append(f"metric names differ from the declared list: {sorted(set(metrics) ^ set(units))}")
    correct = not problems and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "window_s": window,
        **source_identity(),
        **environment(),
        "attempted": runner.attempted,
        "failed": failed,
        "failed_share": failed / max(runner.attempted, 1),
        "problems": problems,
        "failures": runner.failures[:50],
        "summary": {k: quartiles(v) for k, v in samples.items() if v and isinstance(v[0], float)},
        "samples": samples,
        "metrics": metrics,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    print(f"attempted {runner.attempted}  failed {failed}  failed_share {record['failed_share']:.4f}  record {os.path.relpath(path, ROOT)}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"error: {name} trace={trace} exited with {proc.returncode}")
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
