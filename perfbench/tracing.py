"""Per-layer spans around deltachain's public functions, installed from outside.

A :class:`Tracer` replaces each target function by a timing wrapper at every
deltachain module that binds it (the defining module, the package namespace
and every module that imported it), and puts every binding back on
:meth:`Tracer.uninstall`.  Constructors are timed through the class's
``__post_init__``.  A target that no longer exists is recorded as missing
instead of failing the run, so later renames show up as a count.

Self time of a span is its duration minus the spans it encloses.  Counters
that read arguments or results run outside every span, so self times plus
the op's residual (wall time outside every span) add up to the op's wall
time exactly.
"""

from __future__ import annotations

import importlib
import os
import sys
import time


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_cycles(stats, args, kwargs, result):
    measures, truncated = result
    stats["cycles"] += len(measures)
    stats["truncated"] += int(bool(truncated))


def _count_terms(stats, args, kwargs, result):
    pm, qm = _arg(args, kwargs, 0, "pm"), _arg(args, kwargs, 1, "qm")
    radius = int(_arg(args, kwargs, 3, "radius"))
    stats["terms"] += len(pm.word) * len(qm.word) * (2 * radius + 1)


def _count_pairs(stats, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "set_a"), _arg(args, kwargs, 1, "set_b")
    if hasattr(a, "__len__") and hasattr(b, "__len__"):
        stats["pairs"] += len(a) * len(b)


def _count_lp(stats, args, kwargs, result):
    stats["nit"] += int(getattr(result, "nit", 0) or 0)
    stats["nonoptimal"] += int(getattr(result, "status", 0) != 0)


def _count_report_bytes(stats, args, kwargs, result):
    """Bytes of every emitted file, without the timestamp line."""
    out_dir = _arg(args, kwargs, 1, "out_dir")
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        stats["bytes"] += sum(
            len(line) for line in data.splitlines(keepends=True) if b'"generated_at"' not in line
        )


#: (metric prefix, defining module, attribute, extra counters, counter function).
#: Constructors use "Class.__post_init__" as the attribute.
TARGETS = (
    ("core.FiniteMetricSystem", "deltachain.core", "FiniteMetricSystem.__post_init__", (), None),
    ("core.normalize_metric", "deltachain.core", "normalize_metric", (), None),
    ("chain.build_chain_graph", "deltachain.chain", "build_chain_graph", (), None),
    ("chain.mixing_certificate", "deltachain.chain", "mixing_certificate", (), None),
    ("chain.finite_chain", "deltachain.chain", "finite_chain", (), None),
    ("specification.trace_specification", "deltachain.specification", "trace_specification", (), None),
    ("specification.verify_trace", "deltachain.specification", "verify_trace", (), None),
    ("shadowing.besicovitch_pi", "deltachain.shadowing", "besicovitch_pi", (), None),
    ("shadowing.hat_rho", "deltachain.shadowing", "hat_rho", (), None),
    (
        "measures.ergodic_measures_of_graph",
        "deltachain.measures",
        "ergodic_measures_of_graph",
        ("cycles", "truncated"),
        _count_cycles,
    ),
    ("measures.PeriodicOrbitMeasure", "deltachain.measures", "PeriodicOrbitMeasure.__post_init__", (), None),
    ("measures.pi_bar_periodic", "deltachain.measures", "pi_bar_periodic", ("terms",), _count_terms),
    ("measures.hausdorff_distance", "deltachain.measures", "hausdorff_distance", ("pairs",), _count_pairs),
    ("measures.w1_distance", "deltachain.measures", "w1_distance", (), None),
    ("measures.rho_bar_markov_upper", "deltachain.measures", "rho_bar_markov_upper", (), None),
    ("measures.weakstar_proxy", "deltachain.measures", "weakstar_proxy", (), None),
    ("measures.sigmund_approximation", "deltachain.measures", "sigmund_approximation", (), None),
    ("measures.linprog", "deltachain.measures", "linprog", ("nit", "nonoptimal"), _count_lp),
    ("pipeline.run_pipeline", "deltachain.pipeline", "run_pipeline", (), None),
    ("pipeline.density_demo", "deltachain.pipeline", "density_demo", (), None),
    ("pipeline.emit_report", "deltachain.pipeline", "emit_report", ("bytes",), _count_report_bytes),
    ("cli.main", "deltachain.cli", "main", (), None),
)


class Tracer:
    """Spans and counters for the TARGETS, accumulated over many ops."""

    def __init__(self):
        self.stats = {
            prefix: dict({"calls": 0, "self_s": 0.0}, **{c: 0 for c in extra})
            for prefix, _, _, extra, _ in TARGETS
        }
        self.missing = []
        self.self_total = 0.0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, stats, counter):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stats["calls"] += 1
                stats["self_s"] += own
                tracer.self_total += own
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                begin = clock()
                counter(stats, args, kwargs, result)
                if stack:  # keep the counter out of the enclosing span's self time
                    stack[-1] += clock() - begin
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Wrap every target at every binding; record targets that are gone."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "deltachain" or name.startswith("deltachain."))
        ]
        for prefix, module_name, attr, _, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(original, self.stats[prefix], counter)
            if path:  # a method: one binding, on its class
                self._saved.append((owner, leaf, owner.__dict__.get(leaf)))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        """Restore every binding install() replaced, in reverse order."""
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def counts(self):
        """Snapshot of every counter (calls and extras), for exact per-op ratios."""
        return {
            f"{prefix}.{key}": value
            for prefix, stats in self.stats.items()
            for key, value in stats.items()
            if key != "self_s"
        }
