"""Command line interface.

Subcommands mirror the library surface: `generate` writes built-in systems,
`chain-graph` exports adjacency/DOT, `besicovitch` evaluates trajectory
pseudometrics, `trace-spec` runs the periodic gluing construction,
`distances` tabulates pairwise measure distances, `density-demo` and
`analyze` run the pipeline.  Exit codes: 0 success, 2 schema error or an
unreadable input file, 3 when a mixing-requiring command meets a non-mixing
graph, 1 on any other library error (a `distances` table over its pair cap).
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import sys as _sys
from contextlib import nullcontext

from .builders import BUILTIN_SYSTEMS
from .chain import build_chain_graph, to_adjacency_lines, to_dot
from .core import (
    FiniteTrajectory, IntervalSegment, _object, _read_json, _under, load_system, system_to_dict,
)
from .errors import DeltachainError, NotMixing, SchemaError, SizeOverflow
from .measures import ergodic_measures_of_graph, pi_bar_matrices, rho_bar_matrices
from .pipeline import density_demo, emit_report, load_config, run_pipeline
from .shadowing import besicovitch_pi, besicovitch_rho, hat_rho
from .specification import SpacedSpecification, trace_specification, verify_trace

_DISTANCE_PAIRS = 1 << 16  # bound on the pairs of one block of rows in ``distances``
_MAX_PAIRS = 1_000_000  # bound on the pairs of one ``distances`` table (about 48 MB of CSV)


#: the fields of a trajectory file and of one segment of a trace-spec file
_TRAJECTORY_SCHEMA = {"entries": ((list,), False), "origin": ((int,), False)}
_SEGMENT_SCHEMA = {"a": ((int,), False), "b": ((int,), False), "source": ((dict,), False)}


def _load_trajectory(data, system, pointer=""):
    """A trajectory from ``{"entries": [point ids of system], "origin": k}`` at ``pointer``."""
    with _under(pointer):
        _object(data, "", _TRAJECTORY_SCHEMA, ("entries",))
        traj = FiniteTrajectory(data["entries"], data.get("origin", 0))
        if max(traj.entries) >= system.n:
            raise SchemaError("/entries", f"point ids must lie in [0, {system.n})")
    return traj


def _unit_interval(text):
    if not 0.0 <= float(text) <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return float(text)


def _radius(text):
    """A radius >= 0, checked as argparse reads it, so no command output starts first."""
    if int(text) < 0:
        raise SchemaError("/radius", f"radius must be >= 0, got {text}")
    return int(text)


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _cmd_generate(args):
    builder = BUILTIN_SYSTEMS[args.kind]
    system = builder(**{key: getattr(args, key) for key in inspect.signature(builder).parameters})
    _write(json.dumps(system_to_dict(system), indent=2) + "\n", args.out)
    return 0


def _cmd_chain_graph(args):
    system, _ = load_system(args.system)
    graph = build_chain_graph(system, args.delta)
    text = to_dot(graph) if args.emit == "dot" else to_adjacency_lines(graph)
    _write(text, args.out)
    return 0


def _cmd_besicovitch(args):
    system, _ = load_system(args.system)
    x = _load_trajectory(_read_json(args.x), system)
    y = _load_trajectory(_read_json(args.y), system)
    if args.variant == "rho":
        est = besicovitch_rho(x, y, system, args.horizon)
    elif args.variant == "hat":
        est = hat_rho(x, y, system, args.horizon)
    else:
        est = besicovitch_pi(x, y, system, args.horizon, args.radius)
    print(
        json.dumps(
            {
                "variant": est.variant,
                "value": est.value,
                "horizon": est.horizon,
                "error_bar": est.error_bar,
            }
        )
    )
    return 0


def _cmd_trace_spec(args):
    system, _ = load_system(args.system)
    graph = build_chain_graph(system, args.delta)
    data = _object(_read_json(args.spec), "", {"segments": ((list,), False)}, ("segments",))
    segments = []
    for i, seg in enumerate(data["segments"]):
        pointer = f"/segments/{i}"
        _object(seg, pointer, _SEGMENT_SCHEMA, _SEGMENT_SCHEMA)
        source = _load_trajectory(seg["source"], system, f"{pointer}/source")
        with _under(pointer):
            segments.append(IntervalSegment(seg["a"], seg["b"], source))
    spec = SpacedSpecification(tuple(segments))
    chain = trace_specification(spec, graph, args.eps)
    ok, detail = verify_trace(chain, spec, graph, args.eps)
    doc = {
        "word": list(chain.word),
        "period": chain.period,
        "origin_offset": chain.origin_offset,
        "verified": ok,
        "detail": detail,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.emit)
    return 0


def _cmd_distances(args):
    """rho_bar and pi_bar between every pair of enumerated orbits, as CSV rows.

    A table of more than ``_MAX_PAIRS`` = 10^6 pairs, n (n - 1) / 2 for n
    orbits, raises :class:`SizeOverflow` before the header or any kernel work.
    """
    system, _ = load_system(args.system)
    graph = build_chain_graph(system, args.delta)
    measures, truncated = ergodic_measures_of_graph(graph, args.period_cap, args.cap)
    n = len(measures)
    if n * (n - 1) // 2 > _MAX_PAIRS:
        raise SizeOverflow(
            f"{n} orbits give {n * (n - 1) // 2} pairs, over the cap of {_MAX_PAIRS}; "
            "lower --cap or --period-cap"
        )
    # one rho_bar and one pi_bar call per block of rows lo .. hi-1 against
    # measures[lo+1:], each row's entries j > i written before the next block
    with open(args.out, "w", newline="") if args.out else nullcontext(_sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "rho_bar", "pi_bar"])
        lo = 0
        while lo < n:
            hi = min(n, lo + max(1, _DISTANCE_PAIRS // max(1, n - lo - 1)))
            rows, rest = measures[lo:hi], measures[lo + 1 :]
            rho = rho_bar_matrices(rows, rest, system.dist)[0]
            pi = pi_bar_matrices(rows, rest, system, args.radius)[0]
            for r, i in enumerate(range(lo, hi)):
                js = range(i + 1, n)
                writer.writerows(zip([i] * len(js), js, rho[r, r:].tolist(), pi[r, r:].tolist()))
            lo = hi
    if truncated:
        print(f"# ergodic enumeration truncated at cap {args.cap}", file=_sys.stderr)
    return 0


def _cmd_density_demo(args):
    cfg = load_config(args.config)
    level = args.level if args.level is not None else (cfg.density_level or cfg.n_max)
    table = density_demo(cfg, level)
    _write(json.dumps(table, indent=2) + "\n", args.out)
    return 0


def _cmd_analyze(args):
    cfg = load_config(args.config)
    report = run_pipeline(cfg)
    out_dir = args.out if args.out else cfg.out_dir
    emit_report(report, out_dir)
    print(json.dumps({"out_dir": out_dir, "levels": len(report.levels)}))
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="deltachain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a built-in system as JSON")
    p.add_argument("kind", choices=sorted(BUILTIN_SYSTEMS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("chain-graph", help="export a chain graph")
    p.add_argument("--system", required=True)
    p.add_argument("--delta", type=_unit_interval, required=True)
    p.add_argument("--emit", choices=["dot", "adj"], default="adj")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_chain_graph)

    p = sub.add_parser("besicovitch", help="trajectory pseudometrics")
    p.add_argument("--system", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--variant", choices=["rho", "pi", "hat"], default="rho")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--radius", type=_radius, default=8)
    p.set_defaults(func=_cmd_besicovitch)

    p = sub.add_parser("trace-spec", help="periodic gluing of spaced segments")
    p.add_argument("--system", required=True)
    p.add_argument("--delta", type=_unit_interval, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--emit")
    p.set_defaults(func=_cmd_trace_spec)

    p = sub.add_parser(
        "distances",
        help="pairwise distances between ergodic measures (at most 10^6 pairs, else exit 1)",
    )
    p.add_argument("--system", required=True)
    p.add_argument("--delta", type=_unit_interval, required=True)
    p.add_argument("--period-cap", type=int, default=5)
    p.add_argument("--cap", type=int, default=10_000)
    p.add_argument("--radius", type=_radius, default=8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distances)

    p = sub.add_parser("density-demo", help="gluing approximant vs block scale")
    p.add_argument("--config", required=True)
    p.add_argument("--level", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density_demo)

    p = sub.add_parser("analyze", help="full pipeline run")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=_sys.stderr)
        return 2
    except NotMixing as exc:
        print(f"not mixing: {exc}", file=_sys.stderr)
        return 3
    except DeltachainError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
