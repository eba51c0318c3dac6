"""End-to-end analysis: chain family, mixing gates, cross-level distances,
and the ergodic-density demonstration, with reproducible report emission."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .builders import BUILTIN_SYSTEMS
from .chain import build_chain_graph, mixing_certificate
from .core import load_system, system_from_dict
from .errors import DegenerateWeights, NotMixing, SchemaError
from .measures import (
    PeriodicOrbitMeasure,
    empirical_measure,
    ergodic_measures_of_graph,
    hausdorff_distance,
    mixture_cylinders,
    pi_bar_matrices,
    pi_bar_mixture_upper,
    sigmund_approximation,
    weakstar_proxy,
)
from .specification import spacing_constant

_CONFIG_FIELDS = {
    "system": (dict, str),
    "n_max": int,
    "period_cap": int,
    "enumeration_cap": int,
    "eps_list": list,
    "pi_radius": int,
    "cylinder_depth": int,
    "target": list,
    "block_scales": list,
    "density_level": int,
    "hausdorff_sample": int,
    "out_dir": str,
    "seed": int,
}

_CONFIG_DEFAULTS = {
    "n_max": 4,
    "period_cap": 5,
    "enumeration_cap": 10_000,
    "eps_list": [0.5],
    "pi_radius": 8,
    "cylinder_depth": 3,
    "target": None,
    "block_scales": [8, 16, 32, 64, 128, 256],
    "density_level": None,
    "hausdorff_sample": 40,
    "out_dir": "deltachain-out",
    "seed": 0,
}


@dataclass(frozen=True)
class PipelineConfig:
    system: object
    n_max: int = 4
    period_cap: int = 5
    enumeration_cap: int = 10_000
    eps_list: tuple = (0.5,)
    pi_radius: int = 8
    cylinder_depth: int = 3
    target: tuple | None = None
    block_scales: tuple = (8, 16, 32, 64, 128, 256)
    density_level: int | None = None
    hausdorff_sample: int = 40
    out_dir: str = "deltachain-out"
    seed: int = 0

    def __post_init__(self):
        if self.n_max < 1:
            raise SchemaError("/n_max", "must be >= 1")
        if self.period_cap < 1:
            raise SchemaError("/period_cap", "must be >= 1")
        if any(not 0 < e <= 1 for e in self.eps_list):
            raise SchemaError("/eps_list", "entries must lie in (0, 1]")


@dataclass
class PipelineReport:
    levels: list = field(default_factory=list)
    cross_level: list = field(default_factory=list)
    density: dict | None = None
    errors: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def config_from_dict(data):
    """Strictly validated config; unknown fields are schema errors."""
    if not isinstance(data, dict):
        raise SchemaError("", "config must be an object")
    for key in data:
        if key not in _CONFIG_FIELDS:
            raise SchemaError(f"/{key}", "unknown field")
    if "system" not in data:
        raise SchemaError("/system", "missing required field")
    merged = dict(_CONFIG_DEFAULTS)
    merged.update(data)
    for key, expected in _CONFIG_FIELDS.items():
        if key in merged and merged[key] is not None:
            if not isinstance(merged[key], expected):
                raise SchemaError(f"/{key}", f"expected {expected}, got {type(merged[key]).__name__}")
    if merged["target"] is not None:
        for i, comp in enumerate(merged["target"]):
            if not isinstance(comp, dict) or set(comp) != {"word", "weight"}:
                raise SchemaError(f"/target/{i}", "expected {word, weight}")
        merged["target"] = tuple(
            (tuple(comp["word"]), float(comp["weight"])) for comp in merged["target"]
        )
    merged["eps_list"] = tuple(float(e) for e in merged["eps_list"])
    merged["block_scales"] = tuple(int(x) for x in merged["block_scales"])
    return PipelineConfig(**merged)


def load_config(path):
    with open(path) as fh:
        data = json.load(fh)
    return config_from_dict(data)


def resolve_system(spec):
    """System from a config ``system`` entry: path, builtin, or inline dict."""
    if isinstance(spec, str):
        system, _ = load_system(spec)
        return system
    if isinstance(spec, dict) and "builtin" in spec:
        name = spec["builtin"]
        if name not in BUILTIN_SYSTEMS:
            raise SchemaError("/system/builtin", f"unknown builtin {name!r}")
        kwargs = {k: v for k, v in spec.items() if k != "builtin"}
        return BUILTIN_SYSTEMS[name](**kwargs)
    system, _ = system_from_dict(spec)
    return system


def _config_hash(cfg):
    blob = json.dumps(
        {
            "system": cfg.system if not isinstance(cfg.system, str) else cfg.system,
            "n_max": cfg.n_max,
            "period_cap": cfg.period_cap,
            "enumeration_cap": cfg.enumeration_cap,
            "eps_list": list(cfg.eps_list),
            "pi_radius": cfg.pi_radius,
            "cylinder_depth": cfg.cylinder_depth,
            "target": [[list(t[0]), t[1]] for t in cfg.target] if cfg.target else None,
            "block_scales": list(cfg.block_scales),
            "density_level": cfg.density_level,
            "hausdorff_sample": cfg.hausdorff_sample,
            "seed": cfg.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _level_entry(sys, n, cfg):
    delta = 1.0 / n
    graph = build_chain_graph(sys, delta)
    cert = mixing_certificate(graph)
    entry = {
        "n": n,
        "delta": delta,
        "edges": graph.edge_count(),
        "strongly_connected": cert.strongly_connected,
        "period": cert.period,
        "mixing_constant": cert.mixing_constant,
        "spacing_constants": {},
    }
    if cert.mixing_constant is not None:
        for eps in cfg.eps_list:
            n_margin, k = spacing_constant(eps, cert)
            entry["spacing_constants"][str(eps)] = {"N": n_margin, "k": k}
    measures, truncated = ergodic_measures_of_graph(
        graph, cfg.period_cap, cfg.enumeration_cap
    )
    entry["ergodic_count"] = len(measures)
    entry["ergodic_truncated"] = truncated
    return graph, cert, measures, entry


def _stratified(items, cap):
    """Deterministic evenly spaced subsample of a shortest-first list.

    Returns (sample, is_full).  Evenly spaced indices keep every period
    stratum represented without depending on the RNG.
    """
    if len(items) <= cap:
        return list(items), True
    idx = sorted({round(i * (len(items) - 1) / (cap - 1)) for i in range(cap)})
    return [items[i] for i in idx], False


def run_pipeline(cfg):
    """Full analysis: per-level certification, cross-level distances, density demo."""
    sys = resolve_system(cfg.system)
    report = PipelineReport()
    report.provenance = {
        "config_hash": _config_hash(cfg),
        "version": __version__,
        "system_points": sys.n,
        "seed": cfg.seed,
    }
    graphs, ergodic_sets = {}, {}
    for n in range(1, cfg.n_max + 1):
        graph, cert, measures, entry = _level_entry(sys, n, cfg)
        graphs[n] = graph
        ergodic_sets[n] = measures
        report.levels.append(entry)
    for n in range(1, cfg.n_max + 1):
        for m in range(n + 1, cfg.n_max + 1):
            e_coarse, e_fine = ergodic_sets[n], ergodic_sets[m]
            if not e_coarse or not e_fine:
                report.errors.append(
                    {"stage": "cross_level", "pair": [n, m], "reason": "empty ergodic set"}
                )
                continue
            coarse, coarse_full = _stratified(e_coarse, cfg.hausdorff_sample)
            fine, fine_full = _stratified(e_fine, cfg.hausdorff_sample)
            best, _, aligned = pi_bar_matrices(coarse, fine, sys, cfg.pi_radius)
            best, aligned = best.tolist(), aligned.tolist()
            rows, cols = range(len(coarse)), range(len(fine))
            value = hausdorff_distance(rows, cols, lambda i, j: best[i][j])
            # one-sided consistency: the phase-0 value dominates pi_bar
            # pairwise, so its Hausdorff value dominates the reported one
            # (same sampling on both sides).
            bound = hausdorff_distance(rows, cols, lambda i, j: aligned[i][j])
            exhaustive = coarse_full and fine_full
            report.cross_level.append(
                {
                    "coarse": n,
                    "fine": m,
                    "pi_bar_hausdorff": value,
                    "aligned_bound": bound,
                    "sampled": not exhaustive,
                    "bound_holds": bool(value <= bound + 1e-9),
                }
            )
    if cfg.target is not None:
        level = cfg.density_level if cfg.density_level is not None else cfg.n_max
        try:
            report.density = density_demo(cfg, level, sys=sys, graph=graphs.get(level))
        except (NotMixing, DegenerateWeights, SchemaError) as exc:
            report.errors.append({"stage": "density_demo", "reason": str(exc)})
    return report


def density_demo(cfg, level, sys=None, graph=None):
    """Distance-to-target table of the gluing approximant across block scales."""
    if sys is None:
        sys = resolve_system(cfg.system)
    if graph is None:
        graph = build_chain_graph(sys, 1.0 / level)
    cert = mixing_certificate(graph)
    if cert.mixing_constant is None:
        raise NotMixing(f"level {level} graph is not primitive")
    if cfg.target is None:
        raise SchemaError("/target", "density demo requires a target mixture")
    target = [(PeriodicOrbitMeasure(word), weight) for word, weight in cfg.target]
    for i, (pm, _) in enumerate(target):
        word = pm.word
        for j in range(len(word)):
            if not graph.adjacency[word[j], word[(j + 1) % len(word)]]:
                raise SchemaError(
                    f"/target/{i}/word", "word is not a cycle of the level graph"
                )
    target_cyl = mixture_cylinders(target, cfg.cylinder_depth)
    rows = []
    for scale in cfg.block_scales:
        approx = sigmund_approximation(target, graph, scale)
        proxy = weakstar_proxy(
            empirical_measure(approx, cfg.cylinder_depth),
            target_cyl,
            cfg.cylinder_depth,
            sys,
        )
        pi_ub = pi_bar_mixture_upper([(approx, 1.0)], target, sys, cfg.pi_radius)
        rows.append(
            {
                "block_scale": scale,
                "approx_period": approx.period,
                "weakstar_proxy": proxy,
                "pi_bar_upper": pi_ub,
            }
        )
    return {"level": level, "rows": rows}


def report_to_dict(report, include_timestamp=True):
    out = {
        "levels": report.levels,
        "cross_level": report.cross_level,
        "density": report.density,
        "errors": report.errors,
        "provenance": dict(report.provenance),
    }
    if include_timestamp:
        out["generated_at"] = datetime.now(timezone.utc).isoformat()
    return out


def emit_report(report, out_dir):
    """Write report.json plus CSV tables and a plot-data file."""
    os.makedirs(out_dir, exist_ok=True)
    doc = report_to_dict(report)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "distances.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coarse", "fine", "pi_bar_hausdorff", "aligned_bound"])
        for row in report.cross_level:
            writer.writerow(
                [row["coarse"], row["fine"], row["pi_bar_hausdorff"], row["aligned_bound"]]
            )
    with open(os.path.join(out_dir, "density.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_scale", "approx_period", "weakstar_proxy", "pi_bar_upper"])
        if report.density:
            for row in report.density["rows"]:
                writer.writerow(
                    [
                        row["block_scale"],
                        row["approx_period"],
                        row["weakstar_proxy"],
                        row["pi_bar_upper"],
                    ]
                )
    plot = {
        "level_vs_distance": [
            [row["fine"], row["pi_bar_hausdorff"]] for row in report.cross_level
        ],
        "scale_vs_distance": [
            [row["block_scale"], row["weakstar_proxy"]]
            for row in (report.density["rows"] if report.density else [])
        ],
    }
    with open(os.path.join(out_dir, "plot_data.json"), "w") as fh:
        json.dump(plot, fh, indent=2, sort_keys=True)
        fh.write("\n")
