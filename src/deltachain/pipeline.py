"""End-to-end analysis: chain family, mixing gates, cross-level distances,
and the ergodic-density demonstration, with reproducible report emission."""

from __future__ import annotations

import csv
import hashlib
import inspect
import itertools
import json
import os
import typing
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .builders import BUILTIN_SYSTEMS
from .chain import build_chain_graph, mixing_certificate
from .core import _check_type, _object, _read_json, _under, load_system, system_from_dict
from .errors import DegenerateWeights, NotMixing, SchemaError
from .measures import (
    MARGINAL_TOL,
    PeriodicOrbitMeasure,
    _hausdorff,
    empirical_measure,
    mixture_cylinders,
    pi_bar_matrices,
    pi_bar_mixture_upper,
    sigmund_approximation,
    simple_cycle_words,
    weakstar_proxies,
)
from .specification import spacing_constant

# lower bounds of the integer fields; density_level may also be None
_CONFIG_MINIMA = {"n_max": 1, "period_cap": 1, "enumeration_cap": 0, "pi_radius": 0,
                  "cylinder_depth": 1, "hausdorff_sample": 2, "density_level": 1}


@dataclass(frozen=True)
class PipelineConfig:
    """Run settings.  The annotations are the JSON schema of a config file:
    a tuple field arrives as an array, and only ``| None`` fields take null."""

    system: dict | str
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
        for name, low in _CONFIG_MINIMA.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise SchemaError(f"/{name}", f"must be >= {low}")
        for i, eps in enumerate(self.eps_list):
            if not 0 < eps <= 1:
                raise SchemaError(f"/eps_list/{i}", "must lie in (0, 1]")
        for i, scale in enumerate(self.block_scales):
            if scale < 1:
                raise SchemaError(f"/block_scales/{i}", "must be >= 1")
        for i, (word, weight) in enumerate(self.target or ()):
            if not word:
                raise SchemaError(f"/target/{i}/word", "word must be non-empty")
            if not weight > 0:  # a NaN weight fails too
                raise SchemaError(f"/target/{i}/weight", "must be > 0")
        # the rule sigmund_approximation applies, checked before any level is computed
        if self.target and abs(sum(w for _, w in self.target) - 1.0) > MARGINAL_TOL:
            raise SchemaError("/target", "weights must sum to 1")


def _json_types(hint):
    """The JSON types a config field of annotation ``hint`` takes, and whether it takes null."""
    types = typing.get_args(hint) or (hint,)
    return tuple(list if t is tuple else t for t in types if t is not type(None)), type(None) in types


#: field name -> (JSON types, takes null), read once from PipelineConfig's annotations
_CONFIG_SCHEMA = {key: _json_types(hint) for key, hint in typing.get_type_hints(PipelineConfig).items()}
_TARGET_SCHEMA = {"word": ((list,), False), "weight": ((int, float), False)}


@dataclass
class PipelineReport:
    levels: list = field(default_factory=list)
    cross_level: list = field(default_factory=list)
    density: dict | None = None
    errors: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)


def config_from_dict(data):
    """Strictly validated config; unknown fields are schema errors."""
    _object(data, "", _CONFIG_SCHEMA, ("system",))
    for key, types in (("eps_list", (int, float)), ("block_scales", (int,))):
        for i, entry in enumerate(data.get(key, ())):
            _check_type(f"/{key}/{i}", entry, types)
    for i, comp in enumerate(data.get("target") or ()):
        _object(comp, f"/target/{i}", _TARGET_SCHEMA, _TARGET_SCHEMA)
        for v in comp["word"]:
            _check_type(f"/target/{i}/word", v, (int,))
    kwargs = dict(data)
    if "eps_list" in data:
        kwargs["eps_list"] = tuple(float(e) for e in data["eps_list"])
    if "block_scales" in data:
        kwargs["block_scales"] = tuple(data["block_scales"])
    if data.get("target") is not None:
        kwargs["target"] = tuple((tuple(c["word"]), float(c["weight"])) for c in data["target"])
    return PipelineConfig(**kwargs)


def load_config(path):
    return config_from_dict(_read_json(path))


def resolve_system(spec):
    """System from a config ``system`` entry: path, builtin, or inline dict."""
    if isinstance(spec, str):
        system, _ = load_system(spec)
        return system
    if isinstance(spec, dict) and "builtin" in spec:
        name = spec["builtin"]
        if not isinstance(name, str) or name not in BUILTIN_SYSTEMS:
            raise SchemaError("/system/builtin", f"unknown builtin {name!r}")
        params = inspect.signature(BUILTIN_SYSTEMS[name]).parameters  # the other fields, integers
        fields = dict.fromkeys(params, ((int,), False)) | {"builtin": ((str,), False)}
        _object(spec, "/system", fields, [key for key, p in params.items() if p.default is p.empty])
        with _under("/system"):
            return BUILTIN_SYSTEMS[name](**{k: v for k, v in spec.items() if k != "builtin"})
    return system_from_dict(spec, "/system")[0]


def _config_hash(cfg):
    """sha256 of every field but ``out_dir``; tuples hash as arrays, an empty target as null."""
    payload = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "out_dir"}
    payload["target"] = cfg.target or None
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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
    words, truncated = simple_cycle_words(graph.adjacency, cfg.period_cap, cfg.enumeration_cap)
    entry["ergodic_count"] = sum(len(w) for w in words)
    entry["ergodic_truncated"] = truncated
    return graph, words, entry


def _sampled_orbits(words, cap):
    """Orbit measures of at most ``cap`` evenly spaced per-length cycle words.

    The words run shortest first, so evenly spaced indices keep every period
    stratum represented without depending on the RNG.
    """
    starts = np.cumsum([0] + [len(w) for w in words])
    count = int(starts[-1])
    idx = range(count)
    if count > cap:
        idx = sorted({round(i * (count - 1) / (cap - 1)) for i in range(cap)})
    length = np.searchsorted(starts, idx, side="right") - 1
    return [
        PeriodicOrbitMeasure(tuple(words[k][i - starts[k]].tolist())) for i, k in zip(idx, length)
    ]


def run_pipeline(cfg):
    """Per-level certification, cross-level table from one pi_bar_matrices call, density demo."""
    sys = resolve_system(cfg.system)
    report = PipelineReport()
    report.provenance = {
        "config_hash": _config_hash(cfg),
        "version": __version__,
        "system_points": sys.n,
        "seed": cfg.seed,
    }
    levels = [_level_entry(sys, n, cfg) for n in range(1, cfg.n_max + 1)]
    report.levels = [entry for _, _, entry in levels]
    samples = [_sampled_orbits(words, cfg.hausdorff_sample) for _, words, _ in levels]
    short = [len(s) < entry["ergodic_count"] for s, entry in zip(samples, report.levels)]
    # an entry depends only on its two words: a level pair's slice is its own call, bit for bit
    coarse, fine = sum(samples[:-1], []), sum(samples[1:], [])
    best, _, aligned = pi_bar_matrices(coarse, fine, sys, cfg.pi_radius)
    at = np.cumsum([0] + [len(s) for s in samples])
    for n, m in itertools.combinations(range(1, cfg.n_max + 1), 2):
        if not samples[n - 1] or not samples[m - 1]:
            report.errors.append(
                {"stage": "cross_level", "pair": [n, m], "reason": "empty ergodic set"}
            )
            continue
        block = np.s_[at[n - 1] : at[n], at[m - 1] - at[1] : at[m] - at[1]]
        value = _hausdorff(best[block])
        # one-sided consistency: the phase-0 value dominates pi_bar pairwise, so
        # its Hausdorff value dominates the reported one (same sampling on both sides)
        bound = _hausdorff(aligned[block])
        report.cross_level.append(
            {
                "coarse": n,
                "fine": m,
                "pi_bar_hausdorff": value,
                "aligned_bound": bound,
                "sampled": short[n - 1] or short[m - 1],
                "bound_holds": bool(value <= bound + 1e-9),
            }
        )
    if cfg.target:
        level = cfg.density_level if cfg.density_level is not None else cfg.n_max
        graph = levels[level - 1][0] if level <= cfg.n_max else None
        try:
            report.density = density_demo(cfg, level, sys=sys, graph=graph)
        except (NotMixing, DegenerateWeights, SchemaError) as exc:
            report.errors.append({"stage": "density_demo", "reason": str(exc)})
    return report


def density_demo(cfg, level, sys=None, graph=None):
    """Distance-to-target table of the gluing approximant across block scales."""
    if level < 1:
        raise SchemaError("/density_level", "level must be >= 1")
    if sys is None:
        sys = resolve_system(cfg.system)
    if graph is None:
        graph = build_chain_graph(sys, 1.0 / level)
    if graph.certificate.mixing_constant is None:
        raise NotMixing(f"level {level} graph is not primitive")
    if not cfg.target:
        raise SchemaError("/target", "density demo requires a target mixture")
    for i, (word, _) in enumerate(cfg.target):
        if any(not 0 <= v < sys.n for v in word):
            raise SchemaError(f"/target/{i}/word", f"point ids must lie in [0, {sys.n})")
    target = [(PeriodicOrbitMeasure(word), weight) for word, weight in cfg.target]
    for i, (pm, _) in enumerate(target):
        if not graph.adjacency[pm.word, np.roll(pm.word, -1)].all():
            raise SchemaError(f"/target/{i}/word", "word is not a cycle of the level graph")
    target_cyl = mixture_cylinders(target, cfg.cylinder_depth)
    approxes = [sigmund_approximation(target, graph, scale) for scale in cfg.block_scales]
    pairs = [(empirical_measure(approx, cfg.cylinder_depth), target_cyl) for approx in approxes]
    proxies = weakstar_proxies(pairs, cfg.cylinder_depth, sys)
    rows = [
        {
            "block_scale": scale,
            "approx_period": approx.period,
            "weakstar_proxy": proxy,
            "pi_bar_upper": pi_bar_mixture_upper([(approx, 1.0)], target, sys, cfg.pi_radius),
        }
        for scale, approx, proxy in zip(cfg.block_scales, approxes, proxies)
    ]
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
    density_rows = report.density["rows"] if report.density else []
    tables = (
        ("distances.csv", report.cross_level,
         ("coarse", "fine", "pi_bar_hausdorff", "aligned_bound")),
        ("density.csv", density_rows,
         ("block_scale", "approx_period", "weakstar_proxy", "pi_bar_upper")),
    )
    for name, rows, columns in tables:
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([row[c] for c in columns] for row in rows)
    plot = {
        "level_vs_distance": [
            [row["fine"], row["pi_bar_hausdorff"]] for row in report.cross_level
        ],
        "scale_vs_distance": [[row["block_scale"], row["weakstar_proxy"]] for row in density_rows],
    }
    with open(os.path.join(out_dir, "plot_data.json"), "w") as fh:
        json.dump(plot, fh, indent=2, sort_keys=True)
        fh.write("\n")
