"""The three workloads: seeded input generation, the timed op, and its check.

Inputs come from numpy's generator seeded with (seed, workload id, op
index), so op i of a seed is the same on every run and every commit.  Ops
call deltachain only through public names looked up on its modules at call
time, which is what lets the tracer interpose.  Checks go through
:mod:`oracles`, which never imports deltachain.

Sizes are set by op cost: a run must fit 100+ timed ops (for p90) into
its measuring window on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import oracles as ref
from oracles import FLOAT_TOL, LP_FEAS_TOL, LP_TOL, expect, expect_close

import deltachain
from deltachain import chain as dc_chain
from deltachain import cli as dc_cli
from deltachain import core as dc_core
from deltachain import measures as dc_measures
from deltachain import shadowing as dc_shadowing
from deltachain import specification as dc_spec

# analyze: inline random-metric system; 12 points and 12-word Hausdorff samples
# keep an op near 0.2 s (the level-1 graph is complete: 3488 simple cycles)
ANALYZE_POINTS = 12
ANALYZE_CONFIG = {
    "n_max": 4,
    "period_cap": 4,
    "pi_radius": 6,
    "hausdorff_sample": 12,
    "block_scales": [8, 32, 128],
}
# settings the pipeline applies by default; the oracle needs their values
ANALYZE_DEFAULTS = {"enumeration_cap": 10_000, "eps_list": [0.5], "cylinder_depth": 3}

# certify: one size per op in rotation, so every run sees the same size mix
CERTIFY_SIZES = (180, 190, 200, 210, 220)
CERTIFY_DELTAS = (0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.14, 0.16, 0.20, 0.25, 0.35, 0.5, 1.0)
CERTIFY_EPS = 0.25
CERTIFY_SEGMENTS = 4
CERTIFY_RADIUS = 8

# transport: w1 is the majority; the pattern repeats every five ops
TRANSPORT_PATTERN = ("w1", "w1", "markov", "w1", "weakstar")
WEAKSTAR_POINTS = 10
WEAKSTAR_DEPTH = 3


def _rng(seed, workload_id, index):
    return np.random.default_rng([int(seed), workload_id, int(index)])


def _euclidean(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _size(index, lo, hi, step=0.6180339887498949):
    """Size in [lo, hi] from a low-discrepancy sequence over the op index.

    Sizes do not depend on the seed, so every seed sees the same size mix
    and op-time medians do not move with the seed's draw of sizes.
    """
    return lo + int((hi - lo + 1) * ((index * step) % 1.0))


def _weights(rng, m):
    w = rng.random(m) + 0.05
    return w / w.sum()


class Workload:
    """Interface: make_input(i) -> input; run(input) -> output (timed);
    check(input, output) raises OracleMismatch; fingerprint(input, output)
    -> bytes two runs of one input must reproduce; cleanup(input)."""

    workload_id = 0

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def kind(self, inp):
        return self.name

    def cleanup(self, inp):
        pass


class Analyze(Workload):
    """cli analyze on an inline random-metric system with true-orbit targets."""

    name = "analyze"
    workload_id = 1

    def make_input(self, index):
        rng = _rng(self.seed, self.workload_id, index)
        n = ANALYZE_POINTS
        while True:  # a mixture needs two orbits short enough for block scale 8
            pts = rng.random((n, 2))
            image = [int(v) for v in rng.integers(0, n, size=n)]
            cycles = sorted(
                (c for c in ref.true_cycles(image) if len(c) <= 8), key=lambda c: (len(c), c)
            )
            if len(cycles) >= 2:
                break
        raw = _euclidean(pts, pts)
        dist = ref.normalized(raw)
        primitive = [
            level
            for level in range(1, ANALYZE_CONFIG["n_max"] + 1)
            if ref.certificate(ref.chain_adjacency(dist, image, 1.0 / level))[2] is not None
        ]
        target = [(cycles[0], 0.5), (cycles[1], 0.5)]
        config = dict(
            ANALYZE_CONFIG,
            system={"points": [f"p{i}" for i in range(n)], "metric": {"matrix": raw.tolist()}, "map": image},
            target=[{"word": list(w), "weight": wt} for w, wt in target],
            density_level=max(primitive),
            seed=int(index),
        )
        op_dir = os.path.join(self.work_dir, f"analyze-{index}")
        os.makedirs(op_dir)
        config_path = os.path.join(op_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        return {
            "index": index,
            "dir": op_dir,
            "config_path": config_path,
            "config": config,
            "dist": dist,
            "image": image,
            "target": target,
            "runs": 0,
        }

    def run(self, inp):
        inp["runs"] += 1
        out_dir = os.path.join(inp["dir"], f"out{inp['runs']}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dc_cli.main(["analyze", "--config", inp["config_path"], "--out", out_dir])
        return {"code": code, "stdout": buf.getvalue(), "out_dir": out_dir}

    def fingerprint(self, inp, out):
        parts = []
        for name in ("report.json", "distances.csv", "density.csv", "plot_data.json"):
            with open(os.path.join(out["out_dir"], name), "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            parts.append(b"".join(line for line in lines if b'"generated_at"' not in line))
        return b"\x00".join(parts)

    def cleanup(self, inp):
        shutil.rmtree(inp["dir"], ignore_errors=True)

    def check(self, inp, out):
        cfg = dict(ANALYZE_DEFAULTS, **inp["config"])
        expect(out["code"] == 0, f"analyze exited with {out['code']}")
        printed = json.loads(out["stdout"].strip().splitlines()[-1])
        expect(printed == {"out_dir": out["out_dir"], "levels": cfg["n_max"]}, f"stdout {printed}")
        with open(os.path.join(out["out_dir"], "report.json")) as fh:
            report = json.load(fh)
        dist, image = inp["dist"], inp["image"]
        expect(report["errors"] == [], f"report errors {report['errors']}")
        prov = report["provenance"]
        expect(prov["system_points"] == len(image) and prov["seed"] == cfg["seed"], "provenance")
        expect(len(prov["config_hash"]) == 64, "config hash is not a sha256 hex digest")

        # levels
        levels = report["levels"]
        expect([lv["n"] for lv in levels] == list(range(1, cfg["n_max"] + 1)), "level list")
        adjs, cycle_sets, certs = {}, {}, {}
        for lv in levels:
            n = lv["n"]
            adj = ref.chain_adjacency(dist, image, 1.0 / n)
            sc, per, m = ref.certificate(adj)
            adjs[n], certs[n] = adj, m
            expect(lv["delta"] == 1.0 / n, f"level {n} delta")
            expect(lv["edges"] == int(adj.sum()), f"level {n} edges {lv['edges']} vs {int(adj.sum())}")
            got = (lv["strongly_connected"], lv["period"], lv["mixing_constant"])
            expect(got == (sc, per, m), f"level {n} certificate {got}, reference {(sc, per, m)}")
            spacing = {}
            if m is not None:
                for eps in cfg["eps_list"]:
                    n_margin = math.ceil(1.0 / eps - 1e-12)
                    spacing[str(float(eps))] = {"N": n_margin, "k": 2 * n_margin - 2 + m}
            expect(lv["spacing_constants"] == spacing, f"level {n} spacing constants")
            cycles, truncated = ref.simple_cycles(adj, cfg["period_cap"], cfg["enumeration_cap"])
            cycle_sets[n] = cycles
            expect(
                (lv["ergodic_count"], lv["ergodic_truncated"]) == (len(cycles), truncated),
                f"level {n} ergodic count {lv['ergodic_count']} vs {len(cycles)}",
            )

        # cross-level distances over the same stratified samples
        rows = report["cross_level"]
        pairs = [(n, m) for n in range(1, cfg["n_max"] + 1) for m in range(n + 1, cfg["n_max"] + 1)]
        expect([(r["coarse"], r["fine"]) for r in rows] == pairs, "cross-level pairs")
        for row in rows:
            coarse, c_full = ref.stratified(cycle_sets[row["coarse"]], cfg["hausdorff_sample"])
            fine, f_full = ref.stratified(cycle_sets[row["fine"]], cfg["hausdorff_sample"])
            best, aligned = ref.pi_bar_matrix(dist, coarse, fine, cfg["pi_radius"])
            value, bound = ref.hausdorff(best.tolist()), ref.hausdorff(aligned.tolist())
            where = f"cross-level {row['coarse']}->{row['fine']}"
            expect_close(row["pi_bar_hausdorff"], value, FLOAT_TOL, where)
            expect_close(row["aligned_bound"], bound, FLOAT_TOL, where + " aligned")
            expect(row["sampled"] == (not (c_full and f_full)), where + " sampled flag")
            expect(row["bound_holds"] == bool(value <= bound + 1e-9), where + " bound flag")

        # density demonstration at the configured level
        density = report["density"]
        level = cfg["density_level"]
        m = certs[level]
        expect(density is not None and density["level"] == level, "density level")
        target = inp["target"]
        target_blocks = ref.mixture_blocks(target, cfg["cylinder_depth"])
        expect([r["block_scale"] for r in density["rows"]] == cfg["block_scales"], "density scales")
        for row in density["rows"]:
            word = ref.sigmund_word(target, adjs[level], m, row["block_scale"])
            root = ref.primitive_root(word)
            where = f"density scale {row['block_scale']}"
            expect(row["approx_period"] == len(root), f"{where} period {row['approx_period']} vs {len(root)}")
            blocks = {w: ref.cyclic_blocks(root, w) for w in range(1, cfg["cylinder_depth"] + 1)}
            proxy = ref.weakstar(blocks, target_blocks, cfg["cylinder_depth"], dist)
            expect_close(row["weakstar_proxy"], proxy, LP_TOL, where + " weak* proxy")
            upper = sum(
                wt * ref.pi_bar_phases(dist, [(root, tuple(w))], cfg["pi_radius"])[0].min()
                for w, wt in target
            )
            expect_close(row["pi_bar_upper"], upper, FLOAT_TOL, where + " pi-bar upper bound")

        # the CSV tables carry the same numbers
        with open(os.path.join(out["out_dir"], "distances.csv")) as fh:
            table = [line.split(",") for line in fh.read().split("\n")[1:] if line]
        expect(
            [(int(c), int(f), float(v), float(b)) for c, f, v, b in table]
            == [(r["coarse"], r["fine"], r["pi_bar_hausdorff"], r["aligned_bound"]) for r in rows],
            "distances.csv differs from report.json",
        )


class Certify(Workload):
    """normalize -> system -> chain graph -> certificate -> glue -> verify -> Besicovitch."""

    name = "certify"
    workload_id = 2

    def make_input(self, index):
        rng = _rng(self.seed, self.workload_id, index)
        n = CERTIFY_SIZES[index % len(CERTIFY_SIZES)]
        pts = rng.random((n, 2))
        image = [int(v) for v in rng.integers(0, n, size=n)]
        raw = _euclidean(pts, pts)
        dist = ref.normalized(raw)
        for delta in CERTIFY_DELTAS:  # least grid threshold with a primitive graph
            adj = ref.chain_adjacency(dist, image, delta)
            if ref.strongly_connected(adj):
                m = ref.mixing_constant(adj)
                if m is not None:
                    break
        n_margin = math.ceil(1.0 / CERTIFY_EPS - 1e-12)
        gap = 2 * n_margin - 2 + m
        segments = []  # (a, b, entries, origin): true orbits covering their margins
        a = 0
        for _ in range(CERTIFY_SEGMENTS):
            b = a + int(rng.integers(8, 17))
            x = int(rng.integers(0, n))
            entries = [x]
            for _ in range(b - a + 2 * n_margin - 3):
                entries.append(image[entries[-1]])
            segments.append((a, b, entries, n_margin - 1 - a))
            a = b + gap + int(rng.integers(0, 4))
        return {
            "raw": raw,
            "dist": dist,
            "labels": tuple(str(i) for i in range(n)),
            "image": image,
            "delta": delta,
            "adjacency": adj,
            "m": m,
            "n_margin": n_margin,
            "segments": segments,
        }

    def run(self, inp):
        dist = dc_core.normalize_metric(inp["raw"])
        system = dc_core.FiniteMetricSystem(inp["labels"], dist, tuple(inp["image"]))
        graph = dc_chain.build_chain_graph(system, inp["delta"])
        cert = dc_chain.mixing_certificate(graph)
        spec = dc_spec.SpacedSpecification(
            tuple(
                dc_core.IntervalSegment(a, b, dc_core.FiniteTrajectory(entries, origin))
                for a, b, entries, origin in inp["segments"]
            )
        )
        chain = dc_spec.trace_specification(spec, graph, CERTIFY_EPS)
        verdict = dc_spec.verify_trace(chain, spec, graph, CERTIFY_EPS)
        K, horizon = CERTIFY_RADIUS, chain.period
        x = chain.as_trajectory(-K, horizon - 1 + K)
        orbit = dc_core.FiniteTrajectory(system.orbit(x.at(-K), horizon + 2 * K), origin=K)
        return {
            "system": system,
            "graph": graph,
            "cert": cert,
            "chain": chain,
            "verdict": verdict,
            "pi": dc_shadowing.besicovitch_pi(x, orbit, system, horizon, K),
            "hat": dc_shadowing.hat_rho(x, orbit, system, horizon),
        }

    def fingerprint(self, inp, out):
        cert, chain = out["cert"], out["chain"]
        return repr((cert, chain.word, chain.origin_offset, out["verdict"], out["pi"], out["hat"])).encode()

    def check(self, inp, out):
        dist, image, m = inp["dist"], inp["image"], inp["m"]
        system = out["system"]
        expect(np.array_equal(system.dist, dist), "normalized metric differs from min(raw, 1)")
        expect(tuple(system.map_image) == tuple(image), "map differs")
        expect(np.array_equal(out["graph"].adjacency, inp["adjacency"]), "chain graph adjacency")
        cert = out["cert"]
        got = (cert.strongly_connected, cert.period, cert.mixing_constant)
        expect(got == (True, 1, m), f"certificate {got}, reference (True, 1, {m})")
        chain = out["chain"]
        ref.check_glued_word(
            chain.word, chain.origin_offset, inp["segments"], inp["adjacency"], inp["n_margin"], m
        )
        expect(out["verdict"] == (True, {"failed": None, "period": chain.period}), f"verify_trace {out['verdict']}")
        K, horizon, word, off = CERTIFY_RADIUS, chain.period, chain.word, chain.origin_offset
        x = [word[(c + off) % horizon] for c in range(-K, horizon + K)]
        orbit = [x[0]]
        for _ in range(horizon + 2 * K - 1):
            orbit.append(image[orbit[-1]])
        pi = out["pi"]
        expect((pi.horizon, pi.error_bar) == (horizon, 1.0 / (K + 2)), "Besicovitch horizon/error bar")
        expect_close(pi.value, ref.besicovitch_pi(dist, x, K, orbit, K, horizon, K), FLOAT_TOL, "besicovitch_pi")
        d = [dist[x[K + k], orbit[K + k]] for k in range(horizon)]
        expect_close(out["hat"].value, ref.ky_fan(d), FLOAT_TOL, "hat_rho")


def _markov_kernel(rng, n):
    """Irreducible kernel: i -> i+1 plus up to two random successors (<= 3)."""
    kernel = np.zeros((n, n))
    for u in range(n):
        succ = sorted({(u + 1) % n} | {int(v) for v in rng.integers(0, n, size=2)})[:3]
        if (u + 1) % n not in succ:
            succ[-1] = (u + 1) % n
        kernel[u, succ] = _weights(rng, len(succ))
    lhs = np.vstack([kernel.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    stationary = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return kernel, stationary


class Transport(Workload):
    """HiGHS transport LPs: W1 (majority), Markov coupling bound, weak* proxy."""

    name = "transport"
    workload_id = 3

    def kind(self, inp):
        return inp["kind"]

    def make_input(self, index):
        rng = _rng(self.seed, self.workload_id, index)
        kind = TRANSPORT_PATTERN[index % len(TRANSPORT_PATTERN)]
        if kind == "w1":
            m1, m2 = _size(index, 60, 100), _size(index, 60, 100, step=0.4142135623730951)
            cost = _euclidean(rng.random((m1, 2)), rng.random((m2, 2)))
            return {"kind": kind, "a": _weights(rng, m1), "b": _weights(rng, m2), "cost": cost}
        if kind == "markov":
            n1, n2 = _size(index, 6, 8), _size(index, 6, 8, step=0.4142135623730951)
            p_mu, s_mu = _markov_kernel(rng, n1)
            p_nu, s_nu = _markov_kernel(rng, n2)
            cost = _euclidean(rng.random((n1, 2)), rng.random((n2, 2)))
            return {"kind": kind, "mu": (p_mu, s_mu), "nu": (p_nu, s_nu), "cost": cost}
        pts = rng.random((WEAKSTAR_POINTS, 2))
        dist = ref.normalized(_euclidean(pts, pts))
        labels = tuple(str(i) for i in range(WEAKSTAR_POINTS))
        words = [
            tuple(int(v) for v in rng.integers(0, WEAKSTAR_POINTS, size=_size(index, 12, 24, step)))
            for step in (0.6180339887498949, 0.4142135623730951)
        ]
        # built outside the timed op: core is not part of this workload
        system = deltachain.FiniteMetricSystem(labels, dist, tuple(range(WEAKSTAR_POINTS)))
        return {"kind": kind, "system": system, "dist": dist, "words": words}

    def run(self, inp):
        if inp["kind"] == "w1":
            return dc_measures.w1_distance(inp["a"], inp["b"], inp["cost"])
        if inp["kind"] == "markov":
            mu = dc_measures.MarkovMeasure(*inp["mu"])
            nu = dc_measures.MarkovMeasure(*inp["nu"])
            return dc_measures.rho_bar_markov_upper(mu, nu, inp["cost"])
        cyl = [
            dc_measures.empirical_measure(dc_measures.PeriodicOrbitMeasure(w), WEAKSTAR_DEPTH)
            for w in inp["words"]
        ]
        return dc_measures.weakstar_proxy(cyl[0], cyl[1], WEAKSTAR_DEPTH, inp["system"])

    def fingerprint(self, inp, out):
        if inp["kind"] == "weakstar":
            return repr(out).encode()
        return repr(out.value).encode() + np.asarray(out.plan).tobytes()

    def check(self, inp, out):
        kind = inp["kind"]
        if kind == "weakstar":
            blocks = [{w: ref.cyclic_blocks(word, w) for w in range(1, WEAKSTAR_DEPTH + 1)} for word in inp["words"]]
            want = ref.weakstar(blocks[0], blocks[1], WEAKSTAR_DEPTH, inp["dist"])
            expect_close(out, want, LP_TOL, "weakstar_proxy")
            return
        cost = inp["cost"]
        if kind == "w1":
            a, b = inp["a"], inp["b"]
            want = ref.w1_dual(a, b, cost)
        else:
            (p_mu, a), (p_nu, b) = inp["mu"], inp["nu"]
            want = ref.markov_coupling_dual(p_mu, a, p_nu, b, cost)
            expect_close(out.lower_bound, ref.w1_dual(a, b, cost), LP_TOL, "Markov lower bound")
            expect(out.lower_bound <= out.value + LP_TOL, "Markov bounds cross")
        plan = np.asarray(out.plan)
        expect(plan.shape == cost.shape and plan.min() >= -LP_FEAS_TOL, "plan shape or sign")
        # one marginal row of an LP may be implied by the others, so its
        # residual sums theirs, each within the solver's feasibility tolerance
        margin_tol = (len(a) + len(b)) * LP_FEAS_TOL
        expect(np.abs(plan.sum(axis=1) - a).max() <= margin_tol, "plan row marginals")
        expect(np.abs(plan.sum(axis=0) - b).max() <= margin_tol, "plan column marginals")
        expect_close(out.value, want, LP_TOL, f"{kind} value vs dual LP")
        if kind == "w1":
            expect_close(float(np.sum(plan * cost)), want, LP_TOL, "w1 plan cost")


WORKLOADS = {cls.name: cls for cls in (Analyze, Certify, Transport)}
