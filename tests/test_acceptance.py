"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line so a plain `pytest -s` run doubles
as an acceptance report.  Oracles here are written from scratch and never
call the code path they check.
"""

import itertools
import json
import subprocess
import sys as _sys

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from conftest import from_periodic, length_one_marginal
from deltachain.builders import circle_doubling, circle_rotation, random_metric
from deltachain.chain import build_chain_graph, mixing_certificate
from deltachain.core import TOL, FiniteTrajectory, IntervalSegment
from deltachain.measures import (
    PeriodicOrbitMeasure,
    ergodic_measures_of_graph,
    hausdorff_distance,
    pi_bar_mixture_upper,
    rho_bar_markov_upper,
    rho_bar_periodic,
    sigmund_approximation,
    w1_distance,
    weakstar_proxy,
    empirical_measure,
    mixture_cylinders,
)
from deltachain.shadowing import equivalence_bound_check
from deltachain.specification import (
    SpacedSpecification,
    spacing_constant,
    trace_specification,
    verify_trace,
)


def _report(num, ok, detail):
    print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} failed: {detail}"


BUNDLED = [
    ("circle-doubling(8)", circle_doubling(8)),
    ("circle-rotation(8, 3)", circle_rotation(8, 3)),
    ("random-metric(8)", random_metric(8, seed=0)),
]


def test_acceptance_1_chain_graph_axioms():
    """delta = 1 gives the complete graph; edge sets nest as delta shrinks."""
    checked = 0
    for name, sys in BUNDLED:
        graphs = [build_chain_graph(sys, 1.0 / n) for n in range(1, 9)]
        assert graphs[0].adjacency.all(), f"{name}: delta=1 graph not complete"
        for coarse, fine in zip(graphs, graphs[1:]):
            assert (fine.adjacency <= coarse.adjacency).all(), f"{name}: nesting broken"
            checked += 1
    _report(1, True, f"{len(BUNDLED)} systems, {checked} nested level pairs")


def test_acceptance_2_mixing_constant():
    """M = 2 on doubling-grid(4) at delta = 1/4, against the power oracle."""
    g = build_chain_graph(circle_doubling(4), 0.25)
    cert = mixing_certificate(g)
    # independent oracle: scan boolean powers directly
    a = g.adjacency.astype(bool)
    power, oracle_m = a.copy(), 1
    while not power.all():
        power = power @ a
        oracle_m += 1
    ok = cert.mixing_constant == 2 == oracle_m
    # minimality witness: at M - 1 some pair is still unreachable
    witness = not np.linalg.matrix_power(a.astype(int), cert.mixing_constant - 1).all()
    _report(2, ok and witness, f"M={cert.mixing_constant}, oracle={oracle_m}, witness at M-1")


def test_acceptance_3_specification_tracing():
    """500 random spaced specs trace, verify, and hit the exact period."""
    sys = circle_doubling(15)
    g = build_chain_graph(sys, 0.2)
    cert = mixing_certificate(g)
    rng = np.random.default_rng(42)

    def walk(lo, hi):
        out = [int(rng.integers(0, g.n))]
        for _ in range(hi - lo):
            out.append(int(rng.choice(g.successors(out[-1]))))
        return FiniteTrajectory(out, origin=-lo)

    cases = exact_period_hits = 0
    for trial in range(500):
        eps = 0.5 if trial % 2 == 0 else 1.0 / 3
        n_margin, k = spacing_constant(eps, cert)
        nsegs = int(rng.integers(1, 4))
        segments, a = [], 0
        for i in range(nsegs):
            b = a + int(rng.integers(1, 6))
            lo, hi = a - n_margin + 1, b + n_margin - 2
            segments.append(IntervalSegment(a, b, walk(lo, hi)))
            slack = int(rng.integers(0, 3))
            a = b + k + slack
        spec = SpacedSpecification(tuple(segments))
        y = trace_specification(spec, g, eps)
        ok, detail = verify_trace(y, spec, g, eps)
        assert ok, f"case {trial}: {detail}"
        # literal equality on every declared coordinate
        for seg in segments:
            for c in range(seg.a, seg.b):
                assert y.at(c) == seg.source.at(c), f"case {trial}: coordinate {c}"
        total_slack = sum(
            segments[i + 1].a - segments[i].b - k for i in range(nsegs - 1)
        )
        if total_slack == 0:
            assert y.period == segments[-1].b + k, f"case {trial}: period {y.period}"
            exact_period_hits += 1
        cases += 1
    _report(3, cases == 500, f"{cases} cases verified, {exact_period_hits} exact-spacing periods")


def test_acceptance_4_equivalence_constants():
    """Counting inequality with delta' = delta/(2N+1) on 10200 random pairs."""
    sys = circle_doubling(15)
    rng = np.random.default_rng(7)
    failures = total = 0
    for delta in (0.5, 1.0 / 3, 0.2):
        n_d = int(1.0 / delta - 1.0 + TOL)
        span = 200 + 2 * n_d + 1
        for _ in range(3400):
            x = FiniteTrajectory(rng.integers(0, 15, span).tolist(), origin=n_d)
            y = FiniteTrajectory(rng.integers(0, 15, span).tolist(), origin=n_d)
            ok, counts = equivalence_bound_check(x, y, sys, 200, delta)
            assert counts["delta_prime"] == pytest.approx(delta / (2 * n_d + 1))
            total += 1
            failures += not ok
    _report(4, failures == 0, f"{total} pairs, {failures} failures")


def _orbit_coupling_lp(wp, wq, cost):
    """From-scratch LP over shift-invariant couplings of two periodic orbits."""
    p, q = len(wp), len(wq)
    rows, cols, data, b_eq = [], [], [], []
    r = 0
    for i in range(p):
        for j in range(q):
            rows += [r, r]
            cols += [i * q + j, ((i + 1) % p) * q + (j + 1) % q]
            data += [1.0, -1.0]
            b_eq.append(0.0)
            r += 1
    for i in range(p):
        for j in range(q):
            rows.append(r)
            cols.append(i * q + j)
            data.append(1.0)
        b_eq.append(1.0 / p)
        r += 1
    for j in range(q - 1):
        for i in range(p):
            rows.append(r)
            cols.append(i * q + j)
            data.append(1.0)
        b_eq.append(1.0 / q)
        r += 1
    a_eq = coo_matrix((data, (rows, cols)), shape=(r, p * q))
    c = np.array([cost[wp[i], wq[j]] for i in range(p) for j in range(q)])
    res = linprog(c, A_eq=a_eq, b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def _necklaces_period_up_to(max_period, alphabet):
    words = set()
    for length in range(1, max_period + 1):
        for w in itertools.product(range(alphabet), repeat=length):
            pm = PeriodicOrbitMeasure(w)
            if pm.period == length:
                words.add(pm.word)
    return sorted(words)


def test_acceptance_5_rho_bar_oracles():
    """Phase formula vs coupling LP, exhaustively; Markov LP vs phase formula."""
    sys = random_metric(3, seed=1)
    words = _necklaces_period_up_to(4, 3)
    assert len(words) == 32
    checked = 0
    for wp in words:
        for wq in words:
            value, _ = rho_bar_periodic(
                PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq), sys.dist
            )
            oracle = _orbit_coupling_lp(wp, wq, sys.dist)
            assert abs(value - oracle) <= 1e-9, (wp, wq, value, oracle)
            checked += 1
    # Markov route on random periodic pairs over a larger alphabet
    sys5 = random_metric(5, seed=2)
    rng = np.random.default_rng(11)
    markov_checked = 0
    for _ in range(50):
        wp = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 5))))
        wq = tuple(int(v) for v in rng.integers(0, 5, int(rng.integers(1, 5))))
        pm, qm = PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq)
        mu, nu = from_periodic(pm), from_periodic(qm)
        cost = sys5.dist[np.array(pm.word)[:, None], np.array(qm.word)[None, :]]
        upper = rho_bar_markov_upper(mu, nu, cost).value
        value, _ = rho_bar_periodic(pm, qm, sys5.dist)
        assert abs(upper - value) <= 1e-9, (wp, wq, upper, value)
        markov_checked += 1
    _report(5, True, f"{checked} exhaustive LP pairs, {markov_checked} Markov encodings")


def test_acceptance_6_sandwich_inequalities():
    """W1(marginals) <= rho_bar <= unrotated aligned average, suite-wide."""
    sys = random_metric(3, seed=1)
    words = _necklaces_period_up_to(4, 3)
    violations = checked = 0
    for wp in words:
        for wq in words:
            pm, qm = PeriodicOrbitMeasure(wp), PeriodicOrbitMeasure(wq)
            value, _ = rho_bar_periodic(pm, qm, sys.dist)
            lower = w1_distance(
                length_one_marginal(pm, 3), length_one_marginal(qm, 3), sys.dist
            ).value
            p, q = pm.period, qm.period
            L = int(np.lcm(p, q))
            aligned = float(
                np.mean([sys.dist[pm.word[t % p], qm.word[t % q]] for t in range(L)])
            )
            if not (lower <= value + 1e-9 and value <= aligned + 1e-9):
                violations += 1
            checked += 1
    _report(6, violations == 0, f"{checked} pairs, {violations} violations")


def _stratified(items, cap):
    if len(items) <= cap:
        return list(items)
    idx = sorted({round(i * (len(items) - 1) / (cap - 1)) for i in range(cap)})
    return [items[i] for i in idx]


def _full_vs_ergodic_gap(sys, n_coarse, n_fine, sample=25, radius=6):
    """|H(full sets) - H(ergodic sets)| where full = ergodic + 50/50 mixtures."""
    erg_a, _ = ergodic_measures_of_graph(build_chain_graph(sys, 1.0 / n_coarse), 5, 20_000)
    erg_b, _ = ergodic_measures_of_graph(build_chain_graph(sys, 1.0 / n_fine), 5, 20_000)
    sa, sb = _stratified(erg_a, sample), _stratified(erg_b, sample)

    def mixtures(lst):
        pure = [((m, 1.0),) for m in lst]
        mixed = [
            ((lst[i], 0.5), (lst[(i + 1) % len(lst)], 0.5)) for i in range(len(lst))
        ]
        return pure, pure + mixed

    pure_a, full_a = mixtures(sa)
    pure_b, full_b = mixtures(sb)
    cache = {}

    def dist(x, y):
        key = (
            tuple((c.word, w) for c, w in x),
            tuple((c.word, w) for c, w in y),
        )
        if key not in cache:
            cache[key] = pi_bar_mixture_upper(list(x), list(y), sys, radius)
        return cache[key]

    h_erg = hausdorff_distance(pure_a, pure_b, dist)
    h_full = hausdorff_distance(full_a, full_b, dist)
    return h_erg, h_full


def test_acceptance_7_hausdorff_ergodic_consistency():
    """Hausdorff over full measure sets tracks the ergodic-only value."""
    details = []
    ok = True
    for name, sys, levels in (
        ("circle-doubling(15)", circle_doubling(15), (3, 5)),
        ("circle-rotation(9, 2)", circle_rotation(9, 2), (2, 4)),
    ):
        h_erg, h_full = _full_vs_ergodic_gap(sys, *levels)
        gap = abs(h_full - h_erg)
        details.append(f"{name}: H_erg={h_erg:.4f} H_full={h_full:.4f} gap={gap:.4f}")
        ok = ok and gap <= 0.05
    _report(7, ok, "; ".join(details))


def test_acceptance_8_density_demonstration():
    """Sigmund approximant reaches proxy < 0.05 by L* <= 256, then stays there."""
    sys = circle_doubling(15)
    g = build_chain_graph(sys, 0.2)
    target = [
        (PeriodicOrbitMeasure((0,)), 0.5),
        (PeriodicOrbitMeasure((5, 10)), 0.5),
    ]
    depth = 3
    target_cyl = mixture_cylinders(target, depth)
    scales = [8, 16, 32, 64, 128, 256]
    proxies = []
    for L in scales:
        approx = sigmund_approximation(target, g, L)
        proxies.append(
            weakstar_proxy(empirical_measure(approx, depth), target_cyl, depth, sys)
        )
    l_star = next((L for L, v in zip(scales, proxies) if v < 0.05), None)
    ok = l_star is not None
    if ok:
        after = [v for L, v in zip(scales, proxies) if L >= l_star]
        ok = all(b <= a + 1e-9 for a, b in zip(after, after[1:]))
    _report(8, ok, f"L*={l_star}, proxies={[round(v, 4) for v in proxies]}")


def test_acceptance_9_determinism(tmp_path):
    """Two identical analyze runs emit byte-identical reports modulo timestamp."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "system": {"builtin": "circle-doubling", "n": 15},
                "n_max": 4,
                "period_cap": 3,
                "pi_radius": 6,
                "hausdorff_sample": 20,
                "target": [
                    {"word": [0], "weight": 0.5},
                    {"word": [5, 10], "weight": 0.5},
                ],
                "block_scales": [8, 32, 128],
                "density_level": 4,
                "seed": 0,
            }
        )
    )
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [
                _sys.executable, "-m", "deltachain.cli",
                "analyze", "--config", str(cfg_path), "--out", str(out_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = {}
        for name in ("report.json", "distances.csv", "density.csv", "plot_data.json"):
            text = (out_dir / name).read_text()
            if name == "report.json":
                text = "\n".join(
                    line for line in text.split("\n") if '"generated_at"' not in line
                )
            files[name] = text
        outputs.append(files)
    ok = outputs[0] == outputs[1]
    _report(9, ok, "4 artifacts compared across 2 runs")
