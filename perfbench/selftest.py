"""Oracle self-test: every check accepts a correct output and rejects a corrupted one.

Run on its own (``python3 perfbench/selftest.py``) it prints one PASS/FAIL
line per case and exits 1 if any case fails.  ``run.py`` runs the same
cases on every run: the known-answer cases, then corruptions of the
warm-up op's real output pushed through the workload's own check.

The first known-answer case is the mixing constant of the doubling map on
a 640-point circle grid at delta = 0.3.  The true value is 2; the uint8
boolean-power scan in deltachain's ``mixing_certificate`` reports 3 there,
because column sums above 255 wrap.  A gate that accepts 3 is not a gate.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import numpy as np

import oracles as ref
from oracles import OracleMismatch, expect


def _passes(check, value):
    try:
        check(value)
    except OracleMismatch:
        return False
    return True


def circle_doubling(n):
    i = np.arange(n)
    diff = np.abs(i[:, None] - i[None, :])
    return np.minimum(diff, n - diff) / n, [(2 * k) % n for k in range(n)]


def known_cases():
    """(name, check, correct value, corrupted value) with answers fixed by hand."""
    dist, image = circle_doubling(640)
    adj = ref.chain_adjacency(dist, image, 0.3)
    cases = [
        (
            "mixing constant of circle_doubling(640) at delta=0.3 is 2, not 3",
            lambda got: expect(got == ref.certificate(adj), f"certificate {got}"),
            (True, 1, 2),
            (True, 1, 3),
        )
    ]
    ring = np.roll(np.eye(3, dtype=bool), 1, axis=1)  # 0 -> 1 -> 2 -> 0: period 3
    cases.append(
        (
            "a 3-cycle has period 3 and no mixing constant",
            lambda got: expect(got == ref.certificate(ring), f"certificate {got}"),
            (True, 3, None),
            (True, 1, 3),
        )
    )
    small_d, small_img = circle_doubling(9)
    small_adj = ref.chain_adjacency(small_d, small_img, 0.2)
    flipped = small_adj.copy()
    flipped[0, 8] = not flipped[0, 8]
    cases.append(
        (
            "chain graph adjacency with one edge flipped",
            lambda got: expect(np.array_equal(got, ref.chain_adjacency(small_d, small_img, 0.2)), "adjacency"),
            small_adj,
            flipped,
        )
    )
    complete = np.ones((4, 4), dtype=bool)  # 4 + 6 + 8 + 6 simple cycles up to length 4
    cases.append(
        (
            "simple cycles of the complete 4-vertex graph with loops",
            lambda got: expect(got == len(ref.simple_cycles(complete, 4, 100)[0]), "cycle count"),
            24,
            23,
        )
    )
    radius = 6  # identical orbits: every term is 0, so each shift scores the tail
    cases.append(
        (
            "pi-bar of an orbit with itself is the tail 1/(K+2)",
            lambda got: ref.expect_close(
                got, ref.pi_bar_phases(small_d, [((1, 2, 4), (1, 2, 4))], radius)[0].min(), ref.FLOAT_TOL, "pi-bar"
            ),
            1.0 / (radius + 2),
            1.0 / (radius + 2) + 1e-6,
        )
    )
    rng = np.random.default_rng(0)
    wp, wq = (1, 5, 2, 7), (3, 0, 6, 6, 8, 4)
    literal = _literal_pi_bar(small_d, wp, wq, 3)
    cases.append(
        (
            "pi-bar kernel agrees with a literal triple loop",
            lambda got: ref.expect_close(
                got, ref.pi_bar_phases(small_d, [(wp, wq)], 3)[0].min(), ref.FLOAT_TOL, "pi-bar"
            ),
            literal,
            literal + 1e-6,
        )
    )
    cases.append(
        (
            "Hausdorff distance of [[0.1, 0.5], [0.4, 0.2]] is 0.2",
            lambda got: ref.expect_close(got, ref.hausdorff([[0.1, 0.5], [0.4, 0.2]]), ref.FLOAT_TOL, "hausdorff"),
            0.2,
            0.4,
        )
    )
    cases.append(
        (
            "W1 between two point masses at distance 1 is 1 (dual LP)",
            lambda got: ref.expect_close(got, ref.w1_dual([1.0, 0.0], [0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]), ref.LP_TOL, "w1"),
            1.0,
            1.0 - 1e-4,
        )
    )
    p_mu = np.array([[0.0, 1.0], [1.0, 0.0]])
    cost = rng.random((2, 2))
    cases.append(
        (
            "Markov coupling of a 2-cycle with itself costs the best phase",
            lambda got: ref.expect_close(
                got, ref.markov_coupling_dual(p_mu, [0.5, 0.5], p_mu, [0.5, 0.5], cost), ref.LP_TOL, "markov"
            ),
            min(cost[0, 0] + cost[1, 1], cost[0, 1] + cost[1, 0]) / 2,
            (cost.sum()) / 4 + 1e-3,
        )
    )
    cases.append(
        (
            "density Besicovitch of [1, 1, 0, 0] is 1/2",
            lambda got: ref.expect_close(got, ref.ky_fan([1.0, 1.0, 0.0, 0.0]), ref.FLOAT_TOL, "hat_rho"),
            0.5,
            0.75,
        )
    )
    glue_adj = ref.chain_adjacency(small_d, small_img, 0.2)
    word, offset, segments, n_margin, m = _glued_example(glue_adj, small_img)
    bad_margin = list(word)
    bad_margin[offset] = (bad_margin[offset] + 1) % 9
    for label, corrupted in (
        ("literal margin coordinate changed", bad_margin),
        ("connector vertex dropped", word[:-1]),
    ):
        cases.append(
            (
                f"glued word: {label}",
                lambda got: ref.check_glued_word(got, offset, segments, glue_adj, n_margin, m),
                word,
                corrupted,
            )
        )
    report = b'{"levels": [1, 2]}\n'
    cases.append(
        (
            "report bytes identical across two emits",
            lambda got: expect(got == report, "report bytes differ"),
            report,
            b'{"levels": [1, 3]}\n',
        )
    )
    return cases


def _literal_pi_bar(dist, wp, wq, K):
    p, q = len(wp), len(wq)
    g = int(np.gcd(p, q))
    L = p * q // g
    best = np.inf
    for a in range(g):
        total = 0.0
        for t in range(L):
            value = 1.0 / (K + 2)
            for k in range(-K, K + 1):
                value = max(value, min(dist[wp[(a + t + k) % p], wq[(t + k) % q]], 1.0 / (abs(k) + 1)))
            total += value
        best = min(best, total / L)
    return best


def _glued_example(adj, image):
    """One true-orbit segment glued to itself: block plus an M-step connector."""
    m = ref.mixing_constant(adj)
    n_margin = 2
    a, b = 0, 3
    entries = [1]
    for _ in range(b - a + 2 * n_margin - 3):
        entries.append(image[entries[-1]])
    connector = ref.lowest_id_walk(adj, entries[-1], entries[0], m + 1)
    word = entries + connector[1:-1]
    return word, n_margin - 1, [(a, b, entries, n_margin - 1)], n_margin, m


def workload_cases(workload, inp, out):
    """Corruptions of a real, accepted output, checked by the workload's own
    check; then the fingerprint that compares two emits of one input."""
    corrupted = list(workload_corruptions(workload, inp, out))
    cases = [
        (f"{workload.name}: {label}", lambda got: workload.check(inp, got), out, bad)
        for label, bad in corrupted
    ]
    same = _restamped(out) if workload.name == "analyze" else out
    cases.append(
        (
            f"{workload.name}: fingerprint matches a re-emit, not a corruption",
            lambda got: expect(workload.fingerprint(inp, got) == workload.fingerprint(inp, out), "fingerprints differ"),
            same,
            corrupted[0][1],
        )
    )
    return cases


def _restamped(out):
    """A copy of an analyze output whose report differs only in generated_at."""
    new_dir = out["out_dir"] + "-restamped"
    shutil.copytree(out["out_dir"], new_dir)
    path = os.path.join(new_dir, "report.json")
    with open(path) as fh:
        lines = fh.read().split("\n")
    with open(path, "w") as fh:
        fh.write("\n".join(
            '  "generated_at": "2000-01-01T00:00:00+00:00",' if '"generated_at"' in line else line
            for line in lines
        ))
    return dict(out, out_dir=new_dir)


def workload_corruptions(workload, inp, out):
    if workload.name == "analyze":
        yield from _analyze_corruptions(out)
    elif workload.name == "certify":
        cert = out["cert"]
        yield "mixing constant + 1", dict(out, cert=dataclasses.replace(cert, mixing_constant=cert.mixing_constant + 1))
        word = list(out["chain"].word)
        word[out["chain"].origin_offset] = (word[out["chain"].origin_offset] + 1) % len(inp["image"])
        yield "glued word margin", dict(out, chain=dataclasses.replace(out["chain"], word=tuple(word)))
        yield "hat_rho + 1e-6", dict(out, hat=dataclasses.replace(out["hat"], value=out["hat"].value + 1e-6))
        yield "besicovitch_pi + 1e-6", dict(out, pi=dataclasses.replace(out["pi"], value=out["pi"].value + 1e-6))
        adj = np.array(out["graph"].adjacency)
        adj[0, 0] = not adj[0, 0]
        yield "adjacency entry flipped", dict(out, graph=dataclasses.replace(out["graph"], adjacency=adj))
    elif inp["kind"] == "weakstar":
        yield "value + 1e-4", out + 1e-4
    else:
        yield "value + 1e-4", dataclasses.replace(out, value=out.value + 1e-4)
        plan = np.array(out.plan)
        plan[0, 0] += 1e-4
        yield "plan entry + 1e-4", dataclasses.replace(out, plan=plan)


def _analyze_corruptions(out):
    def edited(label, edit):
        bad_dir = out["out_dir"] + "-" + label.replace(" ", "-")
        shutil.copytree(out["out_dir"], bad_dir)
        path = os.path.join(bad_dir, "report.json")
        with open(path) as fh:
            report = json.load(fh)
        edit(report)
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        return label, dict(out, out_dir=bad_dir, stdout=out["stdout"].replace(out["out_dir"], bad_dir))

    def bump_m(r):
        level = r["levels"][-1]
        level["mixing_constant"] = (level["mixing_constant"] or 0) + 1

    def bump_count(r):
        r["levels"][0]["ergodic_count"] -= 1

    def bump_distance(r):
        r["cross_level"][0]["pi_bar_hausdorff"] += 1e-6

    def bump_period(r):
        r["density"]["rows"][0]["approx_period"] += 1

    def bump_proxy(r):
        r["density"]["rows"][-1]["weakstar_proxy"] += 1e-4

    for label, edit in (
        ("mixing constant", bump_m),
        ("ergodic count", bump_count),
        ("pi-bar Hausdorff", bump_distance),
        ("approximant period", bump_period),
        ("weak-star proxy", bump_proxy),
    ):
        yield edited(label, edit)


def run_cases(cases, verbose=False):
    """Returns the names of failed cases (accepting a corruption counts)."""
    failed = []
    for name, check, good, bad in cases:
        ok = _passes(check, good) and not _passes(check, bad)
        if not ok:
            failed.append(name)
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return failed


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import tempfile

    from workloads import WORKLOADS

    failed = run_cases(known_cases(), verbose=True)
    out_dir = os.path.join(here, "out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, work)
            for index in range(3 if name == "transport" else 1):
                inp = workload.make_input(index)
                out = workload.run(inp)
                failed += run_cases(workload_cases(workload, inp, out), verbose=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
