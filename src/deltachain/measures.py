"""Invariant measures on chain subshifts and the metric structure over them.

Two measure classes are implemented: uniform measures on periodic shift
orbits (the exact arithmetic of the theory) and 1-step Markov measures
(enough to represent mixtures and generic measures on the SFT-like chain
graphs).  Transport values come from exact LP solves; the d-bar-type value
between non-periodic measures is only ever exposed as an (upper, lower)
bound pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .chain import finite_chain, mixing_certificate
from .core import TOL
from .errors import (
    DegenerateWeights,
    DepthMismatch,
    EmptySet,
    Infeasible,
    NotMixing,
    SchemaError,
    SolverIterationCap,
)

MARGINAL_TOL = 1e-9
_GATHER_FLOATS = 1 << 21  # bound on one pi_bar_matrices temporary (16 MB)


@dataclass(frozen=True)
class FiniteMeasure:
    """A probability vector over point ids."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if np.any(w < -MARGINAL_TOL):
            raise SchemaError("/weights", "negative weight")
        if abs(float(np.sum(w)) - 1.0) > MARGINAL_TOL:
            raise SchemaError("/weights", "weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _primitive_root(word):
    """Shortest word whose repetition gives ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


def _least_rotation(word):
    return min(word[i:] + word[:i] for i in range(len(word)))


@dataclass(frozen=True)
class PeriodicOrbitMeasure:
    """Uniform measure on the shift orbit of a periodic id sequence.

    The stored word is primitive and rotated to its lexicographically least
    form, so equal orbits compare equal.  Words of distinct letters that start
    at their least letter (simple cycles) already have that form.
    """

    word: tuple

    def __post_init__(self):
        word = tuple(int(v) for v in self.word)
        if not word:
            raise SchemaError("/word", "word must be non-empty")
        if word[0] != min(word) or len(set(word)) != len(word):
            word = _least_rotation(_primitive_root(word))
        object.__setattr__(self, "word", word)

    @property
    def period(self):
        return len(self.word)

    def length_one_marginal(self, n_points):
        weights = np.zeros(n_points)
        for u in self.word:
            weights[u] += 1.0 / self.period
        return FiniteMeasure(weights)


@dataclass(frozen=True)
class MarkovMeasure:
    """A stationary 1-step Markov measure: kernel P with stationary vector s."""

    kernel: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.kernel, dtype=float).copy()
        s = np.asarray(self.stationary, dtype=float).copy()
        if p.ndim != 2 or p.shape[0] != p.shape[1] or s.shape != (p.shape[0],):
            raise SchemaError("/P", "kernel must be square and match the stationary vector")
        if np.any(p < -MARGINAL_TOL) or np.max(np.abs(p.sum(axis=1) - 1.0)) > MARGINAL_TOL:
            raise SchemaError("/P", "kernel must be row-stochastic")
        if np.any(s < -MARGINAL_TOL) or abs(float(s.sum()) - 1.0) > MARGINAL_TOL:
            raise SchemaError("/s", "stationary vector must be a probability vector")
        if np.max(np.abs(s @ p - s)) > MARGINAL_TOL:
            raise SchemaError("/s", "vector is not stationary for the kernel")
        p.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "kernel", p)
        object.__setattr__(self, "stationary", s)

    @property
    def n(self):
        return self.kernel.shape[0]

    @classmethod
    def from_periodic(cls, pm):
        """Deterministic encoding of a periodic orbit: one state per position."""
        p = pm.period
        kernel = np.zeros((p, p))
        for i in range(p):
            kernel[i, (i + 1) % p] = 1.0
        return cls(kernel, np.full(p, 1.0 / p))


@dataclass(frozen=True)
class CouplingResult:
    """Value and realizing plan of a transport or coupling LP."""

    value: float
    plan: np.ndarray
    status: str
    lower_bound: float | None = None


def _as_weights(measure):
    return np.asarray(getattr(measure, "weights", measure), dtype=float)


def w1_distance(mu, nu, cost):
    """Exact optimal-transport value between two finite distributions.

    Solves the transport LP with the HiGHS dual simplex; the returned plan is
    checked against both marginals to 1e-9.
    """
    a = _as_weights(mu)
    b = _as_weights(nu)
    cost = np.asarray(cost, dtype=float)
    n1, n2 = cost.shape
    if a.shape != (n1,) or b.shape != (n2,):
        raise SchemaError("/cost", "cost shape must match the two marginals")
    rows = []
    cols = []
    data = []
    for i in range(n1):
        for j in range(n2):
            rows.append(i)
            cols.append(i * n2 + j)
            data.append(1.0)
    for j in range(n2 - 1):  # final column constraint is redundant
        for i in range(n1):
            rows.append(n1 + j)
            cols.append(i * n2 + j)
            data.append(1.0)
    a_eq = coo_matrix((data, (rows, cols)), shape=(n1 + n2 - 1, n1 * n2))
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 1:
        raise SolverIterationCap("transport LP hit its iteration limit")
    if not res.success:
        raise Infeasible(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n1, n2)
    if (
        np.max(np.abs(plan.sum(axis=1) - a)) > MARGINAL_TOL
        or np.max(np.abs(plan.sum(axis=0) - b)) > MARGINAL_TOL
    ):
        raise Infeasible("transport plan violates its marginals")
    return CouplingResult(float(res.fun), plan, "optimal")


def rho_bar_periodic(pm, qm, cost):
    """d-bar-type distance between two periodic-orbit measures, exactly.

    Ergodic joinings of two periodic-orbit measures are the uniform measures
    on product orbits, indexed by a phase modulo gcd of the periods, and the
    infimum over the joining simplex is attained at an ergodic extreme point.
    Hence the value is the best phase-aligned average cost.  (The phase
    formula is cross-checked against a brute-force LP over orbit couplings in
    the test suite.)  Returns (value, best phase).
    """
    cost = np.asarray(cost, dtype=float)
    wp = np.asarray(pm.word)
    wq = np.asarray(qm.word)
    p, q = len(wp), len(wq)
    g = math.gcd(p, q)
    L = math.lcm(p, q)
    t = np.arange(L)
    best_value, best_phase = np.inf, 0
    for a in range(g):
        value = float(np.mean(cost[wp[(a + t) % p], wq[t % q]]))
        if value < best_value - TOL:
            best_value, best_phase = value, a
    return best_value, best_phase


def _by_period(orbits):
    """{period: (positions in ``orbits``, stacked words)} of periodic measures."""
    groups = {}
    for i, pm in enumerate(orbits):
        groups.setdefault(pm.period, []).append((i, pm.word))
    return {p: tuple(np.array(col) for col in zip(*group)) for p, group in groups.items()}


def pi_bar_matrices(set_a, set_b, sys, radius):
    """pi_bar between every orbit of ``set_a`` and every orbit of ``set_b``.

    Pairs are grouped by period (p, q).  Each group gathers the per-phase
    tensor of truncated product-metric terms (row, col, phase, shift, k) in
    chunks of rows, so the temporary stays under ``_GATHER_FLOATS``.
    Returns three dense (len(set_a), len(set_b)) matrices: the pi_bar value
    (phases scanned in order; a later phase wins only when lower by more
    than TOL), the phase that attains it, and the phase-0 value.
    """
    K = int(radius)
    tail = 1.0 / (K + 2)
    ks = np.arange(-K, K + 1)
    weights = 1.0 / (np.abs(ks) + 1.0)
    value, aligned = np.empty((2, len(set_a), len(set_b)))
    phase = np.zeros(value.shape, dtype=int)
    groups_b = _by_period(set_b)
    for p, (rows, words_a) in _by_period(set_a).items():
        for q, (cols, words_b) in groups_b.items():
            g, L = math.gcd(p, q), math.lcm(p, q)
            shift = np.arange(L)[:, None] + ks[None, :]
            idx_a = words_a[:, (np.arange(g)[:, None, None] + shift) % p]
            idx_b = words_b[:, shift % q][None, :, None]
            step = max(1, _GATHER_FLOATS // (len(cols) * p * q * (2 * K + 1)))
            for lo in range(0, len(rows), step):
                terms = sys.dist[idx_a[lo : lo + step, None], idx_b]
                per_shift = np.maximum(np.minimum(terms, weights, out=terms).max(axis=-1), tail)
                # contiguous last axis: the pairwise sum of a 1-D mean, bit for bit
                by_phase = np.ascontiguousarray(per_shift).mean(axis=-1)
                best, arg = by_phase[..., 0], np.zeros(by_phase.shape[:2], dtype=int)
                for a in range(1, g):
                    better = by_phase[..., a] < best - TOL
                    best = np.where(better, by_phase[..., a], best)
                    arg[better] = a
                block = np.ix_(rows[lo : lo + step], cols)
                value[block], phase[block], aligned[block] = best, arg, by_phase[..., 0]
    return value, phase, aligned


def pi_bar_periodic(pm, qm, sys, radius):
    """Phase-optimal average of product-metric distances between two orbits.

    Periodic words give exact coverage at every shift; each term below the
    truncation tail 1/(radius+2) is replaced by that upper bound, and the
    result carries the tail as its error bar.  The singleton case of
    :func:`pi_bar_matrices`.  Returns (value, phase, error_bar).
    """
    value, phase, _ = pi_bar_matrices([pm], [qm], sys, radius)
    return float(value[0, 0]), int(phase[0, 0]), 1.0 / (int(radius) + 2)


def rho_bar_markov_upper(mu, nu, cost):
    """Upper bound on the d-bar-type distance between two Markov measures.

    Minimizes the stationary expected cost over Markovian couplings: the LP
    variables are a distribution lam over state pairs and an edge flow f with
    f(uv, u'v') = lam(uv) * Q(uv -> u'v') for the joint kernel Q.  Row
    constraints force the two coordinate processes to follow the given
    kernels, stationarity ties f back to lam, and the pair marginals of lam
    match the stationary vectors.  Markovian couplings are a subset of all
    joinings, so the optimum is an upper bound; the reported lower bound is
    the plain transport distance between the stationary vectors.
    """
    cost = np.asarray(cost, dtype=float)
    n1, n2 = mu.n, nu.n
    if cost.shape != (n1, n2):
        raise SchemaError("/cost", "cost shape must match the two state spaces")
    edges_mu = [np.nonzero(mu.kernel[u] > MARGINAL_TOL)[0] for u in range(n1)]
    edges_nu = [np.nonzero(nu.kernel[v] > MARGINAL_TOL)[0] for v in range(n2)]
    npairs = n1 * n2

    def pair(u, v):
        return u * n2 + v

    flows = []  # (uv, u'v')
    for u in range(n1):
        for v in range(n2):
            for up in edges_mu[u]:
                for vp in edges_nu[v]:
                    flows.append((pair(u, v), pair(int(up), int(vp))))
    nflows = len(flows)
    nvars = npairs + nflows
    rows, cols, data, b_eq = [], [], [], []
    row = 0

    def add(r, c, x):
        rows.append(r)
        cols.append(c)
        data.append(x)

    flow_index = {}
    for idx, key in enumerate(flows):
        flow_index.setdefault(key, idx)
    # kernel coupling rows: sum_{v'} f(uv, u'v') = lam(uv) P_mu(u, u')
    for u in range(n1):
        for v in range(n2):
            for up in edges_mu[u]:
                for vp in edges_nu[v]:
                    add(row, npairs + flow_index[(pair(u, v), pair(int(up), int(vp)))], 1.0)
                add(row, pair(u, v), -float(mu.kernel[u, up]))
                b_eq.append(0.0)
                row += 1
            for vp in edges_nu[v]:
                for up in edges_mu[u]:
                    add(row, npairs + flow_index[(pair(u, v), pair(int(up), int(vp)))], 1.0)
                add(row, pair(u, v), -float(nu.kernel[v, vp]))
                b_eq.append(0.0)
                row += 1
    # stationarity rows: sum_{uv} f(uv, u'v') = lam(u'v')
    incoming = {}
    for idx, (src, dst) in enumerate(flows):
        incoming.setdefault(dst, []).append(idx)
    for dst, idxs in sorted(incoming.items()):
        for idx in idxs:
            add(row, npairs + idx, 1.0)
        add(row, dst, -1.0)
        b_eq.append(0.0)
        row += 1
    # pair marginals of lam
    for u in range(n1):
        for v in range(n2):
            add(row, pair(u, v), 1.0)
        b_eq.append(float(mu.stationary[u]))
        row += 1
    for v in range(n2 - 1):
        for u in range(n1):
            add(row, pair(u, v), 1.0)
        b_eq.append(float(nu.stationary[v]))
        row += 1
    a_eq = coo_matrix((data, (rows, cols)), shape=(row, nvars))
    c = np.concatenate([cost.ravel(), np.zeros(nflows)])
    res = linprog(c, A_eq=a_eq, b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    if res.status == 1:
        raise SolverIterationCap("coupling LP hit its iteration limit")
    if not res.success:
        raise Infeasible(f"coupling LP failed: {res.message}")
    lam = res.x[:npairs].reshape(n1, n2)
    lower = w1_distance(mu.stationary, nu.stationary, cost).value
    return CouplingResult(float(res.fun), lam, "optimal", lower_bound=lower)


def hausdorff_distance(set_a, set_b, dist):
    """Hausdorff-ification of a bounded pseudometric over two finite sets."""
    set_a, set_b = list(set_a), list(set_b)
    if not set_a or not set_b:
        raise EmptySet("hausdorff distance needs non-empty sets")
    forward = max(min(dist(a, b) for b in set_b) for a in set_a)
    backward = max(min(dist(a, b) for a in set_a) for b in set_b)
    return max(forward, backward)


def _bounded_simple_cycles(adjacency, max_period, limit):
    """Simple cycles of length <= max_period, shortest first then lexicographic.

    Each cycle is reported once, rooted at its minimal vertex.  Enumeration
    stops as soon as ``limit`` cycles were collected plus one more (to detect
    truncation).
    """
    n = adjacency.shape[0]
    succ = [sorted(int(v) for v in np.nonzero(adjacency[u])[0]) for u in range(n)]
    found = []
    for length in range(1, max_period + 1):
        for s in range(n):
            if length == 1:
                if adjacency[s, s]:
                    found.append((s,))
                if len(found) > limit:
                    return found, True
                continue
            # DFS over simple paths from s using only vertices > s
            stack = [(s, iter(succ[s]))]
            path = [s]
            on_path = {s}
            while stack:
                node, it = stack[-1]
                advanced = False
                for v in it:
                    if v <= s or v in on_path:
                        if v == s and len(path) == length and adjacency[node, s]:
                            found.append(tuple(path))
                            if len(found) > limit:
                                return found, True
                        continue
                    if len(path) < length:
                        path.append(v)
                        on_path.add(v)
                        stack.append((v, iter(succ[v])))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    if len(path) > 1:
                        on_path.discard(path.pop())
    return found, False


def ergodic_measures_of_graph(g, max_period, cap=10_000):
    """Periodic-orbit measures carried by the simple cycles of a chain graph.

    Enumerates simple cycles up to ``max_period``; if more than ``cap`` exist
    the deterministic shortest-first, lexicographic prefix is returned with a
    truncation flag.  Returns (measures, truncated).
    """
    if max_period < 1:
        raise SchemaError("/max_period", "max_period must be >= 1")
    words, truncated = _bounded_simple_cycles(g.adjacency, max_period, cap)
    if truncated:
        words = words[:cap]
    return [PeriodicOrbitMeasure(w) for w in words], truncated


def sigmund_approximation(target, g, block_scale):
    """Single periodic orbit approximating a finite mixture of orbit measures.

    For each mixture component the cycle word is repeated round(w * L / p)
    times; consecutive component blocks (cyclically) are joined by
    connecting chains of length M, the mixing constant of the graph.  The
    result is a valid cyclic delta-chain whose empirical statistics approach
    the target mixture as the block scale L grows.
    """
    components = list(target)
    if not components:
        raise SchemaError("/target", "target mixture must be non-empty")
    weights = [w for _, w in components]
    if any(w <= 0 for w in weights) or abs(sum(weights) - 1.0) > MARGINAL_TOL:
        raise SchemaError("/target", "weights must be positive and sum to 1")
    reps = [
        int(math.floor(w * block_scale / pm.period + 0.5)) for pm, w in components
    ]
    degenerate = [i for i, r in enumerate(reps) if r == 0]
    if degenerate:
        raise DegenerateWeights(
            f"components {degenerate} round to zero blocks at L={block_scale}; raise L"
        )
    if len(components) == 1:
        return components[0][0]
    cert = mixing_certificate(g)
    if cert.mixing_constant is None:
        raise NotMixing("gluing mixture components requires a primitive graph")
    m = cert.mixing_constant
    blocks = [list(pm.word) * r for (pm, _), r in zip(components, reps)]
    word = []
    for i, block in enumerate(blocks):
        word.extend(block)
        nxt = blocks[(i + 1) % len(blocks)]
        connector = finite_chain(g, block[-1], nxt[0], m)
        word.extend(connector[1:-1])
    return PeriodicOrbitMeasure(tuple(word))


def empirical_measure(pm, cylinder_depth):
    """Cyclic block distributions of a periodic word, per length up to depth."""
    if cylinder_depth < 1:
        raise SchemaError("/depth", "cylinder depth must be >= 1")
    word = pm.word
    p = len(word)
    out = {}
    for w in range(1, cylinder_depth + 1):
        dist = {}
        for i in range(p):
            block = tuple(word[(i + t) % p] for t in range(w))
            dist[block] = dist.get(block, 0.0) + 1.0 / p
        out[w] = dist
    return out


def mixture_cylinders(target, cylinder_depth):
    """Weighted combination of component cylinder distributions."""
    out = {w: {} for w in range(1, cylinder_depth + 1)}
    for pm, weight in target:
        cyl = empirical_measure(pm, cylinder_depth)
        for w, dist in cyl.items():
            for block, mass in dist.items():
                out[w][block] = out[w].get(block, 0.0) + weight * mass
    return out


def weakstar_proxy(cyl_a, cyl_b, depth, sys):
    """Computable stand-in for weak* distance: a truncated cylinder-transport sum.

    Sums 2^-w times the transport distance between length-w block
    distributions, with block cost the max coordinate distance.
    """
    for cyl in (cyl_a, cyl_b):
        if any(w not in cyl for w in range(1, depth + 1)):
            raise DepthMismatch(f"cylinder distributions must reach depth {depth}")
    total = 0.0
    for w in range(1, depth + 1):
        support = sorted(set(cyl_a[w]) | set(cyl_b[w]))
        a = np.array([cyl_a[w].get(b, 0.0) for b in support])
        b = np.array([cyl_b[w].get(b, 0.0) for b in support])
        blocks = np.array(support)
        cost = sys.dist[blocks[:, None, :], blocks[None, :, :]].max(axis=2)
        total += 2.0 ** (-w) * w1_distance(a, b, cost).value
    return total


def pi_bar_mixture_upper(mix_a, mix_b, sys, radius):
    """Convexity upper bound on the product-metric d-bar between mixtures.

    A product of component joinings weighted by both mixtures is itself a
    joining, so the weighted sum of pairwise periodic values bounds the
    mixture distance from above.
    """
    total = 0.0
    for pm, wa in mix_a:
        for qm, wb in mix_b:
            value, _, _ = pi_bar_periodic(pm, qm, sys, radius)
            total += wa * wb * value
    return total
