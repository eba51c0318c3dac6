"""Invariant measures on chain subshifts and the metric structure over them.

Two measure classes are implemented: uniform measures on periodic shift
orbits (the exact arithmetic of the theory) and 1-step Markov measures
(enough to represent mixtures and generic measures on the SFT-like chain
graphs).  Transport values are HiGHS floating-point LP optima, feasible to
1e-7, not exact; the d-bar-type value between non-periodic measures is
only ever exposed as an (upper, lower) bound pair.

The library's tolerances, and what each guards:

==========================  =====  =========================================
name (where)                value  guards
==========================  =====  =========================================
``TOL`` (core)              1e-12  every threshold comparison on distances
                                   (delta, eps, window and tail levels), so
                                   exact dyadic grid values do not flip on
                                   rounding
metric check (core)         1e-9   the symmetry and triangle slack that
                                   ``_check_metric`` forgives in a raw metric
``MARGINAL_TOL`` (here)     1e-9   probability vectors, Markov kernels, and
                                   every transport plan against its marginals;
                                   a config target's weight sum
``bound_holds`` (pipeline)  1e-9   the sampled pi-bar Hausdorff value against
                                   its phase-0 bound
HiGHS feasibility           1e-7   primal and dual feasibility of each LP
                                   optimum (the solver's default)
==========================  =====  =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .chain import _glue
from .core import TOL, _truncated_max
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
_FRONTIER_CELLS = 1 << 18  # bound on one simple_cycle_words block (2 MB of ids)


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


def _solve(c, a_eq, b_eq, what):
    """One HiGHS solve of min c @ x over A_eq x = b_eq, x >= 0.

    HiGHS runs without presolve, on every LP.  These transport and coupling
    LPs are small, and each transport block is already cut to its mass
    support (see :func:`_transport_lps`), so presolve costs more than it
    removes; the model and its optimum stay the same.
    """
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs", options={"presolve": False}
    )
    if res.status == 1:
        raise SolverIterationCap(f"{what} LP hit its iteration limit")
    if not res.success:
        raise Infeasible(f"{what} LP failed: {res.message}")
    return res


def _transport_pattern(n1, n2):
    """COO rows and columns of an n1 x n2 plan's row sums, then column sums but the last."""
    by_column = np.arange(n2 - 1)[:, None] + n2 * np.arange(n1)
    rows = np.concatenate([np.repeat(np.arange(n1), n2), np.repeat(n1 + np.arange(n2 - 1), n1)])
    return rows, np.concatenate([np.arange(n1 * n2), by_column.ravel()])


def _transport_lps(problems):
    """Solve independent transport problems ``(a, b, cost)`` as one LP.

    Each problem is reduced to its mass support, the rows where a != 0 and
    the columns where b != 0 (only exact zeros are dropped): with x >= 0 a
    zero-mass row or column forces its plan entries to 0, so the optimum is
    the same.  The reduced blocks are stacked block-diagonally and solved in
    one HiGHS call without presolve (see :func:`_solve`); a block with an
    empty support on either side does not reach HiGHS.  The blocks share no
    variables, so the joint optimum restricted to a block is optimal for it.
    Each block's solution is written into a zero plan of the full shape, its
    value is read as ``cost @ plan``, and the plan is checked against its
    own marginals to ``MARGINAL_TOL``.  Returns one :class:`CouplingResult`
    per problem.
    """
    if not problems:
        return []
    rows, cols, c, b_eq, supports, n_rows, n_cols = [], [], [], [], [], 0, 0
    for a, b, cost in problems:
        n1, n2 = cost.shape
        if a.shape != (n1,) or b.shape != (n2,):
            raise SchemaError("/cost", "cost shape must match the two marginals")
        i, j = np.flatnonzero(a), np.flatnonzero(b)
        supports.append((i, j, n_cols))
        if len(i) and len(j):
            row, col = _transport_pattern(len(i), len(j))
            rows.append(n_rows + row)
            cols.append(n_cols + col)
            c.append(cost[np.ix_(i, j)].ravel())
            b_eq += [a[i], b[j[:-1]]]
            n_rows += len(i) + len(j) - 1
            n_cols += len(i) * len(j)
    x = np.zeros(0)
    if n_cols:
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        a_eq = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_rows, n_cols))
        x = _solve(np.concatenate(c), a_eq, np.concatenate(b_eq), "transport").x
    out = []
    for (a, b, cost), (i, j, lo) in zip(problems, supports):
        plan = np.zeros(cost.shape)
        plan[np.ix_(i, j)] = x[lo : lo + len(i) * len(j)].reshape(len(i), len(j))
        gaps = np.abs(np.concatenate([plan.sum(axis=1) - a, plan.sum(axis=0) - b]))
        if gaps.max(initial=0.0) > MARGINAL_TOL:
            raise Infeasible("transport plan violates its marginals")
        out.append(CouplingResult(float(cost.ravel() @ plan.ravel()), plan, "optimal"))
    return out


def w1_distance(mu, nu, cost):
    """Optimal-transport value between two finite distributions.

    The one-problem case of the stacked transport solver: one HiGHS solve
    of the transport LP, value ``c @ x``, plan checked against both
    marginals to 1e-9.  A floating-point optimum, feasible to 1e-7.
    """
    a, b = (np.asarray(getattr(m, "weights", m), dtype=float) for m in (mu, nu))
    return _transport_lps([(a, b, np.asarray(cost, dtype=float))])[0]


def _by_period(orbits):
    """{period: (positions in ``orbits``, stacked words)} of periodic measures."""
    groups = {}
    for i, pm in enumerate(orbits):
        groups.setdefault(pm.period, []).append((i, pm.word))
    return {p: tuple(np.array(col) for col in zip(*group)) for p, group in groups.items()}


def _phase_scan(set_a, set_b, radius, per_shift):
    """Phase-optimal averages of per-shift terms between every pair of orbits.

    Ergodic joinings of two periodic-orbit measures are indexed by a phase
    modulo the gcd of the periods, so each pair's value is its best
    phase-aligned average.  Pairs are grouped by period (p, q).  Each group
    gathers the id windows (row, col, phase, shift, k), |k| <= radius, in
    chunks of rows, so a gather stays under ``_GATHER_FLOATS``;
    ``per_shift`` maps the two id arrays to the (row, col, phase, shift)
    terms.  Returns three dense (len(set_a), len(set_b)) matrices: the best
    average (phases scanned in order; a later phase wins only when lower by
    more than TOL), the phase that attains it, and the phase-0 average.
    """
    ks = np.arange(-radius, radius + 1)
    value, aligned = np.empty((2, len(set_a), len(set_b)))
    phase = np.zeros(value.shape, dtype=int)
    groups_b = _by_period(set_b)
    for p, (rows, words_a) in _by_period(set_a).items():
        for q, (cols, words_b) in groups_b.items():
            g, L = math.gcd(p, q), math.lcm(p, q)
            shift = np.arange(L)[:, None] + ks[None, :]
            idx_a = words_a[:, (np.arange(g)[:, None, None] + shift) % p]
            idx_b = words_b[:, shift % q][None, :, None]
            step = max(1, _GATHER_FLOATS // (len(cols) * p * q * len(ks)))
            for lo in range(0, len(rows), step):
                terms = per_shift(idx_a[lo : lo + step, None], idx_b)
                # contiguous last axis: the pairwise sum of a 1-D mean, bit for bit
                by_phase = np.ascontiguousarray(terms).mean(axis=-1)
                best, arg = by_phase[..., 0], np.zeros(by_phase.shape[:2], dtype=int)
                for a in range(1, g):
                    better = by_phase[..., a] < best - TOL
                    best = np.where(better, by_phase[..., a], best)
                    arg[better] = a
                block = np.ix_(rows[lo : lo + step], cols)
                value[block], phase[block], aligned[block] = best, arg, by_phase[..., 0]
    return value, phase, aligned


def _rho_bar_matrices(set_a, set_b, cost):
    """rho_bar between every orbit of ``set_a`` and every orbit of ``set_b``.

    The scan of :func:`_phase_scan` with the coordinate cost as the
    per-shift term: no window, no truncation weights and no tail, so costs
    above 1 count in full.
    """
    cost = np.asarray(cost, dtype=float)
    return _phase_scan(set_a, set_b, 0, lambda a, b: cost[a[..., 0], b[..., 0]])


def rho_bar_periodic(pm, qm, cost):
    """d-bar-type distance between two periodic-orbit measures, exactly.

    Ergodic joinings of two periodic-orbit measures are the uniform measures
    on product orbits, indexed by a phase modulo gcd of the periods, and the
    infimum over the joining simplex is attained at an ergodic extreme point.
    Hence the value is the best phase-aligned average cost.  (The phase
    formula is cross-checked against a brute-force LP over orbit couplings in
    the test suite.)  The singleton case of the phase scan behind
    :func:`pi_bar_matrices`.  Returns (value, best phase).
    """
    value, phase, _ = _rho_bar_matrices([pm], [qm], cost)
    return float(value[0, 0]), int(phase[0, 0])


def pi_bar_matrices(set_a, set_b, sys, radius):
    """pi_bar between every orbit of ``set_a`` and every orbit of ``set_b``.

    Each per-shift term is the truncated product-metric maximum over
    |k| <= radius, raised to the truncation tail 1/(radius+2) when below it:
    the rule is ``max(value, tail)``, with no TOL margin (unlike
    :func:`~deltachain.core.pi_distance`, which keeps a value only when it
    exceeds the tail by more than TOL).  Returns three dense
    (len(set_a), len(set_b)) matrices: the pi_bar value, the phase that
    attains it and the phase-0 value; see :func:`_phase_scan`.
    """
    K = int(radius)
    if K < 0:
        raise SchemaError("/radius", "radius must be >= 0")
    tail = 1.0 / (K + 2)
    return _phase_scan(
        set_a, set_b, K, lambda a, b: np.maximum(_truncated_max(sys.dist, a, b), tail)
    )


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
    npairs = n1 * n2
    succ_mu, succ_nu = mu.kernel > MARGINAL_TOL, nu.kernel > MARGINAL_TOL
    # flows f(uv, u'v') in lexicographic order of (u, v, u', v')
    u, v, up, vp = np.nonzero(succ_mu[:, None, :, None] & succ_nu[None, :, None, :])
    src, dst, flow = u * n2 + v, up * n2 + vp, npairs + np.arange(len(u))
    # Each flow enters three rows, keyed so that sorted keys give the row order:
    # per pair uv, one per successor u' of u, then one per successor v' of v,
    #   sum_{v'} f(uv, u'v') = lam(uv) P_mu(u, u'),  sum_{u'} f(uv, u'v') = lam(uv) P_nu(v, v');
    # then one per pair u'v' with inflow, sum_{uv} f(uv, u'v') = lam(u'v'); then
    # the pair marginals of lam.  A row holds its flows in flow order, then lam,
    # whose coefficient is read at the row's first flow.
    width = 2 * max(n1, n2)
    keys = np.concatenate([width * src + up, width * src + width // 2 + vp, width * npairs + dst])
    keys, first, row = np.unique(keys, return_index=True, return_inverse=True)
    kind, f = np.divmod(first, len(flow))
    coef = np.stack([mu.kernel[u, up], nu.kernel[v, vp], np.ones(len(flow))])[kind, f]
    row_m, col_m = _transport_pattern(n1, n2)
    rows = np.concatenate([row, np.arange(len(keys)), len(keys) + row_m])
    cols = np.concatenate([np.tile(flow, 3), np.where(kind == 2, dst[f], src[f]), col_m])
    data = np.concatenate([np.ones(3 * len(flow)), -coef, np.ones(len(row_m))])
    order = np.argsort(rows, kind="stable")
    shape = (len(keys) + n1 + n2 - 1, npairs + len(flow))
    a_eq = coo_matrix((data[order], (rows[order], cols[order])), shape=shape)
    b_eq = np.concatenate([np.zeros(len(keys)), mu.stationary, nu.stationary[:-1]])
    c = np.concatenate([cost.ravel(), np.zeros(len(flow))])
    res = _solve(c, a_eq, b_eq, "coupling")
    lam = res.x[:npairs].reshape(n1, n2)
    lower = w1_distance(mu.stationary, nu.stationary, cost).value
    return CouplingResult(float(res.fun), lam, "optimal", lower_bound=lower)


def _hausdorff(matrix):
    """Hausdorff value of a dense pseudometric matrix between its rows and its columns."""
    if matrix.size == 0:
        raise EmptySet("hausdorff distance needs non-empty sets")
    return float(max(matrix.min(axis=1).max(), matrix.min(axis=0).max()))


def hausdorff_distance(set_a, set_b, dist):
    """Hausdorff-ification of a bounded pseudometric over two finite sets."""
    set_b = list(set_b)
    return _hausdorff(np.array([[dist(a, b) for b in set_b] for a in set_a], dtype=float))


def simple_cycle_words(adjacency, max_period, limit):
    """Simple cycles of length <= max_period, shortest first then lexicographic.

    Each cycle is reported once, rooted at its least vertex, as a row of an
    int array; the result holds one (count, k) array per length k = 1 ..
    max_period.  Simple paths are extended a block of rows at a time by
    successors greater than the root and off the path; row-major
    ``np.nonzero`` keeps each depth in lexicographic order, and blocks are
    expanded depth-first under ``_FRONTIER_CELLS``, so at most one block per
    depth is alive (cf. Johnson, SIAM J. Comput. 4 (1975) 77-84, for the
    rooted-at-least-vertex scheme).  Only the first ``limit`` cycles are
    returned, with a truncation flag when more exist.  Returns (words,
    truncated).
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    ids = np.arange(n)
    found = [[] for _ in range(max_period)]
    counts = np.zeros(max_period, dtype=np.int64)
    longest = max_period  # longest length still needed for the first limit + 1
    stack = [(ids[:, None], 0)]
    while stack:
        paths, lo = stack[-1]
        depth = paths.shape[1]
        if depth > longest or lo >= len(paths):
            stack.pop()
            continue
        step = max(1, _FRONTIER_CELLS // (max(n, 1) * (depth + 1)))
        block = paths[lo : lo + step]
        stack[-1] = (paths, lo + step)
        closed = block[adj[block[:, -1], block[:, 0]]]
        if len(closed):
            found[depth - 1].append(closed)
            counts[depth - 1] += len(closed)
            over = np.nonzero(np.cumsum(counts[:longest]) > limit)[0]
            if len(over):
                longest = int(over[0])  # lengths past the first overflow are not needed
        if depth < longest:
            keep = adj[block[:, -1]] & (ids > block[:, :1])
            rows = np.arange(len(block))
            for i in range(1, depth):
                keep[rows, block[:, i]] = False
            parent, succ = np.nonzero(keep)
            stack.append((np.column_stack((block[parent], succ)), 0))
    words, room = [], max(limit, 0)
    for k in range(1, max_period + 1):
        arr = np.concatenate(found[k - 1]) if found[k - 1] else np.empty((0, k), dtype=int)
        words.append(arr[:room])
        room -= len(words[-1])
    return words, bool(counts.sum() > limit)


def ergodic_measures_of_graph(g, max_period, cap=10_000):
    """Periodic-orbit measures carried by the simple cycles of a chain graph.

    A thin wrapper over :func:`simple_cycle_words`: one measure per simple
    cycle up to ``max_period``, shortest first, then lexicographic; if more
    than ``cap`` exist the first ``cap`` are returned with a truncation flag.
    Callers that only count cycles or sample a few of them should use the
    word arrays directly.  Returns (measures, truncated).
    """
    if max_period < 1:
        raise SchemaError("/max_period", "max_period must be >= 1")
    if cap < 0:
        raise SchemaError("/cap", "cap must be >= 0")
    words, truncated = simple_cycle_words(g.adjacency, max_period, cap)
    return [PeriodicOrbitMeasure(tuple(w)) for arr in words for w in arr.tolist()], truncated


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
    m = g.certificate.mixing_constant
    if m is None:
        raise NotMixing("gluing mixture components requires a primitive graph")
    blocks = [list(pm.word) * r for (pm, _), r in zip(components, reps)]
    return PeriodicOrbitMeasure(tuple(_glue(g, blocks, [m] * len(blocks))))


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


def weakstar_proxies(pairs, depth, sys):
    """:func:`weakstar_proxy` for every ``(cyl_a, cyl_b)`` in ``pairs``.

    The transport problems of every pair and every depth are solved as one
    block-diagonal LP, each on the two supports (block cost the max coordinate
    distance); each total is summed over depths 1 .. depth in order.
    """
    problems = []
    for cyl_a, cyl_b in pairs:
        if any(w not in cyl for cyl in (cyl_a, cyl_b) for w in range(1, depth + 1)):
            raise DepthMismatch(f"cylinder distributions must reach depth {depth}")
        for w in range(1, depth + 1):
            sides = [sorted(cyl[w].items()) for cyl in (cyl_a, cyl_b)]
            ids_a, ids_b = (np.array([k for k, _ in s], dtype=int).reshape(-1, w) for s in sides)
            a, b = (np.array([mass for _, mass in s], dtype=float) for s in sides)
            cost = sys.dist[ids_a[:, None, :], ids_b[None, :, :]].max(axis=2)
            problems.append((a, b, cost))
    values = iter(res.value for res in _transport_lps(problems))
    totals = [0.0] * len(pairs)
    for i in range(len(pairs)):
        for w in range(1, depth + 1):
            totals[i] += 2.0 ** (-w) * next(values)
    return totals


def weakstar_proxy(cyl_a, cyl_b, depth, sys):
    """Computable stand-in for weak* distance: a truncated cylinder-transport sum.

    Sums 2^-w times the transport distance between length-w block
    distributions, with block cost the max coordinate distance.  The one-pair
    case of :func:`weakstar_proxies`: its depth problems are solved as one LP.
    """
    return weakstar_proxies([(cyl_a, cyl_b)], depth, sys)[0]


def pi_bar_mixture_upper(mix_a, mix_b, sys, radius):
    """Convexity upper bound on the product-metric d-bar between mixtures.

    A product of component joinings weighted by both mixtures is itself a
    joining, so the weighted sum of pairwise periodic values bounds the
    mixture distance from above.
    """
    mix_a, mix_b = list(mix_a), list(mix_b)
    value, _, _ = pi_bar_matrices([pm for pm, _ in mix_a], [qm for qm, _ in mix_b], sys, radius)
    wa, wb = (np.array([w for _, w in mix], dtype=float) for mix in (mix_a, mix_b))
    # the pairwise products and the running sum of the component loop, in its order
    terms = (wa[:, None] * wb[None, :] * value).ravel()
    return float(np.cumsum(np.concatenate([[0.0], terms]))[-1])
