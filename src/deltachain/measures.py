"""Invariant measures on chain subshifts and the metric structure over them.

Two measure classes are implemented: uniform measures on periodic shift
orbits (the exact arithmetic of the theory) and 1-step Markov measures
(enough to represent mixtures and generic measures on the SFT-like chain
graphs).  Transport values are HiGHS floating-point LP optima, feasible to
1e-7 (1e-10 on priced solves), not exact; the d-bar-type value between
non-periodic measures is only ever exposed as an (upper, lower) bound
pair.  Every LP is one call of :func:`_solve`, which hands the model to
scipy's bundled HiGHS bindings (the solver ``linprog(method="highs")``
runs, without its wrapper) as column-wise arrays written directly, with no
scipy.sparse matrix, and returns the row duals with the optimum.  A
transport block with more than ``_SHORTLIST`` = 16 points on both sides
starts on a cost shortlist, and further cells are added as those duals
price them in, until none is left with a negative reduced cost: the result
is the full LP's optimum.  Priced solves use Devex dual edge weights and a
1e-10 primal feasibility tolerance, and unpriced solves keep linprog's
options and bits.

The library's tolerances, and what each guards:

==========================  =====  =========================================
name (where)                value  guards
==========================  =====  =========================================
``TOL`` (core)              1e-12  every threshold comparison on distances
                                   (delta, eps, window and tail levels), so
                                   exact dyadic grid values do not flip on
                                   rounding
metric check (core)         1e-9   ``_check_metric``'s entries; asymmetry and
                                   triangle slack times max(1, their entry)
``MARGINAL_TOL`` (here)     1e-9   probability vectors, Markov kernels, a
                                   target's weight sum, plan marginals: a plan
                                   beyond it is repaired, and the repaired
                                   plan is what gets checked
``bound_holds`` (pipeline)  1e-9   the sampled pi-bar Hausdorff value against
                                   its phase-0 bound
HiGHS feasibility           1e-7   primal and dual feasibility of each LP
                                   optimum (the solver's default)
priced primal feasibility   1e-10  each priced solve's rows, below
                                   ``MARGINAL_TOL``, so a plan does not leave
                                   a row of mass under 1e-7 unmet
pricing stop (here)         0      reduced cost c_ij - u_i - v_j >= 0 on every
                                   transport cell left out of the LP, with no
                                   tolerance: the full LP's dual feasibility
==========================  =====  =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize._highspy._core as _highs

from .chain import _glue
from .core import TOL, _point_ids, _truncated_max
from .errors import (
    DegenerateWeights,
    DepthMismatch,
    EmptySet,
    Infeasible,
    NotMixing,
    SchemaError,
    SizeOverflow,
    SolverIterationCap,
)

MARGINAL_TOL = 1e-9
_GATHER_FLOATS = 1 << 21  # floats one _phase_scan chunk may hold at once, ids included (16 MB)
_FRONTIER_CELLS = 1 << 18  # bound on one simple_cycle_words block (2 MB of ids)
_SHORTLIST = 16  # cheapest cells per row and per column a large transport block starts on
_MAX_WORD = 1 << 20  # letters of one glued sigmund_approximation word
_SIMPLEX = _highs.simplex_constants
_PRIMAL = int(_SIMPLEX.SimplexStrategy.kSimplexStrategyPrimal)
# linprog(method="highs", options={"presolve": False})'s options away from HiGHS's defaults
_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "off"),
    ("simplex_strategy", int(_SIMPLEX.SimplexStrategy.kSimplexStrategyDual)),
)
# added on priced solves: Devex dual edge weights, and rows met to HiGHS's tightest tolerance
_PRICED = (
    ("simplex_dual_edge_weight_strategy", int(_SIMPLEX.kSimplexEdgeWeightStrategyDevex)),
    ("primal_feasibility_tolerance", 1e-10),
)


def _primitive_root(word):
    """Shortest word whose repetition gives ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


def _least_rotation(word):
    """The lexicographically least rotation of ``word``, by Booth's O(p) scan.

    ``k`` is the start of the least rotation seen so far in ``word + word``,
    and ``f`` the failure function of the string read from ``k`` on.
    """
    s = word + word
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = f[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if i == -1 and c != s[k]:
            if c < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return word[k:] + word[:k]


@dataclass(frozen=True)
class PeriodicOrbitMeasure:
    """Uniform measure on the shift orbit of a periodic id sequence.

    The stored word is primitive and rotated to its lexicographically least
    form, so equal orbits compare equal.  Words of distinct letters that start
    at their least letter (simple cycles) already have that form.
    """

    word: tuple

    def __post_init__(self):
        word = _point_ids(self.word, "/word")
        if word[0] != min(word) or len(set(word)) != len(word):
            word = _least_rotation(_primitive_root(word))
        object.__setattr__(self, "word", word)

    @property
    def period(self):
        return len(self.word)


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


@dataclass(frozen=True)
class CouplingResult:
    """Value and realizing plan of a transport or coupling LP."""

    value: float
    plan: np.ndarray
    lower_bound: float | None = None


def _fits(n_cols, start, index, value):
    """Whether CSC arrays hold ``n_cols`` columns: the lengths HiGHS reads unchecked."""
    return len(start) == n_cols + 1 and start[-1] == len(index) == len(value)


def _solve(c, a_eq, b_eq, what, price=None):
    """HiGHS solves of min c @ x over A_eq x = b_eq, x >= 0: ``(x, objective, row_dual)``.

    ``a_eq`` is ``(n_rows, start, index, value)``, the CSC arrays of a matrix
    with ``len(c)`` columns, checked for the lengths HiGHS reads unchecked
    and passed to the array overload of ``passModel``.  The options are
    those that ``linprog(method="highs", options={"presolve": False})`` sets
    away from HiGHS's defaults, so without ``price`` ``x`` and the objective
    are the same bits: presolve off (these LPs are small, and each transport
    block is cut to its mass support by :func:`_transport_lps`), the dual
    simplex strategy, no log output.  Every other option, the 1e-7
    feasibility tolerances included, is HiGHS's default.  Priced solves use
    Devex dual edge weights (Harris, Math. Programming 5, 1973) in place of
    HiGHS's default dual steepest edge, fewer and cheaper iterations on
    shortlisted transport blocks, and a 1e-10 primal feasibility tolerance,
    HiGHS's tightest: at 1e-7 an optimal basis may leave a row whose mass is
    below 1e-7 unmet; unpriced solves keep linprog's options and bits.
    After each optimal run the row duals y (reduced cost c_j - a_j @ y) go to
    ``price``; if it returns ``(c, start, index, value)`` of new columns,
    they are appended with ``addCols`` and the LP runs again from the
    current basis with the primal simplex, until ``price`` returns None.
    ``x`` covers every column in order, appended ones last.  The model
    status is checked after every run: an iteration limit raises
    :class:`SolverIterationCap`; a length mismatch, a rejected option or
    model or any other status than optimal raises :class:`Infeasible`
    naming it.
    """
    n_rows, start, index, value = a_eq
    n_cols = len(c)
    if len(b_eq) != n_rows or not _fits(n_cols, start, index, value):
        raise Infeasible(f"{what} LP: HiGHS rejected the model")
    highs = _highs._Highs()
    for name, setting in _OPTIONS + (_PRICED if price else ()):
        if highs.setOptionValue(name, setting) != _highs.HighsStatus.kOk:
            raise Infeasible(f"{what} LP: HiGHS rejected its options")
    # sizes, column-wise (1), minimize (1), offset 0; costs, bounds, CSC arrays, no integers
    bounds = (np.zeros(n_cols), np.full(n_cols, _highs.kHighsInf), b_eq, b_eq)
    model = (n_cols, n_rows, len(index), 1, 1, 0.0, c, *bounds, start, index, value)
    if highs.passModel(*model, np.zeros(n_cols, dtype=np.int32)) == _highs.HighsStatus.kError:
        raise Infeasible(f"{what} LP: HiGHS rejected the model")
    while True:
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kIterationLimit:
            raise SolverIterationCap(f"{what} LP hit its iteration limit")
        if status != _highs.HighsModelStatus.kOptimal:
            raise Infeasible(f"{what} LP failed: {highs.modelStatusToString(status)}")
        solution = highs.getSolution()
        row_dual = np.array(solution.row_dual)
        new = price(row_dual) if price else None
        if new is None:
            break
        cost, start, index, value = new
        n = len(cost)
        bounds = (np.zeros(n), np.full(n, _highs.kHighsInf))
        added = (n, cost, *bounds, len(index), start[:-1], index, value)
        if not _fits(n, start, index, value) or highs.addCols(*added) == _highs.HighsStatus.kError:
            raise Infeasible(f"{what} LP: HiGHS rejected the priced columns")
        highs.setOptionValue("simplex_strategy", _PRIMAL)
    return np.array(solution.col_value), highs.getObjectiveValue(), row_dual


def _transport_csc(cells, n1, n2):
    """CSC ``(start, index)`` of the listed cells of an n1 x n2 plan, one column each.

    Cell k = i * n2 + j holds row i (its row sum) and, if j < n2 - 1, row n1 + j
    (its column sum; the last column's sum is implied).  All n1 * n2 cells in
    order give the whole transport constraint matrix.  ``n1`` and ``n2`` may
    also be arrays, one shape per cell.
    """
    i, j = np.divmod(cells, n2)
    inner = j < n2 - 1
    start = np.append(0, np.cumsum(1 + inner)).astype(np.int32)
    index = np.empty(start[-1], dtype=np.int32)
    index[start[:-1]] = i
    index[start[:-1][inner] + 1] = (n1 + j)[inner]
    return start, index


def _northwest_corner(a, b):
    """``(i, j)`` of the north-west-corner plan of marginals ``a``, ``b``, in order.

    The staircase from (0, 0) steps down a row as the cumulative mass of ``a``
    is passed and right a column as that of ``b`` is: n1 + n2 - 1 cells that
    carry a feasible plan, so a cell set holding them keeps the LP feasible.
    """
    down = np.arange(len(a) + len(b) - 2) < len(a) - 1
    steps = down[np.argsort(np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]]), kind="stable")]
    return np.cumsum(np.append(False, steps)), np.cumsum(np.append(False, ~steps))


def _shortlist(a, b, cost):
    """Mask of a transport block's starting cells: all of them when min(n1, n2) <= ``_SHORTLIST``.

    Otherwise the ``_SHORTLIST`` cheapest cells of every row and of every
    column, and the north-west-corner cells, which keep the LP feasible.
    """
    k = _SHORTLIST
    if min(cost.shape) <= k:
        return np.ones(cost.shape, dtype=bool)
    keep = np.zeros(cost.shape, dtype=bool)
    for mask, lanes in ((keep, cost), (keep.T, np.ascontiguousarray(cost.T))):  # rows, then columns
        mask[np.arange(len(lanes))[:, None], np.argpartition(lanes, k - 1, axis=1)[:, :k]] = True
    keep[_northwest_corner(a, b)] = True
    return keep


def _marginal_gap(plan, a, b):
    """The largest miss of a row sum of ``plan`` from ``a``, or of a column sum from ``b``."""
    return np.abs(np.concatenate([plan.sum(axis=1) - a, plan.sum(axis=0) - b])).max(initial=0.0)


def _round_to_marginals(plan, a, b):
    """``plan`` clipped at 0 and rounded onto marginals ``a``, ``b`` of one total.

    Altschuler, Weed and Rigollet (NeurIPS 2017, Alg. 2): scale down each row
    over its mass, then each column, and add the mass still missing, e_a on
    the rows and e_b on the columns, as e_a e_b^T / |e_a|_1.
    """
    plan = np.maximum(plan, 0.0)
    for axis, mass in ((1, a), (0, b)):
        sums = plan.sum(axis=axis)
        scale = np.divide(mass, sums, out=np.ones_like(sums), where=sums > mass)
        plan *= np.expand_dims(scale, axis)
    err_a, err_b = np.maximum(a - plan.sum(axis=1), 0.0), np.maximum(b - plan.sum(axis=0), 0.0)
    return plan + np.outer(err_a, err_b) / err_a.sum() if err_a.sum() > 0 else plan


def _transport_lps(problems):
    """Solve independent transport problems ``(a, b, cost)`` as one LP.

    Each problem is reduced to its mass support, the rows where a != 0 and
    the columns where b != 0 (only exact zeros are dropped): with x >= 0 a
    zero-mass row or column forces its plan entries to 0, so the optimum is
    the same.  The reduced blocks are stacked block-diagonally and solved in
    one :func:`_solve` call without presolve; a block with an empty support
    on either side does not reach HiGHS.  The blocks share no variables, so
    the joint optimum restricted to a block is optimal for it.

    A block with min(n1, n2) <= ``_SHORTLIST`` enters with every cell, so an
    LP of such blocks only is the whole LP, run once with no pricing.  A
    larger block enters with the cells of :func:`_shortlist` (the shortlist
    method of Gottschlich and Schuhmacher, PLoS ONE 9(10), 2014), and the
    others are priced in: with u the block's row-sum duals and v its
    column-sum duals (v = 0 for the dropped last column), every excluded
    cell with c_ij - u_i - v_j < 0 is added, with no tolerance, and the LP
    runs again, until no such cell is left.  That is the full LP's dual
    feasibility on every cell HiGHS did not see, so the optimum is the full
    LP's.  The solution is scattered back in the LP's column order; a block
    on its full support reads its plan from it as it stands, with no gather
    or scatter, and any other block's plan is a zero plan of the full shape
    holding its cells.  A plan that misses its marginals by more than
    ``MARGINAL_TOL`` is repaired by :func:`_round_to_marginals`, and the
    repaired plan is checked again.  The value is ``cost @ plan``.  Returns
    one :class:`CouplingResult` per problem.
    """
    blocks, b_eq, supports, order, n_rows, n_cells = [], [], [], [], 0, 0
    for a, b, cost in problems:
        n1, n2 = cost.shape
        if a.shape != (n1,) or b.shape != (n2,):
            raise SchemaError("/cost", "cost shape must match the two marginals")
        i, j = np.flatnonzero(a), np.flatnonzero(b)
        support = None if len(i) == n1 and len(j) == n2 else (i, j)
        supports.append((support, n_cells))
        if support:
            a, b, cost = a[i], b[j], cost[np.ix_(i, j)]
        if cost.size:
            blocks.append((cost, n_rows, n_cells, _shortlist(a, b, cost)))
            b_eq += [a, b[:-1]]
            n_rows += sum(cost.shape) - 1
            n_cells += cost.size

    def columns(picked):
        """``(c, start, index, value)`` of each block's picked cells; their ids go to ``order``."""
        cells = np.concatenate(picked)
        n1, n2, row, lo = np.repeat(layout, [len(p) for p in picked], axis=1)
        start, index = _transport_csc(cells, n1, n2)
        index += np.repeat(row, np.diff(start))
        order.append(lo + cells)
        return costs[order[-1]], start, index, np.ones(len(index))

    def price(row_dual):
        """Columns of the excluded cells with a negative reduced cost, or None if there are none."""
        picked = []
        for block, row, _, seen in blocks:
            n1, n2 = block.shape
            u, v = row_dual[row : row + n1], np.append(row_dual[row + n1 : row + n1 + n2 - 1], 0)
            new = (block - u[:, None] < v) & ~seen  # c - u - v < 0, with one rounding fewer
            seen |= new
            picked.append(np.flatnonzero(new))
        return columns(picked) if any(len(cells) for cells in picked) else None

    x = np.zeros(n_cells)
    if blocks:
        layout = np.array([(*block.shape, row, lo) for block, row, lo, _ in blocks]).T
        costs = np.concatenate([block.ravel() for block, *_ in blocks])
        c, *a_eq = columns([np.flatnonzero(seen) for *_, seen in blocks])
        whole = all(seen.all() for *_, seen in blocks)  # then ``order`` is every cell in turn
        b_eq = np.concatenate(b_eq)
        found, _, _ = _solve(c, (n_rows, *a_eq), b_eq, "transport", None if whole else price)
        if whole:
            x = found
        else:
            x[np.concatenate(order)] = found
    out = []
    for (a, b, cost), (support, lo) in zip(problems, supports):
        if support:
            i, j = support
            plan = np.zeros(cost.shape)
            plan[np.ix_(i, j)] = x[lo : lo + len(i) * len(j)].reshape(len(i), len(j))
        else:
            plan = x[lo : lo + cost.size].reshape(cost.shape)
        if _marginal_gap(plan, a, b) > MARGINAL_TOL:
            plan = _round_to_marginals(plan, a, b)
            if _marginal_gap(plan, a, b) > MARGINAL_TOL:
                raise Infeasible("transport plan violates its marginals")
        out.append(CouplingResult(float(cost.ravel() @ plan.ravel()), plan))
    return out


def w1_distance(mu, nu, cost):
    """Optimal-transport value between two finite distributions.

    The one-problem case of :func:`_transport_lps`, shortlist and pricing
    included.  Value ``c @ x``: a floating-point optimum, feasible to 1e-7
    (1e-10 when priced).  A plan that misses a marginal by more than 1e-9
    is repaired onto both, and the repaired plan is what gets checked.
    """
    a, b = (np.asarray(m, dtype=float) for m in (mu, nu))
    return _transport_lps([(a, b, np.asarray(cost, dtype=float))])[0]


def _by_period(orbits):
    """{period: (positions in ``orbits``, stacked words)} of periodic measures."""
    groups = {}
    for i, pm in enumerate(orbits):
        groups.setdefault(pm.period, []).append((i, pm.word))
    return {p: tuple(np.array(col) for col in zip(*group)) for p, group in groups.items()}


def _phase_scan(set_a, set_b, cost, radius, tail):
    """Phase-optimal averages of per-shift terms between every pair of orbits.

    Ergodic joinings of two periodic-orbit measures are indexed by a phase
    modulo the gcd g of the periods, so each pair's value is its best
    phase-aligned average.  For periods (p, q) and phase a, the cost
    sequence e(s) = cost[x_(a+s), y_s] has period L = lcm(p, q); it is
    gathered once, wrap-padded by M = min(radius, L // 2).  The term at s is

        max(tail, e(s), max over 1 <= |k| <= radius of min(e(s+k), 1/(|k|+1))),

    built by :func:`~deltachain.core._truncated_max` over the padded
    sequence.  Min and max only select and e is L-periodic, so an offset k
    beyond L // 2 repeats the e of the offset k mod L nearest 0, whose
    weight is at least k's: the terms are the full window's bits.  The
    k = 0 term has no weight: with ``tail`` -inf, costs above 1 count in
    full.  Chunks of rows, and of columns when one row is too large,
    keep a chunk's arrays (padded gather, terms, scratch, phase means, ids)
    within ``_GATHER_FLOATS`` floats.  Returns three dense
    (len(set_a), len(set_b)) matrices: the best average (phases scanned in
    order; a later phase wins only when lower by more than TOL), the phase
    that attains it, and the phase-0 average.
    """
    value, aligned = np.empty((2, len(set_a), len(set_b)))
    phase = np.zeros(value.shape, dtype=int)
    groups_b = _by_period(set_b)
    for p, (rows, words_a) in _by_period(set_a).items():
        for q, (cols, words_b) in groups_b.items():
            g, L = math.gcd(p, q), math.lcm(p, q)
            M = min(radius, L // 2)
            shift = np.arange(-M, L + M)
            at_a, at_b = (np.arange(g)[:, None] + shift) % p, shift % q
            row_ids, col_ids = g * len(shift), len(shift)
            # floats per pair: padded gather, terms, scratch, phase means, 3 for the scan
            pair = g * (len(shift) + 2 * L + 1) + 3
            col_step = max(1, min(len(cols), (_GATHER_FLOATS - row_ids) // (pair + col_ids)))
            row_step = max(1, (_GATHER_FLOATS - col_step * col_ids) // (col_step * pair + row_ids))
            for r in range(0, len(rows), row_step):
                ids_a = words_a[r : r + row_step][:, None, at_a]
                for c in range(0, len(cols), col_step):
                    ids_b = words_b[c : c + col_step][:, None, at_b]
                    # padded gather (rows, cols, phase, shift); it and the terms
                    # are freed before the next chunk's gather
                    terms = _truncated_max(cost[ids_a, ids_b], M)
                    by_phase = np.maximum(terms, tail, out=terms).sum(axis=-1) / L  # as np.mean
                    del terms
                    best, arg = by_phase[..., 0], np.zeros(by_phase.shape[:2], dtype=int)
                    for a in range(1, g):
                        better = by_phase[..., a] < best - TOL
                        best = np.where(better, by_phase[..., a], best)
                        arg[better] = a
                    block = rows[r : r + row_step, None], cols[None, c : c + col_step]
                    value[block], phase[block], aligned[block] = best, arg, by_phase[..., 0]
    return value, phase, aligned


def rho_bar_matrices(set_a, set_b, cost):
    """rho_bar between every orbit of ``set_a`` and every orbit of ``set_b``, exactly.

    The infimum over joinings is attained at an ergodic joining, and those of
    two orbit measures are uniform on product orbits, one per phase modulo the
    gcd of the periods: each value is the best phase-aligned average cost
    (checked against an LP over orbit couplings in the tests), costs above 1
    counting in full.  Returns the value, its phase and the phase-0 average.
    """
    return _phase_scan(set_a, set_b, np.asarray(cost, dtype=float), 0, -math.inf)


def pi_bar_matrices(set_a, set_b, sys, radius):
    """pi_bar between every orbit of ``set_a`` and every orbit of ``set_b``.

    Each per-shift term is the truncated product-metric maximum over
    |k| <= radius, raised to the truncation tail 1/(radius+2) when below it:
    the rule is ``max(value, tail)``, with no TOL margin (unlike
    :func:`~deltachain.core.pi_distance`, which keeps a value only when it
    exceeds the tail by more than TOL).  :func:`_phase_scan` builds it from
    each pair's per-phase cost sequence, with the full window's bits; the
    metric meets the k = 0 weight 1 first, as a system admits entries up to
    1 + TOL.  Returns three dense (len(set_a), len(set_b)) matrices: the
    pi_bar value, the phase that attains it and the phase-0 value.
    """
    K = int(radius)
    if K < 0:
        raise SchemaError("/radius", "radius must be >= 0")
    return _phase_scan(set_a, set_b, np.minimum(sys.dist, 1.0), K, 1.0 / (K + 2))


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
    # the pair marginals of lam.  The lam coefficient is read at the row's first flow.
    width = 2 * max(n1, n2)
    keys = np.concatenate([width * src + up, width * src + width // 2 + vp, width * npairs + dst])
    keys, first, row = np.unique(keys, return_index=True, return_inverse=True)
    kind, f = np.divmod(first, len(flow))
    coef = np.stack([mu.kernel[u, up], nu.kernel[v, vp], np.ones(len(flow))])[kind, f]
    start_m, row_m = _transport_csc(np.arange(npairs), n1, n2)
    col_m = np.repeat(np.arange(npairs), np.diff(start_m))
    rows = np.concatenate([row, np.arange(len(keys)), len(keys) + row_m])
    cols = np.concatenate([np.tile(flow, 3), np.where(kind == 2, dst[f], src[f]), col_m])
    data = np.concatenate([np.ones(3 * len(flow)), -coef, np.ones(len(row_m))])
    order = np.lexsort((rows, cols))  # CSC order: by column, then row (no entry repeats)
    start = np.append(0, np.cumsum(np.bincount(cols, minlength=npairs + len(flow))))
    csc = (start.astype(np.int32), rows[order].astype(np.int32), data[order])
    b_eq = np.concatenate([np.zeros(len(keys)), mu.stationary, nu.stationary[:-1]])
    c = np.concatenate([cost.ravel(), np.zeros(len(flow))])
    x, value, _ = _solve(c, (len(keys) + n1 + n2 - 1, *csc), b_eq, "coupling")
    lower = w1_distance(mu.stationary, nu.stationary, cost).value
    return CouplingResult(float(value), x[:npairs].reshape(n1, n2), lower_bound=lower)


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
    the target mixture as the block scale L grows.  A word over ``_MAX_WORD``
    letters raises :class:`SizeOverflow` before it is built.
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
    length = sum(r * pm.period for (pm, _), r in zip(components, reps)) + len(reps) * (m - 1)
    if length > _MAX_WORD:
        raise SizeOverflow(f"the word at L={block_scale} has {length} letters, over {_MAX_WORD}")
    blocks = [list(pm.word) * r for (pm, _), r in zip(components, reps)]
    return PeriodicOrbitMeasure(tuple(_glue(g, blocks, [m] * len(blocks))))


def mixture_cylinders(target, cylinder_depth):
    """Cyclic block distributions of a mixture: each block occurrence adds weight / period."""
    if cylinder_depth < 1:
        raise SchemaError("/depth", "cylinder depth must be >= 1")
    out = {w: {} for w in range(1, cylinder_depth + 1)}
    for pm, weight in target:
        p = pm.period
        ext = pm.word * (cylinder_depth // p + 2)  # each cyclic block is a slice
        for w, dist in out.items():
            for i in range(p):
                dist[ext[i : i + w]] = dist.get(ext[i : i + w], 0.0) + weight / p
    return out


def empirical_measure(pm, cylinder_depth):
    """Cyclic block distributions of one periodic word: the one-component mixture."""
    return mixture_cylinders([(pm, 1.0)], cylinder_depth)


def weakstar_proxies(pairs, depth, sys):
    """:func:`weakstar_proxy` for every ``(cyl_a, cyl_b)`` in ``pairs``.

    The transport problems of every pair and every depth are solved as one
    block-diagonal LP, each on the two supports in insertion order (block cost
    the max coordinate distance); each total is summed over depths in order.
    """
    if depth < 1:
        raise SchemaError("/depth", "cylinder depth must be >= 1")
    problems = []
    for cyl_a, cyl_b in pairs:
        if any(w not in cyl for cyl in (cyl_a, cyl_b) for w in range(1, depth + 1)):
            raise DepthMismatch(f"cylinder distributions must reach depth {depth}")
        for w in range(1, depth + 1):
            sides = (cyl_a[w], cyl_b[w])
            ids_a, ids_b = (np.array(list(d), dtype=int).reshape(-1, w) for d in sides)
            a, b = (np.array(list(d.values()), dtype=float) for d in sides)
            cost = sys.dist[ids_a[:, None, :], ids_b[None, :, :]].max(axis=2)
            problems.append((a, b, cost))
    totals = [0.0] * len(pairs)
    for k, res in enumerate(_transport_lps(problems)):  # pair k // depth, depth k % depth + 1
        totals[k // depth] += 2.0 ** -(k % depth + 1) * res.value
    return totals


def weakstar_proxy(cyl_a, cyl_b, depth, sys):
    """Computable stand-in for weak* distance: a truncated cylinder-transport sum.

    Sums 2^-w times the transport distance between length-w block
    distributions, with block cost the max coordinate distance.  The one-pair
    case of :func:`weakstar_proxies`: its depth problems are solved as one LP.
    """
    return weakstar_proxies([(cyl_a, cyl_b)], depth, sys)[0]

