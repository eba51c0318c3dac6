"""Independent reference computations for every output the benchmark times.

Nothing here imports deltachain.  Each check recomputes a quantity from its
definition by a different method from the library's where one exists:

* chain graphs from a direct per-row adjacency test;
* strong connectivity, period and mixing constant from float-BLAS boolean
  matrix powers, reduced to 0/1 after every product (binary lifting for the
  least all-positive power);
* simple cycles from a dense k-index tensor in C order, which is the
  lexicographic order the library documents;
* orbit distances by evaluating the product-metric average on explicitly
  expanded periodic sequences with sliding windows; Hausdorff by loops;
* transport values from the dual LP (potentials), not the primal plan;
* glued words by literal margin equality and edge checks;
* the density Besicovitch variant by the Ky Fan formula
  max_j min(j/N, d_(j)) over the sorted distances.

Tolerances: closed-form float values agree to ``FLOAT_TOL``; LP values to
``LP_TOL``, which covers HiGHS's default 1e-7 primal/dual feasibility
tolerance on costs of order one; transport plans may dip below zero by that
feasibility tolerance, ``LP_FEAS_TOL``, and miss a marginal by (number of
marginal rows) x ``LP_FEAS_TOL``, since one marginal row may be implied.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

#: Threshold slack of the documented edge rule: u -> v iff rho(T(u), v) <= delta.
EDGE_TOL = 1e-12
FLOAT_TOL = 1e-9
LP_TOL = 1e-6
LP_FEAS_TOL = 1e-7


class OracleMismatch(AssertionError):
    """An output disagrees with its reference value."""


def expect(cond, what):
    if not cond:
        raise OracleMismatch(what)


def expect_close(got, want, tol, what):
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol):
        raise OracleMismatch(f"{what}: got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# Metric systems and chain graphs


def normalized(raw):
    return np.minimum(np.asarray(raw, dtype=float), 1.0)


def chain_adjacency(dist, image, delta):
    """Edge u -> v iff dist[T(u), v] <= delta, one row per source point."""
    n = len(image)
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        adj[u] = dist[image[u]] <= delta + EDGE_TOL
    return adj


def _bool_product(a, b):
    return ((a @ b) > 0.5).astype(np.float64)


def strongly_connected(adj):
    """Every vertex reaches vertex 0 and is reached from it (BFS by mat-vec)."""
    a = adj.astype(np.float64)
    n = a.shape[0]
    for m in (a, a.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.astype(np.float64)
        while frontier.any():
            nxt = (frontier @ m) > 0.5
            frontier = (nxt & ~seen).astype(np.float64)
            seen |= nxt
        if not seen.all():
            return False
    return True


def period(adj):
    """gcd of closed-walk lengths <= 3n at vertex 0 of a strongly connected graph.

    Every simple cycle C is the difference of two closed walks at 0 of length
    <= 3n (0 -> C -> 0 with and without one turn around C), so this gcd is
    the gcd of all cycle lengths.
    """
    a = adj.astype(np.float64)
    n = a.shape[0]
    row = np.zeros(n)
    row[0] = 1.0
    g = 0
    for length in range(1, 3 * n + 1):
        row = ((row @ a) > 0.5).astype(np.float64)
        if row[0] > 0.5:
            g = math.gcd(g, length)
            if g == 1:
                break
    return g


def mixing_constant(adj):
    """Least m with A^m all positive, or None when no power is (not primitive).

    Squares until all positive, bounded by Wielandt's (n-1)^2 + 1, then finds
    the least exponent by binary lifting over the stored powers A^(2^j).
    Primitive graphs have no zero rows, so A^m > 0 implies A^(m+1) > 0 and
    the predicate is monotone.
    """
    a = adj.astype(np.float64)
    n = a.shape[0]
    bound = (n - 1) ** 2 + 1
    powers = [a]  # powers[j] = A^(2^j)
    while not (powers[-1] > 0.5).all():
        if 2 ** (len(powers) - 1) >= bound:
            return None
        powers.append(_bool_product(powers[-1], powers[-1]))
    if len(powers) == 1:
        return 1
    # A^(2^(J-1)) is not all positive; find the largest m < 2^J that is not.
    m = 2 ** (len(powers) - 2)
    current = powers[-2]
    for j in range(len(powers) - 3, -1, -1):
        trial = _bool_product(current, powers[j])
        if not (trial > 0.5).all():
            current = trial
            m += 2**j
    return m + 1


def certificate(adj):
    """(strongly_connected, period, mixing_constant) as the library reports it."""
    if not strongly_connected(adj):
        return False, 0, None
    d = period(adj)
    if d != 1:
        return True, d, None
    return True, 1, mixing_constant(adj)


# ---------------------------------------------------------------------------
# Walks, cycles and words


def lowest_id_walk(adj, x, y, length):
    """Walk of exactly ``length`` steps x -> y taking the least admissible id."""
    n = adj.shape[0]
    a = adj.astype(np.float64)
    reach = [np.zeros(n)]
    reach[0][y] = 1.0
    for _ in range(length):
        reach.append(((a @ reach[-1]) > 0.5).astype(np.float64))
    expect(reach[length][x] > 0.5, f"no walk of length {length} from {x} to {y}")
    walk = [x]
    for t in range(length, 0, -1):
        walk.append(next(v for v in range(n) if adj[walk[-1], v] and reach[t - 1][v] > 0.5))
    return walk


def simple_cycles(adj, max_len, cap):
    """Simple cycles up to ``max_len`` rooted at their least vertex.

    Ordered by length, then lexicographically (np.argwhere walks a C-order
    tensor).  Returns (first ``cap`` cycles, truncated).
    """
    n = adj.shape[0]
    out = []
    for k in range(1, max_len + 1):
        if n**k > 20_000_000:
            raise ValueError("cycle tensor too large for the reference enumerator")
        idx = np.indices((n,) * k, sparse=True)
        mask = np.ones((n,) * k, dtype=bool)
        for j in range(k):
            mask = mask & adj[idx[j], idx[(j + 1) % k]]
            if j:
                mask = mask & (idx[0] < idx[j])
            for i in range(1, j):
                mask = mask & (idx[i] != idx[j])
        out.extend(tuple(int(v) for v in row) for row in np.argwhere(mask))
    return out[:cap], len(out) > cap


def primitive_root(word):
    word = tuple(word)
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[d:] + word[:d] == word:
            return word[:d]
    return word


def true_cycles(image):
    """Periodic orbits of a map, each listed from its least point."""
    n = len(image)
    seen, cycles = set(), []
    for start in range(n):
        x = start
        for _ in range(n):
            x = image[x]
        if x in seen:
            continue
        cycle = [x]
        while image[cycle[-1]] != x:
            cycle.append(image[cycle[-1]])
        seen.update(cycle)
        low = cycle.index(min(cycle))
        cycles.append(tuple(cycle[low:] + cycle[:low]))
    return cycles


def check_glued_word(word, origin_offset, segments, adj, n_margin, m):
    """A glued periodic chain: closed edge walk, literal margins, exact period.

    ``segments`` lists (a, b, source_entries, source_origin).  The period of
    the construction is b_last + 2N - 2 + M with a_1 = 0.
    """
    word = list(word)
    p = len(word)
    want = segments[-1][1] + 2 * n_margin - 2 + m
    expect(p == want, f"glued period {p}, reference {want}")
    for i in range(p):
        expect(adj[word[i], word[(i + 1) % p]], f"glued word step {i} is not an edge")
    for idx, (a, b, entries, origin) in enumerate(segments):
        for c in range(a - n_margin + 1, b + n_margin - 1):
            got = word[(c + origin_offset) % p]
            expect(got == entries[origin + c], f"segment {idx} differs at coordinate {c}")


# ---------------------------------------------------------------------------
# Orbit distances


def pi_bar_phases(dist, pairs, radius):
    """Per-phase product-metric averages for word pairs of one (p, q) shape.

    ``pairs`` is a list of (wp, wq) with len(wp) = p, len(wq) = q.  Returns an
    array (len(pairs), gcd(p, q)); entry [i, a] averages, over one joint
    period t, max(max_k min(dist(x_{a+t+k}, y_{t+k}), 1/(|k|+1)), tail).
    """
    wp = np.array([pair[0] for pair in pairs])
    wq = np.array([pair[1] for pair in pairs])
    p, q = wp.shape[1], wq.shape[1]
    g, L, K = math.gcd(p, q), math.lcm(p, q), int(radius)
    tail = 1.0 / (K + 2)
    weights = 1.0 / (np.abs(np.arange(-K, K + 1)) + 1.0)
    span = L + 2 * K  # coordinates -K .. L-1+K
    # periodic sequences written out in full; column j of a tile holds w[j mod len]
    x_long = np.tile(wp, (1, span // p + 2))
    y_long = np.tile(wq, (1, span // q + 2))
    y = y_long[:, (-K) % q : (-K) % q + span]
    out = np.empty((len(pairs), g))
    for a in range(g):
        start = (a - K) % p
        c = dist[x_long[:, start : start + span], y]
        win = np.lib.stride_tricks.sliding_window_view(c, 2 * K + 1, axis=1)
        per_shift = np.maximum(np.minimum(win, weights).max(axis=2), tail)
        out[:, a] = per_shift.mean(axis=1)
    return out


def pi_bar_matrix(dist, rows, cols, radius):
    """Matrices (phase-optimal, phase-0) over all word pairs rows x cols."""
    groups = {}
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            groups.setdefault((len(a), len(b)), []).append((i, j))
    best = np.empty((len(rows), len(cols)))
    aligned = np.empty_like(best)
    for cells in groups.values():
        values = pi_bar_phases(dist, [(rows[i], cols[j]) for i, j in cells], radius)
        for (i, j), v in zip(cells, values):
            best[i, j] = v.min()
            aligned[i, j] = v[0]
    return best, aligned


def hausdorff(matrix):
    """max(max_i min_j D[i, j], max_j min_i D[i, j]) by explicit loops."""
    rows, cols = len(matrix), len(matrix[0])
    forward = max(min(matrix[i][j] for j in range(cols)) for i in range(rows))
    backward = max(min(matrix[i][j] for i in range(rows)) for j in range(cols))
    return max(forward, backward)


def stratified(items, cap):
    """The documented deterministic evenly spaced sample (and whether it is full)."""
    if len(items) <= cap:
        return list(items), True
    idx = sorted({round(i * (len(items) - 1) / (cap - 1)) for i in range(cap)})
    return [items[i] for i in idx], False


def besicovitch_pi(dist, x, x_origin, y, y_origin, horizon, radius):
    """(1/N) sum_j pi(S^j x, S^j y) with pi evaluated on |k| <= K, by loops."""
    K = int(radius)
    tail = 1.0 / (K + 2)
    total = 0.0
    for j in range(horizon):
        value = 0.0
        for k in range(-K, K + 1):
            term = min(float(dist[x[x_origin + j + k], y[y_origin + j + k]]), 1.0 / (abs(k) + 1))
            value = max(value, term)
        total += value if value > tail + EDGE_TOL else tail
    return total / horizon


def ky_fan(distances):
    """inf{delta : #{k : d_k >= delta} / N < delta} = max_j min(j/N, d_(j))."""
    d = sorted((float(v) for v in distances), reverse=True)
    n = len(d)
    return max([0.0] + [min((j + 1) / n, d[j]) for j in range(n)])


# ---------------------------------------------------------------------------
# Transport


def _solve(c, a_ub, b_ub, what):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    expect(res.status == 0, f"reference dual LP for {what} failed: {res.message}")
    return -float(res.fun)


def w1_dual(a, b, cost):
    """max a.f + b.g subject to f_i + g_j <= C_ij (Kantorovich duality)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n1, n2 = cost.shape
    r = np.arange(n1 * n2)
    rows = np.concatenate([r, r])
    cols = np.concatenate([r // n2, n1 + r % n2])
    a_ub = coo_matrix((np.ones(2 * n1 * n2), (rows, cols)), shape=(n1 * n2, n1 + n2))
    return _solve(-np.concatenate([a, b]), a_ub, cost.ravel(), "transport")


def markov_coupling_dual(p_mu, s_mu, p_nu, s_nu, cost):
    """Dual value of the Markovian-coupling LP behind the d-bar upper bound.

    Primal: variables lam(u, v) >= 0 and edge flows f(uv -> u'v') >= 0 over
    supported transitions; each flow's coordinate sums reproduce
    lam(uv) P(u, u') and lam(uv) Q(v, v'); inflow into each pair equals its
    lam; lam has marginals s_mu and s_nu; minimize sum cost * lam.  The dual
    maximizes b.y subject to A^T y <= c with y free.
    """
    tol = 1e-9
    n1, n2 = len(s_mu), len(s_nu)
    npairs = n1 * n2
    flows = [
        (u, v, up, vp)
        for u in range(n1)
        for v in range(n2)
        for up in range(n1)
        if p_mu[u, up] > tol
        for vp in range(n2)
        if p_nu[v, vp] > tol
    ]
    nvars = npairs + len(flows)
    row_of = {}
    entries = []  # (row, col, value)

    def row(key):
        return row_of.setdefault(key, len(row_of))

    for f, (u, v, up, vp) in enumerate(flows):
        col = npairs + f
        entries.append((row(("mu", u, v, up)), col, 1.0))
        entries.append((row(("nu", u, v, vp)), col, 1.0))
        entries.append((row(("in", up, vp)), col, 1.0))
    for u in range(n1):
        for v in range(n2):
            pair = u * n2 + v
            for up in range(n1):
                if p_mu[u, up] > tol:
                    entries.append((row(("mu", u, v, up)), pair, -float(p_mu[u, up])))
            for vp in range(n2):
                if p_nu[v, vp] > tol:
                    entries.append((row(("nu", u, v, vp)), pair, -float(p_nu[v, vp])))
            entries.append((row(("in", u, v)), pair, -1.0))
            entries.append((row(("su", u)), pair, 1.0))
            if v < n2 - 1:
                entries.append((row(("sv", v)), pair, 1.0))
    b = np.zeros(len(row_of))
    for key, r in row_of.items():
        if key[0] == "su":
            b[r] = s_mu[key[1]]
        elif key[0] == "sv":
            b[r] = s_nu[key[1]]
    rr, cc, vv = zip(*entries)
    a_eq = coo_matrix((vv, (rr, cc)), shape=(len(row_of), nvars)).tocsr()
    c = np.concatenate([np.asarray(cost, dtype=float).ravel(), np.zeros(len(flows))])
    return _solve(-b, a_eq.T, c, "Markov coupling")


def cyclic_blocks(word, width):
    """Distribution of the length-``width`` cyclic blocks of a periodic word."""
    p = len(word)
    counts = Counter(tuple(word[(i + t) % p] for t in range(width)) for i in range(p))
    return {block: c / p for block, c in counts.items()}


def block_transport(dist_a, dist_b, metric):
    """W1 between two block distributions under the max-coordinate cost (dual LP)."""
    support = sorted(set(dist_a) | set(dist_b))
    a = [dist_a.get(s, 0.0) for s in support]
    b = [dist_b.get(s, 0.0) for s in support]
    cost = np.array([[max(metric[x, y] for x, y in zip(s, t)) for t in support] for s in support])
    return w1_dual(a, b, cost)


def weakstar(dists_a, dists_b, depth, metric):
    """sum_{w <= depth} 2^-w W1(block distributions of width w)."""
    return sum(
        2.0**-w * block_transport(dists_a[w], dists_b[w], metric) for w in range(1, depth + 1)
    )


def mixture_blocks(components, depth):
    """Weighted block distributions of a mixture of periodic words."""
    out = {w: {} for w in range(1, depth + 1)}
    for word, weight in components:
        for w in range(1, depth + 1):
            for block, mass in cyclic_blocks(word, w).items():
                out[w][block] = out[w].get(block, 0.0) + weight * mass
    return out


def sigmund_word(components, adj, m, scale):
    """The documented gluing: round(w L / p) repeats, joined by M-step walks."""
    if len(components) == 1:
        return tuple(components[0][0])
    blocks = [
        list(word) * int(math.floor(weight * scale / len(word) + 0.5))
        for word, weight in components
    ]
    for block in blocks:
        expect(len(block) > 0, "a mixture component rounds to zero blocks")
    word = []
    for i, block in enumerate(blocks):
        word.extend(block)
        nxt = blocks[(i + 1) % len(blocks)]
        word.extend(lowest_id_walk(adj, block[-1], nxt[0], m)[1:-1])
    return tuple(word)
