"""Chain graphs: directed graphs whose walks are the delta-chains of a system.

The graph on the point set has an edge u -> v iff rho(T(u), v) <= delta, so
its biinfinite walks are exactly the delta-chain sequences.  Primitivity of
the graph (strong connectivity with period 1) is the graph form of chain
mixing, and the least all-positive boolean power gives the mixing constant
used by the specification construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import TOL, FiniteMetricSystem
from .errors import NoChain


@dataclass(frozen=True)
class ChainGraph:
    """Adjacency of the delta-chain relation for one threshold."""

    system: FiniteMetricSystem
    delta: float
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool).copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self):
        return self.adjacency.shape[0]

    def successors(self, u):
        return np.nonzero(self.adjacency[u])[0]

    def edge_count(self):
        return int(np.count_nonzero(self.adjacency))


@dataclass(frozen=True)
class MixingCertificate:
    """Strong connectivity, cycle-length gcd, and the mixing constant if primitive.

    ``mixing_constant`` is present iff the graph is strongly connected with
    period 1; it is the least m such that every boolean power of the adjacency
    from m on is all-true (bounded by Wielandt's (n-1)^2 + 1).
    """

    strongly_connected: bool
    period: int
    mixing_constant: int | None = None


def build_chain_graph(sys, delta):
    """Chain graph at threshold delta: edge u -> v iff rho(T(u), v) <= delta."""
    if not (-TOL <= delta <= 1.0 + TOL):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    image_rows = sys.dist[np.asarray(sys.map_image)]
    adjacency = image_rows <= delta + TOL
    return ChainGraph(sys, float(delta), adjacency)


def _graph_period(adj):
    """gcd of cycle lengths of a strongly connected graph, via BFS levels."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    queue = deque([0])
    g = 0
    while queue:
        u = queue.popleft()
        for v in np.nonzero(adj[u])[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 0


def wielandt_bound(n):
    return (n - 1) ** 2 + 1


def mixing_certificate(g):
    """Certify chain mixing of the graph; never raises.

    For a primitive graph the mixing constant is found by scanning boolean
    matrix powers in the boolean semiring: each product is taken in float64
    (exact path counts up to 2^53, on BLAS) and thresholded at zero.
    """
    adj = g.adjacency
    n = g.n
    ncomp, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
    strongly_connected = ncomp == 1
    if not strongly_connected:
        return MixingCertificate(False, 0, None)
    period = _graph_period(adj)
    if period != 1:
        return MixingCertificate(True, period, None)
    a = adj.astype(np.float64)
    power = a
    m = 1
    bound = wielandt_bound(n)
    while not power.all():
        power = (power @ a > 0).astype(np.float64)
        m += 1
        if m > bound:  # unreachable for primitive graphs (Wielandt)
            raise AssertionError("primitive graph exceeded the Wielandt bound")
    return MixingCertificate(True, 1, m)


def finite_chain(g, x, y, length):
    """A walk of exactly ``length`` steps from x to y, deterministically.

    BFS over the layered graph (coordinate = remaining length), realized as a
    backward-reachability table; ties are broken by lowest id so downstream
    gluing constructions are reproducible bit for bit.
    """
    if length < 1:
        raise NoChain(x, y, length)
    adj = g.adjacency
    reach = np.zeros((length + 1, g.n), dtype=bool)
    reach[0, y] = True
    for t in range(1, length + 1):
        reach[t] = adj @ reach[t - 1]
    if not reach[length, x]:
        raise NoChain(x, y, length)
    walk = [int(x)]
    current = int(x)
    for t in range(length, 0, -1):
        candidates = np.nonzero(adj[current] & reach[t - 1])[0]
        current = int(candidates[0])
        walk.append(current)
    return walk


def chain_family(sys, n_max):
    """Chain graphs at delta = 1, 1/2, ..., 1/n_max (decreasing, nested)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [build_chain_graph(sys, 1.0 / n) for n in range(1, n_max + 1)]


def is_delta_chain(traj, g):
    """True iff every consecutive pair of the trajectory is an edge of g."""
    ids = traj.entries
    return all(g.adjacency[ids[i], ids[i + 1]] for i in range(len(ids) - 1))


def critical_deltas(sys):
    """The finitely many thresholds at which the chain graph can change."""
    image_rows = sys.dist[np.asarray(sys.map_image)]
    return sorted(set(np.unique(image_rows).tolist()))


# ---------------------------------------------------------------------------
# Exports


def to_adjacency_lines(g):
    lines = []
    for u in range(g.n):
        succ = " ".join(str(int(v)) for v in g.successors(u))
        lines.append(f"{u}: {succ}")
    return "\n".join(lines) + "\n"


def to_dot(g):
    out = ["digraph chain {"]
    for u in range(g.n):
        out.append(f'  {u} [label="{g.system.labels[u]}"];')
    for u in range(g.n):
        for v in g.successors(u):
            out.append(f"  {u} -> {int(v)};")
    out.append("}")
    return "\n".join(out) + "\n"
