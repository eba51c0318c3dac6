"""Chain graphs: directed graphs whose walks are the delta-chains of a system.

The graph on the point set has an edge u -> v iff rho(T(u), v) <= delta, so
its biinfinite walks are exactly the delta-chain sequences.  Primitivity of
the graph (strong connectivity with period 1) is the graph form of chain
mixing, and the least all-positive boolean power gives the mixing constant
used by the specification construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TOL, FiniteMetricSystem, _immutable
from .errors import NoChain

_TABLE_BYTES = 1 << 18  # bound on one finite_chain reachability block (256 KB)


@dataclass(frozen=True)
class ChainGraph:
    """Adjacency of the delta-chain relation for one threshold."""

    system: FiniteMetricSystem
    delta: float
    adjacency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _immutable(self.adjacency, bool))

    def __reduce__(self):
        # rebuild through the constructor: a frozen adjacency, no stale certificate
        return ChainGraph, (self.system, self.delta, self.adjacency)

    @property
    def n(self):
        return self.adjacency.shape[0]

    def successors(self, u):
        return np.nonzero(self.adjacency[u])[0]

    def edge_count(self):
        return int(np.count_nonzero(self.adjacency))

    @cached_property
    def certificate(self):
        """:func:`mixing_certificate` of this graph, computed on first use.

        The adjacency is immutable, so the cached value cannot go stale.
        """
        return _certify(self.adjacency)


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
    return ChainGraph(sys, float(delta), image_rows <= delta + TOL)


def wielandt_bound(n):
    return (n - 1) ** 2 + 1


def mixing_certificate(g):
    """Certify chain mixing of the graph; never raises.

    Returns the graph's cached :attr:`ChainGraph.certificate`, so each graph
    is certified once however many callers ask.
    """
    return g.certificate


def _depths(adj):
    """BFS depth of each vertex from vertex 0 along ``adj``, -1 where not reached."""
    depth = np.full(adj.shape[0], -1)
    frontier, level = np.arange(adj.shape[0]) == 0, 0
    while frontier.any():
        depth[frontier], level = level, level + 1
        frontier = adj[frontier].any(axis=0) & (depth < 0)
    return depth


def _certify(adj):
    """The :class:`MixingCertificate` of a boolean adjacency matrix.

    Strongly connected iff vertex 0 reaches every vertex along ``adj`` and
    ``adj.T``; the period is then the gcd over the edges u -> v of the
    cycle-length differences depth(u) + 1 - depth(v) against the BFS tree.
    """
    depth = _depths(adj)
    if (depth < 0).any() or (_depths(adj.T) < 0).any():
        return MixingCertificate(False, 0, None)
    u, v = np.nonzero(adj)
    period = int(np.gcd.reduce(depth[u] + 1 - depth[v]))
    return MixingCertificate(True, period, _mixing_constant(adj) if period == 1 else None)


def _mixing_constant(adj):
    """Least m with A^m all-positive, for a primitive adjacency A.

    Squares to the first all-positive A^(2^J), then lifts bit by bit from
    the top to the largest exponent whose power is not all-positive: for a
    primitive A, A^m > 0 implies A^(m+1) > 0, so that exponent is M - 1.
    This is O(n^3 log M) instead of M products.  Each product is a float32
    GEMM thresholded at 0, exact because every entry is a path count of at
    most n < 2^24.
    """
    n = adj.shape[0]
    limit = (wielandt_bound(n) - 1).bit_length() + 1  # ceil(log2 of the bound), plus one
    powers = [adj.astype(np.float32)]  # powers[j] is A^(2^j), thresholded
    while not powers[-1].all():
        if len(powers) > limit:  # unreachable for primitive graphs (Wielandt)
            raise AssertionError("primitive graph exceeded the Wielandt bound")
        square = powers[-1] @ powers[-1]
        powers.append((square > 0).astype(np.float32))
    below, m = None, 0  # below is A^m, not all-positive (m = 0: the identity)
    for j in range(len(powers) - 2, -1, -1):
        step = powers[j] if below is None else (below @ powers[j] > 0).astype(np.float32)
        if not step.all():
            below, m = step, m + 2**j
    return m + 1


def finite_chain(g, x, y, length):
    """A walk of exactly ``length`` steps from x to y, deterministically.

    BFS over the layered graph (coordinate = remaining length), realized as a
    backward-reachability table; ties are broken by lowest id so downstream
    gluing constructions are reproducible bit for bit.  Each row is one
    float32 product, exact because every entry counts at most n < 2^24
    successors.  The table stops at its first all-true row t >= 1: every
    vertex then has a successor, so every later row is all-true too and
    reads as row t.  It holds (min(length, t) + 1) * n bytes, in blocks of
    at most ``_TABLE_BYTES``: at most 16.8 MB on the n = 257 Wielandt graph,
    whose worst column first fills at its mixing constant, 65537.
    """
    if length < 1:
        raise NoChain(x, y, length)
    adj = g.adjacency
    a = adj.astype(np.float32)
    step = min(length + 1, max(1, _TABLE_BYTES // g.n))  # rows per block
    blocks = [np.zeros((step, g.n), dtype=bool)]
    blocks[0][0, y] = True
    top = 0  # rows 0 .. top are stored
    while top < length:
        prev, top = blocks[-1][top % step], top + 1
        if top % step == 0:
            blocks.append(np.empty((step, g.n), dtype=bool))
        if np.count_nonzero(np.greater(a @ prev, 0, out=blocks[-1][top % step])) == g.n:
            break

    def reach(t):
        t = min(t, top)
        return blocks[t // step][t % step]

    if not reach(length)[x]:
        raise NoChain(x, y, length)
    walk = [int(x)]
    for t in range(length, 0, -1):  # the lowest-id successor that still reaches y
        walk.append(int((adj[walk[-1]] & reach(t - 1)).argmax()))
    return walk


def _glue(g, blocks, lengths):
    """Blocks in cyclic order, each joined to the next by the inside of a lengths[i]-step walk."""
    word = []
    for block, nxt, length in zip(blocks, blocks[1:] + blocks[:1], lengths):
        word.extend(block)
        word.extend(finite_chain(g, block[-1], nxt[0], length)[1:-1])
    return word


def is_delta_chain(traj, g):
    """True iff every consecutive pair of the trajectory is an edge of g."""
    ids = np.asarray(traj.entries)
    return bool(g.adjacency[ids[:-1], ids[1:]].all())


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
