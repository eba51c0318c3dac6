"""Periodic gluing of spaced chain segments, and its independent verifier.

A family of chain segments with enough spacing is glued into a single
periodic delta-chain whose coordinates literally agree with each segment on
its margin-extended window; connecting gaps are filled with deterministic
shortest-tie-break chains, so identical inputs always produce identical
output words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import finite_chain, is_delta_chain, mixing_certificate
from .core import FiniteTrajectory, window_check, window_radius
from .errors import (
    InsufficientMargin,
    InsufficientSpacing,
    NotMixing,
    SchemaError,
)


@dataclass(frozen=True)
class SpacedSpecification:
    """Segments (a_i, b_i, source_i) with a_1 = 0 and declared spacing k.

    Each source must cover the margin window [a_i - N + 1, b_i + N - 2] for
    the N in play; margin availability is checked by the construction, which
    knows N.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise SchemaError("/segments", "at least one segment required")
        if segs[0].a != 0:
            raise SchemaError("/segments/0/a", "first segment must start at 0")
        for i in range(1, len(segs)):
            if segs[i].a <= segs[i - 1].b:
                raise SchemaError(
                    f"/segments/{i}/a", "segments must be ordered with positive gaps"
                )
        object.__setattr__(self, "segments", segs)


@dataclass(frozen=True)
class PeriodicChain:
    """One period of a periodic delta-chain, anchored to coordinate 0.

    ``word[origin_offset]`` carries coordinate 0.  Coordinate c is
    ``word[(c + origin_offset) mod period]``.
    """

    word: tuple
    origin_offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(int(v) for v in self.word))

    @property
    def period(self):
        return len(self.word)

    def at(self, c):
        return self.word[(c + self.origin_offset) % self.period]

    def as_trajectory(self, lo, hi):
        """Expand the periodic sequence over coordinates lo..hi inclusive."""
        entries = [self.at(c) for c in range(lo, hi + 1)]
        return FiniteTrajectory(entries, origin=-lo)


def spacing_constant(eps, cert):
    """The margin half-width N = ceil(1/eps) and gluing gap k = 2N - 2 + M."""
    if not 0.0 < eps <= 1.0:
        raise SchemaError("/eps", "eps must lie in (0, 1]")
    if cert.mixing_constant is None:
        raise NotMixing("spacing constant requires a primitive chain graph")
    n_margin = int(np.ceil(1.0 / eps - 1e-12))
    return n_margin, 2 * n_margin - 2 + cert.mixing_constant


def _segment_block(seg, n_margin, g, index):
    lo, hi = seg.a - n_margin + 1, seg.b + n_margin - 2
    if not seg.source.covers(lo, hi):
        raise InsufficientMargin(
            f"segment {index} must cover [{lo}, {hi}] "
            f"(has [{seg.source.min_coord}, {seg.source.max_coord}])"
        )
    block = list(seg.source.window(lo, hi))
    if not is_delta_chain(FiniteTrajectory(block), g):
        raise InsufficientMargin(
            f"segment {index} restricted to [{lo}, {hi}] is not a delta-chain"
        )
    return block


def trace_specification(spec, g, eps):
    """Glue spaced segments into a periodic delta-chain that traces them.

    The output word concatenates margin-extended segment blocks with
    connecting chains of exactly the gap length each junction requires
    (the mixing constant M when the spacing equals k exactly, longer
    otherwise), closing the final gap back to the first block with an
    M-length chain.  Coordinates inside every margin window equal the
    segment coordinates literally, which is stronger than eps-tracing.
    """
    cert = mixing_certificate(g)
    if cert.mixing_constant is None:
        raise NotMixing("tracing requires a primitive chain graph")
    n_margin, k = spacing_constant(eps, cert)
    m = cert.mixing_constant
    segs = spec.segments
    for i in range(1, len(segs)):
        spacing = segs[i].a - segs[i - 1].b
        if spacing < k:
            raise InsufficientSpacing(
                f"gap before segment {i} is {spacing}, need at least k = {k}"
            )
    blocks = [_segment_block(seg, n_margin, g, i) for i, seg in enumerate(segs)]
    word = []
    for i, block in enumerate(blocks):
        word.extend(block)
        if i + 1 < len(segs):
            gap = segs[i + 1].a - segs[i].b - 2 * n_margin + 2
        else:
            gap = m  # close the period as if the wraparound spacing were k
        target = blocks[(i + 1) % len(blocks)][0]
        connector = finite_chain(g, block[-1], target, gap + 1)
        word.extend(connector[1:-1])
    # coordinate 0 must carry segment 1 at a_1 = 0; block 1 starts at -(N-1)
    return PeriodicChain(tuple(word), origin_offset=n_margin - 1)


def verify_trace(y, spec, g, eps):
    """Independently re-check a claimed tracing periodic chain.

    Verifies cyclic delta-chain validity, literal equality with each segment
    on its margin window, and the eps-window condition for every in-segment
    shift.  Returns (ok, report); the first failing check is named in the
    report.
    """
    cert = mixing_certificate(g)
    if cert.mixing_constant is None:
        return False, {"failed": "graph not primitive"}
    n_margin, k = spacing_constant(eps, cert)
    word = y.word
    adj = g.adjacency
    for i in range(len(word)):
        if not adj[word[i], word[(i + 1) % len(word)]]:
            return False, {"failed": "cyclic chain", "index": i}
    w_radius = window_radius(eps)
    sys = g.system
    for idx, seg in enumerate(spec.segments):
        lo, hi = seg.a - n_margin + 1, seg.b + n_margin - 2
        for c in range(lo, hi + 1):
            if y.at(c) != seg.source.at(c):
                return False, {
                    "failed": "margin equality",
                    "segment": idx,
                    "coordinate": c,
                }
        for j in range(seg.a, seg.b):
            seg_win = FiniteTrajectory(
                [seg.source.at(j + t) for t in range(-w_radius, w_radius + 1)],
                origin=w_radius,
            )
            y_win = FiniteTrajectory(
                [y.at(j + t) for t in range(-w_radius, w_radius + 1)],
                origin=w_radius,
            )
            if not window_check(sys, eps, y_win, seg_win):
                return False, {"failed": "window check", "segment": idx, "shift": j}
    return True, {"failed": None, "period": y.period}
