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

from .chain import _glue, is_delta_chain
from .core import FiniteTrajectory, _is_level, _point_ids, _windows_within
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
        object.__setattr__(self, "word", _point_ids(self.word, "/word"))

    @property
    def period(self):
        return len(self.word)

    def at(self, c):
        return self.word[(c + self.origin_offset) % self.period]

    def as_trajectory(self, lo, hi):
        """Expand the periodic sequence over coordinates lo..hi inclusive."""
        positions = (np.arange(lo, hi + 1) + self.origin_offset) % self.period
        return FiniteTrajectory(np.asarray(self.word)[positions].tolist(), origin=-lo)


def spacing_constant(eps, cert):
    """The margin half-width N = ceil(1/eps) and gluing gap k = 2N - 2 + M."""
    if not _is_level(eps):
        raise SchemaError("/eps", "eps must lie in (0, 1] with a finite reciprocal")
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
    cert = g.certificate
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
    gaps = [nxt.a - prev.b - 2 * n_margin + 2 for prev, nxt in zip(segs, segs[1:])]
    # close the period as if the wraparound spacing were k; a gap takes gap + 1 steps
    word = _glue(g, blocks, [gap + 1 for gap in gaps + [m]])
    # coordinate 0 must carry segment 1 at a_1 = 0; block 1 starts at -(N-1)
    return PeriodicChain(tuple(word), origin_offset=n_margin - 1)


def verify_trace(y, spec, g, eps):
    """Independently re-check a claimed tracing periodic chain.

    Verifies cyclic delta-chain validity, literal equality with each segment
    on its margin window, and the eps-window condition for every in-segment
    shift.  Returns (ok, report); the first failing check is named in the
    report.
    """
    cert = g.certificate
    if cert.mixing_constant is None:
        return False, {"failed": "graph not primitive"}
    n_margin, k = spacing_constant(eps, cert)
    word = np.asarray(y.word)
    broken = np.flatnonzero(~g.adjacency[word, np.roll(word, -1)])
    if broken.size:
        return False, {"failed": "cyclic chain", "index": int(broken[0])}
    for idx, seg in enumerate(spec.segments):
        lo, hi = seg.a - n_margin + 1, seg.b + n_margin - 2
        y_seg = y.as_trajectory(lo, hi)
        differ = np.flatnonzero(np.asarray(y_seg.entries) != seg.source.window(lo, hi))
        if differ.size:
            where = lo + int(differ[0])
            return False, {"failed": "margin equality", "segment": idx, "coordinate": where}
        within = _windows_within(g.system, eps, y_seg, seg.source, seg.a, seg.b - 1)
        if not within.all():
            shift = seg.a + int(np.argmin(within))
            return False, {"failed": "window check", "segment": idx, "shift": shift}
    return True, {"failed": None, "period": y.period}
