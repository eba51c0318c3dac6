"""Finite metric dynamical systems and the product metric on biinfinite sequences.

A :class:`FiniteMetricSystem` is the desk-scale stand-in for a compact metric
space with a continuous self-map: a finite point set, a normalized distance
matrix (diameter at most 1) and a total map given by an index array.  Finite
windows of biinfinite sequences over the point set are held by
:class:`FiniteTrajectory`.
"""

from __future__ import annotations

import json
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InsufficientWindow, NotAMetric, SchemaError

#: Absolute tolerance for all threshold comparisons on distances.  Grid
#: examples produce exact dyadic values; comparisons must not flip on rounding.
TOL = 1e-12


def _check_metric(d):
    """Raise NotAMetric if ``d`` is not a metric matrix; returns nothing.

    A negative or diagonal entry may be off 0 by 1e-9, an asymmetry or a
    triangle slack by 1e-9 x max(1, its entry: the pair's smaller one; the
    long side), so the verdict does not depend on the unit and a slack kept by
    ``normalize_metric``'s clamp to 1 is within 1e-9.  +inf is an extended
    metric value (a triangle with an infinite side sum holds); NaN is rejected.

    A symmetric d satisfies every triangle inequality iff each row map
    u -> d(u, .) is 1-Lipschitz into l-infinity (Frechet-Kuratowski):
    ``max_k |d[i,k] - d[j,k]| <= d[i,j]`` for every pair.  The pair {i, j} at
    column k holds the loop's ordered triples (i, j, k) and (j, i, k), so the
    columns k >= min(i, j) hold every triple whose last point is not the
    strict least of the three, k = i included; for a symmetric d the others
    are the same sums reversed, bit for bit; an asymmetric d (within tol)
    takes every column, so its pairs hold every ordered triple.  The pass is
    one Chebyshev ``cdist`` per block of ``_BLOCK`` rows, over the columns
    from the block's first row on: about n^3 / 3 steps, against n^3 / 2.

    Each gap over ``min(d[i,j], d[j,i])`` may be 1e-9 - 16 eps times that
    entry's scale, at most the long side of a triangle with positive slack:
    the margin ``16 * eps`` is above the rounding of both this check and the
    loop, so the fast path accepts nothing the loop would reject.  All else
    (a violation, a slack near the tolerance) goes to the loop, which names
    the witness.

    A negative d[i,i] enters the fast path as 0, so diagonal noise does not
    send a valid matrix to the loop.  It accepts no more: the pair {i, i}
    holds d[i,i] >= -(1e-9 - 16 eps), so (i, i, k) and (k, i, i) keep their
    slack within 1e-9, and (i, k, i), which only column i tests, is tested
    with 0 >= d[i,i] in place of d[i,i]; a positive d[i,i] stays for it.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotAMetric("matrix is not square")
    if np.isnan(d).any():
        i, j = np.argwhere(np.isnan(d))[0]
        raise NotAMetric("entry is not a number", (int(i), int(j)))
    n = d.shape[0]
    if n == 0:
        return
    if np.any(d < -1e-9):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        raise NotAMetric("negative entry", (int(i), int(j)))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fmax and cdist skip
        scale = np.clip(d, 1.0, np.finfo(float).max)  # max(1, d), finite so an infinite slack fails
        symmetric = np.array_equal(d, d.T)
        near, low = scale, d  # each pair's smaller scale and smaller entry
        if not symmetric:
            near = np.minimum(scale, scale.T)
            asym = np.abs(d - d.T) / near
            if np.fmax.reduce(asym, axis=None) > 1e-9:
                i, j = np.unravel_index(np.nanargmax(asym), asym.shape)
                raise NotAMetric("not symmetric", (int(i), int(j)))
            low = np.minimum(d, d.T)
        diag = np.diagonal(d)
        if np.max(np.abs(diag)) > 1e-9:
            i = int(np.argmax(np.abs(diag)))
            raise NotAMetric("nonzero diagonal", (i, i))
        bound = low + (1e-9 - 16 * np.finfo(float).eps) * near
        rows = d if diag.min() >= 0 else d - np.diag(np.minimum(diag, 0.0))  # no copy of a 0 diagonal
        if _rows_within(rows, bound, symmetric):
            return
        _check_triangles(d, scale)


#: Rows per ``cdist`` call of the fast accept.
_BLOCK = 16


def _rows_within(d, bound, later_columns):
    """True iff ``max over k >= k0 of |d[i,k] - d[j,k]| <= bound[i,j]`` for all i, and j >= i0.

    Here i0 is the first row of i's block, and k0 is i0 for ``later_columns``,
    else 0; the first failing block stops it.
    """
    n = d.shape[0]
    for i0 in range(0, n, _BLOCK):
        rows = d[i0:, i0 if later_columns else 0 :]
        if not np.all(cdist(rows[:_BLOCK], rows, "chebyshev") <= bound[i0 : i0 + _BLOCK, i0:]):
            return False
    return True


def _check_triangles(d, scale):
    """The exact triangle check: for each middle point j, d[i,k] <= d[i,j] + d[j,k].

    Slack is relative to ``scale[i,k]``; the witness has the largest.  A NaN
    slack (inf <= inf + x) holds: ``fmax`` skips it, where ``max`` returns it
    and hides every other violation at that middle point.  Call under errstate.
    """
    for j in range(d.shape[0]):
        slack = (d - (d[:, j][:, None] + d[j, :][None, :])) / scale
        if np.fmax.reduce(slack, axis=None) > 1e-9:
            i, k = np.unravel_index(np.nanargmax(slack), slack.shape)
            raise NotAMetric("triangle inequality fails", (int(i), j, int(k)))


#: Distance matrices known to be valid metrics with entries in [0, 1], by id.
#: Each is read-only over an immutable ``bytes`` buffer, so it stays valid.
_VALID = weakref.WeakValueDictionary()


def _immutable(a, dtype):
    """A read-only copy of ``a`` over a ``bytes`` buffer: numpy cannot make it writable again."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return np.frombuffer(a.tobytes(), dtype=dtype).reshape(a.shape)


def _freeze(d):
    """An immutable copy of a valid distance matrix that FiniteMetricSystem adopts unchecked."""
    frozen = _immutable(d, float)
    _VALID[id(frozen)] = frozen
    return frozen


def normalize_metric(raw):
    """Clamp a metric matrix entrywise to ``min(1, raw)``.

    The input must already be a metric (symmetric, zero diagonal, triangle
    inequality; +inf entries allowed); otherwise :class:`NotAMetric` is
    raised with a violating triple.  Clamping preserves the metric axioms and
    bounds the diameter by 1.  Idempotent.  The result is read-only for good,
    and :class:`FiniteMetricSystem` adopts it without checking it again.
    """
    raw = np.asarray(raw, dtype=float)
    _check_metric(raw)
    return _freeze(np.minimum(raw, 1.0))


@dataclass(frozen=True)
class FiniteMetricSystem:
    """A finite point set with a normalized metric and a total self-map.

    ``dist`` is an n-by-n matrix with entries in [0, 1]; ``map_image[u]`` is
    the id of the image of point ``u``, an integer.  Instances are immutable
    after construction and safe to share between workers.  ``dist`` is
    checked and stored as an immutable copy, unless it is already such a
    copy: the result of :func:`normalize_metric` or another system's ``dist``.
    """

    labels: tuple
    dist: np.ndarray
    map_image: tuple

    def __post_init__(self):
        d = self.dist
        if _VALID.get(id(d)) is not d:
            d = np.asarray(d, dtype=float)
            _check_metric(d)
            if np.max(d, initial=0.0) > 1.0 + TOL:
                raise NotAMetric("entry exceeds 1; call normalize_metric first")
            d = _freeze(d)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        n = d.shape[0]
        if n == 0:
            raise SchemaError("/points", "a system needs at least one point")
        if len(self.labels) != n:
            raise SchemaError("/points", f"expected {n} labels, got {len(self.labels)}")
        image = _point_ids(self.map_image, "/map")
        if len(image) != n or max(image) >= n:
            raise SchemaError("/map", "map_image must list a valid id for every point")
        object.__setattr__(self, "map_image", image)

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled dist is frozen again
        return FiniteMetricSystem, (self.labels, self.dist, self.map_image)

    @property
    def n(self):
        return self.dist.shape[0]

    def rho(self, u, v):
        return float(self.dist[u, v])

    def orbit(self, u, length):
        """The true orbit u, T(u), ..., T^(length-1)(u) as a list of ids."""
        out = [u]
        for _ in range(length - 1):
            out.append(self.map_image[out[-1]])
        return out


@dataclass(frozen=True)
class FiniteTrajectory:
    """A finite window of a biinfinite sequence of point ids.

    ``entries[origin]`` carries coordinate 0; coordinate ``k`` is
    ``entries[origin + k]``.  The covered range is
    ``[-origin, len(entries) - origin - 1]``.
    """

    entries: tuple
    origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "entries", _point_ids(self.entries, "/entries"))
        _check_type("/origin", self.origin, (int, np.integer))

    @property
    def min_coord(self):
        return -self.origin

    @property
    def max_coord(self):
        return len(self.entries) - self.origin - 1

    def covers(self, lo, hi):
        """True iff every coordinate in [lo, hi] is present."""
        return self.min_coord <= lo and hi <= self.max_coord

    def at(self, k):
        return self.window(k, k)[0]

    def window(self, lo, hi):
        """Ids at coordinates lo..hi inclusive."""
        if not self.covers(lo, hi):
            raise InsufficientWindow(f"window [{lo}, {hi}] not covered")
        return self.entries[self.origin + lo : self.origin + hi + 1]


@dataclass(frozen=True)
class IntervalSegment:
    """An orbit-segment declaration: coordinates [a, b) read from ``source``."""

    a: int
    b: int
    source: FiniteTrajectory

    def __post_init__(self):
        if self.a >= self.b:
            raise SchemaError("/b", f"need a < b, got [{self.a}, {self.b})")
        if not self.source.covers(self.a, self.b - 1):
            raise InsufficientWindow(f"source does not cover [{self.a}, {self.b})")


def _coordinate_distances(sys, x, y, lo, hi):
    """rho(x_k, y_k) for k = lo .. hi, a fresh array: the one gather of two trajectories.

    It feeds the pi terms, the window test and the Besicovitch estimates;
    InsufficientWindow unless x, then y, covers [lo, hi]; empty if hi = lo - 1.
    """
    return sys.dist[np.asarray(x.window(lo, hi), dtype=np.intp), np.asarray(y.window(lo, hi), dtype=np.intp)]


def _truncated_max(e, M):
    """Per-shift product-metric maxima of a cost sequence padded by M each side.

    Term s of the result, s = 0 .. len - 2M - 1 on the last axis, is
    ``max over |k| <= M of min(e[M+s+k], 1/(|k|+1))``, with no weight at
    k = 0: callers clamp a metric at 1 first.  It is raised offset by offset
    by min(max(e(s-m), e(s+m)), 1/(m+1)); min and max only select, so the
    terms are the bits of a full window's maximum.  Returns a C-order array.
    """
    L = e.shape[-1] - 2 * M
    # a contiguous last axis sums as a 1-D mean does, bit for bit, and an
    # advanced-indexing result's layout is unspecified: hence the copy
    terms = e[..., M : M + L].copy()
    scratch = np.empty_like(terms)
    for m in range(1, M + 1):
        np.maximum(e[..., M - m : M - m + L], e[..., M + m : M + m + L], out=scratch)
        np.maximum(terms, np.minimum(scratch, 1.0 / (m + 1), out=scratch), out=terms)
    return terms


def pi_distance(sys, x, y, radius):
    """Windowed product-metric distance between two sequences.

    Evaluates ``max over |k| <= radius of min(rho(x_k, y_k), 1/(|k|+1))``.
    Every unseen coordinate contributes at most ``1/(radius+2)``, so the
    result is exact iff it exceeds that tail bound by more than ``TOL``;
    otherwise the tail bound itself is returned as an upper bound with
    ``exact=False``.  Both trajectories must cover [-radius, radius].
    """
    values, tail = _pi_values(sys, x, y, 0, 0, radius)
    value = float(values[0])
    return value, value > tail


def _pi_values(sys, x, y, lo, hi, radius):
    """:func:`pi_distance` values at the shifts j = lo .. hi, and the tail 1/(radius+2).

    Each is the truncated maximum if it exceeds the tail by more than TOL, else the tail.
    """
    K = int(radius)
    if K < 1:
        raise InsufficientWindow("radius must be a positive integer")
    tail = 1.0 / (K + 2)
    e = _coordinate_distances(sys, x, y, lo - K, hi + K)
    values = _truncated_max(np.minimum(e, 1.0, out=e), K)
    return np.where(values > tail + TOL, values, tail), tail


def window_radius(eps):
    """Largest |k| that condition (|k|+1 <= max(1, 1/eps)) admits."""
    return int(max(1.0, 1.0 / eps) + TOL) - 1


def _windows_within(sys, eps, x, y, lo, hi):
    """Per shift j = lo .. hi: rho(x_{j+k}, y_{j+k}) < eps at every |k| <= W = window_radius(eps).

    One comparison per coordinate of [lo - W, hi + W], and shift j takes the
    2W + 1 centred on it; InsufficientWindow unless x, then y, covers them.
    An empty range (hi = lo - 1) gives an empty array, as :func:`_pi_values` does.
    """
    W = window_radius(eps)
    near = _coordinate_distances(sys, x, y, lo - W, hi + W) < eps - TOL
    if hi < lo:
        return np.zeros(0, dtype=bool)
    return np.lib.stride_tricks.sliding_window_view(near, 2 * W + 1).all(axis=-1)


def surjective_core(sys):
    """Eventual image of the map: the largest subset on which it is a bijection.

    Iterates the image set to its fixpoint.  Returns the core ids (sorted) and
    the system restricted to them, with ids relabeled in sorted order.
    """
    current = set(range(sys.n))
    while True:
        image = {sys.map_image[u] for u in current}
        if image == current:
            break
        current = image
    core = sorted(current)
    index = {u: i for i, u in enumerate(core)}
    dist = sys.dist[np.ix_(core, core)]
    labels = tuple(sys.labels[u] for u in core)
    image = tuple(index[sys.map_image[u]] for u in core)
    return core, FiniteMetricSystem(labels, _freeze(dist), image)


# ---------------------------------------------------------------------------
# System-spec files


def _circle_grid_metric(n):
    i = np.arange(n)
    diff = np.abs(i[:, None] - i[None, :])
    return np.minimum(diff, n - diff) / n


def _line_grid_metric(n):
    if n < 2:
        return np.zeros((n, n))
    x = np.arange(n) / (n - 1)
    return np.abs(x[:, None] - x[None, :])


def _check_type(pointer, value, types):
    """Raise SchemaError at ``pointer`` unless ``value`` is one of ``types`` (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise SchemaError(pointer, f"expected {names}, got {type(value).__name__}")


def _point_ids(values, pointer):
    """``values`` as a non-empty tuple of ints >= 0, each given as an int or a
    numpy integer (never a bool); else SchemaError at ``pointer``."""
    ids = tuple(values)
    if set(map(type, ids)) != {int}:
        if not ids:
            raise SchemaError(pointer, "must be non-empty")
        for v in dict(zip(map(type, ids), ids)).values():  # one entry per type
            _check_type(pointer, v, (int, np.integer))
        ids = tuple(map(int, ids))
    if min(ids) < 0:
        raise SchemaError(pointer, "point ids must be >= 0")
    return ids


def _object(data, pointer, fields, required=()):
    """``data``, checked as the JSON object at ``pointer`` (RFC 6901) of ``fields``: name ->
    (JSON types, takes null).  SchemaError at ``pointer`` if it is no object, else at the
    field's pointer for an unknown field, a missing one of ``required``, or a wrong type."""
    if not isinstance(data, dict):
        raise SchemaError(pointer, f"expected an object, got {type(data).__name__}")
    for key, value in data.items():
        at = f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"
        if key not in fields:
            raise SchemaError(at, "unknown field")
        types, nullable = fields[key]
        if not (nullable and value is None):
            _check_type(at, value, types)
    for key in required:
        if key not in data:
            raise SchemaError(f"{pointer}/{key}", "missing required field")
    return data


@contextmanager
def _under(pointer):
    """Prefix ``pointer`` to the pointer of a SchemaError raised in the block."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(pointer + exc.pointer, exc.reason) from None


def _read_json(path):
    """The JSON value in the file at ``path``; SchemaError naming the path if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, with its position; no text; too deep
        raise SchemaError(path, f"not JSON: {exc}") from None


#: the fields of a system spec and of its ``metric``, which holds exactly one
_SYSTEM_SCHEMA = {"points": ((list,), False), "metric": ((dict,), False), "map": ((list,), False)}
_METRIC_SCHEMA = {"matrix": ((list,), False), "circle_grid": ((int,), False),
                  "line_grid": ((int,), False)}


def system_from_dict(data, pointer=""):
    """Build a system from the JSON system spec at ``pointer`` ("" for a whole file).

    Returns ``(system, clamped)`` where ``clamped`` records whether
    normalization changed any entry.
    """
    with _under(pointer):
        _object(data, "", _SYSTEM_SCHEMA, _SYSTEM_SCHEMA)
        if not data["points"]:
            raise SchemaError("/points", "a system needs at least one point")
        for i, label in enumerate(data["points"]):
            _check_type(f"/points/{i}", label, (str,))
        metric = _object(data["metric"], "/metric", _METRIC_SCHEMA)
        if len(metric) != 1:
            raise SchemaError("/metric", "expected exactly one of matrix/circle_grid/line_grid")
        (kind, value), = metric.items()
        if kind == "matrix":
            if not all(isinstance(row, list) and len(row) == len(value[0]) for row in value):
                raise SchemaError("/metric/matrix", "expected a list of rows of one length")
            if not all(type(v) in (int, float) for row in value for v in row):
                raise SchemaError("/metric/matrix", "entries must be numbers")
            raw = np.asarray(value, dtype=float)
        else:
            if value < 1:
                raise SchemaError(f"/metric/{kind}", "must be >= 1")
            raw = (_circle_grid_metric if kind == "circle_grid" else _line_grid_metric)(value)
        dist = normalize_metric(raw)
        clamped = bool(np.any(dist < raw - TOL))
        return FiniteMetricSystem(tuple(data["points"]), dist, tuple(data["map"])), clamped


def load_system(path):
    """Load a system-spec JSON file; see :func:`system_from_dict`."""
    return system_from_dict(_read_json(path))


def system_to_dict(sys):
    return {
        "points": list(sys.labels),
        "metric": {"matrix": sys.dist.tolist()},
        "map": list(sys.map_image),
    }
