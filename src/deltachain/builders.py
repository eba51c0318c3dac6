"""Built-in example systems: circle grids with doubling/rotation, random metrics."""

from __future__ import annotations

import numpy as np

from .core import FiniteMetricSystem, _circle_grid_metric, _freeze, normalize_metric
from .errors import SchemaError


def _points(n):
    """range(n), once ``n`` is checked to be at least 1."""
    if n < 1:
        raise SchemaError("/n", "a system needs at least one point")
    return range(n)


def circle_doubling(n):
    """n equally spaced points on the circle with the doubling map i -> 2i mod n."""
    labels = tuple(f"{i}/{n}" for i in _points(n))
    image = tuple((2 * i) % n for i in range(n))
    return FiniteMetricSystem(labels, _freeze(_circle_grid_metric(n)), image)


def circle_rotation(n, k=1):
    """n equally spaced points on the circle with the rotation i -> i + k mod n."""
    labels = tuple(f"{i}/{n}" for i in _points(n))
    image = tuple((i + k) % n for i in range(n))
    return FiniteMetricSystem(labels, _freeze(_circle_grid_metric(n)), image)


def random_metric(n, seed=0):
    """Random points in the unit square with a random self-map.

    Euclidean distances are normalized by min(1, .) via normalize_metric.
    """
    labels = tuple(str(i) for i in _points(n))
    if seed < 0:
        raise SchemaError("/seed", "must be >= 0")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    raw = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(raw, 0.0)
    dist = normalize_metric(raw)
    image = tuple(int(v) for v in rng.integers(0, n, size=n))
    return FiniteMetricSystem(labels, dist, image)


BUILTIN_SYSTEMS = {
    "circle-doubling": circle_doubling,
    "circle-rotation": circle_rotation,
    "random-metric": random_metric,
}
