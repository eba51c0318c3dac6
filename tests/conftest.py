"""Put ``src`` on PYTHONPATH too, so CLI subprocesses import this checkout.

Also the input builders that several test files share.
"""

import os

import numpy as np

from deltachain.measures import FiniteMeasure, MarkovMeasure

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def from_periodic(pm):
    """The deterministic Markov encoding of a periodic orbit measure: one state per position."""
    p = pm.period
    return MarkovMeasure(np.roll(np.eye(p), 1, axis=1), np.full(p, 1.0 / p))


def length_one_marginal(pm, n_points):
    """The measure that a periodic orbit measure gives each of ``n_points`` points."""
    return FiniteMeasure(np.bincount(pm.word, minlength=n_points) / pm.period)
