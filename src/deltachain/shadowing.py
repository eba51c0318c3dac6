"""Finite-horizon Besicovitch pseudometrics.

Everything limsup-shaped in the theory is exposed here as a fixed-horizon
estimate that carries its horizon; no extrapolation to the infinite limit is
ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TOL, _coordinate_distances, _pi_values, _windows_within, window_radius
from .errors import BadHorizon


@dataclass(frozen=True)
class BesicovitchEstimate:
    value: float
    horizon: int
    variant: str
    error_bar: float = 0.0


def besicovitch_rho(x, y, sys, N):
    """Coordinatewise Besicovitch average over the first N coordinates.

    An exact finite average; an estimator of the limsup with no convergence
    claim attached.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    d = _coordinate_distances(sys, x, y, 0, N - 1)
    return BesicovitchEstimate(float(np.mean(d)), N, "rho_B")


def besicovitch_pi(x, y, sys, N, K):
    """Dynamical Besicovitch average: mean of shifted product-metric distances.

    Inexact pi terms contribute their upper bound 1/(K+2), and the estimate
    carries that bound as its error bar.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    values, tail = _pi_values(sys, x, y, 0, N - 1, K)
    total = float(np.cumsum(values)[-1])  # the running sum adds in shift order
    return BesicovitchEstimate(total / N, N, "pi_B", error_bar=tail)


def hat_rho(x, y, sys, N):
    """Density-based Besicovitch variant at finite horizon.

    Returns the least delta such that the fraction of coordinates k < N with
    rho(x_k, y_k) >= delta is below delta.  The count is piecewise constant
    between consecutive distinct distances, so the infimum is computed exactly
    by a sort-and-scan over those intervals.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    d = np.sort(_coordinate_distances(sys, x, y, 0, N - 1))
    # interval endpoints: 0, the distinct positive distances, and 1
    cuts = np.unique(np.concatenate([[0.0], d[d > TOL], [1.0]]))
    # on (lo, hi] the exceedance count #{d > lo + TOL} is constant
    thresholds = (N - np.searchsorted(d, cuts + TOL, side="right")) / N
    # the first interval whose fraction falls below its top; the last top is inf
    idx = int(np.argmax(thresholds < np.append(cuts[1:], np.inf) - TOL))
    best = max(float(cuts[idx]), float(thresholds[idx]))
    return BesicovitchEstimate(min(best, 1.0), N, "hat_rho")


def equivalence_bound_check(x, y, sys, N, delta):
    """Counting inequality behind the equivalence of the hat pseudometrics.

    With N_d the largest integer <= 1/delta - 1 and delta' = delta/(2*N_d+1),
    verifies that

        #{k < N : pi(S^k x, S^k y) >= delta}
            <= (2*N_d + 1) * #{k in [-N_d, N-1+N_d] : rho(x_k, y_k) >= delta'}

    (each pi exceedance at level delta is forced by a coordinate exceedance
    within N_d steps, and each coordinate serves at most 2*N_d+1 shifts),
    together with the reverse containment
    #{k < N : pi(S^k .) >= delta} >= #{k < N : rho(x_k, y_k) >= delta}.
    Returns (ok, counts).
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    if not 0.0 < delta <= 1.0:
        raise BadHorizon("delta must lie in (0, 1]")
    n_d = window_radius(delta)
    delta_prime = delta / (2 * n_d + 1)
    # pi(S^k .) >= delta iff some coordinate within n_d of k has rho >= delta
    pi_count = int(np.count_nonzero(~_windows_within(sys, delta, x, y, 0, N - 1)))
    rho_vals = _coordinate_distances(sys, x, y, -n_d, N - 1 + n_d)
    rho_prime_count = int(np.count_nonzero(rho_vals >= delta_prime - TOL))
    rho_delta_count = int(
        np.count_nonzero(rho_vals[n_d : n_d + N] >= delta - TOL)
    )
    counts = {
        "pi_at_delta": pi_count,
        "rho_at_delta_prime": rho_prime_count,
        "rho_at_delta": rho_delta_count,
        "window_radius": n_d,
        "delta_prime": delta_prime,
    }
    ok = pi_count <= (2 * n_d + 1) * rho_prime_count and pi_count >= rho_delta_count
    return ok, counts
