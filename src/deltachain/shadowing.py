"""Pseudo-orbit validation and finite-horizon Besicovitch pseudometrics.

Everything limsup-shaped in the theory is exposed here as a fixed-horizon
estimate that carries its horizon; no extrapolation to the infinite limit is
ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TOL, pi_distance
from .errors import BadHorizon, InsufficientWindow


@dataclass(frozen=True)
class PseudoOrbitReport:
    """Outcome of validating one pseudo-orbit notion on a finite sequence.

    ``witness`` is present iff validation failed: the violating step index for
    the pointwise kind, the violating (offset, length) window for the average
    kind, or the violating prefix length for the asymptotic kind.  For the
    asymptotic kind a passing result is labeled "consistent at horizon" --
    a finite window can never verify a limit statement.
    """

    kind: str
    parameter: float
    horizon: int
    passed: bool
    witness: object = None
    label: str = ""


@dataclass(frozen=True)
class BesicovitchEstimate:
    value: float
    horizon: int
    variant: str
    error_bar: float = 0.0


def _step_errors(seq, sys):
    ids = seq.entries
    return np.array(
        [sys.rho(sys.map_image[ids[j]], ids[j + 1]) for j in range(len(ids) - 1)]
    )


def validate_pseudo_orbit(seq, sys, kind, delta=0.0, N=1, tolerance_schedule=None):
    """Validate a finite sequence against one of the pseudo-orbit notions.

    kind = "delta_chain": every step error < delta.
    kind = "delta_average": every window average of length n >= N (all offsets)
    is < delta.
    kind = "asymptotic_average": prefix averages over the second half of the
    horizon fall below the caller-supplied decreasing ``tolerance_schedule``
    (a callable n -> tolerance); the limit notion fixes no rate, so none is
    built in.
    """
    ids = seq.entries
    steps = len(ids) - 1
    if steps < 1:
        raise BadHorizon("sequence must contain at least one step")
    errors = _step_errors(seq, sys)

    if kind == "delta_chain":
        bad = np.nonzero(errors >= delta - TOL)[0]
        if bad.size:
            j = int(bad[0])
            return PseudoOrbitReport(kind, delta, steps, False, witness=j)
        return PseudoOrbitReport(kind, delta, steps, True)

    if kind == "delta_average":
        if not 1 <= N <= steps:
            raise BadHorizon(f"need 1 <= N <= {steps}, got N={N}")
        prefix = np.concatenate([[0.0], np.cumsum(errors)])
        for n in range(N, steps + 1):
            window_sums = prefix[n:] - prefix[:-n]  # all offsets of length n
            bad = np.nonzero(window_sums / n >= delta - TOL)[0]
            if bad.size:
                return PseudoOrbitReport(
                    kind, delta, steps, False, witness=(int(bad[0]), n)
                )
        return PseudoOrbitReport(kind, delta, steps, True)

    if kind == "asymptotic_average":
        if tolerance_schedule is None:
            raise BadHorizon("asymptotic_average requires a tolerance schedule")
        prefix = np.concatenate([[0.0], np.cumsum(errors)])
        for n in range(max(1, steps // 2), steps + 1):
            if prefix[n] / n >= tolerance_schedule(n) - TOL:
                return PseudoOrbitReport(kind, 0.0, steps, False, witness=n)
        return PseudoOrbitReport(
            kind, 0.0, steps, True, label="consistent at horizon"
        )

    raise BadHorizon(f"unknown pseudo-orbit kind {kind!r}")


def _coordinate_distances(sys, x, y, N):
    if not (x.covers(0, N - 1) and y.covers(0, N - 1)):
        raise InsufficientWindow(f"both trajectories must cover [0, {N - 1}]")
    return np.array([sys.rho(x.at(j), y.at(j)) for j in range(N)])


def besicovitch_rho(x, y, sys, N):
    """Coordinatewise Besicovitch average over the first N coordinates.

    An exact finite average; an estimator of the limsup with no convergence
    claim attached.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    d = _coordinate_distances(sys, x, y, N)
    return BesicovitchEstimate(float(np.mean(d)), N, "rho_B")


def besicovitch_pi(x, y, sys, N, K):
    """Dynamical Besicovitch average: mean of shifted product-metric distances.

    Inexact pi terms contribute their upper bound 1/(K+2), and the estimate
    carries that bound as its error bar.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    if not (x.covers(-K, N - 1 + K) and y.covers(-K, N - 1 + K)):
        raise InsufficientWindow(f"need coverage of [-{K}, {N - 1 + K}]")
    total = 0.0
    for j in range(N):
        value, _ = pi_distance(sys, x.shifted(j), y.shifted(j), K)
        total += value
    return BesicovitchEstimate(total / N, N, "pi_B", error_bar=1.0 / (K + 2))


def hat_rho(x, y, sys, N):
    """Density-based Besicovitch variant at finite horizon.

    Returns the least delta such that the fraction of coordinates k < N with
    rho(x_k, y_k) >= delta is below delta.  The count is piecewise constant
    between consecutive distinct distances, so the infimum is computed exactly
    by a sort-and-scan over those intervals.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    d = _coordinate_distances(sys, x, y, N)
    # interval endpoints: 0, the distinct positive distances, and 1
    cuts = sorted(set([0.0] + [float(v) for v in d if v > TOL] + [1.0]))
    best = 1.0
    for idx in range(len(cuts)):
        lo = cuts[idx]
        hi = cuts[idx + 1] if idx + 1 < len(cuts) else float("inf")
        # on (lo, hi] the exceedance count is constant
        count = int(np.count_nonzero(d > lo + TOL))
        threshold = count / N
        if threshold < hi - TOL:
            best = max(lo, threshold)
            break
    return BesicovitchEstimate(min(best, 1.0), N, "hat_rho")


def pi_exceeds(sys, x, y, k, level):
    """True iff pi(S^k x, S^k y) >= level, decided from the binding window.

    pi >= level holds iff some offset j with 1/(|j|+1) >= level has
    rho(x_{k+j}, y_{k+j}) >= level; only |j| <= 1/level - 1 can bind.
    """
    W = int(1.0 / level - 1.0 + TOL)
    for j in range(-W, W + 1):
        if sys.rho(x.at(k + j), y.at(k + j)) >= level - TOL:
            return True
    return False


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
    n_d = int(1.0 / delta - 1.0 + TOL)
    delta_prime = delta / (2 * n_d + 1)
    lo, hi = -n_d, N - 1 + n_d
    if not (x.covers(lo, hi) and y.covers(lo, hi)):
        raise InsufficientWindow(f"need coverage of [{lo}, {hi}]")
    rho_vals = np.array([sys.rho(x.at(k), y.at(k)) for k in range(lo, hi + 1)])
    # pi(S^k .) >= delta iff some coordinate within n_d of k has rho >= delta
    binding = rho_vals >= delta - TOL
    windows = np.lib.stride_tricks.sliding_window_view(binding, 2 * n_d + 1)
    pi_count = int(np.count_nonzero(windows.any(axis=1)))
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


def best_average_tracer(p, sys, N):
    """Brute-force best on-average tracing point for a finite pseudo-orbit.

    Scans every point z of the system and returns the one minimizing the
    average of rho(T^j(z), p_j) over j < N (ties to the lowest id).  Serves
    as the oracle for average-shadowing quality of chain elements.
    """
    if N < 1:
        raise BadHorizon("horizon must be >= 1")
    if not p.covers(0, N - 1):
        raise InsufficientWindow(f"trajectory must cover [0, {N - 1}]")
    targets = np.array([p.at(j) for j in range(N)])
    current = np.arange(sys.n)
    image = np.asarray(sys.map_image)
    totals = np.zeros(sys.n)
    for j in range(N):
        totals += sys.dist[current, targets[j]]
        current = image[current]
    best = int(np.argmin(totals))  # argmin takes the first, i.e. lowest id
    return best, float(totals[best] / N)
