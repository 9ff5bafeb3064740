"""Distributions on finite outcome spaces, restricted away from the boundary.

All KL divergences are in nats; conversion to bits happens only at reporting
boundaries (CSV writers, bit-budget formulas).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def kl(q, p):
    """KL(q || p) = sum q log(q/p) in nats over the last axis of probability arrays;
    zero iff q == p. A scalar for two k-vectors, an array for stacked (n, k) rows."""
    qv = np.asarray(q, dtype=float)
    pv = np.asarray(p, dtype=float)
    if qv.shape[-1:] != pv.shape[-1:]:
        raise InvalidInputError("distributions live on different outcome spaces")
    if np.any(pv <= 0):
        raise InvalidInputError("second argument has a zero probability; KL is infinite")
    with np.errstate(divide="ignore", invalid="ignore"):  # rounding can dip a few ulps below 0
        return np.maximum(np.sum(np.where(qv > 0, qv * np.log(qv / pv), 0.0), axis=-1), 0.0)


def kl_bernoulli(theta_q, theta_p):
    """Vectorized KL between Bernoulli(theta_q) and Bernoulli(theta_p), in nats."""
    tq = np.asarray(theta_q, dtype=float)
    tp = np.asarray(theta_p, dtype=float)
    # q inside (0, 1) selects both terms (a NaN fails the test); with one side
    # an array and the other a scalar, the np.where path's operations run in
    # place, in the same order, so only the result and one scratch are alive
    if tq.ndim == 0:
        in_place = tp.ndim > 0 and 0 < tq < 1
    else:
        in_place = tp.ndim == 0 and tq.size > 0 and 0 < tq.min() and tq.max() < 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if in_place:
            one_q = 1 - tq
            b = np.divide(one_q, 1 - tp)
            np.log(b, out=b)
            b *= one_q
            a = np.divide(tq, tp, out=one_q if tq.ndim else None)
            np.log(a, out=a)
            a *= tq
            a += b
            return a
        a = np.where(tq > 0, tq * np.log(tq / tp), 0.0)
        b = np.where(tq < 1, (1 - tq) * np.log((1 - tq) / (1 - tp)), 0.0)
    return a + b


def sample_restricted(rng: np.random.Generator, size: int, n_outcomes: int, lower_bound: float) -> np.ndarray:
    """Sample `size` distributions uniformly from the restricted simplex.

    Each row has min entry >= lower_bound; requires lower_bound * n_outcomes < 1.
    """
    if lower_bound * n_outcomes >= 1.0:
        raise InvalidInputError("lower bound too large for this outcome space")
    free = 1.0 - lower_bound * n_outcomes
    u = rng.dirichlet(np.ones(n_outcomes), size=size)
    return lower_bound + free * u
