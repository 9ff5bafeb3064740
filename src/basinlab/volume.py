"""Monte Carlo sublevel-set volumes and scaling-law fits.

The volume of {w in W : K(w) <= eps} behaves like c * eps^lambda * (-log eps)^(m-1)
as eps -> 0. This module estimates the volumes by uniform rejection sampling and
recovers (lambda, m, c) by weighted regression of log V on log eps and
log(-log eps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FitWindowError, InvalidInputError, is_integer, require
from .landscapes import Bounds, Landscape
from .linalg import linear_fit
from .rng import rng_stream

# Monte Carlo draws are made in chunks of at most this many, which bounds memory
# at any sample count. 2^17 keeps a chunk's draws, values and masks in L2 (2^18
# spills out). The one per-chunk cost in mdl is its V^R cross-check, a sort and
# two searchsorted calls with no bisection, which is no slower at 2^16.
# The chunks share one draw array, refilled in place: glibc trims a freed heap
# top back to the kernel, so a fresh array per chunk faults its pages in again.
MC_CHUNK = 2**17

_SE_CAP = 0.2  # fit_scaling's largest usable relative standard error


@dataclass
class VolumeCurve:
    """Volume estimates along a descending epsilon ladder, with binomial SEs."""

    epsilons: np.ndarray
    volumes: np.ndarray
    standard_errors: np.ndarray
    total_volume: float


@dataclass
class ScalingFit:
    """Result of fitting log V = log c + lambda log eps + (m-1) log(-log eps)."""

    lam: float
    multiplicity: int
    log_c: float
    r_squared: float
    epsilon_window: tuple[float, float]
    n_points: int


def mc_volumes(bounds: Bounds, samples: int, rng: np.random.Generator,
               count: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the volumes of several sets from one uniform sample of W.

    `count(w)` returns, for a chunk of draws w, how many of them land in each
    set; w is a view of one draw array refilled for every chunk, so `count`
    must not keep it. Returns (volumes, standard_errors): Vol(W) times each
    hit rate, and the binomial SE of that rate scaled by Vol(W).
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    hits = 0
    w = np.empty((min(samples, MC_CHUNK), bounds.dim))
    for start in range(0, samples, len(w)):
        n = min(samples - start, len(w))
        hits += count(bounds.sample(rng, n, out=w[:n]))
    total = bounds.volume()
    p = np.asarray(hits) / samples
    return total * p, total * np.sqrt(p * (1.0 - p) / samples)


def volume_curve(
    landscape: Landscape,
    epsilons: np.ndarray,
    samples: int,
    seed: int,
) -> VolumeCurve:
    """Estimate the whole ladder with common random numbers.

    One shared sample set, stream 0 of `seed`, is used for every epsilon, so
    the estimated curve is exactly non-increasing as epsilon decreases.
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if np.any(epsilons <= 0):
        raise InvalidInputError("epsilons must be positive")

    def count(w):
        v = landscape.value(w)  # one pass per rung, no (rungs x chunk) matrix
        return np.array([np.count_nonzero(v <= e) for e in epsilons])

    volumes, ses = mc_volumes(landscape.bounds, samples, rng_stream(seed, 0), count)
    return VolumeCurve(epsilons=epsilons, volumes=volumes, standard_errors=ses,
                       total_volume=landscape.bounds.volume())


def fit_scaling(
    curve: VolumeCurve,
    multiplicity_mode: int | str = "select_by_fit",
    max_epsilon: float = 0.25,
) -> ScalingFit:
    """Recover (lambda, multiplicity, log c) from a volume curve.

    Usable points must have 0 < V < Vol(W) (a saturated or empty estimate
    carries no scaling information and has a degenerate weight), relative SE
    at most _SE_CAP, and epsilon at most `max_epsilon` (the law is an
    eps -> 0 statement). multiplicity_mode is either a fixed integer m or
    "select_by_fit", which picks m in {1, 2, 3} by best weighted R^2.
    """
    eps = curve.epsilons
    vol = curve.volumes
    se = curve.standard_errors
    usable = (vol > 0) & (vol < curve.total_volume) & (eps <= max_epsilon)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_se = np.where(vol > 0, se / vol, np.inf)
    usable &= rel_se <= _SE_CAP
    if np.count_nonzero(usable) < 4:
        raise FitWindowError(
            f"only {np.count_nonzero(usable)} usable epsilon points (need >= 4)"
        )
    eps_u, vol_u, rel_u = eps[usable], vol[usable], rel_se[usable]
    if eps_u.max() / eps_u.min() < 100.0:
        raise FitWindowError("usable epsilons span less than two decades")

    log_eps = np.log(eps_u)
    log_vol = np.log(vol_u)
    log_log = np.log(-log_eps)
    # SE of log V is the relative SE of V; common random numbers make points
    # correlated, which the weights ignore (they only set relative influence).
    weights = 1.0 / np.maximum(rel_u, 1e-12) ** 2

    def fit_for(m):
        return linear_fit(log_eps, log_vol - (m - 1) * log_log, weights=weights)

    if multiplicity_mode == "select_by_fit":
        fits = {m: fit_for(m) for m in (1, 2, 3)}
        best = max(fits, key=lambda m: fits[m].r_squared)
        res = fits[best]
    else:
        require(is_integer(multiplicity_mode) and multiplicity_mode >= 1,
                "multiplicity_mode must be 'select_by_fit' or an integer >= 1")
        best = int(multiplicity_mode)
        res = fit_for(best)

    return ScalingFit(
        lam=res.slope,
        multiplicity=best,
        log_c=res.intercept,
        r_squared=res.r_squared,
        epsilon_window=(float(eps_u.min()), float(eps_u.max())),
        n_points=len(eps_u),
    )


def default_ladder(k_min: int = 2, k_max: int = 10) -> np.ndarray:
    """The standard dyadic epsilon ladder 2^-k_min .. 2^-k_max."""
    return 2.0 ** (-np.arange(k_min, k_max + 1, dtype=float))
