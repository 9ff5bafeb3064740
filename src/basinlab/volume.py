"""Monte Carlo sublevel-set volumes and scaling-law fits.

The volume of {w in W : K(w) <= eps} behaves like c * eps^lambda * (-log eps)^(m-1)
as eps -> 0. This module estimates the volumes by uniform rejection sampling and
recovers (lambda, m, c) by weighted regression of log V on log eps and
log(-log eps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitWindowError, InvalidInputError
from .landscapes import Landscape
from .linalg import linear_fit
from .rng import MC_CHUNK, rng_stream


@dataclass
class VolumeCurve:
    """Volume estimates along a descending epsilon ladder, with binomial SEs."""

    epsilons: np.ndarray
    volumes: np.ndarray
    standard_errors: np.ndarray
    mc_samples: int
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
    r_squared_by_multiplicity: dict[int, float] | None = None


def mc_sublevel_volume(
    landscape: Landscape, epsilon: float, samples: int, seed: int, stream_id: int = 0
) -> tuple[float, float]:
    """Estimate Vol{w : K(w) <= epsilon} by uniform sampling of W.

    Returns (volume, standard_error); the SE is the binomial SE of the hit
    rate scaled by Vol(W).
    """
    curve = volume_curve(landscape, np.array([epsilon]), samples, seed, stream_id)
    return float(curve.volumes[0]), float(curve.standard_errors[0])


def volume_curve(
    landscape: Landscape,
    epsilons: np.ndarray,
    samples: int,
    seed: int,
    stream_id: int = 0,
) -> VolumeCurve:
    """Estimate the whole ladder with common random numbers.

    One shared sample set is used for every epsilon, so the estimated curve is
    exactly non-increasing as epsilon decreases.
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if np.any(epsilons <= 0):
        raise InvalidInputError("epsilons must be positive")
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    rng = rng_stream(seed, stream_id)
    total = landscape.bounds.volume()
    hits = np.zeros(len(epsilons), dtype=np.int64)
    remaining = samples
    while remaining > 0:
        n = min(remaining, MC_CHUNK)
        values = landscape.value(landscape.bounds.sample(rng, n))
        hits += np.count_nonzero(values[None, :] <= epsilons[:, None], axis=1)
        remaining -= n
    p = hits / samples
    return VolumeCurve(
        epsilons=epsilons,
        volumes=total * p,
        standard_errors=total * np.sqrt(p * (1.0 - p) / samples),
        mc_samples=samples,
        total_volume=total,
    )


def fit_scaling(
    curve: VolumeCurve,
    multiplicity_mode: int | str = "select_by_fit",
    se_cap: float = 0.2,
    max_epsilon: float = 0.25,
) -> ScalingFit:
    """Recover (lambda, multiplicity, log c) from a volume curve.

    Usable points must have 0 < V < Vol(W) (a saturated or empty estimate
    carries no scaling information and has a degenerate weight), relative SE
    at most `se_cap`, and epsilon at most `max_epsilon` (the law is an
    eps -> 0 statement). multiplicity_mode is either a fixed integer m or
    "select_by_fit", which picks m in {1, 2, 3} by best weighted R^2.
    """
    eps = curve.epsilons
    vol = curve.volumes
    se = curve.standard_errors
    usable = (vol > 0) & (vol < curve.total_volume) & (eps <= max_epsilon)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_se = np.where(vol > 0, se / vol, np.inf)
    usable &= rel_se <= se_cap
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
        adjusted = log_vol - (m - 1) * log_log
        res = linear_fit(log_eps, adjusted, weights=weights)
        return res

    if multiplicity_mode == "select_by_fit":
        fits = {m: fit_for(m) for m in (1, 2, 3)}
        r2 = {m: f.r_squared for m, f in fits.items()}
        best = max(r2, key=lambda m: r2[m])
        res = fits[best]
        extra = r2
    else:
        best = int(multiplicity_mode)
        if best < 1:
            raise InvalidInputError("multiplicity must be >= 1")
        res = fit_for(best)
        extra = None

    return ScalingFit(
        lam=res.slope,
        multiplicity=best,
        log_c=res.intercept,
        r_squared=res.r_squared,
        epsilon_window=(float(eps_u.min()), float(eps_u.max())),
        n_points=len(eps_u),
        r_squared_by_multiplicity=extra,
    )


def default_ladder(k_min: int = 2, k_max: int = 10) -> np.ndarray:
    """The standard dyadic epsilon ladder 2^-k_min .. 2^-k_max."""
    return 2.0 ** (-np.arange(k_min, k_max + 1, dtype=float))
