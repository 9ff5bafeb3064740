"""Compression schemes and the critical-threshold searches that define
compressibility.

Every scheme perturbs a parameter vector and reports the induced loss
increase on a fixed, deterministic loss evaluator; `quantization_delta_loss`
and `noise_delta_loss` are the single-setting probes. The critical searches
find the most aggressive setting whose loss increase still meets the
tolerance. All three share one bisection, `_lowest_passing`, over an integer
index into their setting grid: n_q / 2, the rank, or a point of the fixed
sigma grid. It narrows a bracket whose ends keep the verdicts they were
measured with, one end within the tolerance and the other not, and returns
the passing end, so the value satisfies its defining inequality exactly as
measured; a search that cannot find such a setting raises
UnreachableToleranceError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (QuantizationFailedError, TrainingDivergedError, UnreachableToleranceError,
                     is_integer, require)
from .mlp import MlpModel, MlpTask
from .rng import rng_stream
from .training import DIVERGENCE_CAP

LossEval = Callable[[np.ndarray], float]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# the clamp search's geometric grid over [_LO_FACTOR * max|w|, max|w|], and the
# bracket width, relative to max|w|, at which its golden section stops
_GRID_POINTS = 64
_LO_FACTOR = 0.1
_REL_TOL = 1e-3
# critical_sigma's search range, and the last index of its sigma grid (_sigma_at)
_SIGMA_BOUNDS = (1e-6, 10.0)
_SIGMA_TOP = 2**14


@dataclass(frozen=True)
class QuantizationSpec:
    """Symmetric uniform grid over [-m_clamp, m_clamp] including zero.

    n_q must be an even integer >= 4; the grid has n_q - 1 values spaced
    m_clamp / (n_q/2 - 1) apart.
    """

    n_q: int
    m_clamp: float

    def __post_init__(self):
        require(is_integer(self.n_q) and self.n_q >= 4 and self.n_q % 2 == 0,
                f"n_q must be an even integer >= 4, got {self.n_q}")
        require(self.m_clamp > 0, "m_clamp must be positive")

    @property
    def delta(self) -> float:
        return self.m_clamp / (self.n_q // 2 - 1)

    def grid(self) -> np.ndarray:
        half = self.n_q // 2 - 1
        return np.arange(-half, half + 1) * self.delta


@dataclass
class FactorizationResult:
    params: np.ndarray
    compression_fraction: float


@dataclass(frozen=True)
class CriticalResult:
    """Outcome of a critical-threshold search.

    value: the setting found (n_q, sigma, or the keep fraction j/min_dim);
    delta_loss: that setting's loss increase as the search measured it;
    critical_value: the figure a sweep reports, the setting itself or, for
    factorization, the ratio of stored parameters after versus before.
    """

    value: float
    delta_loss: float
    critical_value: float


@dataclass
class PruneResult:
    params: np.ndarray
    delta_loss: float
    n_pruned: int
    mask: np.ndarray


def quantize(w: np.ndarray, spec: QuantizationSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp each coordinate to [-m, m], then round to the nearest grid value.

    Idempotent and odd-symmetric; ties round half to even. Writes into `out`
    (which may be `w` itself) when given, else into a new array; either way
    the clip, divide, round and multiply run in place on that one array.
    """
    w = np.asarray(w, dtype=float)
    if out is None:
        out = np.empty_like(w)
    np.clip(w, -spec.m_clamp, spec.m_clamp, out=out)
    out /= spec.delta
    np.rint(out, out=out)
    out *= spec.delta
    return out


def _clamp_search(params: np.ndarray, n_q: int, loss_eval: LossEval, mode: str, base: float):
    """The clamp search at n_q, as a generator: it yields (m, delta_loss) for
    each grid clamp from max|w| down, then the best pair found, its result.

    loss_min sweeps _GRID_POINTS clamps spaced geometrically over
    [_LO_FACTOR * max|w|, max|w|], then refines around the best by golden
    section until the bracket is narrower than _REL_TOL * max|w|; max_abs
    stops after the top clamp, max|w| itself. A non-finite loss is never the
    best, and a grid of only non-finite losses raises, as do non-finite
    parameters, before any clamp is tried.
    """
    require(mode in ("loss_min", "max_abs"), f"unknown quantization mode {mode!r}")
    max_abs = float(np.max(np.abs(params)))
    if not math.isfinite(max_abs):
        raise QuantizationFailedError(f"non-finite parameters (max|w| = {max_abs}) at n_q={n_q}")
    if max_abs == 0.0:
        yield 1.0, 0.0
        return
    buf = np.empty_like(params)

    def q_loss(m):
        return loss_eval(quantize(params, QuantizationSpec(n_q=n_q, m_clamp=m), out=buf))

    ms = np.geomspace(_LO_FACTOR * max_abs, max_abs, _GRID_POINTS)
    if mode == "max_abs":
        ms = ms[-1:]  # geomspace's top end is exactly max_abs
    losses = np.empty(len(ms))
    for i in reversed(range(len(ms))):
        f = losses[i] = q_loss(ms[i])
        yield float(ms[i]), float(f) - base
    if not np.any(np.isfinite(losses)):
        clamps = (f"all {len(ms)} clamp candidates" if len(ms) > 1
                  else f"the clamp max|w| = {max_abs}")
        raise QuantizationFailedError(f"{clamps} gave non-finite loss at n_q={n_q}")
    losses[~np.isfinite(losses)] = np.inf
    best = int(np.argmin(losses))
    best_m, best_loss = float(ms[best]), float(losses[best])
    if mode == "loss_min":
        a, b = float(ms[max(best - 1, 0)]), float(ms[min(best + 1, len(ms) - 1)])
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = q_loss(c), q_loss(d)
        while (b - a) > _REL_TOL * max_abs:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = q_loss(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = q_loss(d)
            for m, f in ((c, fc), (d, fd)):
                if np.isfinite(f) and f < best_loss:
                    best_m, best_loss = float(m), float(f)
    yield best_m, best_loss - base


def quantization_delta_loss(
    params: np.ndarray,
    n_q: int,
    loss_eval: LossEval,
    mode: str = "loss_min",
) -> float:
    """Loss increase of quantizing `params` to n_q levels, the clamp set by
    `mode`: the clamp search at n_q run to its end."""
    params = np.asarray(params, dtype=float)
    *_, (_, delta) = _clamp_search(params, n_q, loss_eval, mode, loss_eval(params))
    return delta


def _passes(delta_loss: float, epsilon: float) -> bool:
    """Every critical search's verdict: a finite loss increase within epsilon."""
    return math.isfinite(delta_loss) and delta_loss <= epsilon


def _tolerances(epsilons: Sequence[float]) -> list[float]:
    require(np.ndim(epsilons) == 1 and all(e > 0 for e in epsilons),
            "epsilons must be a sequence of positive tolerances")
    return [float(e) for e in epsilons]


def _lowest_passing(passes: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest k in (lo, hi] that passes, given lo was measured failing and
    hi passing: bisection treating the verdict as monotone in k. The bracket's
    ends keep those verdicts, so the result passes and its predecessor, the
    last failing end, does not."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def critical_nq(
    params: np.ndarray,
    epsilons: Sequence[float],
    loss_eval: LossEval,
    mode: str = "loss_min",
    nq_cap: int = 2**16,
) -> list[CriticalResult]:
    """Smallest even n_q whose quantization loss increase is within epsilon,
    one result per epsilon, in order.

    Per epsilon: exponential bracketing, then bisection over even values
    treating the loss increase as non-increasing in n_q, which leaves n_q
    passing and its predecessor failing, as measured. Each n_q's
    clamp search runs once for every epsilon, only as far as a verdict
    needs: n_q passes at its first finite loss increase within epsilon (the
    complete search could only find a lower one), so a verdict reads the
    pairs yielded so far, then resumes the search. The returned n_q's
    delta_loss is its complete search's. value and critical_value are n_q.
    Doubling past nq_cap (at least 4) raises.
    """
    tolerances = _tolerances(epsilons)
    require(nq_cap >= 4, f"nq_cap must be >= 4, the smallest n_q probed, got {nq_cap}")
    params = np.asarray(params, dtype=float)
    base = loss_eval(params)
    searches: dict[int, tuple[Iterator[tuple[float, float]], list[tuple[float, float]]]] = {}

    def pairs(nq):
        """n_q's (m, delta_loss) pairs: those yielded so far, then the rest."""
        if nq not in searches:
            searches[nq] = (_clamp_search(params, nq, loss_eval, mode, base), [])
        search, seen = searches[nq]
        yield from seen
        for pair in search:
            seen.append(pair)
            yield pair

    def passes(nq, eps):
        return any(_passes(dl, eps) for _, dl in pairs(nq))

    results = []
    for eps in tolerances:
        hi = 4
        while not passes(hi, eps):
            hi *= 2
            if hi > nq_cap:
                raise UnreachableToleranceError(f"delta loss still above {eps} at n_q={hi // 2}")
        if hi > 4:  # search k = n_q / 2 between the last failing and the first passing power
            hi = 2 * _lowest_passing(lambda k: passes(2 * k, eps), hi // 4, hi // 2)
        *_, (_, delta) = pairs(hi)
        results.append(CriticalResult(hi, delta, hi))
    return results


def factorize(
    model: MlpModel,
    params: np.ndarray,
    keep_fraction: float | Fraction,
) -> FactorizationResult:
    """Replace the interior weight matrices (never the input or output map) by
    truncated SVD reconstructions.

    Each interior (d1, d2) matrix keeps n = ceil(keep_fraction * min(d1, d2))
    singular values (exact for a Fraction), counted as d1*n + n + n*d2 stored
    parameters. Returns the reconstructed flat parameters, a copy with each
    interior matrix overwritten, and the model-wide ratio of stored parameters
    after versus before. Non-finite parameters are refused before any SVD.
    """
    require(0.0 < keep_fraction <= 1.0, "keep_fraction must be in (0, 1]")
    out = np.array(params, dtype=float)
    require(np.isfinite(out).all(), "factorize needs finite parameters")
    layers = model.unpack(out)  # views: writes land in `out`
    stored = model.n_params
    for li in range(1, model.spec.n_layers - 1):
        w = layers[li][0]
        d1, d2 = w.shape
        n = max(1, math.ceil(keep_fraction * min(d1, d2)))
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        w[...] = (u[:, :n] * s[:n]) @ vt[:n, :]
        stored -= d1 * d2 - (d1 * n + n + n * d2)
    return FactorizationResult(params=out, compression_fraction=stored / model.n_params)


def critical_compression_fraction(
    model: MlpModel,
    params: np.ndarray,
    epsilons: Sequence[float],
    loss_eval: LossEval,
) -> list[CriticalResult]:
    """Smallest rank budget for the interior matrices whose factorization loss
    increase is within each epsilon; one result per epsilon, in order.

    The search runs over the integer rank grid n = 1 .. min_dim (resolution
    1/min_dim in keep fraction) by bisection on a monotone bracketing, which
    leaves rank j passing and j - 1 failing, as measured; each rank is
    factorized and evaluated once for all epsilons. The result's value is
    the keep fraction j/min_dim and its critical_value the stored-parameter
    ratio.
    """
    tolerances = _tolerances(epsilons)
    interior = model.unpack(params)[1:-1]
    require(interior, "no interior layer to factorize")
    min_dim = min(min(w.shape) for w, _ in interior)
    base = loss_eval(params)

    @functools.cache
    def probe(j):
        # exact: the float j / min_dim can round up past j after ceil(... * min_dim)
        res = factorize(model, params, Fraction(j, min_dim))
        return loss_eval(res.params) - base, res.compression_fraction

    def passes(j, eps):
        return _passes(probe(j)[0], eps)

    results = []
    for eps in tolerances:
        if not passes(min_dim, eps):
            raise UnreachableToleranceError(f"delta loss {probe(min_dim)[0]} not within {eps} "
                                            "even at full rank (numerical error?)")
        j = 1 if passes(1, eps) else _lowest_passing(lambda k: passes(k, eps), 1, min_dim)
        delta, frac = probe(j)
        results.append(CriticalResult(j / min_dim, delta, frac))
    return results


def _noise_delta(params: np.ndarray, mode: str, loss_eval: LossEval, noise_draws: int, seed: int):
    """sigma -> noise_delta_loss(params, sigma, ...), with the mode checked, the
    base loss and the unit perturbations (streams 0 .. noise_draws - 1 of
    `seed`) made once, and each sigma's value kept."""
    require(mode in ("absolute", "relative"), f"unknown noise mode {mode!r}")
    require(noise_draws >= 1, "noise_draws must be >= 1")
    base = loss_eval(params)
    draws = [rng_stream(seed, k).standard_normal(params.shape) for k in range(noise_draws)]
    scale = params if mode == "relative" else 1.0  # 1.0 * sigma is sigma, bit for bit
    return functools.cache(lambda sigma: float(np.mean(
        [loss_eval(params + scale * sigma * z) for z in draws])) - base)


def noise_delta_loss(
    params: np.ndarray,
    sigma: float,
    mode: str,
    loss_eval: LossEval,
    noise_draws: int = 8,
    seed: int = 0,
) -> float:
    """Mean loss increase over the seeded noise draws at a fixed sigma: draw k is
    w + sigma * z (absolute) or w + w * sigma * z (relative), z ~ N(0, I) from stream k."""
    require(sigma >= 0, "sigma must be nonnegative")
    return _noise_delta(np.asarray(params, dtype=float), mode, loss_eval, noise_draws, seed)(sigma)


@functools.cache
def _sigma_at(k: int) -> float:
    """Point k of critical_sigma's grid, k in [0, _SIGMA_TOP]: the upper
    search bound at 0, the lower at _SIGMA_TOP, and at every k between the
    geometric mean of its dyadic neighbours k - b and k + b, b the lowest set
    bit of k, so that bisecting k probes geometric midpoints of the bounds."""
    lo, hi = _SIGMA_BOUNDS
    if k in (0, _SIGMA_TOP):
        return hi if k == 0 else lo
    b = k & -k
    return float(np.sqrt(_sigma_at(k - b) * _sigma_at(k + b)))


def critical_sigma(
    params: np.ndarray,
    epsilons: Sequence[float],
    mode: str,
    loss_eval: LossEval,
    noise_draws: int = 8,
    seed: int = 0,
) -> list[CriticalResult]:
    """Largest sigma on a fixed grid whose mean loss increase over the noise
    draws is within each epsilon; one result per epsilon, in order.

    The search bisects the index of a fixed grid of 2**14 + 1 geometric
    points from 10 down to 1e-6, each a factor 10**(7 / 2**14), about
    1.00098, below the last (`_sigma_at`). The same noise_draws unit
    perturbations, drawn once, are reused at every sigma, so the measured
    curve is continuous in sigma and the bisection brackets a single
    crossing. Every bisection starts from the same ends, and each sigma is
    evaluated once for all epsilons. A lower end that misses the tolerance,
    or an upper end that meets it, raises. The result's value and
    critical_value are sigma.
    """
    tolerances = _tolerances(epsilons)
    dl = _noise_delta(np.asarray(params, dtype=float), mode, loss_eval, noise_draws, seed)
    lo, hi = _SIGMA_BOUNDS
    results = []
    for eps in tolerances:
        if not _passes(dl(lo), eps):
            raise UnreachableToleranceError(f"delta loss {dl(lo)} not within {eps} at sigma={lo}")
        if _passes(dl(hi), eps):
            raise UnreachableToleranceError(f"loss increase never exceeds {eps} up to sigma={hi}")
        sigma = _sigma_at(_lowest_passing(lambda k: _passes(dl(_sigma_at(k)), eps), 0, _SIGMA_TOP))
        results.append(CriticalResult(sigma, dl(sigma), sigma))
    return results


def prune_and_retrain(
    task: MlpTask,
    params: np.ndarray,
    keep_fractions: Sequence[float],
    learning_rate: float,
    retrain_steps: int = 1000,
    batch_size: int = 32,
    seed: int = 0,
) -> list[PruneResult]:
    """Zero out random hidden units, then retrain with masked gradients, once
    per keep fraction; one result per fraction, in order.

    floor((1 - keep_fraction) * N_h) hidden units are chosen uniformly at
    random, from a fresh `rng_stream(seed, 0)` for each fraction, so a run's
    picks do not depend on the other fractions in the call. Their incoming
    and outgoing weights are zeroed (biases kept) and held at zero through
    retraining by masking their gradients. The reported loss is the minimum
    full-dataset training loss seen during retraining, and delta_loss is
    measured against the unpruned parameters. Pruning zero units is not an
    error; its result reads n_pruned == 0. Retraining follows train_sgd's
    divergence rule on every run: a non-finite batch loss, or one above
    DIVERGENCE_CAP, raises TrainingDivergedError naming the step, and the
    keep fraction and loss of the lowest such run.

    Every run draws the same minibatches from `rng_stream(seed, 1)`, so the
    runs step in lockstep as one (K, d) stack: one batch draw and one stacked
    gradient per step, each row bit for bit the run's own. The full loss that
    tracks each run's best stays one N-row forward per run: a stacked one
    saves only a few percent of its time but holds K times the activations.
    """
    fractions = list(keep_fractions)
    require(fractions and all(0.0 < f <= 1.0 for f in fractions),
            "keep_fractions must be a nonempty list of values in (0, 1]")
    model = task.model
    sizes = model.spec.layer_sizes
    hidden_units = [(li, u) for li in range(1, len(sizes) - 1) for u in range(sizes[li])]
    n_h = len(hidden_units)
    require(n_h >= 1, "model has no hidden units to prune")

    base = task.full_loss(params)
    n_pruned = [int(np.floor((1.0 - f) * n_h)) for f in fractions]
    masks = np.ones((len(fractions), model.n_params))
    for mask, n_prune in zip(masks, n_pruned):
        picked = rng_stream(seed, 0).choice(n_h, size=n_prune, replace=False) if n_prune else []
        mask_layers = model.unpack(mask)  # views: writes land in `mask`
        for (li, u) in (hidden_units[i] for i in sorted(picked)):
            # layer index li counts network layers; unit u lives between weight
            # matrices li-1 (incoming row) and li (outgoing column)
            mask_layers[li - 1][0][u, :] = 0.0
            mask_layers[li][0][:, u] = 0.0
    w = np.where(masks == 0.0, 0.0, params)

    rng_batch = rng_stream(seed, 1)
    best_loss = [task.full_loss(row) for row in w]
    best_params = w.copy()
    for step in range(1, retrain_steps + 1):
        losses, grads = model.losses_and_grads(w, *task.batch(rng_batch, batch_size))
        worst = losses.max()  # NaN if any run's loss is NaN
        if not np.isfinite(worst) or worst > DIVERGENCE_CAP:
            k = int(np.argmin(losses <= DIVERGENCE_CAP))  # the lowest run failing the rule
            raise TrainingDivergedError(step, float(losses[k]), keep_fraction=fractions[k])
        w = w - learning_rate * (grads * masks)
        for k, row in enumerate(w):
            full = task.full_loss(row)
            if full < best_loss[k]:
                best_loss[k] = full
                best_params[k] = row
    return [PruneResult(params=p, delta_loss=loss - base, n_pruned=n, mask=m)
            for p, loss, n, m in zip(best_params, best_loss, n_pruned, masks)]
