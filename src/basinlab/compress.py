"""Compression schemes and the critical-threshold searches that define
compressibility.

Every scheme perturbs a parameter vector and reports the induced loss
increase on a fixed, deterministic loss evaluator. The critical searches find
the most aggressive setting whose loss increase still meets the tolerance,
and always end with a verification pass so the returned value satisfies its
defining inequality exactly as measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, QuantizationFailedError, UnreachableToleranceError
from .linalg import svd
from .mlp import MlpModel, MlpTask
from .rng import rng_stream

LossEval = Callable[[np.ndarray], float]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuantizationSpec:
    """Symmetric uniform grid over [-m_clamp, m_clamp] including zero.

    n_q must be even and >= 4; the grid has n_q - 1 values spaced
    m_clamp / (n_q/2 - 1) apart.
    """

    n_q: int
    m_clamp: float

    def __post_init__(self):
        if self.n_q < 4 or self.n_q % 2 != 0:
            raise InvalidInputError(f"n_q must be even and >= 4, got {self.n_q}")
        if self.m_clamp <= 0:
            raise InvalidInputError("m_clamp must be positive")

    @property
    def delta(self) -> float:
        return self.m_clamp / (self.n_q // 2 - 1)

    def grid(self) -> np.ndarray:
        half = self.n_q // 2 - 1
        return np.arange(-half, half + 1) * self.delta


@dataclass
class MSearchConfig:
    """Clamp-value search: geometric sweep then local golden-section refinement."""

    grid_points: int = 64
    rel_tol: float = 1e-3
    lo_factor: float = 0.1


@dataclass
class FactorizationResult:
    params: np.ndarray
    compression_fraction: float
    n_kept: dict[int, int]


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
    pruned_units: list[tuple[int, int]]
    mask: np.ndarray
    no_op: bool


def quantize(w: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Clamp each coordinate to [-m, m], then round to the nearest grid value.

    Idempotent and odd-symmetric; ties round half to even.
    """
    w = np.asarray(w, dtype=float)
    clamped = np.clip(w, -spec.m_clamp, spec.m_clamp)
    return np.round(clamped / spec.delta) * spec.delta


def quantize_max_abs(params: np.ndarray, n_q: int, loss_eval: LossEval) -> tuple[float, float]:
    """Quantize with the clamp set to the largest absolute parameter value."""
    params = np.asarray(params, dtype=float)
    m = float(np.max(np.abs(params)))
    base = loss_eval(params)
    if m == 0.0:
        return 1.0, 0.0
    q = quantize(params, QuantizationSpec(n_q=n_q, m_clamp=m))
    return m, loss_eval(q) - base


def quantize_loss_min_m(
    params: np.ndarray,
    n_q: int,
    loss_eval: LossEval,
    search: MSearchConfig | None = None,
) -> tuple[float, float]:
    """Search the clamp value m for the lowest post-quantization loss.

    Sweeps a geometric grid over [lo_factor * max|w|, max|w|] (the top end is
    always a candidate, so this mode never does worse than quantize_max_abs),
    then refines around the best grid point by golden section, keeping the
    best value seen anywhere. Returns (m_star, delta_loss).
    """
    search = search or MSearchConfig()
    params = np.asarray(params, dtype=float)
    max_abs = float(np.max(np.abs(params)))
    base = loss_eval(params)
    if max_abs == 0.0:
        return 1.0, 0.0

    def q_loss(m):
        return loss_eval(quantize(params, QuantizationSpec(n_q=n_q, m_clamp=m)))

    ms = np.geomspace(search.lo_factor * max_abs, max_abs, search.grid_points)
    losses = np.array([q_loss(m) for m in ms])
    if not np.any(np.isfinite(losses)):
        raise QuantizationFailedError(
            f"all {len(ms)} clamp candidates gave non-finite loss at n_q={n_q}"
        )
    losses[~np.isfinite(losses)] = np.inf
    best = int(np.argmin(losses))
    best_m, best_loss = float(ms[best]), float(losses[best])

    lo = ms[max(best - 1, 0)]
    hi = ms[min(best + 1, len(ms) - 1)]
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = q_loss(c), q_loss(d)
    while (b - a) > search.rel_tol * max_abs:
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
    return best_m, best_loss - base


def quantization_delta_loss(
    params: np.ndarray,
    n_q: int,
    loss_eval: LossEval,
    mode: str = "loss_min",
    search: MSearchConfig | None = None,
) -> float:
    if mode == "loss_min":
        return quantize_loss_min_m(params, n_q, loss_eval, search)[1]
    if mode == "max_abs":
        return quantize_max_abs(params, n_q, loss_eval)[1]
    raise InvalidInputError(f"unknown quantization mode {mode!r}")


def critical_nq(
    params: np.ndarray,
    epsilon: float,
    loss_eval: LossEval,
    mode: str = "loss_min",
    search: MSearchConfig | None = None,
    nq_cap: int = 2**16,
) -> CriticalResult:
    """Smallest even n_q whose quantization loss increase is within epsilon.

    Exponential bracketing then bisection over even values, treating the loss
    increase as non-increasing in n_q; a final verification walk guarantees
    the returned n_q satisfies delta_loss <= epsilon and its predecessor does
    not, as measured. The result's value and critical_value are n_q.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    cache: dict[int, float] = {}

    def dl(nq):
        if nq not in cache:
            cache[nq] = quantization_delta_loss(params, nq, loss_eval, mode, search)
        return cache[nq]

    if dl(4) <= epsilon:
        return CriticalResult(4, cache[4], 4)
    hi = 4
    while dl(hi) > epsilon:
        hi *= 2
        if hi > nq_cap:
            raise UnreachableToleranceError(
                f"delta loss still above {epsilon} at n_q={nq_cap}"
            )
    lo = hi // 2  # dl(lo) > epsilon, dl(hi) <= epsilon
    while hi - lo > 2:
        mid = lo + 2 * ((hi - lo) // 4)
        if dl(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    result = hi
    while result > 4 and dl(result - 2) <= epsilon:
        result -= 2
    return CriticalResult(result, cache[result], result)


def factorize(
    model: MlpModel,
    params: np.ndarray,
    keep_fraction: float,
    layer_selection: list[int] | None = None,
) -> FactorizationResult:
    """Replace selected weight matrices by truncated SVD reconstructions.

    Each selected (d1, d2) matrix keeps n = ceil(keep_fraction * min(d1, d2))
    singular values and is counted as d1*n + n + n*d2 stored parameters.
    The default selection is the interior layers (never the input or output
    map). Returns the reconstructed flat parameters and the model-wide ratio
    of stored parameters after versus before.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise InvalidInputError("keep_fraction must be in (0, 1]")
    if layer_selection is None:
        layer_selection = list(range(1, model.spec.n_layers - 1))
    layers = model.unpack(params)
    bad = [i for i in layer_selection if i < 0 or i >= len(layers)]
    if bad:
        raise InvalidInputError(f"layer selection out of range: {bad}")

    new_layers = []
    n_kept = {}
    before = after = 0
    for li, (w, b) in enumerate(layers):
        d1, d2 = w.shape
        before += d1 * d2 + len(b)
        if li in layer_selection:
            n = max(1, int(np.ceil(keep_fraction * min(d1, d2))))
            n_kept[li] = n
            res = svd(w)
            new_layers.append((res.reconstruct(n), b.copy()))
            after += d1 * n + n + n * d2 + len(b)
        else:
            new_layers.append((w.copy(), b.copy()))
            after += d1 * d2 + len(b)
    return FactorizationResult(
        params=model.pack(new_layers),
        compression_fraction=after / before,
        n_kept=n_kept,
    )


def critical_compression_fraction(
    model: MlpModel,
    params: np.ndarray,
    epsilon: float,
    loss_eval: LossEval,
    layer_selection: list[int] | None = None,
) -> CriticalResult:
    """Smallest rank budget whose factorization loss increase is within epsilon.

    The search runs over the integer rank grid n = 1 .. min_dim (resolution
    1/min_dim in keep fraction) by bisection on a monotone bracketing, with
    the same verification walk as critical_nq. The result's value is the keep
    fraction j/min_dim and its critical_value the stored-parameter ratio.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if layer_selection is None:
        layer_selection = list(range(1, model.spec.n_layers - 1))
    if not layer_selection:
        raise InvalidInputError("no layers selected for factorization")
    layers = model.unpack(params)
    min_dim = min(min(layers[i][0].shape) for i in layer_selection)
    base = loss_eval(params)
    cache: dict[int, tuple[float, float]] = {}

    def dl(j):
        if j not in cache:
            res = factorize(model, params, j / min_dim, layer_selection)
            cache[j] = (loss_eval(res.params) - base, res.compression_fraction)
        return cache[j][0]

    if dl(min_dim) > epsilon:
        raise UnreachableToleranceError(
            f"delta loss above {epsilon} even at full rank (numerical error?)"
        )
    if dl(1) <= epsilon:
        j_star = 1
    else:
        lo, hi = 1, min_dim  # dl(lo) > eps, dl(hi) <= eps
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if dl(mid) <= epsilon:
                hi = mid
            else:
                lo = mid
        j_star = hi
        while j_star > 1 and dl(j_star - 1) <= epsilon:
            j_star -= 1
    delta, frac = cache[j_star]
    return CriticalResult(j_star / min_dim, delta, frac)


def add_noise(w: np.ndarray, sigma: float, mode: str, seed: int, stream_id: int = 0) -> np.ndarray:
    """Perturb parameters with seeded Gaussian noise.

    absolute: w + sigma * z; relative: w + w * sigma * z, with z standard
    normal per coordinate.
    """
    if sigma < 0:
        raise InvalidInputError("sigma must be nonnegative")
    if mode not in ("absolute", "relative"):
        raise InvalidInputError(f"unknown noise mode {mode!r}")
    w = np.asarray(w, dtype=float)
    z = rng_stream(seed, stream_id).standard_normal(w.shape)
    return w + sigma * z if mode == "absolute" else w + w * sigma * z


def noise_delta_loss(
    params: np.ndarray,
    sigma: float,
    mode: str,
    loss_eval: LossEval,
    noise_draws: int = 8,
    seed: int = 0,
) -> float:
    """Mean loss increase over the seeded noise draws at a fixed sigma."""
    params = np.asarray(params, dtype=float)
    base = loss_eval(params)
    losses = [
        loss_eval(add_noise(params, sigma, mode, seed, stream_id=k))
        for k in range(noise_draws)
    ]
    return float(np.mean(losses)) - base


def critical_sigma(
    params: np.ndarray,
    epsilon: float,
    mode: str,
    loss_eval: LossEval,
    noise_draws: int = 8,
    seed: int = 0,
    sigma_bounds: tuple[float, float] = (1e-6, 10.0),
    rel_tol: float = 1e-3,
) -> CriticalResult:
    """Largest sigma whose mean loss increase over the noise draws is within epsilon.

    The same noise_draws unit perturbations are reused at every sigma, so the
    measured curve is continuous in sigma and the geometric bisection brackets
    a single crossing. If even the lower search bound exceeds the tolerance,
    that bound is returned; if the tolerance is never exceeded by the upper
    bound there is no crossing to report and the search errors out. The
    result's value and critical_value are sigma.
    """
    if epsilon < 0:
        raise InvalidInputError("epsilon must be nonnegative")
    if noise_draws < 1:
        raise InvalidInputError("noise_draws must be >= 1")
    if mode not in ("absolute", "relative"):
        raise InvalidInputError(f"unknown noise mode {mode!r}")
    params = np.asarray(params, dtype=float)

    def dl(sigma):
        return noise_delta_loss(params, sigma, mode, loss_eval, noise_draws, seed)

    lo, hi = sigma_bounds
    dl_lo = dl(lo)
    if dl_lo > epsilon:
        return CriticalResult(lo, dl_lo, lo)
    if dl(hi) <= epsilon:
        raise UnreachableToleranceError(
            f"loss increase never exceeds {epsilon} up to sigma={hi}"
        )
    while hi / lo > 1.0 + rel_tol:
        mid = float(np.sqrt(lo * hi))
        dl_mid = dl(mid)
        if dl_mid <= epsilon:
            lo, dl_lo = mid, dl_mid
        else:
            hi = mid
    return CriticalResult(lo, dl_lo, lo)


def prune_and_retrain(
    task: MlpTask,
    params: np.ndarray,
    keep_fraction: float,
    learning_rate: float,
    retrain_steps: int = 1000,
    batch_size: int = 32,
    seed: int = 0,
) -> PruneResult:
    """Zero out random hidden units, then retrain with masked gradients.

    floor((1 - keep_fraction) * N_h) hidden units are chosen uniformly at
    random; their incoming and outgoing weights are zeroed (biases kept) and
    held at zero through retraining by masking their gradients. The reported
    loss is the minimum full-dataset training loss seen during retraining,
    and delta_loss is measured against the unpruned parameters. Pruning zero
    units is flagged as a no-op, not an error.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise InvalidInputError("keep_fraction must be in (0, 1]")
    model = task.model
    sizes = model.spec.layer_sizes
    hidden_units = [(li, u) for li in range(1, len(sizes) - 1) for u in range(sizes[li])]
    n_h = len(hidden_units)
    if n_h < 1:
        raise InvalidInputError("model has no hidden units to prune")
    n_prune = int(np.floor((1.0 - keep_fraction) * n_h))

    rng_pick = rng_stream(seed, 0)
    picked = sorted(rng_pick.choice(n_h, size=n_prune, replace=False).tolist()) if n_prune else []
    pruned = [hidden_units[i] for i in picked]

    base = task.full_loss(params)
    layers = model.unpack(params)
    mask_layers = [(np.ones_like(w), np.ones_like(b)) for w, b in layers]
    new_layers = [(w.copy(), b.copy()) for w, b in layers]
    for (li, u) in pruned:
        # layer index li counts network layers; unit u lives between weight
        # matrices li-1 (incoming row) and li (outgoing column)
        new_layers[li - 1][0][u, :] = 0.0
        new_layers[li][0][:, u] = 0.0
        mask_layers[li - 1][0][u, :] = 0.0
        mask_layers[li][0][:, u] = 0.0
    pruned_params = model.pack(new_layers)
    mask = model.pack(mask_layers)

    rng_batch = rng_stream(seed, 1)
    w = pruned_params.copy()
    best_loss = task.full_loss(w)
    best_params = w.copy()
    for _ in range(retrain_steps):
        xb, yb = task.batch(rng_batch, batch_size)
        _, grad = model.loss_and_grad(w, xb, yb)
        w = w - learning_rate * (grad * mask)
        full = task.full_loss(w)
        if full < best_loss:
            best_loss = full
            best_params = w.copy()
    return PruneResult(
        params=best_params,
        delta_loss=best_loss - base,
        n_pruned=n_prune,
        pruned_units=pruned,
        mask=mask,
        no_op=(n_prune == 0),
    )
