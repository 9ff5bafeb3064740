"""Local learning coefficient estimation by tempered, localized posterior sampling.

The sampler targets the Gibbs density proportional to
exp(-nbeta * L(w) - (gamma/2) ||w - w*||^2) and the estimate is

    lambda_hat = nbeta * (E[L(w)] - L(w*)),

with the expectation approximated by post-burn-in chain averages. nbeta is the
product of sample size and inverse temperature, treated as a single knob.
Analytic landscapes use exact full gradients; MLP tasks use minibatch
gradients and a batch-averaged baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChainDivergedError, InvalidInputError, is_integer, require
from .landscapes import Landscape
from .mlp import MlpTask
from .rng import rng_stream


@dataclass(frozen=True)
class Preconditioner:
    """RMSProp-style diagonal preconditioner; kind 'none' disables it.

    The accumulator tracks an exponential moving average of the squared
    tempered loss gradient (nbeta * grad L). With stabilizer 1 and zero
    gradients the preconditioned update reduces exactly to plain SGLD.
    """

    kind: str = "none"
    decay: float = 0.99
    stabilizer: float = 1.0

    def __post_init__(self):
        require(self.kind in ("none", "rmsprop"), "kind must be 'none' or 'rmsprop'")
        require(0.0 < self.decay < 1.0, "decay must be in (0, 1)")
        require(self.stabilizer > 0, "stabilizer must be positive")


@dataclass(frozen=True)
class LlcConfig:
    """Sampler hyperparameters. These defaults are the library's, for small
    models (nbeta 30, gamma 300, 4 chains x 200 steps, step size 1e-3); the
    CLI's are `DEFAULT_CONFIG["llc"]` (8 chains x 1,500 steps, step size 2e-4)."""

    nbeta: float = 30.0
    gamma: float = 300.0
    step_size: float = 1e-3
    chains: int = 4
    steps_per_chain: int = 200
    burn_in: int | None = None
    batch_size: int = 32
    baseline_batches: int = 8
    preconditioner: Preconditioner = field(default_factory=Preconditioner)

    def __post_init__(self):
        require(self.nbeta > 0, "nbeta must be positive")
        require(self.step_size > 0, "step_size must be positive")
        require(self.gamma >= 0, "gamma must be >= 0")
        for name in ("chains", "steps_per_chain", "batch_size", "baseline_batches"):
            count = getattr(self, name)
            require(is_integer(count) and count >= 1, f"{name} must be an integer >= 1")
        require(self.burn_in is None or is_integer(self.burn_in)
                and 0 <= self.burn_in < self.steps_per_chain,
                "burn_in must be null or an integer in [0, steps_per_chain)")

    @property
    def resolved_burn_in(self) -> int:
        return self.steps_per_chain // 10 if self.burn_in is None else self.burn_in


@dataclass
class LlcEstimate:
    lambda_hat: float
    per_chain_means: np.ndarray
    baseline_loss: float
    trace: np.ndarray  # (chains, steps_per_chain) losses, pre-update
    boundary_hits: int = 0

    def trace_rows(self):
        """(step, chain, loss) rows for CSV export."""
        for c in range(self.trace.shape[0]):
            for t in range(self.trace.shape[1]):
                yield t, c, float(self.trace[c, t])


def _langevin(w, tempered, w_star, cfg: LlcConfig, noise, scale=1.0, out=None) -> np.ndarray:
    """w - (eps/2) scale [tempered + gamma (w - w*)] + sqrt(eps scale) noise,
    written to `out` (a new array by default; it may be w) through one
    w-shaped temporary."""
    eps = cfg.step_size * scale
    drift = np.subtract(w, w_star)
    drift *= cfg.gamma
    drift += tempered
    drift *= 0.5 * eps
    out = np.subtract(w, drift, out=out)
    out += np.sqrt(eps) * noise
    return out


def sgld_step(w: np.ndarray, grad_loss: np.ndarray, w_star: np.ndarray, cfg: LlcConfig,
              noise: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One Langevin step against the tempered, localized potential,
    w' = w - (eps/2) [nbeta * grad_loss + gamma (w - w*)] + sqrt(eps) * noise,
    written to `out` if given (`out=w` steps w in place). Pure elementwise
    arithmetic, so the arrays may be stacks of chains; estimate_llc checks
    the result for finiteness and clamps it to bounds."""
    return _langevin(w, cfg.nbeta * grad_loss, w_star, cfg, noise, out=out)


def psgld_step(w: np.ndarray, grad_loss: np.ndarray, w_star: np.ndarray, cfg: LlcConfig,
               noise: np.ndarray, v_acc: np.ndarray,
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Preconditioned Langevin step; returns (new point, updated accumulator).
    The accumulator is updated first, then the drift is scaled per coordinate
    by 1/(sqrt(v) + stabilizer) and the noise by the square root of the same
    factor; the curvature correction term of the full preconditioned scheme
    is omitted. Pure arithmetic, like `sgld_step`, with the same `out`."""
    pc = cfg.preconditioner
    tempered = cfg.nbeta * grad_loss
    v_new = pc.decay * v_acc + (1.0 - pc.decay) * tempered**2
    scale = 1.0 / (np.sqrt(v_new) + pc.stabilizer)
    return _langevin(w, tempered, w_star, cfg, noise, scale, out), v_new


def estimate_llc(
    target: Landscape | MlpTask,
    cfg: LlcConfig,
    seed: int,
    w_star: np.ndarray | None = None,
) -> LlcEstimate | list[LlcEstimate]:
    """Estimate the local learning coefficient at w_star.

    Chains start at w_star and draw from per-chain streams (stream c for
    chain c), so the result is deterministic per seed. The chains step in
    lockstep as one (chains, d) array: each step evaluates every chain's loss
    and gradient in one call, then chain c draws its noise from stream c
    (after its minibatch, for MLP targets), the same draws in the same order
    as running the chains one after another. The reduction averages chains
    in index order. Negative estimates are returned as they are, not
    clipped.

    For an MLP target, w_star may also be a (C, d) stack, such as the
    checkpoints of one training run; the call then returns C estimates, and
    estimate k equals the call with w_star[k] alone, bit for bit. Since the
    draws depend only on the seed, every checkpoint's chain c uses the same
    minibatches and noise: each step draws them once and broadcasts them over
    a (C, chains, d) array, and each baseline batch is one C-row forward.
    A (d,) w_star is the C = 1 case of the same loop, returned unwrapped.
    The chain states live in the parameter buffer of the model's
    (C, chains) plan, which each step runs and then updates in place.

    The step functions only do arithmetic; after each step this loop checks
    the new states for finiteness before it clamps a landscape's chains to
    its bounds (which would map inf to a bound) and counts the chains at a
    bound. The earliest non-finite state raises ChainDivergedError, naming
    the lowest such chain at that step, with the partial trace of every chain
    of its w_star attached. In a stack, the error is the one the lowest
    diverging checkpoint would raise alone, with its index as `checkpoint`:
    once checkpoint k diverges, checkpoints k and above stop, the lower ones
    step on to the end, and the lowest that diverged is raised (checkpoint 0
    at once).
    """
    if isinstance(target, Landscape):
        w_star = np.asarray(target.minimum if w_star is None else w_star, dtype=float)
        require(w_star.ndim == 1, "landscape targets take one (d,) w_star")
        require(target.bounds.contains(w_star), "w_star outside the parameter bounds")
        bounds = target.bounds

        def losses_grads(w, rngs):
            # one w_star: evaluate the (chains, d) rows, the shape landscapes take,
            # as a copy that the callbacks may keep while w steps in place
            rows = w[0].copy()
            return target.value(rows)[None], target.grad(rows)[None]

        held = np.asarray  # a landscape's states need no plan
        baseline = np.array([float(target.value(w_star))])
    elif isinstance(target, MlpTask):
        require(w_star is not None, "mlp targets need an explicit w_star")
        w_star = np.asarray(w_star, dtype=float)
        require(w_star.ndim in (1, 2), f"w_star must be (d,) or (C, d), got shape {w_star.shape}")
        bounds = None
        model = target.model

        def held(w):
            # states w, (k, chains, d), copied into the parameters of their plan
            plan = model.plan(w.shape[:-1], cfg.batch_size)
            np.copyto(plan.params, w)
            return plan.params

        def losses_grads(w, rngs):
            # w is its plan's parameter buffer (held): the plan evaluates it in
            # place, each chain's batch broadcast over the checkpoints, and its
            # gradient buffer is read without a copy
            plan = model.plan(w.shape[:-1], cfg.batch_size)
            return plan.run(*target.batches(rngs, cfg.batch_size), need_grad=True), plan.grad

        rng_base = rng_stream(seed, cfg.chains)
        stack = w_star.reshape(-1, w_star.shape[-1])
        base_losses = np.empty((len(stack), cfg.baseline_batches))
        for j in range(cfg.baseline_batches):
            base_losses[:, j], _ = model.losses_and_grads(
                stack, *target.batch(rng_base, cfg.batch_size), need_grad=False)
        # each row reduces in the order of np.mean over that checkpoint's list
        baseline = base_losses.mean(axis=-1)
    else:
        raise InvalidInputError(f"unsupported target type {type(target).__name__}")

    stacked = w_star.ndim == 2
    anchors = w_star.reshape(-1, 1, w_star.shape[-1])  # (C, 1, d)
    burn = cfg.resolved_burn_in
    trace = np.zeros((len(anchors), cfg.chains, cfg.steps_per_chain))
    boundary_hits = 0
    use_pc = cfg.preconditioner.kind == "rmsprop"

    rngs = [rng_stream(seed, c) for c in range(cfg.chains)]
    w = held(np.repeat(anchors, cfg.chains, axis=1))
    v_acc = np.zeros(w.shape)
    noise = np.empty(w.shape[1:])
    diverged = None

    for t in range(cfg.steps_per_chain):
        losses, grad = losses_grads(w, rngs)
        trace[: len(w), :, t] = losses
        for rng, row in zip(rngs, noise):
            rng.standard_normal(out=row)
        if use_pc:
            w, v_acc = psgld_step(w, grad, anchors[: len(w)], cfg, noise, v_acc, out=w)
        else:
            w = sgld_step(w, grad, anchors[: len(w)], cfg, noise, out=w)
        finite = np.isfinite(w).all(axis=-1)
        if not finite.all():
            # the lowest non-finite row in C order: checkpoint k, chain c
            k, chain = divmod(int(np.argmin(finite)), cfg.chains)
            diverged = ChainDivergedError(chain=chain, step=t, diagnostics=trace[k, :, : t + 1],
                                          checkpoint=k if stacked else None)
            if k == 0:
                raise diverged
            # only the checkpoints below k step on; the step is elementwise
            w, v_acc = held(w[:k]), v_acc[:k]
        if bounds is not None:
            w = bounds.clamp(w)
            at_bound = (w == bounds.lo) | (w == bounds.hi)
            boundary_hits += int(np.count_nonzero(at_bound.any(axis=-1)))
    if diverged is not None:
        raise diverged

    per_chain = trace[..., burn:].mean(axis=-1)
    lam = cfg.nbeta * (per_chain.mean(axis=-1) - baseline)
    estimates = [
        LlcEstimate(
            lambda_hat=float(lam_k),
            per_chain_means=per_chain_k,
            baseline_loss=float(base_k),
            trace=trace_k,
            boundary_hits=boundary_hits,
        )
        for lam_k, per_chain_k, base_k, trace_k in zip(lam, per_chain, baseline, trace)
    ]
    return estimates if stacked else estimates[0]
