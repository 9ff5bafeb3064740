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

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainDivergedError, InvalidInputError
from .landscapes import Bounds, Landscape
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
        if self.kind not in ("none", "rmsprop"):
            raise InvalidInputError(f"unknown preconditioner kind {self.kind!r}")
        if not (0.0 < self.decay < 1.0):
            raise InvalidInputError("decay must be in (0, 1)")
        if self.stabilizer <= 0:
            raise InvalidInputError("stabilizer must be positive")


@dataclass(frozen=True)
class LlcConfig:
    """Sampler hyperparameters. Defaults follow the small-model settings used
    throughout the experiments (nbeta 30, gamma 300, 4 chains)."""

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
        if self.nbeta <= 0 or self.step_size <= 0:
            raise InvalidInputError("nbeta and step_size must be positive")
        if self.gamma < 0:
            raise InvalidInputError("gamma must be nonnegative")
        if self.chains < 1 or self.steps_per_chain < 1 or self.baseline_batches < 1:
            raise InvalidInputError("need at least one chain, one step and one baseline batch")
        if self.burn_in is not None and not (0 <= self.burn_in < self.steps_per_chain):
            raise InvalidInputError("burn_in must satisfy 0 <= burn_in < steps_per_chain")

    @property
    def resolved_burn_in(self) -> int:
        return self.steps_per_chain // 10 if self.burn_in is None else self.burn_in


@dataclass
class LlcEstimate:
    lambda_hat: float
    per_chain_means: np.ndarray
    baseline_loss: float
    trace: np.ndarray  # (chains, steps_per_chain) losses, pre-update
    config: LlcConfig
    seed: int
    boundary_hits: int = 0

    @property
    def is_negative(self) -> bool:
        return self.lambda_hat < 0

    def recompute(self) -> float:
        """lambda_hat rebuilt from the stored trace and baseline."""
        b = self.config.resolved_burn_in
        return float(self.config.nbeta * (self.trace[:, b:].mean() - self.baseline_loss))

    def to_record(self) -> str:
        """Deterministic single-line JSON record (trace enters as a digest)."""
        payload = {
            "lambda_hat": repr(self.lambda_hat),
            "per_chain_means": [repr(float(v)) for v in self.per_chain_means],
            "baseline_loss": repr(self.baseline_loss),
            "trace_sha256": hashlib.sha256(
                np.ascontiguousarray(self.trace, dtype="<f8").tobytes()
            ).hexdigest(),
            "seed": self.seed,
            "boundary_hits": self.boundary_hits,
            "config": {
                "nbeta": self.config.nbeta,
                "gamma": self.config.gamma,
                "step_size": self.config.step_size,
                "chains": self.config.chains,
                "steps_per_chain": self.config.steps_per_chain,
                "burn_in": self.config.resolved_burn_in,
                "batch_size": self.config.batch_size,
                "baseline_batches": self.config.baseline_batches,
                "preconditioner": self.config.preconditioner.kind,
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def trace_rows(self):
        """(step, chain, loss) rows for CSV export."""
        for c in range(self.trace.shape[0]):
            for t in range(self.trace.shape[1]):
                yield t, c, float(self.trace[c, t])


def _require_finite(w_new: np.ndarray) -> None:
    """Raise ChainDivergedError unless every coordinate is finite. For a
    (chains, d) stack it names the lowest non-finite row; the step is left -1
    for the caller to fill in."""
    if not np.all(np.isfinite(w_new)):
        chain = int(np.argmin(np.isfinite(w_new).all(axis=-1))) if w_new.ndim > 1 else -1
        raise ChainDivergedError(chain=chain, step=-1)


def sgld_step(
    w: np.ndarray,
    grad_loss: np.ndarray,
    w_star: np.ndarray,
    cfg: LlcConfig,
    noise: np.ndarray,
    bounds: Bounds | None = None,
) -> np.ndarray:
    """One Langevin step against the tempered, localized potential.

    w' = w - (eps/2) [nbeta * grad_loss + gamma (w - w*)] + sqrt(eps) * noise,
    clamped to the bounds when given. Elementwise, so w, grad_loss and noise
    may be (chains, d) stacks that step every chain at once.
    """
    eps = cfg.step_size
    drift = cfg.nbeta * grad_loss + cfg.gamma * (w - w_star)
    w_new = w - 0.5 * eps * drift + np.sqrt(eps) * noise
    _require_finite(w_new)
    return bounds.clamp(w_new) if bounds is not None else w_new


def psgld_step(
    w: np.ndarray,
    grad_loss: np.ndarray,
    w_star: np.ndarray,
    cfg: LlcConfig,
    noise: np.ndarray,
    v_acc: np.ndarray,
    bounds: Bounds | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Preconditioned Langevin step; returns (new point, updated accumulator).

    The accumulator is updated first, then the drift is scaled per coordinate
    by 1/(sqrt(v) + stabilizer) and the noise by the square root of the same
    factor. The curvature correction term of the full preconditioned scheme
    is omitted.
    """
    pc = cfg.preconditioner
    eps = cfg.step_size
    tempered = cfg.nbeta * grad_loss
    v_new = pc.decay * v_acc + (1.0 - pc.decay) * tempered**2
    scale = 1.0 / (np.sqrt(v_new) + pc.stabilizer)
    drift = tempered + cfg.gamma * (w - w_star)
    w_new = w - 0.5 * eps * scale * drift + np.sqrt(eps * scale) * noise
    _require_finite(w_new)
    return (bounds.clamp(w_new) if bounds is not None else w_new), v_new


def estimate_llc(
    target: Landscape | MlpTask,
    cfg: LlcConfig,
    seed: int,
    w_star: np.ndarray | None = None,
) -> LlcEstimate:
    """Estimate the local learning coefficient at w_star.

    Chains start at w_star and draw from per-chain streams (stream c for
    chain c), so the result is deterministic per seed. The chains step in
    lockstep as one (chains, d) array: each step evaluates every chain's loss
    and gradient in one call, then chain c draws its noise from stream c
    (after its minibatch, for MLP targets), the same draws in the same order
    as running the chains one after another. The reduction averages chains
    in index order. Negative estimates are returned as-is and flagged, not
    clipped. Raises ChainDivergedError (with the partial trace of every
    chain attached) at the earliest step at which a chain produces a
    non-finite state, naming the lowest such chain at that step.
    """
    if isinstance(target, Landscape):
        if w_star is None:
            w_star = target.minimum
        w_star = np.asarray(w_star, dtype=float)
        if not bool(target.bounds.contains(w_star)):
            raise InvalidInputError("w_star outside the parameter bounds")
        bounds = target.bounds
        dim = target.dim

        def losses_grads(w, rngs):
            return target.value(w), target.grad(w)

        baseline = float(target.value(w_star))
    elif isinstance(target, MlpTask):
        if w_star is None:
            raise InvalidInputError("mlp targets need an explicit w_star")
        w_star = np.asarray(w_star, dtype=float)
        bounds = None
        dim = target.model.n_params

        def losses_grads(w, rngs):
            return target.model.losses_and_grads(w, *target.batches(rngs, cfg.batch_size))

        rng_base = rng_stream(seed, cfg.chains)
        baseline = float(
            np.mean(
                [
                    target.model.loss(w_star, *target.batch(rng_base, cfg.batch_size))
                    for _ in range(cfg.baseline_batches)
                ]
            )
        )
    else:
        raise InvalidInputError(f"unsupported target type {type(target).__name__}")

    burn = cfg.resolved_burn_in
    trace = np.zeros((cfg.chains, cfg.steps_per_chain))
    boundary_hits = 0
    use_pc = cfg.preconditioner.kind == "rmsprop"

    rngs = [rng_stream(seed, c) for c in range(cfg.chains)]
    w = np.tile(w_star, (cfg.chains, 1))
    v_acc = np.zeros((cfg.chains, dim))
    noise = np.empty((cfg.chains, dim))
    for t in range(cfg.steps_per_chain):
        losses, grad = losses_grads(w, rngs)
        trace[:, t] = losses
        for rng, row in zip(rngs, noise):
            rng.standard_normal(out=row)
        try:
            if use_pc:
                w, v_acc = psgld_step(w, grad, w_star, cfg, noise, v_acc, bounds)
            else:
                w = sgld_step(w, grad, w_star, cfg, noise, bounds)
        except ChainDivergedError as e:
            raise ChainDivergedError(chain=e.chain, step=t, diagnostics=trace[:, : t + 1])
        if bounds is not None:
            at_bound = (w == bounds.lo) | (w == bounds.hi)
            boundary_hits += int(np.count_nonzero(at_bound.any(axis=1)))

    per_chain = trace[:, burn:].mean(axis=1)
    lam = float(cfg.nbeta * (per_chain.mean() - baseline))
    return LlcEstimate(
        lambda_hat=lam,
        per_chain_means=per_chain,
        baseline_loss=baseline,
        trace=trace,
        config=cfg,
        seed=seed,
        boundary_hits=boundary_hits,
    )
