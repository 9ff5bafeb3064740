"""Exception types shared across the library.

ValueError subclasses signal bad inputs or configuration (CLI exit code 1),
RuntimeError subclasses signal numerical failures during a run (exit code 2).
"""

from numbers import Integral


class InvalidInputError(ValueError):
    """Input violates a documented precondition (shape, finiteness, range)."""


def require(holds, message: str) -> None:
    """Raise InvalidInputError(message) unless `holds`, a rule that a NaN breaks."""
    if not holds:
        raise InvalidInputError(message)


def is_integer(value) -> bool:
    """Whether `value` is an integer: any Integral, numpy's included, but a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class ConfigError(ValueError):
    """Experiment configuration is missing or has an invalid key."""

    def __init__(self, key: str, message: str = ""):
        self.key = key
        super().__init__(f"config key {key!r}: {message}" if message else f"config key {key!r} invalid")


class RankDeficiencyError(ValueError):
    """Design matrix of a least-squares fit is rank deficient."""


class InsufficientDataError(ValueError):
    """Too few rows or points remain after filtering to produce a result."""


class FitWindowError(ValueError):
    """Not enough usable points in the scaling-fit window."""


class TrainingDivergedError(RuntimeError):
    """SGD training loss became non-finite or exceeded the divergence cap. In a
    prune retraining, `keep_fraction` names the run."""

    def __init__(self, step: int, loss: float, keep_fraction: float | None = None):
        self.step = step
        self.loss = loss
        self.keep_fraction = keep_fraction
        where = "" if keep_fraction is None else f" while retraining keep fraction {keep_fraction}"
        super().__init__(f"training diverged at step {step} (loss={loss}){where}")


class ChainDivergedError(RuntimeError):
    """A sampling chain produced a non-finite state. In a call that samples a
    stack of checkpoints, `checkpoint` is the index of the chain's own; the
    message leaves naming the checkpoint to the caller."""

    def __init__(self, chain: int, step: int, diagnostics=None, checkpoint: int | None = None):
        self.chain = chain
        self.step = step
        self.diagnostics = diagnostics
        self.checkpoint = checkpoint
        super().__init__(f"chain {chain} diverged at step {step}")


class UnreachableToleranceError(RuntimeError):
    """A critical-threshold search could not bracket the loss tolerance."""


class QuantizationFailedError(RuntimeError):
    """The clamp search met non-finite parameters, or every candidate clamp
    value produced a non-finite quantized loss."""


class CoveringFailureError(RuntimeError):
    """Some model distributions lie farther than KL epsilon from every net center.

    `gap` holds the first and last uncovered p of one stretch of the image;
    `neighbors` are the centers whose balls end just before and begin just
    after it (None at an end of the image).
    """

    def __init__(self, gap: tuple[float, float], neighbors: tuple, epsilon: float):
        self.gap = gap
        self.neighbors = neighbors
        self.epsilon = epsilon
        near = " and ".join(f"p={c:.9g}" for c in neighbors if c is not None)
        super().__init__(
            f"covering failed: p in [{gap[0]:.9g}, {gap[1]:.9g}] lies farther than KL "
            f"epsilon {epsilon:.3e} from every center, between the balls of {near}"
        )
