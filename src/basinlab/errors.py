"""Exception types shared across the library.

ValueError subclasses signal bad inputs or configuration (CLI exit code 1),
RuntimeError subclasses signal numerical failures during a run (exit code 2).
"""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (shape, finiteness, range)."""


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
    """SGD training loss became non-finite or exceeded the divergence cap."""

    def __init__(self, step: int, loss: float):
        self.step = step
        self.loss = loss
        super().__init__(f"training diverged at step {step} (loss={loss})")


class ChainDivergedError(RuntimeError):
    """A sampling chain produced a non-finite state."""

    def __init__(self, chain: int, step: int, diagnostics=None):
        self.chain = chain
        self.step = step
        self.diagnostics = diagnostics
        super().__init__(f"chain {chain} diverged at step {step}")


class UnreachableToleranceError(RuntimeError):
    """A critical-threshold search could not bracket the loss tolerance."""


class QuantizationFailedError(RuntimeError):
    """Every candidate clamp value produced a non-finite quantized loss."""


class CoveringFailureError(RuntimeError):
    """An audit sample found a model distribution not covered by the net."""

    def __init__(self, witness, distance: float, epsilon: float):
        self.witness = witness
        self.distance = distance
        self.epsilon = epsilon
        super().__init__(
            f"covering audit failed: witness {witness} at KL {distance:.3e} > epsilon {epsilon:.3e}"
        )


class EmptyBallError(RuntimeError):
    """No Monte Carlo draw fell in a net center's ball, so its volume is unknown."""

    def __init__(self, center: float, epsilon: float, mc_samples: int):
        self.center = center
        self.epsilon = epsilon
        self.mc_samples = mc_samples
        super().__init__(
            f"the ball of net center p={center:.6g} at epsilon {epsilon:.3e} drew 0 of "
            f"mc_samples={mc_samples} Monte Carlo samples; raise mc_samples"
        )
