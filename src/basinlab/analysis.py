"""Cross-experiment analysis: bit budgets and critical-threshold fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .linalg import FitResult, linear_fit


@dataclass
class AnalysisResult:
    """Linear fit of a critical compression value on the complexity estimate."""

    included: np.ndarray
    fit: FitResult

    @property
    def slope(self) -> float:
        return self.fit.slope

    @property
    def intercept(self) -> float:
        return self.fit.intercept

    @property
    def r_squared(self) -> float:
        return self.fit.r_squared


def bits_per_coordinate(lam: float, d: int, epsilon: float, multiplicity: int = 1) -> float:
    """Per-coordinate bit budget at loss tolerance epsilon.

    (lam / d) * log2(1/epsilon) + ((multiplicity - 1) / d) * log2(log(1/epsilon)):
    the leading term plus the explicit multiplicity correction from equating
    the quantization-cell volume with the sublevel-set volume.
    """
    if lam <= 0:
        raise InvalidInputError("lam must be positive")
    if not (0.0 < epsilon < 1.0):
        raise InvalidInputError("epsilon must be in (0, 1)")
    if d < 1 or multiplicity < 1:
        raise InvalidInputError("d and multiplicity must be >= 1")
    lead = (lam / d) * np.log2(1.0 / epsilon)
    if multiplicity == 1:
        return float(lead)
    return float(lead + ((multiplicity - 1) / d) * np.log2(np.log(1.0 / epsilon)))


def measured_bits_per_coordinate(volume: float, total_volume: float, d: int) -> float:
    """Bits per coordinate implied by a measured sublevel volume.

    The critical cell count per coordinate is (Vol(W) / V(eps))^(1/d); taking
    log2 gives the measured bit budget that the volume law predicts.
    """
    if not (0.0 < volume <= total_volume):
        raise InvalidInputError("volume must be in (0, Vol(W)]")
    return float(np.log2(total_volume / volume) / d)


def analyze(
    steps: np.ndarray,
    lambda_hats: np.ndarray,
    critical_values: np.ndarray,
    excluded_steps: tuple[int, ...] = (),
) -> AnalysisResult:
    """Fit critical value against lambda_hat over the non-excluded checkpoints.

    The exclusion mask is explicit configuration, never automatic outlier
    rejection; the result holds it as `included`, one flag per row, beside
    the fit. Needs at least 3 included points.
    """
    steps = np.asarray(steps, dtype=int)
    lam = np.asarray(lambda_hats, dtype=float)
    crit = np.asarray(critical_values, dtype=float)
    if not (len(steps) == len(lam) == len(crit)):
        raise InvalidInputError("steps, lambda_hats, critical_values must align")
    included = ~np.isin(steps, np.asarray(excluded_steps, dtype=int))
    if int(included.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(included.sum())} included checkpoints (need >= 3)"
        )
    fit = linear_fit(lam[included], crit[included])
    return AnalysisResult(included=included, fit=fit)
