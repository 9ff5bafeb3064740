"""Least-squares regression shared by the scaling fit and the analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError


@dataclass
class FitResult:
    """Least-squares fit. coefficients[0] is the intercept, the rest are slopes."""

    coefficients: np.ndarray
    r_squared: float
    residuals: np.ndarray

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def slope(self) -> float:
        return float(self.coefficients[1])


def linear_fit(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> FitResult:
    """Ordinary (or weighted) least squares of y on [1, x].

    x may be a vector (simple regression) or an (n, k) matrix of regressors.
    A constant response is fit with slope 0 and, by convention, r_squared 0.
    Weights scale the squared residuals; they must be positive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise InvalidInputError("linear_fit needs at least 2 observations")
    if y.shape != (n,):
        raise InvalidInputError(f"x has {n} rows but y has shape {y.shape}")
    design = np.column_stack([np.ones(n), x])

    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,) or np.any(weights <= 0):
            raise InvalidInputError("weights must be positive and match the observation count")
        sw = np.sqrt(weights)
    else:
        sw = np.ones(n)

    rank = np.linalg.matrix_rank(design * sw[:, None])
    if rank < design.shape[1]:
        raise RankDeficiencyError(
            f"design matrix is rank deficient (rank {rank} < {design.shape[1]}); "
            "regressors are degenerate"
        )

    coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    fitted = design @ coef
    residuals = y - fitted

    w = weights if weights is not None else np.ones(n)
    ybar = np.average(y, weights=w)
    ss_res = float(np.sum(w * residuals**2))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(coefficients=coef, r_squared=r_squared, residuals=residuals)
