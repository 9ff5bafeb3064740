"""Analytic loss landscapes with known volume-scaling ground truth.

A landscape is a nonnegative excess loss K on a compact box W, with K = 0 at a
reference minimum. The factories here produce the standard geometries: the
regular quadratic bowl (exponent d/2) and normal-crossing monomials
prod_i w_i^(2 k_i), whose scaling exponent is min_i 1/(2 k_i) with
multiplicity the number of indices attaining that minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InvalidInputError


class Bounds:
    """Per-coordinate box [lo_i, hi_i] defining the compact parameter set W."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise InvalidInputError("bounds lo/hi must be 1-d arrays of equal length")
        if np.any(self.lo >= self.hi):
            raise InvalidInputError("bounds must satisfy lo < hi in every coordinate")

    @classmethod
    def symmetric(cls, d: int, half_width: float = 1.0) -> "Bounds":
        return cls(-half_width * np.ones(d), half_width * np.ones(d))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return np.all((w >= self.lo) & (w <= self.hi), axis=-1)

    def clamp(self, w: np.ndarray) -> np.ndarray:
        return np.clip(w, self.lo, self.hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))


@dataclass
class Landscape:
    """Evaluatable excess loss K >= 0 on W, with gradient and optional ground truth.

    `value` and `grad` accept arrays of shape (..., dim) and broadcast over
    leading axes; `grad` returns the same shape as its input.
    """

    dim: int
    bounds: Bounds
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    minimum: np.ndarray | None = None
    true_lambda: float | None = None
    true_multiplicity: int | None = None
    name: str = "landscape"

    def __post_init__(self):
        if self.minimum is None:
            self.minimum = np.zeros(self.dim)
        self.minimum = np.asarray(self.minimum, dtype=float)


@dataclass
class NormalCrossingSpec:
    """Monomial exponents for a normal-crossing landscape.

    `exponents[i]` is the k for active coordinate `active_dims[i]`; coordinates
    not listed are free (K does not depend on them).
    """

    dim: int
    exponents: tuple[int, ...]
    active_dims: tuple[int, ...] = field(default=None)

    def __post_init__(self):
        if self.active_dims is None:
            self.active_dims = tuple(range(len(self.exponents)))
        self.exponents = tuple(int(k) for k in self.exponents)
        self.active_dims = tuple(int(i) for i in self.active_dims)
        if len(self.exponents) == 0:
            raise InvalidInputError("normal-crossing spec needs at least one active coordinate")
        if len(self.exponents) != len(self.active_dims):
            raise InvalidInputError("exponents and active_dims must have the same length")
        if any(k < 1 for k in self.exponents):
            raise InvalidInputError("normal-crossing exponents must be >= 1")
        if len(set(self.active_dims)) != len(self.active_dims):
            raise InvalidInputError("active_dims must be distinct")
        if any(i < 0 or i >= self.dim for i in self.active_dims):
            raise InvalidInputError("active_dims out of range")

    def ground_truth(self) -> tuple[Fraction, int]:
        """Scaling exponent min_i 1/(2 k_i) and the count of indices attaining it."""
        lams = [Fraction(1, 2 * k) for k in self.exponents]
        lam = min(lams)
        return lam, sum(1 for v in lams if v == lam)


def make_quadratic(d: int, bounds: Bounds | None = None) -> Landscape:
    """K(w) = sum w_i^2: the regular bowl, exponent d/2 and multiplicity 1."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    bounds = bounds or Bounds.symmetric(d)
    if bounds.dim != d:
        raise InvalidInputError("bounds dimension does not match d")

    def value(w):
        w = np.asarray(w, dtype=float)
        return np.sum(w * w, axis=-1)

    def grad(w):
        return 2.0 * np.asarray(w, dtype=float)

    return Landscape(
        dim=d, bounds=bounds, value=value, grad=grad,
        true_lambda=d / 2, true_multiplicity=1, name=f"quadratic-d{d}",
    )


def make_normal_crossing(spec: NormalCrossingSpec, bounds: Bounds | None = None) -> Landscape:
    """K(w) = prod over active i of w_i^(2 k_i), other coordinates free."""
    bounds = bounds or Bounds.symmetric(spec.dim)
    if bounds.dim != spec.dim:
        raise InvalidInputError("bounds dimension does not match spec dimension")
    active = np.array(spec.active_dims)
    ks = np.array(spec.exponents)

    def value(w):
        w = np.asarray(w, dtype=float)
        return np.prod(w[..., active] ** (2 * ks), axis=-1)

    def grad(w):
        w = np.asarray(w, dtype=float)
        g = np.zeros_like(w)
        pows = w[..., active] ** (2 * ks)
        for j, (i, k) in enumerate(zip(active, ks)):
            others = np.prod(np.delete(pows, j, axis=-1), axis=-1)
            g[..., i] = 2 * k * w[..., i] ** (2 * k - 1) * others
        return g

    lam, mult = spec.ground_truth()
    kstr = ",".join(str(k) for k in spec.exponents)
    return Landscape(
        dim=spec.dim, bounds=bounds, value=value, grad=grad,
        true_lambda=float(lam), true_multiplicity=mult, name=f"nc-k({kstr})-d{spec.dim}",
    )


def make_flat(d: int, bounds: Bounds | None = None) -> Landscape:
    """K identically zero; useful as a null case for samplers."""
    bounds = bounds or Bounds.symmetric(d)

    def value(w):
        w = np.asarray(w, dtype=float)
        return np.zeros(w.shape[:-1])

    def grad(w):
        return np.zeros_like(np.asarray(w, dtype=float))

    return Landscape(dim=d, bounds=bounds, value=value, grad=grad, name=f"flat-d{d}")
