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
from functools import reduce
from typing import Callable

import numpy as np

from .errors import InvalidInputError, is_integer, require


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

    def sample(self, rng: np.random.Generator, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n uniform draws, filled into `out` (a C-contiguous (n, dim) float array)
        if given: the draws and end state of rng.uniform(lo, hi, size=(n, dim)),
        whose kernel is lo + (hi - lo) * u."""
        if out is None:
            out = np.empty((n, self.dim))
        rng.random(out=out)
        # column by column: a broadcast (n, d) * (d,) runs one d-long loop per row
        for col, lo, width in zip(out.T, self.lo.tolist(), (self.hi - self.lo).tolist()):
            col *= width
            col += lo
        return out


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
        # each message starts with the field it names
        require(len(self.exponents) > 0, "exponents must name at least one active coordinate")
        require(len(self.exponents) == len(self.active_dims),
                "active_dims must have the length of exponents")
        require(all(is_integer(k) and k >= 1 for k in self.exponents),
                "exponents must be integers >= 1")
        require(len(set(self.active_dims)) == len(self.active_dims), "active_dims must be distinct")
        require(all(is_integer(i) and 0 <= i < self.dim for i in self.active_dims),
                "active_dims must be integers in [0, dim)")
        self.exponents = tuple(int(k) for k in self.exponents)
        self.active_dims = tuple(int(i) for i in self.active_dims)

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
        # column by column, as np.sum adds fewer than 8 terms: the same bits for d <= 7
        w = np.asarray(w, dtype=float)
        v = w[..., 0] * w[..., 0]
        for i in range(1, w.shape[-1]):
            v += w[..., i] * w[..., i]
        return v

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
        # w_i^(2k) as (w_i * w_i)^k by multiplication, no libm pow; product left to right
        w = np.asarray(w, dtype=float)
        return reduce(np.multiply, [reduce(np.multiply, [w[..., i] * w[..., i]] * k)
                                    for i, k in zip(spec.active_dims, spec.exponents)])

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
