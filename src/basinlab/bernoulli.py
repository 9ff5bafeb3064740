"""A two-parameter Bernoulli family with a degenerate truth.

The model maps w = (w1, w2) in a box to Bernoulli(1/2 + w1*w2). The true
distribution is the uniform one, reached everywhere on the cross {w1*w2 = 0},
so the KL landscape has a product-type zero set: its sublevel volumes scale
like sqrt(eps) with a log(1/eps) enhancement (exponent 1/2, multiplicity 2).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .landscapes import Bounds, Landscape
from .simplex import kl_bernoulli


class SingularBernoulli:
    """Bernoulli model p_w(1) = 1/2 + w1*w2 on a box [-h1, h1] x [-h2, h2]
    inside the restricted simplex."""

    truth = 0.5  # the true P(one): the uniform distribution

    def __init__(self, bounds: Bounds | None = None, m_simplex: float = 0.2):
        bounds = bounds or Bounds.symmetric(2, 0.5)
        if bounds.dim != 2:
            raise InvalidInputError("this model has exactly two parameters")
        if not np.array_equal(bounds.lo, -bounds.hi):
            raise InvalidInputError("the box must be symmetric about 0")
        h = float(np.prod(bounds.hi))  # the image's lower end is 1/2 - h1 h2
        if 0.5 - h < m_simplex:
            raise InvalidInputError(
                f"bounds with h1 h2 = {h} violate the simplex lower bound {m_simplex}"
            )
        self.bounds = bounds
        self.m_simplex = float(m_simplex)

    # -- parameter-to-distribution map ------------------------------------

    def prob_one(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        p = w[..., 0] * w[..., 1]
        p += 0.5  # in place: the bits of 0.5 + w1 * w2 without a second array
        return p

    def image_interval(self) -> tuple[float, float]:
        """Range of p_w(1) over W, 1/2 -/+ h1 h2, reached at the corners of the box."""
        h = float(np.prod(self.bounds.hi))
        return 0.5 - h, 0.5 + h

    def interval_volume(self, lo, hi) -> np.ndarray:
        """Vol{w : lo <= p_w <= hi}, exact, vectorized over the interval edges.

        On a box [-h1, h1] x [-h2, h2], |w1 w2| / (h1 h2) is a product of two
        uniforms, so P(|w1 w2| <= x) = u (1 - ln u) with u = x / (h1 h2); the
        law of w1 w2 is symmetric about 0. An empty interval (lo > hi) has
        volume 0 and the whole image has exactly Vol(W).
        """
        scale = float(np.prod(self.bounds.hi))

        def signed_mass(p):  # 2 P(p_w <= p) - 1
            s = np.asarray(p, dtype=float) - 0.5
            u = np.minimum(np.abs(s) / scale, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.sign(s) * np.where(u > 0, u * (1.0 - np.log(u)), 0.0)

        return self.bounds.volume() * np.maximum(signed_mass(hi) - signed_mass(lo), 0.0) / 2

    # -- KL geometry -------------------------------------------------------

    def kl_landscape(self) -> Landscape:
        """KL(truth || p_w) as a Landscape, ground truth (1/2, 2)."""

        def value(w):
            return kl_bernoulli(0.5, self.prob_one(w))

        def grad(w):
            w = np.asarray(w, dtype=float)
            t = self.prob_one(w)
            # d/dt KL(1/2 || Bernoulli(1/2+s)) at s = t - 1/2, with t = 1/2 + w1 w2
            s = t - 0.5
            dk_ds = 0.5 * (1.0 / (0.5 - s) - 1.0 / (0.5 + s))
            g = np.zeros_like(w)
            g[..., 0] = dk_ds * w[..., 1]
            g[..., 1] = dk_ds * w[..., 0]
            return g

        return Landscape(
            dim=2, bounds=self.bounds, value=value, grad=grad,
            true_lambda=0.5, true_multiplicity=2, name="singular-bernoulli-kl",
        )
