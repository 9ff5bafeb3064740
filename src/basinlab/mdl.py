"""Two-part codes on a finite outcome space.

The sender and receiver share an epsilon-net of model distributions. A
hypothesis is coded with log(Vol(W) / V^R) nats, where V^R is the exact
parameter volume mapping into the reversed-KL ball around the chosen net
center, so hypotheses that occupy more parameter volume get shorter codes.
The data are then coded with the chosen center, and the redundancy of the
whole message decomposes exactly as code_length + n * K_n(center).

Also here: numerical validators for the inequalities that make the KL
divergence behave like a squared metric on the restricted simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import SingularBernoulli
from .errors import CoveringFailureError, InvalidInputError, is_integer, require
from .rng import rng_stream
from .simplex import kl, kl_bernoulli
from .volume import mc_volumes

# Candidate grids are spaced at GRID_FACTOR of the smallest ball radius and the
# net is built at BUILD_MARGIN * epsilon, so that covering the candidate set
# implies covering the continuum at the full epsilon (checked exactly below).
_BUILD_MARGIN = 0.9
_GRID_FACTOR = 0.04
_MAX_CANDIDATES = 200_000


@dataclass
class EpsilonNet:
    """Finite set of model distributions covering the image within KL epsilon.

    Centers are Bernoulli success probabilities; `edges[i]` is the interval
    (lo, hi) of p that the ball {p : KL(p || center_i) <= epsilon} spans,
    `vr_volumes[i]` its exact parameter volume Vol{w : lo <= p_w <= hi}, and
    `code_lengths[i]` is log(Vol(W) / vr_volumes[i]) in nats (non-negative,
    zero when one center covers every parameter).
    """

    epsilon: float
    thetas: np.ndarray
    edges: np.ndarray
    vr_volumes: np.ndarray
    code_lengths: np.ndarray
    total_volume: float

    @property
    def n_centers(self) -> int:
        return len(self.thetas)

    @property
    def overlap_mass(self) -> float:
        """Sum of V^R over centers relative to Vol(W); 1 would mean a partition."""
        return float(self.vr_volumes.sum() / self.total_volume)

    def nearest(self, theta: float) -> int:
        """Index of the center minimizing KL(Bernoulli(theta) || center).

        Ties resolve to the lowest center index.
        """
        return int(np.argmin(kl_bernoulli(theta, self.thetas)))


@dataclass
class RedundancyRun:
    """One two-part coding experiment. All lengths in nats."""

    code_length: float
    excess_data_nats: float
    redundancy: float
    theta_star: float


def _candidate_thetas(model: SingularBernoulli, epsilon: float) -> np.ndarray:
    lo, hi = model.image_interval()
    g_min = min(lo * (1 - lo), hi * (1 - hi))
    r_min = np.sqrt(2.0 * epsilon * g_min)
    n = int(np.ceil((hi - lo) / (_GRID_FACTOR * r_min))) + 1
    n = max(2, min(n, _MAX_CANDIDATES))
    return np.linspace(lo, hi, n)


def _ball_edges(centers, radius, image: tuple[float, float], reverse: bool = True):
    """Edges (lo, hi) of the KL balls around `centers`, clipped to `image`.

    The ball of center t is {p : KL(p || t) <= radius} when `reverse` (a net
    ball) and {p : KL(t || p) <= radius} otherwise (a sandwich ball); centers
    and radii broadcast. Either ball is an interval of p around t, because
    the KL is convex in p with its zero at t. One vectorized float bisection
    per side runs until its two brackets are adjacent floats, so each edge
    passes the predicate kl_bernoulli(...) <= radius and the next float
    outward fails it, unless the edge is the clip bound.
    """
    t, r = (np.tile(x.ravel(), 2) for x in np.broadcast_arrays(
        np.asarray(centers, dtype=float), np.asarray(radius, dtype=float)))
    k = len(t) // 2

    def inside(p):
        return (kl_bernoulli(p, t) if reverse else kl_bernoulli(t, p)) <= r

    outer = np.repeat(np.asarray(image, dtype=float), k)  # failing bracket
    inner = np.where(inside(outer), outer, t)  # passing bracket
    while (active := np.nextafter(outer, inner) != inner).any():
        mid = 0.5 * (inner + outer)  # strictly between two non-adjacent floats
        ok = inside(mid)
        inner = np.where(active & ok, mid, inner)
        outer = np.where(active & ~ok, mid, outer)
    return inner[:k], inner[k:]


def _check_covering(thetas, lo, hi, image: tuple[float, float], epsilon: float) -> None:
    """Raise CoveringFailureError unless the balls [lo_i, hi_i] around
    `thetas` hold every float of `image`.

    Taken in order of their left edges, each ball must start no later than
    the float after the farthest point, `reach`, that the balls before it
    have reached. Sentinels one float outside the image stand for its ends.
    """
    order = np.argsort(lo, kind="stable")
    starts = np.append(lo[order], np.nextafter(image[1], np.inf))
    reach = np.maximum.accumulate(np.insert(hi[order], 0, np.nextafter(image[0], -np.inf)))
    gaps = np.flatnonzero(np.nextafter(reach, np.inf) < starts)
    if len(gaps):
        g = gaps[0]
        before = float(thetas[order[np.argmax(hi[order[:g]])]]) if g else None
        after = float(thetas[order[g]]) if g < len(order) else None
        raise CoveringFailureError(
            (float(np.nextafter(reach[g], np.inf)), float(np.nextafter(starts[g], -np.inf))),
            (before, after), epsilon)


def build_eps_net(model: SingularBernoulli, epsilon: float) -> EpsilonNet:
    """Construct, check, and weigh an epsilon-net for the model image.

    Greedy farthest-point covering over a dense grid of the image. Each
    center's ball {p : KL(p || t) <= epsilon} is an interval of p (see
    `_ball_edges`), so the covering property (every model distribution
    within KL epsilon of some center) holds exactly when the sorted balls
    tile image_interval(). A stretch of floats that no ball holds raises
    CoveringFailureError naming it and its neighboring centers. Each V^R is
    the closed-form parameter volume of its interval; nothing is sampled.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    cands = _candidate_thetas(model, epsilon)
    eps_build = _BUILD_MARGIN * epsilon

    # Greedy farthest-point covering of the candidate grid.
    center_idx = [0]
    dist = kl_bernoulli(cands, cands[0])
    while dist.max() > eps_build:
        j = int(np.argmax(dist))
        center_idx.append(j)
        dist = np.minimum(dist, kl_bernoulli(cands, cands[j]))
    thetas = cands[np.sort(center_idx)]

    image = model.image_interval()
    lo, hi = _ball_edges(thetas, epsilon, image)
    _check_covering(thetas, lo, hi, image, epsilon)
    vr = model.interval_volume(lo, hi)
    total = model.bounds.volume()
    return EpsilonNet(epsilon=float(epsilon), thetas=thetas, edges=np.stack([lo, hi], axis=1),
                      vr_volumes=vr, code_lengths=np.log(total / vr), total_volume=total)


def mc_ball_volumes(model: SingularBernoulli, net: EpsilonNet, samples: int, seed: int):
    """Monte Carlo estimates of the net's V^R, a cross-check of the exact ones.

    Counts `samples` uniform parameter draws from rng_stream(seed, 2) into
    each ball's exact edges, with one sort and two searchsorted calls per
    chunk. Returns (volumes, standard_errors) as volume.mc_volumes does.
    """
    lo, hi = net.edges.T

    def count(w):
        p = model.prob_one(w)
        p.sort()
        return np.searchsorted(p, hi, side="right") - np.searchsorted(p, lo)

    return mc_volumes(model.bounds, samples, rng_stream(seed, 2), count)


def two_part_redundancy(
    model: SingularBernoulli,
    theta_q: float,
    n: int,
    a: float = 1.0,
    seed: int = 0,
    net: EpsilonNet | None = None,
) -> RedundancyRun:
    """Run the two-part code once at grid tolerance epsilon = a / n.

    Draws n i.i.d. bits with P(one) = theta_q, a point of the model image,
    forms the maximum-likelihood distribution in the image (empirical
    frequency clamped to the image interval), sends the nearest net center,
    and assembles the redundancy as code_length + n * K_n(center) in nats.
    The net may be passed in to amortize construction across seeds; it must
    have been built at the same tolerance.
    """
    if a <= 0:
        raise InvalidInputError("grid constant a must be positive")
    require(is_integer(n) and n >= 1, f"sample size n must be a positive integer, got {n!r}")
    lo, hi = model.image_interval()
    q1 = float(theta_q)
    if not (lo - 1e-12 <= q1 <= hi + 1e-12):
        raise InvalidInputError("q is not realizable in the model image")
    epsilon = a / n
    if net is None:
        net = build_eps_net(model, epsilon)
    elif abs(net.epsilon - epsilon) > 1e-12 * epsilon:
        raise InvalidInputError("provided net was built at a different tolerance")

    f_hat = int(rng_stream(seed, 0).binomial(n, q1)) / n
    idx = net.nearest(float(np.clip(f_hat, lo, hi)))
    theta_star = float(net.thetas[idx])

    # K_n(p*) = (1/n) sum_i log q(x_i)/p*(x_i), from the sufficient counts.
    k_n = f_hat * np.log(q1 / theta_star) + (1 - f_hat) * np.log((1 - q1) / (1 - theta_star))
    code_length = float(net.code_lengths[idx])
    excess = float(n * k_n)
    return RedundancyRun(code_length=code_length, excess_data_nats=excess,
                         redundancy=code_length + excess, theta_star=theta_star)


# ---------------------------------------------------------------------------
# numerical validators for the restricted-simplex KL inequalities
# ---------------------------------------------------------------------------


@dataclass
class BoundsCheck:
    lower: np.ndarray
    value: np.ndarray
    upper: np.ndarray
    passed: np.ndarray


@dataclass
class TriangleCheck:
    lhs: np.ndarray
    rhs: np.ndarray
    constant: float
    passed: np.ndarray


@dataclass
class InclusionCheck:
    v_inner: float
    v_reversed: float
    v_outer: float
    passed_pointwise: bool
    passed_volumes: bool


_AUDIT_SLACK = 1e-9


# A validator checks probability rows (..., k), one instance each, in one call; each
# field but the triangle constant is an array over the rows (1 row for one instance).
def _rows(*dists) -> list[np.ndarray]:
    return [np.asarray(d, dtype=float) for d in dists]


def _require_restricted(m_simplex: float, **rows):
    if m_simplex <= 0:
        raise InvalidInputError("the simplex lower bound m must be positive")
    for name, r in rows.items():
        if np.any(r < m_simplex - 1e-12):
            raise InvalidInputError(f"{name} is outside the restricted simplex (m={m_simplex})")


def validate_kl_l2(q, p, m_simplex: float) -> BoundsCheck:
    """Check (1/2)||p-q||^2 <= KL(q||p) <= (1/(2m))||p-q||^2."""
    q, p = _rows(q, p)
    _require_restricted(m_simplex, q=q, p=p)
    sq = np.sum((p - q) ** 2, axis=-1)
    val = kl(q, p)
    lower = 0.5 * sq
    upper = sq / (2.0 * m_simplex)
    return BoundsCheck(lower, val, upper,
                       (lower - _AUDIT_SLACK <= val) & (val <= upper + _AUDIT_SLACK))


def validate_triangle(q, p, p2, m_simplex: float) -> TriangleCheck:
    """Check KL(p||p2) <= C * (KL(q||p) + KL(q||p2)) with C = 1/(2m)."""
    q, p, p2 = _rows(q, p, p2)
    _require_restricted(m_simplex, q=q, p=p, p2=p2)
    c = 1.0 / (2.0 * m_simplex)
    lhs = kl(p, p2)
    rhs = c * (kl(q, p) + kl(q, p2))
    return TriangleCheck(lhs, rhs, c, lhs <= rhs + _AUDIT_SLACK)


def validate_variance_bound(q, p) -> BoundsCheck:
    """Check (c - KL) KL <= Var_q[log q/p] <= (c' - KL) KL.

    c = 2 / max(1, e^-m_inf) and c' = 2 / min(1, e^-M), where M and m_inf are
    the sup and inf of the log ratio; both must be finite.
    """
    q, p = _rows(q, p)
    if np.any(q <= 0) or np.any(p <= 0):
        raise InvalidInputError("log ratio must be finite on the whole outcome space")
    ell = np.log(q / p)
    d = kl(q, p)
    variance = np.sum(q * ell**2, axis=-1) - d * d
    c = 2.0 / np.maximum(1.0, np.exp(-ell.min(axis=-1)))
    c_prime = 2.0 / np.minimum(1.0, np.exp(-ell.max(axis=-1)))
    lower = (c - d) * d
    upper = (c_prime - d) * d
    return BoundsCheck(lower, variance, upper,
                       (lower - _AUDIT_SLACK <= variance) & (variance <= upper + _AUDIT_SLACK))


def validate_volume_inclusions(
    model: SingularBernoulli,
    theta_q: float,
    theta_star: float,
    epsilon: float,
) -> InclusionCheck:
    """Check the volume sandwich V_q(eps) <= V^R_{p*}(C eps) <= V_q(C(C+1)/2 eps).

    Requires KL(q || p*) <= epsilon; C = 1/m_simplex (twice the triangle
    constant). V_q(r) is the volume of {w : KL(q || p_w) <= r} and V^R that
    of {w : KL(p_w || p*) <= r}; each set is an interval of p (see
    `_ball_edges`), so all three volumes are exact. `passed_pointwise` says
    the three intervals are nested, `passed_volumes` that the three volumes
    are ordered as the sandwich states.
    """
    d_qstar = float(kl_bernoulli(theta_q, theta_star))
    if d_qstar > epsilon:
        raise InvalidInputError(
            f"precondition KL(q||p*) <= epsilon violated ({d_qstar:.3e} > {epsilon:.3e})"
        )
    c = 1.0 / model.m_simplex
    image = model.image_interval()
    (lo_in, lo_out), (hi_in, hi_out) = _ball_edges(
        theta_q, [epsilon, 0.5 * c * (c + 1.0) * epsilon], image, reverse=False)
    (lo_rev,), (hi_rev,) = _ball_edges(theta_star, c * epsilon, image)
    v_in, v_rev, v_out = model.interval_volume(
        [lo_in, lo_rev, lo_out], [hi_in, hi_rev, hi_out]).tolist()
    return InclusionCheck(
        v_inner=v_in, v_reversed=v_rev, v_outer=v_out,
        passed_pointwise=bool(lo_out <= lo_rev <= lo_in and hi_in <= hi_rev <= hi_out),
        passed_volumes=v_in <= v_rev <= v_out,
    )
