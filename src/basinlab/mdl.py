"""Two-part codes on a finite outcome space.

The sender and receiver share an epsilon-net of model distributions. A
hypothesis is coded with log(Vol(W) / V^R) nats, where V^R is the parameter
volume mapping into the reversed-KL ball around the chosen net center, so
hypotheses that occupy more parameter volume get shorter codes. The data are
then coded with the chosen center, and the redundancy of the whole message
decomposes exactly as code_length + n * K_n(center).

Also here: numerical validators for the inequalities that make the KL
divergence behave like a squared metric on the restricted simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bernoulli import SingularBernoulli
from .errors import CoveringFailureError, EmptyBallError, InvalidInputError
from .rng import rng_stream
from .simplex import SimplexDist, kl, kl_bernoulli
from .volume import mc_volumes

# Candidate grids are spaced at GRID_FACTOR of the smallest ball radius and the
# net is built at BUILD_MARGIN * epsilon, so that covering the candidate set
# implies covering the continuum at the full epsilon (audited below).
_BUILD_MARGIN = 0.9
_GRID_FACTOR = 0.04
_MAX_CANDIDATES = 200_000
# Bound on the rounding error of kl_bernoulli: a few ulps of its two terms,
# each at most log(1 / min(t, 1 - t)) in size, is far below this.
_KL_ROUNDING = 1e-12


@dataclass
class EpsilonNet:
    """Finite set of model distributions covering the image within KL epsilon.

    Centers are Bernoulli success probabilities; `vr_volumes[i]` estimates
    Vol{w : KL(p_w || center_i) <= epsilon} and `code_lengths[i]` is
    log(Vol(W) / vr_volumes[i]) in nats (non-negative, zero when one center
    covers every parameter).
    """

    epsilon: float
    thetas: np.ndarray
    vr_volumes: np.ndarray
    code_lengths: np.ndarray
    mc_samples: int
    total_volume: float
    audit_samples: int

    @property
    def n_centers(self) -> int:
        return len(self.thetas)

    @property
    def overlap_mass(self) -> float:
        """Sum of V^R over centers relative to Vol(W); 1 would mean a partition."""
        return float(self.vr_volumes.sum() / self.total_volume)

    def centers(self, lower_bound: float = 0.0) -> list[SimplexDist]:
        return [SimplexDist(np.array([1 - t, t]), lower_bound=lower_bound) for t in self.thetas]

    def nearest(self, theta: float) -> int:
        """Index of the center minimizing KL(Bernoulli(theta) || center).

        Ties resolve to the lowest center index.
        """
        return int(np.argmin(kl_bernoulli(theta, self.thetas)))


@dataclass
class RedundancyRun:
    """One two-part coding experiment. All lengths in nats."""

    n: int
    a: float
    seed: int
    chosen_center: int
    code_length: float
    excess_data_nats: float
    redundancy: float
    theta_hat: float
    theta_star: float

    def recompute(self) -> float:
        return self.code_length + self.excess_data_nats


def _candidate_thetas(model: SingularBernoulli, epsilon: float) -> np.ndarray:
    lo, hi = model.image_interval()
    g_min = min(lo * (1 - lo), hi * (1 - hi))
    r_min = np.sqrt(2.0 * epsilon * g_min)
    n = int(np.ceil((hi - lo) / (_GRID_FACTOR * r_min))) + 1
    n = max(2, min(n, _MAX_CANDIDATES))
    return np.linspace(lo, hi, n)


def _ball_members(x: np.ndarray, thetas: np.ndarray, epsilon: float):
    """Which of the sorted samples x lie in each ball {p : KL(p || t) <= epsilon}.

    A reversed-KL ball is an interval of p containing t, because KL(p || t)
    is convex in p and zero at t. Vectorized bisection over x, on each side
    of every center, finds the run x[start:stop] that lies inside even when
    kl_bernoulli is off by _KL_ROUNDING, and the flanks on either side whose
    membership that error could flip. Only flank samples are tested with the
    predicate kl_bernoulli(p, t) <= epsilon itself, so membership equals the
    predicate on every sample.

    Returns (start, stop, owner, idx): x[start[i]:stop[i]] lie in ball i,
    and so does each flank sample x[idx[j]] in ball owner[j], outside that run.
    """
    k, m = len(thetas), len(x)
    c = np.searchsorted(x, thetas)
    zeros, ends = np.zeros(k, dtype=np.intp), np.full(k, m, dtype=np.intp)
    # Four searches per center, each for the first index whose test holds:
    # left of t the test is KL <= tau, right of t it is KL > tau.
    lo = np.concatenate([zeros, zeros, c, c])
    hi = np.concatenate([c, c, ends, ends])
    t = np.tile(thetas, 4)
    slack = 2.0 * _KL_ROUNDING
    tau = np.repeat([epsilon + slack, epsilon - slack, epsilon - slack, epsilon + slack], k)
    right = np.repeat([False, False, True, True], k)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        found = (kl_bernoulli(x[np.minimum(mid, m - 1)], t) <= tau) != right
        hi = np.where(active & found, mid, hi)
        lo = np.where(active & ~found, mid + 1, lo)
        active = lo < hi
    out_left, start, stop, out_right = lo.reshape(4, k)
    # Flank samples of all centers in one predicate call: x[idx[j]] with center owner[j].
    first = np.concatenate([out_left, stop])
    lengths = np.concatenate([start - out_left, out_right - stop])
    owner = np.repeat(np.tile(np.arange(k), 2), lengths)
    idx = np.arange(lengths.sum()) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    inside = kl_bernoulli(x[idx], thetas[owner]) <= epsilon
    return start, stop, owner[inside], idx[inside]


def _covers(x: np.ndarray, thetas: np.ndarray, epsilon: float) -> bool:
    """True when every sorted sample x lies within KL epsilon of some center."""
    start, stop, _, idx = _ball_members(x, thetas, epsilon)
    depth = np.cumsum(np.bincount(start, minlength=len(x) + 1)
                      - np.bincount(stop, minlength=len(x) + 1))
    covered = depth[:-1] > 0
    covered[idx] = True
    return bool(covered.all())


def build_eps_net(
    model: SingularBernoulli,
    epsilon: float,
    mc_samples: int,
    seed: int,
    audit_samples: int = 10_000,
) -> EpsilonNet:
    """Construct, audit, and weigh an epsilon-net for the model image.

    Greedy farthest-point covering over a dense pushforward grid of the
    image. The covering property (every model distribution within KL epsilon
    of some center) is audited on `audit_samples` uniform parameter draws; a
    violation raises CoveringFailureError with the witness. Each center's
    V^R is then estimated from `mc_samples` uniform draws; a ball that none
    of them hits raises EmptyBallError.

    Both the audit and the volume estimate rest on each ball
    {p : KL(p || t) <= epsilon} being an interval of p around t (the KL is
    convex in p with its zero at t): the draws are sorted once and each
    ball is located by bisection, so the cost is O(N log N + k log N) for N
    draws and k centers instead of O(k N). Membership is decided by the
    same predicate kl_bernoulli(p, t) <= epsilon as a sample-by-sample scan,
    so the counts are identical to one.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    for name, value in (("mc_samples", mc_samples), ("audit_samples", audit_samples)):
        if value < 1:
            raise InvalidInputError(f"{name} must be >= 1")
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

    # Covering audit on fresh uniform parameter draws, at the full epsilon.
    # The per-center distances are computed only to name the witness.
    rng_audit = rng_stream(seed, 1)
    w_audit = model.bounds.sample(rng_audit, audit_samples)
    p_audit = model.prob_one(w_audit)
    if not _covers(np.sort(p_audit), thetas, epsilon):
        d_audit = np.min(
            np.stack([kl_bernoulli(p_audit, t) for t in thetas]), axis=0
        )
        worst = int(np.argmax(d_audit))
        if d_audit[worst] > epsilon:
            raise CoveringFailureError(w_audit[worst], float(d_audit[worst]), epsilon)

    # Reversed-KL ball volumes with common random numbers across centers.
    def count(w):
        p_w = model.prob_one(w)
        p_w.sort()
        start, stop, owner, _ = _ball_members(p_w, thetas, epsilon)
        return stop - start + np.bincount(owner, minlength=len(thetas))

    vr, _ = mc_volumes(model.bounds, mc_samples, rng_stream(seed, 2), count)
    if np.any(vr == 0):
        raise EmptyBallError(float(thetas[vr == 0][0]), epsilon, mc_samples)
    total = model.bounds.volume()
    return EpsilonNet(epsilon=float(epsilon), thetas=thetas, vr_volumes=vr,
                      code_lengths=np.log(total / vr), mc_samples=mc_samples,
                      total_volume=total, audit_samples=audit_samples)


def two_part_redundancy(
    model: SingularBernoulli,
    q: SimplexDist,
    n: int,
    a: float = 1.0,
    mc_samples: int = 1_000_000,
    seed: int = 0,
    net: EpsilonNet | None = None,
    net_seed: int = 0,
) -> RedundancyRun:
    """Run the two-part code once at grid tolerance epsilon = a / n.

    Draws an i.i.d. sample of size n from q, forms the maximum-likelihood
    distribution in the model image (empirical frequency clamped to the
    image interval), sends the nearest net center, and assembles the
    redundancy as code_length + n * K_n(center) in nats. The net may be
    passed in to amortize construction across seeds; it must have been built
    at the same tolerance.
    """
    if a <= 0:
        raise InvalidInputError("grid constant a must be positive")
    lo, hi = model.image_interval()
    q1 = float(q.probs[1])
    if not (lo - 1e-12 <= q1 <= hi + 1e-12):
        raise InvalidInputError("q is not realizable in the model image")
    epsilon = a / n
    if net is None:
        net = build_eps_net(model, epsilon, mc_samples, seed=net_seed)
    elif abs(net.epsilon - epsilon) > 1e-12 * epsilon:
        raise InvalidInputError("provided net was built at a different tolerance")

    rng = rng_stream(seed, 0)
    ones = model.sample_counts(q1, n, rng)
    f_hat = ones / n
    theta_hat = model.mle_theta(ones, n)
    idx = net.nearest(theta_hat)
    theta_star = float(net.thetas[idx])

    # K_n(p*) = (1/n) sum_i log q(x_i)/p*(x_i), from the sufficient counts.
    k_n = f_hat * np.log(q1 / theta_star) + (1 - f_hat) * np.log((1 - q1) / (1 - theta_star))
    code_length = float(net.code_lengths[idx])
    excess = float(n * k_n)
    return RedundancyRun(
        n=n, a=a, seed=seed, chosen_center=idx,
        code_length=code_length, excess_data_nats=excess,
        redundancy=code_length + excess,
        theta_hat=float(theta_hat), theta_star=theta_star,
    )


# ---------------------------------------------------------------------------
# numerical validators for the restricted-simplex KL inequalities
# ---------------------------------------------------------------------------


@dataclass
class BoundsCheck:
    lower: float | np.ndarray
    value: float | np.ndarray
    upper: float | np.ndarray
    passed: bool | np.ndarray


@dataclass
class TriangleCheck:
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    constant: float
    passed: bool | np.ndarray


@dataclass
class FluctuationReport:
    """Empirical distribution of n * (K_n - KL) against the Bernstein tail."""

    n: int
    trials: int
    kl: float
    values: np.ndarray = field(repr=False)
    mean: float = 0.0
    standard_error: float = 0.0
    p99_abs: float = 0.0
    t_grid: np.ndarray = field(default=None, repr=False)
    empirical_tail: np.ndarray = field(default=None, repr=False)
    bernstein_tail: np.ndarray = field(default=None, repr=False)


@dataclass
class InclusionCheck:
    epsilon: float
    constant: float
    v_inner: float
    v_reversed: float
    v_outer: float
    se_inner: float
    se_reversed: float
    se_outer: float
    passed_pointwise: bool
    passed_3se: bool


_AUDIT_SLACK = 1e-9


# A validator takes one SimplexDist per argument, or stacked (n, k) probability
# rows for n instances; each field of its result is then an array over them.
Dists = SimplexDist | np.ndarray


def _rows(*dists: Dists) -> list[np.ndarray]:
    return [d.probs if isinstance(d, SimplexDist) else np.asarray(d, dtype=float) for d in dists]


def _require_restricted(m_simplex: float, **rows):
    if m_simplex <= 0:
        raise InvalidInputError("the simplex lower bound m must be positive")
    for name, r in rows.items():
        if np.any(r < m_simplex - 1e-12):
            raise InvalidInputError(f"{name} is outside the restricted simplex (m={m_simplex})")


def _scalars(*fields):  # Python scalars for one instance, arrays for a stack
    return [f if np.ndim(f) else np.asarray(f).item() for f in fields]


def validate_kl_l2(q: Dists, p: Dists, m_simplex: float) -> BoundsCheck:
    """Check (1/2)||p-q||^2 <= KL(q||p) <= (1/(2m))||p-q||^2."""
    q, p = _rows(q, p)
    _require_restricted(m_simplex, q=q, p=p)
    sq = np.sum((p - q) ** 2, axis=-1)
    val = kl(q, p)
    lower = 0.5 * sq
    upper = sq / (2.0 * m_simplex)
    return BoundsCheck(*_scalars(lower, val, upper,
                                 (lower - _AUDIT_SLACK <= val) & (val <= upper + _AUDIT_SLACK)))


def validate_triangle(q: Dists, p: Dists, p2: Dists, m_simplex: float) -> TriangleCheck:
    """Check KL(p||p2) <= C * (KL(q||p) + KL(q||p2)) with C = 1/(2m)."""
    q, p, p2 = _rows(q, p, p2)
    _require_restricted(m_simplex, q=q, p=p, p2=p2)
    c = 1.0 / (2.0 * m_simplex)
    lhs = kl(p, p2)
    rhs = c * (kl(q, p) + kl(q, p2))
    return TriangleCheck(*_scalars(lhs, rhs, c, lhs <= rhs + _AUDIT_SLACK))


def validate_variance_bound(q: Dists, p: Dists) -> BoundsCheck:
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
    return BoundsCheck(*_scalars(lower, variance, upper, (lower - _AUDIT_SLACK <= variance)
                                 & (variance <= upper + _AUDIT_SLACK)))


def validate_kn_fluctuation(
    q: SimplexDist, p: SimplexDist, n: int, trials: int, seed: int = 0
) -> FluctuationReport:
    """Sample n * (K_n - KL) over many datasets and report its tail behavior.

    K_n is the empirical mean of log q/p over n i.i.d. draws from q. The
    report compares the two-sided empirical tail with the Bernstein-type
    bound 2 exp(-t^2 / (C + M t / 3)), using the exactly computable
    C = n * Var_q[log q/p] and M = max |log q/p - KL|.
    """
    if np.any(p.probs <= 0) or np.any(q.probs <= 0):
        raise InvalidInputError("log ratio must be finite on the whole outcome space")
    rng = rng_stream(seed, 0)
    ell = np.log(q.probs / p.probs)
    d = kl(q, p)
    counts = rng.multinomial(n, q.probs, size=trials)
    k_n = counts @ ell / n
    values = n * (k_n - d)

    variance = float(np.sum(q.probs * ell**2) - d**2)
    big_m = float(np.max(np.abs(ell - d)))
    c_bern = n * variance
    t_grid = np.linspace(0.5, max(1.0, np.percentile(np.abs(values), 99.9)), 24)
    empirical = np.array([(np.abs(values) >= t).mean() for t in t_grid])
    denom = c_bern + big_m * t_grid / 3.0
    with np.errstate(divide="ignore"):
        # degenerate q == p has no fluctuation at all; the bound collapses to 0
        bound = np.where(denom > 0, 2.0 * np.exp(-(t_grid**2) / np.where(denom > 0, denom, 1.0)), 0.0)

    return FluctuationReport(
        n=n, trials=trials, kl=d, values=values,
        mean=float(values.mean()),
        standard_error=float(values.std(ddof=1) / np.sqrt(trials)),
        p99_abs=float(np.percentile(np.abs(values), 99)),
        t_grid=t_grid, empirical_tail=empirical, bernstein_tail=bound,
    )


def validate_volume_inclusions(
    model: SingularBernoulli,
    theta_q: float,
    theta_star: float,
    epsilon: float,
    mc_samples: int,
    seed: int = 0,
) -> InclusionCheck:
    """Check the volume sandwich V_q(eps) <= V^R_{p*}(C eps) <= V_q(C(C+1)/2 eps).

    Requires KL(q || p*) <= epsilon; C = 1/m_simplex (twice the triangle
    constant). The three volumes share one sample set, so when the pointwise
    inclusions hold the ordering of the estimates is exact, not just within
    Monte Carlo error.
    """
    d_qstar = float(kl_bernoulli(theta_q, theta_star))
    if d_qstar > epsilon:
        raise InvalidInputError(
            f"precondition KL(q||p*) <= epsilon violated ({d_qstar:.3e} > {epsilon:.3e})"
        )
    c = 1.0 / model.m_simplex
    outer = 0.5 * c * (c + 1.0) * epsilon

    def count(w):
        p_w = model.prob_one(w)
        kl_q = kl_bernoulli(theta_q, p_w)
        n_inner, n_outer = np.count_nonzero(kl_q <= epsilon), np.count_nonzero(kl_q <= outer)
        del kl_q  # before kl_rev, so one chunk-sized KL array is alive at a time
        n_rev = np.count_nonzero(kl_bernoulli(p_w, theta_star) <= c * epsilon)
        return np.array([n_inner, n_rev, n_outer])

    vols, ses = mc_volumes(model.bounds, mc_samples, rng_stream(seed, 0), count)
    (v_in, v_rev, v_out), (se_in, se_rev, se_out) = vols.tolist(), ses.tolist()
    # Distinct hit counts give distinct volumes, so this compares the counts.
    pointwise = v_in <= v_rev <= v_out
    within = (
        v_in <= v_rev + 3.0 * np.hypot(se_in, se_rev)
        and v_rev <= v_out + 3.0 * np.hypot(se_rev, se_out)
    )
    return InclusionCheck(
        epsilon=epsilon, constant=c,
        v_inner=v_in, v_reversed=v_rev, v_outer=v_out,
        se_inner=se_in, se_reversed=se_rev, se_outer=se_out,
        passed_pointwise=bool(pointwise), passed_3se=bool(within),
    )
