import dataclasses

import numpy as np
import pytest

from basinlab import (
    Bounds,
    Landscape,
    LlcConfig,
    LlcEstimate,
    MlpSpec,
    NormalCrossingSpec,
    Preconditioner,
    estimate_llc,
    make_normal_crossing,
    make_quadratic,
    make_teacher_task,
    psgld_step,
    rng_stream,
    sgld_step,
)
from basinlab.errors import ChainDivergedError, InvalidInputError


def gibbs_expectation_quadrature(landscape, nbeta, gamma, n_nodes=400):
    """Oracle: E[K] under exp(-nbeta K - gamma/2 ||w||^2) on a 2-d box, by
    tensor-product Gauss-Legendre quadrature."""
    assert landscape.dim == 2
    lo, hi = landscape.bounds.lo, landscape.bounds.hi
    x1, w1 = np.polynomial.legendre.leggauss(n_nodes)
    nodes1 = 0.5 * (hi[0] - lo[0]) * x1 + 0.5 * (hi[0] + lo[0])
    nodes2 = 0.5 * (hi[1] - lo[1]) * x1 + 0.5 * (hi[1] + lo[1])
    g1, g2 = np.meshgrid(nodes1, nodes2, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
    k = landscape.value(pts)
    log_density = -nbeta * k - 0.5 * gamma * np.sum(pts**2, axis=-1)
    weights = np.outer(w1, w1).ravel()
    density = np.exp(log_density - log_density.max())
    return float(np.sum(weights * density * k) / np.sum(weights * density))


CFG = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1.2e-3, chains=4, steps_per_chain=2000, burn_in=200)


def per_chain_oracle(target, cfg, seed, w_star=None):
    """Reference sampler: chain c runs all its steps before chain c + 1
    starts, one parameter vector per loss/gradient call."""
    if isinstance(target, Landscape):
        w_star = target.minimum if w_star is None else np.asarray(w_star, dtype=float)
        bounds, dim = target.bounds, target.dim

        def loss_grad(w, rng):
            return float(target.value(w)), target.grad(w)

        baseline = float(target.value(w_star))
    else:
        w_star = np.asarray(w_star, dtype=float)
        bounds, dim = None, target.model.n_params

        def loss_grad(w, rng):
            return target.model.loss_and_grad(w, *target.batch(rng, cfg.batch_size))

        rng_base = rng_stream(seed, cfg.chains)
        baseline = float(np.mean([
            target.model.loss_and_grad(w_star, *target.batch(rng_base, cfg.batch_size),
                                       need_grad=False)[0]
            for _ in range(cfg.baseline_batches)]))
    trace = np.zeros((cfg.chains, cfg.steps_per_chain))
    hits = 0
    for c in range(cfg.chains):
        rng = rng_stream(seed, c)
        w = w_star.copy()
        v_acc = np.zeros(dim)
        for t in range(cfg.steps_per_chain):
            trace[c, t], grad = loss_grad(w, rng)
            noise = rng.standard_normal(dim)
            if cfg.preconditioner.kind == "rmsprop":
                w, v_acc = psgld_step(w, grad, w_star, cfg, noise, v_acc)
            else:
                w = sgld_step(w, grad, w_star, cfg, noise)
            if bounds is not None:
                w = bounds.clamp(w)
                hits += bool(np.any((w == bounds.lo) | (w == bounds.hi)))
    per_chain = trace[:, cfg.resolved_burn_in:].mean(axis=1)
    return LlcEstimate(lambda_hat=float(cfg.nbeta * (per_chain.mean() - baseline)),
                       per_chain_means=per_chain, baseline_loss=baseline, trace=trace,
                       boundary_hits=hits)


def per_checkpoint_oracle(task, cfg, seed, w_stars):
    """Reference for a stack of checkpoints: one estimate per checkpoint, in
    order, as the command line made them one call at a time."""
    return [per_chain_oracle(task, cfg, seed, w) for w in w_stars]


def assert_same_estimate(a, b):
    """Every field of two estimates, bit for bit: stricter than a digest."""
    assert a.lambda_hat.hex() == b.lambda_hat.hex()
    assert a.baseline_loss.hex() == b.baseline_loss.hex()
    assert np.array_equal(a.trace, b.trace)
    assert np.array_equal(a.per_chain_means, b.per_chain_means)
    assert a.boundary_hits == b.boundary_hits


class TestSgldStep:
    def test_fixed_point(self):
        cfg = LlcConfig(nbeta=30.0, gamma=0.0, step_size=1e-2, chains=1, steps_per_chain=10)
        w = np.array([0.3, -0.2])
        out = sgld_step(w, np.zeros(2), np.zeros(2), cfg, noise=np.zeros(2))
        assert np.array_equal(out, w)

    def test_pure_diffusion(self):
        cfg = LlcConfig(nbeta=30.0, gamma=2.0, step_size=4e-2, chains=1, steps_per_chain=10)
        w_star = np.array([0.1, 0.1])
        e1 = np.array([1.0, 0.0])
        out = sgld_step(w_star.copy(), np.zeros(2), w_star, cfg, noise=e1)
        assert np.allclose(out, w_star + np.sqrt(4e-2) * e1)

    def test_stationary_variance_matches_ou_law(self):
        # quadratic potential: the chain is an AR(1) whose stationary variance
        # is eps / (1 - a^2) with a = 1 - eps (2 nbeta + gamma) / 2; for small
        # eps this approaches 1 / (2 nbeta + gamma).
        nbeta, gamma, eps = 30.0, 1.0, 1e-3
        cfg = LlcConfig(nbeta=nbeta, gamma=gamma, step_size=eps, chains=1, steps_per_chain=10)
        L = make_quadratic(2)
        rng = rng_stream(21, 0)
        samples = []
        for chain in range(4):
            w = np.zeros(2)
            for t in range(10_000):
                w = L.bounds.clamp(sgld_step(w, L.grad(w), np.zeros(2), cfg, rng.standard_normal(2)))
                if t >= 1000:
                    samples.append(w.copy())
        var = np.array(samples).ravel().var()
        assert abs(var - 1.0 / (2 * nbeta + gamma)) <= 0.10 / (2 * nbeta + gamma)


class TestPsgldStep:
    def test_zero_gradients_reduce_to_sgld_with_unit_stabilizer(self):
        cfg = LlcConfig(
            nbeta=30.0, gamma=2.0, step_size=1e-2, chains=1, steps_per_chain=10,
            preconditioner=Preconditioner(kind="rmsprop", decay=0.9, stabilizer=1.0),
        )
        w_star = np.zeros(2)
        rng_a, rng_b = rng_stream(5, 0), rng_stream(5, 0)
        w_p = np.array([0.4, -0.3])
        w_s = w_p.copy()
        v = np.zeros(2)
        for _ in range(50):
            w_p, v = psgld_step(w_p, np.zeros(2), w_star, cfg, rng_a.standard_normal(2), v)
            w_s = sgld_step(w_s, np.zeros(2), w_star, cfg, rng_b.standard_normal(2))
        assert np.allclose(w_p, w_s, atol=1e-14)

    def test_constant_gradient_fixed_point_scaling(self):
        # equilibrated accumulator v = g^2 (nbeta 1): drift is the sgld drift
        # scaled per coordinate by 1 / (|g| + stabilizer)
        cfg = LlcConfig(
            nbeta=1.0, gamma=0.7, step_size=1e-2, chains=1, steps_per_chain=10,
            preconditioner=Preconditioner(kind="rmsprop", decay=0.5, stabilizer=1.0),
        )
        g = np.array([3.0, 0.5])
        w_star = np.zeros(2)
        w = np.array([0.2, -0.1])
        v = np.zeros(2)
        for _ in range(200):  # let the moving average converge at fixed w
            _, v = psgld_step(w, g, w_star, cfg, np.zeros(2), v)
        w_pre, _ = psgld_step(w, g, w_star, cfg, np.zeros(2), v)
        w_sgld = sgld_step(w, g, w_star, cfg, np.zeros(2))
        scale = 1.0 / (np.abs(g) + 1.0)
        assert np.allclose(w_pre - w, (w_sgld - w) * scale, atol=1e-9)

    def test_noise_scaled_by_sqrt_preconditioner(self):
        cfg = LlcConfig(
            nbeta=1.0, gamma=0.0, step_size=1e-2, chains=1, steps_per_chain=10,
            preconditioner=Preconditioner(kind="rmsprop", decay=0.5, stabilizer=1.0),
        )
        g = np.array([3.0, 0.5])
        v = np.zeros(2)
        for _ in range(200):
            _, v = psgld_step(np.zeros(2), g, np.zeros(2), cfg, np.zeros(2), v)
        noise = np.array([1.0, 1.0])
        with_noise, _ = psgld_step(np.zeros(2), g, np.zeros(2), cfg, noise, v)
        without, _ = psgld_step(np.zeros(2), g, np.zeros(2), cfg, np.zeros(2), v)
        scale = 1.0 / (np.abs(g) + 1.0)
        assert np.allclose(with_noise - without, np.sqrt(1e-2 * scale), atol=1e-9)

    def test_balances_anisotropic_curvatures(self):
        # curvatures 1 and 100: per-coordinate loss shares should even out
        # under preconditioning but differ by > 5x for plain sgld at the same
        # step size (which is too coarse for the stiff coordinate)
        bounds = Bounds.symmetric(2, 4.0)
        L = Landscape(
            dim=2, bounds=bounds,
            value=lambda w: w[..., 0] ** 2 + 100.0 * w[..., 1] ** 2,
            grad=lambda w: np.stack([2.0 * w[..., 0], 200.0 * w[..., 1]], axis=-1),
        )
        eps = 6e-4

        def coord_losses(cfg, steps=120_000, burn=40_000):
            rng = rng_stream(3, 0)
            w = np.zeros(2)
            v = np.zeros(2)
            acc = np.zeros(2)
            n = 0
            for t in range(steps):
                g = L.grad(w)
                noise = rng.standard_normal(2)
                if cfg.preconditioner.kind == "rmsprop":
                    w, v = psgld_step(w, g, np.zeros(2), cfg, noise, v)
                else:
                    w = sgld_step(w, g, np.zeros(2), cfg, noise)
                w = bounds.clamp(w)
                if t >= burn:
                    acc += np.array([w[0] ** 2, 100.0 * w[1] ** 2])
                    n += 1
            return 30.0 * acc / n

        plain = LlcConfig(nbeta=30.0, gamma=1.0, step_size=eps, chains=1, steps_per_chain=10)
        pre = LlcConfig(
            nbeta=30.0, gamma=1.0, step_size=eps, chains=1, steps_per_chain=10,
            preconditioner=Preconditioner(kind="rmsprop", decay=0.9998, stabilizer=1.0),
        )
        c_plain = coord_losses(plain)
        c_pre = coord_losses(pre)
        assert max(c_plain) / min(c_plain) > 5.0
        assert max(c_pre) / min(c_pre) < 1.25


class TestEstimateLlc:
    def test_flat_landscape_gives_zero(self):
        flat = Landscape(dim=2, bounds=Bounds.symmetric(2),
                         value=lambda w: np.zeros(np.shape(w)[:-1]), grad=np.zeros_like)
        est = estimate_llc(flat, CFG, seed=0)
        assert abs(est.lambda_hat) < 0.05
        assert est.lambda_hat == 0.0  # identically zero loss

    def test_quadratic_matches_gaussian_closed_form(self):
        est = estimate_llc(make_quadratic(2), CFG, seed=9)
        oracle = (2 / 2) * 30.0 / (30.0 + 0.5)
        assert abs(est.lambda_hat - oracle) <= 0.10 * oracle

    def test_quadratic_matches_quadrature_oracle(self):
        L = make_quadratic(2)
        oracle = 30.0 * gibbs_expectation_quadrature(L, 30.0, 1.0)
        est = estimate_llc(L, CFG, seed=9)
        assert abs(est.lambda_hat - oracle) <= 0.10 * oracle

    def test_singular_landscape_matches_quadrature_oracle(self):
        # degenerate valleys mix slowly; long chains keep the seed scatter
        # well inside the tolerance
        L = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
        oracle = 30.0 * gibbs_expectation_quadrature(L, 30.0, 1.0)
        cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1.2e-3, chains=4,
                        steps_per_chain=12_000, burn_in=1200)
        est = estimate_llc(L, cfg, seed=9)
        assert abs(est.lambda_hat - oracle) <= 0.15 * oracle

    def test_ordering_across_singularity_strengths(self):
        quad = make_quadratic(2)
        k1 = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1,), active_dims=(0,)))
        k12 = make_normal_crossing(NormalCrossingSpec(dim=2, exponents=(1, 2)))
        for seed in range(5):
            vals = [estimate_llc(L, CFG, seed=seed).lambda_hat for L in (quad, k1, k12)]
            assert vals[0] > vals[1] > vals[2]

    def test_estimator_identity_recompute(self):
        # lambda_hat rebuilt from the stored trace and baseline
        est = estimate_llc(make_quadratic(2), CFG, seed=3)
        b = CFG.resolved_burn_in
        assert est.lambda_hat == pytest.approx(
            CFG.nbeta * (est.trace[:, b:].mean() - est.baseline_loss), abs=1e-12)

    def test_localization_strength_shrinks_excursions(self):
        # step size chosen stable for the largest gamma (eps * gamma / 2 < 1)
        bounds = Bounds.symmetric(2)  # a flat potential: only the localization acts
        dists = {}
        for gamma in (300.0, 1e6):
            cfg = LlcConfig(nbeta=30.0, gamma=gamma, step_size=1e-6, chains=1,
                            steps_per_chain=30_000, burn_in=15_000)
            rng = rng_stream(17, 0)
            w = np.zeros(2)
            total = 0.0
            for t in range(30_000):
                w = bounds.clamp(sgld_step(w, np.zeros(2), np.zeros(2), cfg, rng.standard_normal(2)))
                if t >= 15_000:
                    total += np.linalg.norm(w)
            dists[gamma] = total / 15_000
        assert dists[1e6] < dists[300.0]
        # the fast-mixing chain also matches the Gaussian mean-radius law
        # sqrt(pi / (2 gamma)); at gamma 300 the chain is too sluggish at this
        # step size for a tight check
        assert dists[1e6] == pytest.approx(np.sqrt(np.pi / (2 * 1e6)), rel=0.25)

    def test_seed_determinism_bytes(self):
        a = estimate_llc(make_quadratic(2), CFG, seed=5)
        b = estimate_llc(make_quadratic(2), CFG, seed=5)
        assert_same_estimate(a, b)

    def test_different_seeds_differ(self):
        a = estimate_llc(make_quadratic(2), CFG, seed=5)
        b = estimate_llc(make_quadratic(2), CFG, seed=6)
        assert a.lambda_hat != b.lambda_hat

    def test_euler_maruyama_bias_small_and_tracked(self):
        # closed-form AR(1) stationary variance: halving the step size moves
        # the predicted estimate by < 2%, and the sampler tracks the
        # discrete-chain prediction
        nbeta, gamma, d = 30.0, 1.0, 8
        L = make_quadratic(d)

        def predicted(eps):
            a = 1.0 - 0.5 * eps * (2 * nbeta + gamma)
            return nbeta * d * eps / (1.0 - a * a)

        assert abs(predicted(1.2e-3) / predicted(0.6e-3) - 1.0) < 0.02
        cfg = LlcConfig(nbeta=nbeta, gamma=gamma, step_size=1.2e-3, chains=4,
                        steps_per_chain=2000, burn_in=200)
        est = estimate_llc(L, cfg, seed=9)
        assert abs(est.lambda_hat - predicted(1.2e-3)) <= 0.08 * predicted(1.2e-3)

    def test_w_star_outside_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_llc(make_quadratic(2), CFG, seed=0, w_star=np.array([2.0, 0.0]))

    def test_negative_estimate_returned_as_is(self):
        # anchoring off the minimum makes the chains relax downhill, so the
        # posterior mean loss falls below the baseline: a negative estimate
        # is a diagnostic, not an error
        est = estimate_llc(make_quadratic(2), CFG, seed=0, w_star=np.array([0.5, 0.0]))
        assert est.lambda_hat < 0

    def test_diverged_chain_carries_partial_diagnostics(self):
        bad = Landscape(
            dim=2, bounds=Bounds.symmetric(2, 1.0),
            value=lambda w: np.sum(w * w, axis=-1),
            grad=lambda w: np.full_like(np.asarray(w, dtype=float), np.nan),
        )
        with pytest.raises(ChainDivergedError) as e:
            estimate_llc(bad, CFG, seed=0)
        assert e.value.chain == 0 and e.value.step == 0
        assert e.value.diagnostics is not None

    def test_diverged_chain_named_by_earliest_step(self):
        # chains 1 and 2 go non-finite at step 3, chain 0 never: the error
        # names step 3 and the lower of the two chains at that step
        calls = []

        def grad(w):
            g = 2.0 * np.asarray(w, dtype=float)
            if len(calls) == 3:
                g[1:] = np.inf
            calls.append(None)
            return g

        L = Landscape(dim=2, bounds=Bounds.symmetric(2, 1.0),
                      value=lambda w: np.sum(w * w, axis=-1), grad=grad)
        cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1e-3, chains=3, steps_per_chain=10)
        with pytest.raises(ChainDivergedError) as e:
            estimate_llc(L, cfg, seed=0)
        assert (e.value.chain, e.value.step) == (1, 3)
        assert e.value.diagnostics.shape == (3, 4)
        assert np.all(e.value.diagnostics[:, 1:] > 0)

    def test_nonfinite_raises_before_clamping(self):
        # the gradient turns +inf at step 5 inside a box: clamping the state
        # first would pin it to the bound and sample on
        calls = []

        def grad(w):
            g = 2.0 * np.asarray(w, dtype=float)
            if len(calls) == 5:
                g[...] = np.inf
            calls.append(None)
            return g

        L = Landscape(dim=2, bounds=Bounds.symmetric(2, 1.0),
                      value=lambda w: np.sum(w * w, axis=-1), grad=grad)
        cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1e-3, chains=2, steps_per_chain=10)
        with pytest.raises(ChainDivergedError) as e:
            estimate_llc(L, cfg, seed=0)
        assert (e.value.chain, e.value.step) == (0, 5)
        assert e.value.diagnostics.shape == (2, 6) and len(calls) == 6

    def test_clamps_to_bounds(self):
        # a flat potential in a narrow box: unit-variance noise pushes every
        # chain past the walls, so each state evaluated lies in the box and
        # some lie on it
        box = Bounds.symmetric(2, 0.01)
        seen = []

        def value(w):
            seen.extend(np.reshape(w, (-1, 2)))
            return np.zeros(np.shape(w)[:-1])

        L = Landscape(dim=2, bounds=box, value=value, grad=np.zeros_like)
        cfg = LlcConfig(nbeta=1.0, gamma=0.0, step_size=1.0, chains=2, steps_per_chain=20)
        est = estimate_llc(L, cfg, seed=0)
        assert np.all(box.contains(np.array(seen)))
        assert np.any(np.abs(seen) == 0.01)
        assert est.boundary_hits > 0

    def test_trace_rows_align(self):
        est = estimate_llc(make_quadratic(1), LlcConfig(
            nbeta=30.0, gamma=1.0, step_size=1e-3, chains=2, steps_per_chain=50, burn_in=5), seed=0)
        rows = list(est.trace_rows())
        assert len(rows) == 2 * 50
        assert rows[0][:2] == (0, 0)
        assert rows[-1][:2] == (49, 1)


class TestLockstepMatchesPerChainOracle:
    """Chains stepped in lockstep give the records of chains run one by one."""

    @pytest.mark.parametrize("case", ["quadratic-boundary", "normal-crossing", "rmsprop",
                                      "mlp-mse", "mlp-rmsprop"])
    def test_record_equals_oracle(self, case):
        w_star = None
        if case == "quadratic-boundary":
            target = make_quadratic(2, Bounds.symmetric(2, 0.05))
            cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1e-3, chains=3,
                            steps_per_chain=300, burn_in=30)
        elif case == "normal-crossing":
            target = make_normal_crossing(NormalCrossingSpec(dim=3, exponents=(1, 2)))
            cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1.2e-3, chains=4,
                            steps_per_chain=300, burn_in=30)
        elif case == "rmsprop":
            target = make_quadratic(2)
            cfg = LlcConfig(nbeta=30.0, gamma=1.0, step_size=1e-2, chains=3,
                            steps_per_chain=300, burn_in=30,
                            preconditioner=Preconditioner(kind="rmsprop", decay=0.9))
        else:
            target = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=9)
            w_star = target.model.init_params(rng_stream(10, 0))
            kind = "none" if case == "mlp-mse" else "rmsprop"
            cfg = LlcConfig(nbeta=30.0, gamma=300.0, step_size=2e-4, chains=3,
                            steps_per_chain=60, burn_in=6, batch_size=32, baseline_batches=4,
                            preconditioner=Preconditioner(kind=kind))
        est = estimate_llc(target, cfg, seed=11, w_star=w_star)
        assert_same_estimate(est, per_chain_oracle(target, cfg, 11, w_star))
        if case == "quadratic-boundary":
            assert est.boundary_hits > 0


def checkpoint_stack(n, seed=10):
    """A small MLP task and n distinct parameter vectors to anchor at."""
    task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=9)
    rng = rng_stream(seed, 0)
    return task, np.stack([task.model.init_params(rng) for _ in range(n)])


MLP_CFG = LlcConfig(nbeta=30.0, gamma=300.0, step_size=2e-4, chains=3, steps_per_chain=40,
                    burn_in=4, batch_size=32, baseline_batches=12)


def diverge_at(task, when):
    """Make the sampler's gradient infinite for (checkpoint, chain) at the
    step `when` maps it to, counting steps by gradient evaluations. The
    sampler evaluates its chains through the model's plans and reads their
    gradient buffers, so each plan's `run` is wrapped. Returns the list that
    records one entry per gradient evaluation."""
    inner = task.model.plan
    calls = []

    def plan(lead, batch_size):
        p = inner(lead, batch_size)
        if "run" not in vars(p):
            run = p.run

            def run_diverging(x, y, need_grad):
                losses = run(x, y, need_grad)
                if need_grad:
                    for (k, c), t in when.items():
                        # a (d,) w_star steps a (1, chains, d) stack: checkpoint 0
                        if t == len(calls) and k < len(p.grad):
                            p.grad[k, c] = np.inf
                    calls.append(None)
                return losses

            p.run = run_diverging
        return p

    task.model.plan = plan
    return calls


class TestCheckpointStackMatchesPerCheckpointLoop:
    """A (C, d) stack of w_star gives the estimates of one call per checkpoint."""

    @pytest.mark.parametrize("n_ckpt", [1, 3])
    @pytest.mark.parametrize("kind", ["none", "rmsprop"])
    def test_estimates_equal_oracle(self, n_ckpt, kind):
        task, w_stars = checkpoint_stack(n_ckpt)
        cfg = dataclasses.replace(MLP_CFG, preconditioner=Preconditioner(kind=kind))
        ests = estimate_llc(task, cfg, seed=11, w_star=w_stars)
        assert isinstance(ests, list) and len(ests) == n_ckpt
        for est, ref in zip(ests, per_checkpoint_oracle(task, cfg, 11, w_stars)):
            assert_same_estimate(est, ref)

    def test_single_w_star_returns_one_estimate(self):
        task, w_stars = checkpoint_stack(1)
        est = estimate_llc(task, MLP_CFG, seed=11, w_star=w_stars[0])
        assert isinstance(est, LlcEstimate)
        assert_same_estimate(est, estimate_llc(task, MLP_CFG, seed=11, w_star=w_stars)[0])

    def test_bad_stack_shape_rejected(self):
        task, w_stars = checkpoint_stack(2)
        with pytest.raises(InvalidInputError):
            estimate_llc(task, MLP_CFG, seed=0, w_star=w_stars[None])
        with pytest.raises(InvalidInputError):
            estimate_llc(task, MLP_CFG, seed=0, w_star=w_stars[:, :-1])
        with pytest.raises(InvalidInputError):
            estimate_llc(make_quadratic(2), CFG, seed=0, w_star=np.zeros((2, 2)))

    def test_lower_checkpoint_diverging_later_is_raised(self):
        # checkpoint 2 diverges at step 3, checkpoint 1 at step 7: the loop over
        # checkpoints would have stopped at checkpoint 1, so the stack raises
        # its error, with its own chain, step and trace
        task, w_stars = checkpoint_stack(3)
        clean = per_checkpoint_oracle(task, MLP_CFG, 11, w_stars)
        diverge_at(task, {(2, 0): 3, (1, 1): 7})
        with pytest.raises(ChainDivergedError) as e:
            estimate_llc(task, MLP_CFG, seed=11, w_star=w_stars)
        err = e.value
        assert (err.checkpoint, err.chain, err.step) == (1, 1, 7)
        assert str(err) == "chain 1 diverged at step 7"
        assert np.array_equal(err.diagnostics, clean[1].trace[:, :8])

        # the same error as checkpoint 1 sampled alone
        task, _ = checkpoint_stack(3)
        diverge_at(task, {(0, 1): 7})
        with pytest.raises(ChainDivergedError) as alone:
            estimate_llc(task, MLP_CFG, seed=11, w_star=w_stars[1])
        assert (alone.value.checkpoint, alone.value.chain, alone.value.step) == (None, 1, 7)
        assert np.array_equal(alone.value.diagnostics, err.diagnostics)

    def test_checkpoint_zero_raises_at_once(self):
        task, w_stars = checkpoint_stack(3)
        clean = per_checkpoint_oracle(task, MLP_CFG, 11, w_stars)
        calls = diverge_at(task, {(1, 0): 2, (0, 2): 4})
        with pytest.raises(ChainDivergedError) as e:
            estimate_llc(task, MLP_CFG, seed=11, w_star=w_stars)
        assert (e.value.checkpoint, e.value.chain, e.value.step) == (0, 2, 4)
        assert np.array_equal(e.value.diagnostics, clean[0].trace[:, :5])
        assert len(calls) == 5  # no step after the one that diverged


class TestConfigValidation:
    def test_bad_burn_in(self):
        with pytest.raises(InvalidInputError):
            LlcConfig(steps_per_chain=100, burn_in=100)

    def test_bad_step_size(self):
        with pytest.raises(InvalidInputError):
            LlcConfig(step_size=0.0)

    def test_zero_baseline_batches(self):
        with pytest.raises(InvalidInputError):
            LlcConfig(baseline_batches=0)

    @pytest.mark.parametrize("field", ["nbeta", "gamma", "step_size"])
    def test_nan_setting_refused_naming_its_field(self, field):
        # a NaN fails every comparison; the sampler would diverge at step 0 on it
        with pytest.raises(InvalidInputError, match=f"^{field} "):
            LlcConfig(**{field: float("nan")})

    def test_nan_stabilizer_refused_naming_its_field(self):
        with pytest.raises(InvalidInputError, match="^stabilizer "):
            Preconditioner(kind="rmsprop", stabilizer=float("nan"))

    def test_zero_batch_size_refused_naming_its_field(self):
        with pytest.raises(InvalidInputError, match="^batch_size "):
            LlcConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["chains", "steps_per_chain", "batch_size",
                                       "baseline_batches", "burn_in"])
    @pytest.mark.parametrize("value", [2.5, 2.0, float("nan")])
    def test_non_integer_count_refused_naming_its_field(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} "):
            LlcConfig(**{field: value})

    @pytest.mark.parametrize("field", ["chains", "steps_per_chain", "batch_size",
                                       "baseline_batches", "burn_in"])
    def test_bool_count_refused_naming_its_field(self, field):
        # a bool is an Integral, but chains=True was once kept as it was
        with pytest.raises(InvalidInputError, match=f"^{field} "):
            LlcConfig(**{field: True})

    def test_default_burn_in_is_tenth(self):
        cfg = LlcConfig(steps_per_chain=500)
        assert cfg.resolved_burn_in == 50

    def test_defaults_match_small_model_settings(self):
        cfg = LlcConfig()
        assert (cfg.nbeta, cfg.gamma) == (30.0, 300.0)
        assert (cfg.chains, cfg.steps_per_chain) == (4, 200)
        assert (cfg.batch_size, cfg.baseline_batches) == (32, 8)
        assert cfg.preconditioner.kind == "none"
