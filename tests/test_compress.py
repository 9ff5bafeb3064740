import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basinlab import (
    MlpModel,
    MlpSpec,
    MSearchConfig,
    QuantizationSpec,
    add_noise,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    factorize,
    make_teacher_task,
    noise_delta_loss,
    prune_and_retrain,
    quantization_delta_loss,
    quantize,
    quantize_loss_min_m,
    quantize_max_abs,
    rng_stream,
    svd,
    train_sgd,
)
from basinlab.errors import InvalidInputError, UnreachableToleranceError


class TestQuantize:
    def test_hand_example_nq4(self):
        # m=1, n_q=4: delta=1, grid {-1, 0, 1}
        spec = QuantizationSpec(n_q=4, m_clamp=1.0)
        out = quantize(np.array([0.6, -0.26, 1.7]), spec)
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_hand_example_nq8(self):
        # m=0.9, n_q=8: delta=0.3, round(0.44/0.3)=1
        spec = QuantizationSpec(n_q=8, m_clamp=0.9)
        assert quantize(np.array([0.44]), spec)[0] == pytest.approx(0.3)

    def test_idempotent(self):
        rng = rng_stream(0, 0)
        w = rng.uniform(-3, 3, 100)
        spec = QuantizationSpec(n_q=10, m_clamp=1.7)
        once = quantize(w, spec)
        assert np.array_equal(quantize(once, spec), once)

    def test_odd_symmetric(self):
        rng = rng_stream(1, 0)
        w = rng.uniform(-2, 2, 1000)
        spec = QuantizationSpec(n_q=12, m_clamp=1.1)
        assert np.array_equal(quantize(-w, spec), -quantize(w, spec))

    def test_grid_cardinality_and_extremes(self):
        spec = QuantizationSpec(n_q=6, m_clamp=1.0)
        grid = spec.grid()
        assert len(grid) == 5  # n_q - 1 values
        assert 0.0 in grid and 1.0 in grid and -1.0 in grid
        w = np.linspace(-2, 2, 401)
        out = quantize(w, spec)
        assert len(np.unique(out)) <= 5
        assert out.max() == 1.0 and out.min() == -1.0

    @pytest.mark.parametrize("nq", [2, 3, 5, 0, -4])
    def test_invalid_nq_rejected(self, nq):
        with pytest.raises(InvalidInputError):
            QuantizationSpec(n_q=nq, m_clamp=1.0)

    @given(
        w=st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=20),
        half_nq=st.integers(2, 64),
        m=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_properties_hold_for_arbitrary_inputs(self, w, half_nq, m):
        spec = QuantizationSpec(n_q=2 * half_nq, m_clamp=m)
        w = np.array(w)
        q = quantize(w, spec)
        assert np.array_equal(quantize(q, spec), q)
        assert np.array_equal(quantize(-w, spec), -q)
        assert np.all(np.abs(q) <= m * (1 + 1e-12))


class TestLossMinClampSearch:
    def test_on_grid_params_are_lossless(self):
        # params already on the n_q=8 grid for m = max|w|
        spec = QuantizationSpec(n_q=8, m_clamp=0.9)
        params = spec.grid()[[0, 2, 3, 5, 6]]
        loss_eval = lambda w: float(np.sum((w - params) ** 2))
        m_star, dl = quantize_loss_min_m(params, 8, loss_eval)
        assert dl == 0.0
        assert m_star == pytest.approx(0.9)

    def test_one_dim_quadratic_finds_representable_clamp(self):
        # loss (w - 0.5)^2 at w = 0.5 with n_q=4: any m = 0.5 makes 0.5 a grid
        # value, so the searched minimum is exactly lossless
        loss_eval = lambda w: float((w[0] - 0.5) ** 2)
        params = np.array([0.5])
        m_star, dl = quantize_loss_min_m(params, 4, loss_eval)
        assert dl <= 1e-12
        q = quantize(params, QuantizationSpec(n_q=4, m_clamp=m_star))
        assert q[0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_vector_short_circuits(self):
        m_star, dl = quantize_loss_min_m(np.zeros(5), 4, lambda w: float(np.sum(w**2)))
        assert dl == 0.0

    def test_dominates_max_abs_mode(self):
        rng = rng_stream(2, 0)
        for trial in range(100):
            w = rng.uniform(-2, 2, 12)
            a = rng.uniform(0.5, 2.0, 12)
            loss_eval = lambda v: float(np.sum(a * (v - w) ** 2))
            for nq in (4, 8, 16):
                dl_min = quantize_loss_min_m(w, nq, loss_eval, MSearchConfig(grid_points=16))[1]
                dl_max = quantize_max_abs(w, nq, loss_eval)[1]
                assert dl_min <= dl_max + 1e-12


class TestCriticalNq:
    def test_zero_params_floor(self):
        nq = critical_nq(np.zeros(7), 0.5, lambda w: float(np.sum(w**2))).value
        assert nq == 4

    def test_tolerance_above_coarsest(self):
        rng = rng_stream(3, 0)
        w = rng.uniform(-1, 1, 10)
        loss_eval = lambda v: float(np.sum((v - w) ** 2))
        # epsilon larger than the n_q=4 loss increase
        eps = quantization_delta_loss(w, 4, loss_eval) + 1.0
        assert critical_nq(w, eps, loss_eval).value == 4

    def test_matches_exhaustive_scan_on_mlp_checkpoint(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=4, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(2000,))
        for eps in (0.5, 0.25):
            res = critical_nq(ck.params, eps, task.full_loss)
            found = res.value
            scan = next(
                nq for nq in range(4, 200, 2)
                if quantization_delta_loss(ck.params, nq, task.full_loss) <= eps
            )
            assert found == scan
            # the search's own measurement is the one a fresh probe makes
            assert res.delta_loss == quantization_delta_loss(ck.params, res.value, task.full_loss)
            assert res.critical_value == res.value

    def test_unreachable_tolerance_raises(self):
        rng = rng_stream(5, 0)
        w = rng.uniform(-1, 1, 6)
        # loss punishes any deviation at a scale no grid can meet
        loss_eval = lambda v: float(1e9 * np.sum((v - w) ** 2)) if not np.array_equal(v, w) else 0.0
        with pytest.raises(UnreachableToleranceError):
            critical_nq(w, 1e-12, loss_eval, mode="max_abs", nq_cap=256)

    def test_delta_loss_mostly_nonincreasing_in_nq(self):
        # fixed-batch measurement: the curve is non-increasing wherever the
        # loss change is above 2% of its n_q=4 value (the region every
        # critical search operates in); clamp-alignment jitter below that
        # floor keeps the strict fraction around 85-90%
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 256, seed=4, teacher_gain=2.0)
        cks = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                        checkpoint_schedule=(500, 2000))
        for ck in cks:
            dls = [quantization_delta_loss(ck.params, nq, task.full_loss)
                   for nq in range(4, 66, 2)]
            pairs = len(dls) - 1
            strictly_ok = sum(1 for i in range(pairs) if dls[i + 1] <= dls[i] + 1e-12)
            assert strictly_ok >= 0.8 * pairs
            floor = 0.02 * dls[0]
            assert all(dls[i + 1] <= dls[i] + 1e-12
                       for i in range(pairs) if max(dls[i], dls[i + 1]) >= floor)

    def test_returned_value_satisfies_inequality_as_measured(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=6, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=1000, learning_rate=0.05, batch_size=32, seed=2,
                          checkpoint_schedule=(1000,))
        nq = critical_nq(ck.params, 0.5, task.full_loss).value
        assert quantization_delta_loss(ck.params, nq, task.full_loss) <= 0.5
        if nq > 4:
            assert quantization_delta_loss(ck.params, nq - 2, task.full_loss) > 0.5


class TestFactorize:
    def test_full_rank_accounting_and_tiny_loss_change(self):
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        params = model.init_params(rng_stream(7, 0))
        res = factorize(model, params, keep_fraction=1.0)
        d1 = d2 = r = 16
        dense = 4 * 16 + 16 + 16 * 16 + 16 + 16 * 4 + 4
        expect = dense - d1 * d2 + (d1 * r + r + r * d2)
        assert res.compression_fraction == pytest.approx(expect / dense)
        assert np.allclose(res.params, params, atol=1e-8)

    def test_rank_one_matrix_exact(self):
        model = MlpModel(MlpSpec(layer_sizes=(2, 3, 3, 2)))
        layers = model.unpack(model.init_params(rng_stream(8, 0)))
        u = np.array([1.0, -2.0, 0.5])
        layers[1] = (np.outer(u, [0.3, 1.0, -0.7]), layers[1][1])
        params = model.pack(layers)
        res = factorize(model, params, keep_fraction=1 / 3)
        assert res.n_kept == {1: 1}
        assert np.allclose(res.params, params, atol=1e-12)

    def test_truncation_error_matches_retained_spectrum(self):
        # Eckart-Young: Frobenius error is the norm of the dropped tail
        rng = rng_stream(9, 0)
        model = MlpModel(MlpSpec(layer_sizes=(16, 16, 16, 16)))
        params = model.init_params(rng)
        res = factorize(model, params, keep_fraction=0.5, layer_selection=[1])
        w_orig = model.unpack(params)[1][0]
        w_new = model.unpack(res.params)[1][0]
        tail = svd(w_orig).s[8:]
        assert np.linalg.norm(w_orig - w_new) == pytest.approx(np.sqrt(np.sum(tail**2)), rel=1e-10)

    def test_invalid_fraction_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(4, 8, 4)))
        with pytest.raises(InvalidInputError):
            factorize(model, np.zeros(model.n_params), keep_fraction=0.0)


class TestCriticalCompressionFraction:
    def test_rank_deficient_linear_teacher(self):
        # single linear layer whose weight matrix has exact rank 3: the
        # critical keep fraction is the true rank ratio 3/8
        model = MlpModel(MlpSpec(layer_sizes=(8, 8), loss="mse"))
        rng = rng_stream(10, 0)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((3, 8))
        w_true = a @ b
        params = model.pack([(w_true, np.zeros(8))])
        x = rng.standard_normal((256, 8))
        y = model.forward(params, x)
        loss_eval = lambda p: model.loss(p, x, y)
        res = critical_compression_fraction(model, params, epsilon=1e-10, loss_eval=loss_eval,
                                            layer_selection=[0])
        assert res.value == 3 / 8
        assert res.value == pytest.approx(3 / 8)

    def test_bracket_floor(self):
        model = MlpModel(MlpSpec(layer_sizes=(6, 6), loss="mse"))
        params = model.pack([(np.zeros((6, 6)), np.zeros(6))])
        res = critical_compression_fraction(model, params, epsilon=0.5,
                                            loss_eval=lambda p: 0.0, layer_selection=[0])
        assert res.value == 1 / 6

    def test_matches_exhaustive_scan_on_mlp(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 256, seed=11, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=3000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(3000,))
        base = task.full_loss(ck.params)
        eps = 0.1
        res = critical_compression_fraction(task.model, ck.params, eps, task.full_loss)
        scan = next(
            j for j in range(1, 17)
            if task.full_loss(factorize(task.model, ck.params, j / 16).params) - base <= eps
        )
        assert res.value == scan / 16
        fresh = factorize(task.model, ck.params, res.value)
        assert res.delta_loss == task.full_loss(fresh.params) - base
        assert res.critical_value == fresh.compression_fraction


class TestAddNoise:
    def test_zero_sigma_identity(self):
        w = rng_stream(12, 0).standard_normal(20)
        assert np.array_equal(add_noise(w, 0.0, "absolute", seed=0), w)

    def test_relative_mode_fixes_zero_vector(self):
        w = np.zeros(50)
        assert np.array_equal(add_noise(w, 3.0, "relative", seed=1), w)

    def test_absolute_moment(self):
        w = np.zeros(100_000)
        out = add_noise(w, 0.1, "absolute", seed=2)
        assert abs(out.std() - 0.1) <= 0.002

    def test_deterministic_per_seed(self):
        w = np.ones(10)
        assert np.array_equal(add_noise(w, 0.5, "relative", seed=3),
                              add_noise(w, 0.5, "relative", seed=3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            add_noise(np.ones(3), 0.1, "multiplicative", seed=0)


class TestCriticalSigma:
    def test_strict_minimum_with_zero_tolerance_returns_floor(self):
        loss_eval = lambda w: float(np.sum(w**2))
        res = critical_sigma(np.zeros(4), 0.0, "absolute", loss_eval, noise_draws=4, seed=0)
        assert res.value == 1e-6
        assert res.delta_loss == noise_delta_loss(np.zeros(4), 1e-6, "absolute", loss_eval, 4, 0)

    def test_quadratic_closed_form(self):
        # E[dLoss] = sigma^2 for K = w^2 at w* = 0, so sigma* = sqrt(eps)
        loss_eval = lambda w: float(np.sum(w**2))
        eps = 0.04
        sig = critical_sigma(np.zeros(1), eps, "absolute", loss_eval, noise_draws=4096, seed=1).value
        assert sig == pytest.approx(np.sqrt(eps), rel=0.05)

    def test_matches_exhaustive_grid_scan(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=13, teacher_gain=2.0)
        (ck,) = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(2000,))
        eps = 0.5
        res = critical_sigma(ck.params, eps, "relative", task.full_loss, noise_draws=8, seed=2)
        sig = res.value
        assert res.delta_loss == noise_delta_loss(ck.params, sig, "relative", task.full_loss, 8, 2)
        assert res.critical_value == sig
        # oracle: exhaustive geometric grid at 1% resolution with the same draws
        zs = [rng_stream(2, k).standard_normal(ck.params.shape) for k in range(8)]
        base = task.full_loss(ck.params)

        def dl(s):
            return np.mean([task.full_loss(ck.params + ck.params * s * z) for z in zs]) - base

        grid = np.geomspace(1e-6, 10.0, 1600)
        below = [s for s in grid if dl(s) <= eps]
        oracle = max(below)
        # agreement within one grid step
        step = grid[1] / grid[0]
        assert oracle / step <= sig <= oracle * step

    def test_no_crossing_raises(self):
        with pytest.raises(UnreachableToleranceError):
            critical_sigma(np.zeros(3), 1e9, "absolute", lambda w: float(np.sum(w**2)),
                           noise_draws=2, seed=0)


@pytest.fixture(scope="module")
def trained():
    task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 8, 4)), 256, seed=14, teacher_gain=2.0)
    (ck,) = train_sgd(task, steps=3000, learning_rate=0.05, batch_size=32, seed=1,
                      checkpoint_schedule=(3000,))
    return task, ck


class TestPruneAndRetrain:
    def test_keep_all_is_noop_flagged(self, trained):
        task, ck = trained
        res = prune_and_retrain(task, ck.params, keep_fraction=1.0, learning_rate=0.005,
                                retrain_steps=50, seed=0)
        assert res.no_op and res.n_pruned == 0
        assert res.delta_loss <= 1e-9  # retraining can only improve the minimum

    def test_prune_all_units_gives_constant_predictor(self, trained):
        # floor((1 - p) N_h) reaches N_h only once 1 - p rounds to 1.0
        task, ck = trained
        res = prune_and_retrain(task, ck.params, keep_fraction=1e-18, learning_rate=0.005,
                                retrain_steps=0, seed=0)
        assert res.n_pruned == 16
        out = task.model.forward(res.params, task.x)
        assert np.allclose(out, out[0])  # output bias only
        const_loss = task.model.loss(res.params, task.x, task.y)
        assert res.delta_loss == pytest.approx(const_loss - task.full_loss(ck.params), abs=1e-12)

    def test_masked_weights_stay_exactly_zero(self, trained):
        task, ck = trained
        res = prune_and_retrain(task, ck.params, keep_fraction=0.5, learning_rate=0.005,
                                retrain_steps=1000, seed=3)
        assert res.n_pruned == 8
        zero_idx = res.mask == 0.0
        assert np.all(res.params[zero_idx] == 0.0)

    def test_retraining_recovers_some_loss(self, trained):
        task, ck = trained
        raw = prune_and_retrain(task, ck.params, keep_fraction=0.5, learning_rate=0.005,
                                retrain_steps=0, seed=3)
        retrained = prune_and_retrain(task, ck.params, keep_fraction=0.5, learning_rate=0.005,
                                      retrain_steps=1000, seed=3)
        assert retrained.delta_loss <= raw.delta_loss
