import tracemalloc

import numpy as np
import pytest

from basinlab import MlpModel, MlpSpec, estimate_llc, LlcConfig, make_teacher_task, rng_stream
from basinlab.errors import InvalidInputError


def finite_difference_grad(model, params, x, y, indices, h=1e-5):
    g = np.zeros(len(indices))
    for j, i in enumerate(indices):
        pp, pm = params.copy(), params.copy()
        pp[i] += h
        pm[i] -= h
        g[j] = (model.loss(pp, x, y) - model.loss(pm, x, y)) / (2 * h)
    return g


class TestForward:
    def test_param_count(self):
        spec = MlpSpec(layer_sizes=(4, 16, 16, 4))
        assert MlpModel(spec).n_params == 4 * 16 + 16 + 16 * 16 + 16 + 16 * 4 + 4

    def test_pack_unpack_roundtrip(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 5, 2)))
        params = model.init_params(rng_stream(0, 0))
        assert np.array_equal(model.pack(model.unpack(params)), params)

    def test_forward_finite_on_bounded_inputs(self):
        model = MlpModel(MlpSpec(layer_sizes=(4, 8, 4)))
        params = model.init_params(rng_stream(1, 0))
        x = rng_stream(1, 1).uniform(-5, 5, (100, 4))
        assert np.all(np.isfinite(model.forward(params, x)))

    def test_wrong_param_length_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 5, 2)))
        with pytest.raises(InvalidInputError):
            model.forward(np.zeros(model.n_params + 1), np.zeros((1, 3)))


class TestLossAndGrad:
    def test_zero_network_zero_targets(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 4, 2), loss="mse"))
        params = np.zeros(model.n_params)
        x = rng_stream(2, 0).standard_normal((8, 3))
        loss, grad = model.loss_and_grad(params, x, np.zeros((8, 2)))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("loss_kind", ["mse", "xent"])
    def test_gradient_matches_central_differences(self, loss_kind):
        out = 3
        model = MlpModel(MlpSpec(layer_sizes=(4, 8, 6, out), loss=loss_kind))
        rng = rng_stream(3, 0)
        params = model.init_params(rng)
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal((16, out)) if loss_kind == "mse" else rng.integers(0, out, 16)
        _, grad = model.loss_and_grad(params, x, y)
        idx = rng.choice(model.n_params, 50, replace=False)
        fd = finite_difference_grad(model, params, x, y, idx)
        for j, i in enumerate(idx):
            assert abs(fd[j] - grad[i]) <= max(1e-6, 1e-4 * abs(grad[i]))

    def test_single_linear_layer_closed_form(self):
        # no hidden layer: grad of mean squared error is 2 X^T (X w - y) / n
        model = MlpModel(MlpSpec(layer_sizes=(3, 1), loss="mse"))
        rng = rng_stream(4, 0)
        w = rng.standard_normal(3)
        params = np.concatenate([w, [0.0]])
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 1))
        _, grad = model.loss_and_grad(params, x, y)
        expect = 2.0 * x.T @ (x @ w - y[:, 0]) / 20
        assert np.allclose(grad[:3], expect, atol=1e-12)

    def test_empty_batch_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 2)))
        with pytest.raises(InvalidInputError):
            model.loss_and_grad(np.zeros(model.n_params), np.zeros((0, 3)), np.zeros((0, 2)))

    def test_target_shape_mismatch_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 2)))
        with pytest.raises(InvalidInputError):
            model.loss_and_grad(np.zeros(model.n_params), np.zeros((4, 3)), np.zeros((4, 3)))


class TestTeacherTask:
    def test_deterministic(self):
        spec = MlpSpec(layer_sizes=(4, 8, 4))
        a = make_teacher_task(spec, 100, seed=7)
        b = make_teacher_task(spec, 100, seed=7)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_batch_draws_from_dataset(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 100, seed=8)
        xb, yb = task.batch(rng_stream(0, 0), 32)
        assert xb.shape == (32, 4) and yb.shape == (32, 4)

    def test_llc_estimation_runs_on_mlp(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=9)
        params = task.model.init_params(rng_stream(10, 0))
        cfg = LlcConfig(nbeta=30.0, gamma=300.0, step_size=2e-4, chains=2,
                        steps_per_chain=200, burn_in=20, batch_size=32, baseline_batches=4)
        est = estimate_llc(task, cfg, seed=1, w_star=params)
        assert np.isfinite(est.lambda_hat)
        assert est.trace.shape == (2, 200)

    def test_llc_requires_w_star_for_mlp(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 64, seed=9)
        with pytest.raises(InvalidInputError):
            estimate_llc(task, LlcConfig(), seed=0)


class TestBuffers:
    def test_full_loss_allocates_no_activation_temporaries(self):
        # one (1024, 16) float64 activation is 131,072 bytes; after the
        # first call allocates the buffers, no call allocates one again
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=13)
        params = task.model.init_params(rng_stream(0, 0))
        task.full_loss(params)
        tracemalloc.start()
        try:
            task.full_loss(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 131_072

    def test_forward_result_survives_later_calls(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 5, 2)))
        rng = rng_stream(5, 0)
        x = rng.standard_normal((10, 3))
        p1, p2 = model.init_params(rng), model.init_params(rng)
        out = model.forward(p1, x)
        kept = out.copy()
        model.forward(p2, x)
        model.loss_and_grad(p2, x, np.zeros((10, 2)))
        assert np.array_equal(out, kept)


class TestLossesAndGrads:
    @pytest.mark.parametrize("loss_kind", ["mse", "xent"])
    def test_rows_equal_single_path(self, loss_kind):
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 3), loss=loss_kind))
        rng = rng_stream(6, 0)
        k, b = 5, 64
        params = np.stack([model.init_params(rng) for _ in range(k)])
        x = rng.standard_normal((k, b, 4))
        y = rng.standard_normal((k, b, 3)) if loss_kind == "mse" else rng.integers(0, 3, (k, b))
        losses, grads = model.losses_and_grads(params, x, y)
        assert losses.shape == (k,) and grads.shape == (k, model.n_params)
        for r in range(k):
            loss, grad = model.loss_and_grad(params[r], x[r], y[r])
            assert losses[r] == loss
            assert np.array_equal(grads[r], grad)

    def test_shape_mismatch_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 2)))
        with pytest.raises(InvalidInputError):
            model.losses_and_grads(np.zeros((2, model.n_params)), np.zeros((3, 4, 3)),
                                   np.zeros((3, 4, 2)))
