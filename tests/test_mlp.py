import dataclasses
import tracemalloc

import numpy as np
import pytest

from basinlab import (
    LlcConfig,
    MlpModel,
    MlpSpec,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    estimate_llc,
    make_teacher_task,
    prune_and_retrain,
    rng_stream,
    train_sgd,
)
from basinlab.errors import InvalidInputError
from basinlab.mlp import MlpTask


def row_major_loss(model, params, x, y):
    """The oracle of every full-data loss: the forward branch of the row-major
    evaluator that training and the LLC sampler run on."""
    return model.loss_and_grad(params, x, y, need_grad=False)[0]


def finite_difference_grad(model, params, x, y, indices, h=1e-5):
    g = np.zeros(len(indices))
    for j, i in enumerate(indices):
        pp, pm = params.copy(), params.copy()
        pp[i] += h
        pm[i] -= h
        g[j] = (row_major_loss(model, pp, x, y) - row_major_loss(model, pm, x, y)) / (2 * h)
    return g


class TestForward:
    def test_param_count(self):
        spec = MlpSpec(layer_sizes=(4, 16, 16, 4))
        assert MlpModel(spec).n_params == 4 * 16 + 16 + 16 * 16 + 16 + 16 * 4 + 4

    def test_spec_hash_pinned(self):
        # checkpoint headers store the spec hash; a moved value orphans every
        # checkpoint already written
        assert MlpSpec((4, 16, 16, 4)).spec_hash() == 1290949242855176920

    @pytest.mark.parametrize("size", [2.7, 4.0, float("nan"), "4"])
    def test_non_integer_size_refused_naming_its_field(self, size):
        # no size is truncated or converted: 2.7 once became 2
        with pytest.raises(InvalidInputError, match="^layer_sizes "):
            MlpSpec((4, size, 4))

    def test_bool_size_refused_naming_its_field(self):
        # a bool is an Integral, but True once built a width-1 layer
        with pytest.raises(InvalidInputError, match="^layer_sizes "):
            MlpSpec((4, True, 4))

    def test_numpy_integer_sizes_keep_the_spec_hash(self):
        assert MlpSpec(np.array([4, 16, 16, 4])) == MlpSpec((4, 16, 16, 4))
        assert MlpSpec(np.array([4, 16, 16, 4])).spec_hash() == 1290949242855176920

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
        model = MlpModel(MlpSpec(layer_sizes=(3, 4, 2)))
        params = np.zeros(model.n_params)
        x = rng_stream(2, 0).standard_normal((8, 3))
        loss, grad = model.loss_and_grad(params, x, np.zeros((8, 2)))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("out", [3], ids=["mse"])
    def test_gradient_matches_central_differences(self, out):
        model = MlpModel(MlpSpec(layer_sizes=(4, 8, 6, out)))
        rng = rng_stream(3, 0)
        params = model.init_params(rng)
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal((16, out))
        _, grad = model.loss_and_grad(params, x, y)
        idx = rng.choice(model.n_params, 50, replace=False)
        fd = finite_difference_grad(model, params, x, y, idx)
        for j, i in enumerate(idx):
            assert abs(fd[j] - grad[i]) <= max(1e-6, 1e-4 * abs(grad[i]))
        # each row of a stack against differences of its own loss
        stack = np.stack([params] + [model.init_params(rng) for _ in range(2)])
        xs = rng.standard_normal((3, 16, 4))
        ys = rng.standard_normal((3, 16, out))
        _, grads = model.losses_and_grads(stack, xs, ys)
        for r in range(3):
            fd = finite_difference_grad(model, stack[r], xs[r], ys[r], idx)
            for j, i in enumerate(idx):
                assert abs(fd[j] - grads[r, i]) <= max(1e-6, 1e-4 * abs(grads[r, i]))

    def test_single_linear_layer_closed_form(self):
        # no hidden layer: grad of mean squared error is 2 X^T (X w - y) / n
        model = MlpModel(MlpSpec(layer_sizes=(3, 1)))
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

    @pytest.mark.parametrize("out", [3], ids=["mse"])
    def test_loss_equals_loss_and_grad(self, out):
        # the forward-only branch reduces the same residual, bit for bit
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, out)))
        rng = rng_stream(11, 0)
        for n in (1, 7, 1024):
            params = model.init_params(rng)
            x = rng.standard_normal((n, 4))
            y = rng.standard_normal((n, out))
            assert row_major_loss(model, params, x, y) == model.loss_and_grad(params, x, y)[0]

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


class TestFullLoss:
    """`MlpTask.full_loss`, the feature-major evaluator, against the row-major
    loss of `loss_and_grad`."""

    # Worst relative difference measured at shapes other than 4-16-16-4 at
    # N = 1,024, over 300 vectors per (shape, N) on this grid and a few more
    # shapes: 7.2e-15, at N = 1 and 2, where OpenBLAS picks another kernel
    # for one layout. The tolerance is about seven times that.
    RTOL = 5e-14

    @staticmethod
    def random_params(model, rng):
        scale = rng.uniform(0.05, 3.0)
        return model.init_params(rng) * scale + scale * rng.standard_normal(model.n_params)

    def test_bit_identical_at_shipped_shape(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=21)
        rng = rng_stream(21, 1)
        for _ in range(2000):
            params = self.random_params(task.model, rng)
            expect = row_major_loss(task.model, params, task.x, task.y)
            assert task.full_loss(params).hex() == expect.hex()

    @pytest.mark.parametrize("sizes", [(3, 5, 2), (2, 1), (1, 3, 1), (4, 32, 32, 4),
                                       (5, 7, 3, 2), (8, 64, 4)])
    def test_close_at_other_shapes(self, sizes):
        model = MlpModel(MlpSpec(layer_sizes=sizes))
        rng = rng_stream(22, 0)
        for n in (1, 2, 7, 64, 100, 3000):
            task = MlpTask(model, rng.standard_normal((n, sizes[0])),
                           rng.standard_normal((n, sizes[-1])))
            for _ in range(20):
                params = self.random_params(model, rng)
                expect = row_major_loss(model, params, task.x, task.y)
                assert task.full_loss(params) == pytest.approx(expect, rel=self.RTOL, abs=0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200, -1e200])
    def test_non_finite_exactly_where_oracle_is(self, bad):
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=23)
        model = task.model
        rng = rng_stream(23, 1)
        # the first entry of every weight matrix and bias, then random ones
        where = [i for span_w, span_b in model._spans for i in (span_w.start, span_b.start)]
        where += list(rng.choice(model.n_params, 20, replace=False))
        finite = []
        with np.errstate(all="ignore"):
            for i in where:
                params = model.init_params(rng)
                params[i] = bad
                got = task.full_loss(params)
                expect = row_major_loss(model, params, task.x, task.y)
                assert np.isfinite(got) == np.isfinite(expect)
                assert got == expect or (np.isnan(got) and np.isnan(expect))
                finite.append(np.isfinite(got))
        # NaN reaches the loss from any entry; an infinite or huge entry can
        # saturate a tanh and leave it finite, but no output-layer one does
        assert not all(finite) and (any(finite) != np.isnan(bad))

    def test_wrong_shape_rejected(self):
        task = make_teacher_task(MlpSpec(layer_sizes=(3, 5, 2)), 16, seed=24)
        d = task.model.n_params
        for params in (np.zeros(d + 1), np.zeros(d - 1), np.zeros((1, d)), np.float64(0.0)):
            with pytest.raises(InvalidInputError):
                task.full_loss(params)
        with pytest.raises(InvalidInputError):
            MlpTask(task.model, task.x[:, :2], task.y)
        with pytest.raises(InvalidInputError):
            MlpTask(task.model, task.x[:0], task.y[:0])

    def test_critical_searches_equal_under_oracle(self, monkeypatch):
        # every search the sweeps run, on a trained shipped-shape checkpoint,
        # gives the same bits under either evaluator
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, 4)), 1024, seed=25)
        (ck,) = train_sgd(task, steps=1500, learning_rate=0.05, batch_size=32, seed=1,
                          checkpoint_schedule=(1500,))

        def oracle(params):
            return row_major_loss(task.model, params, task.x, task.y)

        def hexes(results):
            return [tuple(float(v).hex() for v in dataclasses.astuple(r)) for r in results]

        eps = [0.5, 0.1, 0.02]
        for search in (lambda f: critical_nq(ck.params, eps, f),
                       lambda f: critical_sigma(ck.params, eps, "relative", f, noise_draws=4),
                       lambda f: critical_compression_fraction(task.model, ck.params, eps, f)):
            assert hexes(search(task.full_loss)) == hexes(search(oracle))

        def prune():
            return prune_and_retrain(task, ck.params, [0.5, 0.75], learning_rate=0.01,
                                     retrain_steps=40, seed=2)

        fast = prune()
        monkeypatch.setattr(MlpTask, "full_loss", lambda self, p: oracle(p))
        slow = prune()
        for a, b in zip(fast, slow):
            assert a.delta_loss.hex() == b.delta_loss.hex()
            assert np.array_equal(a.params, b.params)


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

    @pytest.mark.parametrize("n_out", [4, 16])
    def test_warm_full_loss_allocates_only_the_ufunc_buffer(self, n_out):
        # the bound allows one ufunc buffer of np.getbufsize() float64s
        # (64 KiB). Each bias rides in its layer's matmul, and the output
        # layer writes straight into the residual buffer, so a warm call
        # needs none, and no (1024, n_out) temporary at any output width
        task = make_teacher_task(MlpSpec(layer_sizes=(4, 16, 16, n_out)), 1024, seed=13)
        params = task.model.init_params(rng_stream(0, 0))
        task.full_loss(params)
        tracemalloc.start()
        try:
            task.full_loss(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * np.getbufsize() + 4096

    def test_warm_stacked_backward_allocates_only_the_gradient(self):
        # 64 rows at B = 64: one 16-wide activation is 524,288 bytes and the
        # 4-wide residual 131,072. The backward pass writes its residual and
        # deltas into kept buffers, so a warm call allocates its returned
        # (64, 420) gradient and nothing activation-sized besides
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        rng = rng_stream(0, 0)
        params = np.stack([model.init_params(rng) for _ in range(64)])
        x = rng.standard_normal((64, 64, 4))
        y = rng.standard_normal((64, 64, 4))
        model.losses_and_grads(params, x, y)
        tracemalloc.start()
        try:
            _, grads = model.losses_and_grads(params, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grads.nbytes + 32_768

    def test_results_survive_later_calls(self):
        # the returned losses and gradients are fresh arrays, not the buffers
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        rng = rng_stream(7, 0)
        params = np.stack([model.init_params(rng) for _ in range(3)])
        x, y = rng.standard_normal((3, 8, 4)), rng.standard_normal((3, 8, 4))
        losses, grads = model.losses_and_grads(params, x, y)
        kept = losses.copy(), grads.copy()
        model.losses_and_grads(params[::-1].copy(), x[::-1].copy(), y)
        assert np.array_equal(losses, kept[0]) and np.array_equal(grads, kept[1])

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


def result_bytes(result) -> bytes:
    """One byte string for a loss, an array, a checkpoint list or a tuple of them."""
    if result is None:
        return b"-"
    if isinstance(result, (float, np.ndarray)):
        return np.asarray(result).tobytes()
    if isinstance(result, list):
        return b"".join(ck.to_bytes() for ck in result)
    return b"|".join(result_bytes(r) for r in result)


class TestPlans:
    def test_interleaved_calls_equal_a_fresh_model_and_survive(self):
        # one model serves every (lead, batch size) below, and training steps
        # the parameters of its ((), 32) plan in place, which forward and
        # loss_and_grad at B = 32 share; each result equals the same call on
        # a fresh model and stays unchanged through the calls after it
        spec = MlpSpec(layer_sizes=(4, 16, 16, 4))
        task = make_teacher_task(spec, 256, seed=21)
        rng = rng_stream(21, 1)
        p = np.stack([task.model.init_params(rng) for _ in range(32)])

        def data(*shape):
            return rng.standard_normal(shape + (4,)), rng.standard_normal(shape + (4,))

        calls = [
            ("loss_and_grad", p[0], *data(32)),
            ("loss_and_grad", p[1], *data(64)),
            ("losses_and_grads", p[:5], *data(5, 32)),
            ("losses_and_grads", p[:5], *data(5, 32), False),
            ("forward", p[2], data(32)[0]),
            ("train_sgd",),
            ("losses_and_grads", p.reshape(4, 8, -1), *data(4, 8, 16)),
            ("losses_and_grads", p.reshape(4, 8, -1), *data(8, 16), False),
            ("loss_and_grad", p[3], *data(32), False),
            ("forward", p[4], data(64)[0]),
        ]

        def call(task, name, *args):
            if name == "train_sgd":
                return train_sgd(task, steps=30, learning_rate=0.05, batch_size=32, seed=4,
                                 checkpoint_schedule=(0, 30))
            return getattr(task.model, name)(*args)

        kept = []
        for _ in range(2):
            for c in calls:
                result = call(task, *c)
                kept.append((result, result_bytes(result)))
        for i, (result, seen) in enumerate(kept):
            fresh = MlpTask(model=MlpModel(spec), x=task.x, y=task.y)
            assert result_bytes(result) == seen == result_bytes(call(fresh, *calls[i % len(calls)]))
        assert {((), 32), ((), 64), ((5,), 32), ((4, 8), 16), ((), 256)} == set(task.model._plans)


class TestLossesAndGrads:
    @pytest.mark.parametrize("out", [3], ids=["mse"])
    def test_rows_equal_single_path(self, out):
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, out)))
        rng = rng_stream(6, 0)
        for k, b in [(1, 1), (1, 32), (5, 64), (8, 64), (2, 1024)]:
            params = np.stack([model.init_params(rng) for _ in range(k)])
            x = rng.standard_normal((k, b, 4))
            y = rng.standard_normal((k, b, out))
            losses, grads = model.losses_and_grads(params, x, y)
            assert losses.shape == (k,) and grads.shape == (k, model.n_params)
            for r in range(k):
                loss, grad = model.loss_and_grad(params[r], x[r], y[r])
                assert losses[r] == loss
                assert np.array_equal(grads[r], grad)

    def test_checkpoint_stack_with_broadcast_batch_equals_single_path(self):
        # a (C, K) stack with one (K, B, in) batch, which the evaluator
        # broadcasts over C: the shape the LLC sampler passes for a stack of
        # checkpoints
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 3)))
        rng = rng_stream(8, 0)
        params = np.stack([model.init_params(rng) for _ in range(12)]).reshape(3, 4, -1)
        x, y = rng.standard_normal((4, 64, 4)), rng.standard_normal((4, 64, 3))
        losses, grads = model.losses_and_grads(params, x, y)
        fwd, none = model.losses_and_grads(params, x, y, need_grad=False)
        assert losses.shape == (3, 4) and grads.shape == (3, 4, model.n_params) and none is None
        for c in range(3):
            for k in range(4):
                loss, grad = model.loss_and_grad(params[c, k], x[k], y[k])
                assert losses[c, k] == loss == fwd[c, k]
                assert np.array_equal(grads[c, k], grad)
        # one (B, in) batch serves every row of the stack
        shared, shared_grads = model.losses_and_grads(params, x[1], y[1])
        for c in range(3):
            for k in range(4):
                loss, grad = model.loss_and_grad(params[c, k], x[1], y[1])
                assert shared[c, k] == loss and np.array_equal(shared_grads[c, k], grad)

    @pytest.mark.parametrize("k", [2, 6])
    def test_plan_run_on_one_batch_equals_broadcast_view(self, k):
        # prune retraining runs its (K + 1,) plan on the (B, in) batch itself,
        # which numpy broadcasts as losses_and_grads' broadcast_to view does
        model = MlpModel(MlpSpec(layer_sizes=(4, 16, 16, 4)))
        rng = rng_stream(9, 0)
        params = np.stack([model.init_params(rng) for _ in range(k)])
        x, y = rng.standard_normal((32, 4)), rng.standard_normal((32, 4))
        losses, grads = model.losses_and_grads(params, x, y)
        plan = model.plan((k,), 32)
        np.copyto(plan.params, params)
        assert np.array_equal(plan.run(x, y, need_grad=True), losses)
        assert np.array_equal(plan.grad, grads)

    def test_shape_mismatch_rejected(self):
        model = MlpModel(MlpSpec(layer_sizes=(3, 2)))
        with pytest.raises(InvalidInputError):
            model.losses_and_grads(np.zeros((2, model.n_params)), np.zeros((3, 4, 3)),
                                   np.zeros((3, 4, 2)))
        with pytest.raises(InvalidInputError):
            model.loss_and_grad(np.zeros(model.n_params), np.zeros((4, 2)), np.zeros((4, 2)))
