import numpy as np
import pytest

from basinlab import (
    Checkpoint,
    MlpSpec,
    load_checkpoint,
    make_teacher_task,
    save_checkpoint,
    train_sgd,
)
from basinlab.errors import InvalidInputError, TrainingDivergedError
from basinlab.rng import rng_stream
from basinlab.training import DIVERGENCE_CAP, checkpoint_filename


def reference_train_sgd(task, steps, learning_rate, batch_size, seed, checkpoint_schedule=()):
    """train_sgd's loop before its parameters stepped in place in a kept
    buffer: one public loss_and_grad and one allocating update per step."""
    model = task.model
    rng_init = rng_stream(seed, 0)
    rng_batch = rng_stream(seed, 1)
    params = model.init_params(rng_init)
    spec_hash = model.spec.spec_hash()

    out = []

    def snapshot(step):
        out.append(Checkpoint(step=step, params=params.copy(), train_loss=task.full_loss(params),
                              seed=seed, spec_hash=spec_hash))

    want = set(checkpoint_schedule)
    if 0 in want:
        snapshot(0)
    for step in range(1, steps + 1):
        xb, yb = task.batch(rng_batch, batch_size)
        loss, grad = model.loss_and_grad(params, xb, yb)
        if not np.isfinite(loss) or loss > DIVERGENCE_CAP:
            raise TrainingDivergedError(step=step, loss=loss)
        params = params - learning_rate * grad
        if step in want:
            snapshot(step)
    return out


@pytest.fixture(scope="module")
def task():
    return make_teacher_task(MlpSpec(layer_sizes=(4, 8, 4)), 256, seed=3)


class TestTrainSgd:
    def test_empty_schedule_gives_no_checkpoints(self, task):
        out = train_sgd(task, steps=50, learning_rate=0.05, batch_size=16, seed=0)
        assert out == []

    def test_step_zero_snapshot_is_initialization(self, task):
        out = train_sgd(task, steps=10, learning_rate=0.05, batch_size=16, seed=0,
                        checkpoint_schedule=(0,))
        assert len(out) == 1 and out[0].step == 0
        init = task.model.init_params(__import__("basinlab").rng_stream(0, 0))
        assert np.array_equal(out[0].params, init)

    def test_loss_decreases_with_defaults(self, task):
        out = train_sgd(task, steps=2000, learning_rate=0.05, batch_size=16, seed=1,
                        checkpoint_schedule=(0, 2000))
        assert out[-1].train_loss < out[0].train_loss

    def test_divergence_raises_with_step(self, task):
        with pytest.raises(TrainingDivergedError) as e:
            train_sgd(task, steps=5000, learning_rate=50.0, batch_size=16, seed=1)
        assert e.value.step >= 1

    @pytest.mark.parametrize("schedule", [(20,), (-1,), (2.5,), (True,), (np.float64(4.0),)])
    def test_schedule_outside_range_or_not_integer_rejected(self, task, schedule):
        with pytest.raises(InvalidInputError, match="^checkpoint_schedule "):
            train_sgd(task, steps=10, learning_rate=0.1, batch_size=8, seed=0,
                      checkpoint_schedule=schedule)

    def test_seed_replay_bitwise_identical_files(self, task, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            train_sgd(task, steps=200, learning_rate=0.05, batch_size=16, seed=5,
                      checkpoint_schedule=(0, 100, 200), out_dir=d)
        for step in (0, 100, 200):
            f = checkpoint_filename(step)
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes()


class TestAgainstReference:
    @pytest.mark.parametrize("sizes", [(4, 16, 16, 4), (3, 5, 2), (4, 16, 16, 16, 4), (2, 3),
                                       (6, 32, 3)])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 33, 64])
    def test_same_checkpoint_bytes(self, sizes, batch_size, tmp_path):
        task = make_teacher_task(MlpSpec(layer_sizes=sizes), 128, seed=11)
        kwargs = dict(steps=40, learning_rate=0.05, batch_size=batch_size, seed=6,
                      checkpoint_schedule=(0, 1, 25, 40))
        cks = train_sgd(task, out_dir=tmp_path, **kwargs)
        ref = reference_train_sgd(task, **kwargs)
        assert [ck.step for ck in cks] == [0, 1, 25, 40]
        for ck, want in zip(cks, ref):
            assert ck.to_bytes() == want.to_bytes()
            assert (tmp_path / checkpoint_filename(ck.step)).read_bytes() == want.to_bytes()

    def test_divergence_names_the_same_step_and_loss(self, task):
        kwargs = dict(steps=5000, learning_rate=50.0, batch_size=16, seed=1)
        with pytest.raises(TrainingDivergedError) as got:
            train_sgd(task, **kwargs)
        with pytest.raises(TrainingDivergedError) as want:
            reference_train_sgd(task, **kwargs)
        assert got.value.step == want.value.step
        assert float(got.value.loss).hex() == float(want.value.loss).hex()
        assert str(got.value) == str(want.value)


class TestCheckpointFormat:
    def test_roundtrip(self, task, tmp_path):
        (ck,) = train_sgd(task, steps=5, learning_rate=0.05, batch_size=8, seed=2,
                          checkpoint_schedule=(5,))
        path = tmp_path / "c.bin"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.step == ck.step
        assert back.seed == ck.seed
        assert back.spec_hash == ck.spec_hash
        assert back.train_loss == ck.train_loss
        assert np.array_equal(back.params, ck.params)

    def test_layout_is_little_endian_with_magic(self, task, tmp_path):
        (ck,) = train_sgd(task, steps=1, learning_rate=0.05, batch_size=8, seed=2,
                          checkpoint_schedule=(1,))
        raw = ck.to_bytes()
        assert raw[:4] == b"BLCK"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:16], "little") == len(ck.params)
        params = np.frombuffer(raw, dtype="<f8", offset=48)
        assert np.array_equal(params, ck.params)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(InvalidInputError):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "short.bin"
        p.write_bytes(b"BLCK\x01")
        with pytest.raises(InvalidInputError):
            load_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, task, tmp_path, bad):
        (ck,) = train_sgd(task, steps=1, learning_rate=0.05, batch_size=8, seed=2,
                          checkpoint_schedule=(1,))
        ck.params[3] = bad
        path = tmp_path / "c.bin"
        save_checkpoint(ck, path)
        with pytest.raises(InvalidInputError, match=f"{path}: non-finite parameters"):
            load_checkpoint(path)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        ck = Checkpoint(step=0, params=np.zeros(3), train_loss=0.0, seed=seed, spec_hash=0)
        with pytest.raises(InvalidInputError):
            ck.to_bytes()
