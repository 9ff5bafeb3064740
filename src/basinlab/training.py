"""Plain SGD training with bit-exact checkpoint persistence.

Checkpoint files are a fixed little-endian binary layout so that replaying a
seeded run reproduces them byte for byte:

    magic "BLCK" | u32 version | u64 d | u64 step | u64 seed |
    u64 spec_hash | f64 train_loss | d * f64 params
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError, is_integer, require
from .mlp import MlpTask
from .rng import rng_stream

MAGIC = b"BLCK"
VERSION = 1
DIVERGENCE_CAP = 1e6
_HEADER = struct.Struct("<4sIQQQQd")


@dataclass
class Checkpoint:
    step: int
    params: np.ndarray
    train_loss: float
    seed: int
    spec_hash: int

    def to_bytes(self) -> bytes:
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError(f"checkpoint seed {self.seed} does not fit in a u64")
        params = np.ascontiguousarray(self.params, dtype="<f8")
        header = _HEADER.pack(
            MAGIC, VERSION, len(params), self.step, self.seed, self.spec_hash, self.train_loss
        )
        return header + params.tobytes()


def save_checkpoint(ckpt: Checkpoint, path: Path | str) -> None:
    Path(path).write_bytes(ckpt.to_bytes())


def load_checkpoint(path: Path | str) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise InvalidInputError(f"{path}: truncated checkpoint")
    magic, version, d, step, seed, spec_hash, loss = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise InvalidInputError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise InvalidInputError(f"{path}: unsupported version {version}")
    params = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if len(params) != d:
        raise InvalidInputError(f"{path}: header says {d} params, file has {len(params)}")
    if not np.all(np.isfinite(params)):
        raise InvalidInputError(f"{path}: non-finite parameters")
    return Checkpoint(step=step, params=params.astype(float), train_loss=loss,
                      seed=seed, spec_hash=spec_hash)


def checkpoint_filename(step: int) -> str:
    return f"ckpt_{step:08d}.bin"


def train_sgd(
    task: MlpTask,
    steps: int,
    learning_rate: float,
    batch_size: int,
    seed: int,
    checkpoint_schedule: tuple[int, ...] = (),
    out_dir: Path | str | None = None,
) -> list[Checkpoint]:
    """Train with plain minibatch SGD, snapshotting at the scheduled steps.

    A checkpoint at step s holds the parameters after s optimizer steps
    (step 0 is the initialization). Raises TrainingDivergedError, naming the
    step, if the batch loss goes non-finite or above the divergence cap.
    """
    if steps < 1:
        raise InvalidInputError("steps must be >= 1")
    require(all(is_integer(s) and 0 <= s <= steps for s in checkpoint_schedule),
            "checkpoint_schedule must hold integers in [0, steps]")

    model = task.model
    plan = model.plan((), batch_size)  # the parameters step in place in its buffer
    params, step_size = plan.params, np.empty(model.n_params)
    params[:] = model.init_params(rng_stream(seed, 0))
    rng_batch = rng_stream(seed, 1)
    spec_hash = model.spec.spec_hash()

    out = []

    def snapshot(step):
        ck = Checkpoint(step=step, params=params.copy(),
                        train_loss=task.full_loss(params), seed=seed, spec_hash=spec_hash)
        out.append(ck)
        if out_dir is not None:
            d = Path(out_dir)
            d.mkdir(parents=True, exist_ok=True)
            save_checkpoint(ck, d / checkpoint_filename(step))

    want = set(checkpoint_schedule)
    if 0 in want:
        snapshot(0)
    for step in range(1, steps + 1):
        loss = float(plan.run(*task.batch(rng_batch, batch_size), need_grad=True))
        if not math.isfinite(loss) or loss > DIVERGENCE_CAP:
            raise TrainingDivergedError(step=step, loss=loss)
        # params - learning_rate * grad, bit for bit
        np.multiply(learning_rate, plan.grad, out=step_size)
        np.subtract(params, step_size, out=params)
        if step in want:
            snapshot(step)
    return out
