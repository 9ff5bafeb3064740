"""A small tanh multilayer perceptron with hand-rolled reverse-mode gradients.

Parameters live in a single flat vector so the samplers and compression
routines can treat every model as a point in R^d. Weight matrices are stored
row-major as (n_out, n_in); biases follow each matrix in the flat layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer_sizes = (in, hidden..., out); loss is 'mse' or 'xent'."""

    layer_sizes: tuple[int, ...]
    loss: str = "mse"

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise InvalidInputError("layer_sizes needs >= 2 positive entries")
        if self.loss not in ("mse", "xent"):
            raise InvalidInputError(f"unknown loss kind {self.loss!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    def spec_hash(self) -> int:
        digest = sha256(repr((self.layer_sizes, self.loss)).encode()).digest()
        return int.from_bytes(digest[:8], "little")


@dataclass
class MlpModel:
    spec: MlpSpec
    _shapes: list[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        sizes = self.spec.layer_sizes
        self._shapes = [(sizes[i + 1], sizes[i]) for i in range(self.spec.n_layers)]

    @property
    def n_params(self) -> int:
        return self.spec.n_params

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Gaussian init with 1/sqrt(fan_in) weight scale and zero biases."""
        chunks = []
        for (o, i) in self._shapes:
            chunks.append(rng.standard_normal(o * i) / np.sqrt(i))
            chunks.append(np.zeros(o))
        return np.concatenate(chunks)

    def unpack(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise InvalidInputError(
                f"expected {self.n_params} parameters, got shape {params.shape}"
            )
        out = []
        pos = 0
        for (o, i) in self._shapes:
            w = params[pos : pos + o * i].reshape(o, i)
            pos += o * i
            b = params[pos : pos + o]
            pos += o
            out.append((w, b))
        return out

    def pack(self, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; tanh on hidden layers, linear output."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.unpack(params)
        h = x
        for li, (w, b) in enumerate(layers):
            h = h @ w.T + b
            if li < len(layers) - 1:
                h = np.tanh(h)
        return h

    def loss(self, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        loss, _ = self.loss_and_grad(params, x, y, need_grad=False)
        return loss

    def loss_and_grad(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray, need_grad: bool = True
    ) -> tuple[float, np.ndarray | None]:
        """Batch loss and its exact gradient in the flat parameter vector.

        mse: mean over the batch of the squared error summed over outputs.
        xent: mean negative log softmax probability of the integer targets.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.unpack(params)
        n = x.shape[0]
        if n == 0:
            raise InvalidInputError("batch must be nonempty")

        acts = [x]
        pre = []
        h = x
        for li, (w, b) in enumerate(layers):
            z = h @ w.T + b
            pre.append(z)
            h = np.tanh(z) if li < len(layers) - 1 else z
            acts.append(h)
        out = acts[-1]

        if self.spec.loss == "mse":
            y = np.atleast_2d(np.asarray(y, dtype=float))
            if y.shape != out.shape:
                raise InvalidInputError(f"targets shape {y.shape} != outputs {out.shape}")
            diff = out - y
            loss = float(np.sum(diff * diff) / n)
            delta = 2.0 * diff / n
        else:
            y = np.asarray(y)
            if y.shape != (n,):
                raise InvalidInputError("xent targets must be a vector of class indices")
            shifted = out - out.max(axis=1, keepdims=True)
            logz = np.log(np.sum(np.exp(shifted), axis=1))
            loss = float(np.mean(logz - shifted[np.arange(n), y]))
            soft = np.exp(shifted) / np.exp(logz)[:, None]
            soft[np.arange(n), y] -= 1.0
            delta = soft / n

        if not need_grad:
            return loss, None

        grads = [None] * len(layers)
        for li in reversed(range(len(layers))):
            w, _ = layers[li]
            gw = delta.T @ acts[li]
            gb = delta.sum(axis=0)
            grads[li] = (gw, gb)
            if li > 0:
                delta = (delta @ w) * (1.0 - acts[li] ** 2)
        return loss, self.pack(grads)


@dataclass
class MlpTask:
    """A model plus its fixed synthetic dataset."""

    model: MlpModel
    x: np.ndarray
    y: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def full_loss(self, params: np.ndarray) -> float:
        return self.model.loss(params, self.x, self.y)

    def batch(self, rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.integers(0, self.n_samples, size=batch_size)
        return self.x[idx], self.y[idx]


def make_teacher_task(
    spec: MlpSpec,
    n_samples: int,
    seed: int,
    teacher_spec: MlpSpec | None = None,
    input_scale: float = 1.0,
    teacher_gain: float = 1.0,
) -> MlpTask:
    """Fixed regression dataset: inputs are Gaussian, targets come from a
    frozen randomly initialized teacher network."""
    from .rng import rng_stream

    student = MlpModel(spec)
    teacher = MlpModel(teacher_spec or spec)
    rng_x = rng_stream(seed, 0)
    rng_t = rng_stream(seed, 1)
    x = input_scale * rng_x.standard_normal((n_samples, spec.layer_sizes[0]))
    t_params = teacher.init_params(rng_t) * teacher_gain
    y = teacher.forward(t_params, x)
    return MlpTask(model=student, x=x, y=y)
