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
    """The network of `spec`. Forward passes write each layer's activations
    into buffers kept per batch shape and reused by later calls, so a call
    allocates no activation-sized temporaries; no result is a view of one."""

    spec: MlpSpec
    _shapes: list[tuple[int, int]] = field(init=False)
    # (weights, biases) slices of each layer in the flat parameter vector
    _spans: list[tuple[slice, slice]] = field(init=False, repr=False)
    _buffers: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.spec.layer_sizes
        self._shapes = [(sizes[i + 1], sizes[i]) for i in range(self.spec.n_layers)]
        self._spans = []
        pos = 0
        for (o, i) in self._shapes:
            self._spans.append((slice(pos, pos + o * i), slice(pos + o * i, pos + o * i + o)))
            pos += o * i + o

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
        return [(params[span_w].reshape(shape), params[span_b])
                for shape, (span_w, span_b) in zip(self._shapes, self._spans)]

    def pack(self, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])

    def _layer_buffers(self, lead: tuple[int, ...]) -> list[np.ndarray]:
        """One output buffer per layer for activations of leading shape `lead`."""
        bufs = self._buffers.get(lead)
        if bufs is None:
            bufs = self._buffers[lead] = [np.empty(lead + (o,)) for o, _ in self._shapes]
        return bufs

    def _activations(self, layers, x: np.ndarray) -> list[np.ndarray]:
        """[x, h_1, ..., out] for one parameter vector; all but x are buffers
        that the next call with the same batch size overwrites."""
        acts = [x]
        last = len(layers) - 1
        for li, ((w, b), z) in enumerate(zip(layers, self._layer_buffers(x.shape[:1]))):
            np.matmul(acts[li], w.T, out=z)
            z += b
            if li < last:
                np.tanh(z, out=z)
            acts.append(z)
        return acts

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; tanh on hidden layers, linear output."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._activations(self.unpack(params), x)[-1].copy()

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

        acts = self._activations(layers, x)
        out = acts[-1]

        if self.spec.loss == "mse":
            y = np.atleast_2d(np.asarray(y, dtype=float))
            if y.shape != out.shape:
                raise InvalidInputError(f"targets shape {y.shape} != outputs {out.shape}")
            diff = out - y
            loss = float(np.sum(diff * diff) / n)
            if not need_grad:
                return loss, None
            delta = 2.0 * diff / n
        else:
            y = np.asarray(y)
            if y.shape != (n,):
                raise InvalidInputError("xent targets must be a vector of class indices")
            shifted = out - out.max(axis=1, keepdims=True)
            logz = np.log(np.sum(np.exp(shifted), axis=1))
            loss = float(np.mean(logz - shifted[np.arange(n), y]))
            if not need_grad:
                return loss, None
            soft = np.exp(shifted) / np.exp(logz)[:, None]
            soft[np.arange(n), y] -= 1.0
            delta = soft / n

        grad = np.empty(self.n_params)
        for li in reversed(range(len(layers))):
            w, _ = layers[li]
            span_w, span_b = self._spans[li]
            np.matmul(delta.T, acts[li], out=grad[span_w].reshape(w.shape))
            np.add.reduce(delta, axis=0, out=grad[span_b])
            if li > 0:
                delta = (delta @ w) * (1.0 - acts[li] ** 2)
        return loss, grad

    def losses_and_grads(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row k of the result is `loss_and_grad(params[k], x[k], y[k])`, for
        params (K, n_params), x (K, B, in) and y (K, B, out), or (K, B) class
        indices for xent; returns losses (K,) and gradients (K, n_params).

        Each layer is one stacked matmul over the K rows. numpy runs the same
        BLAS call on every row as the single path does, and each row's sums
        reduce in the single path's order, so every row matches it bit for bit.
        """
        params = np.asarray(params, dtype=float)
        x = np.asarray(x, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.n_params:
            raise InvalidInputError(
                f"expected (K, {self.n_params}) parameters, got shape {params.shape}"
            )
        k = params.shape[0]
        if x.ndim != 3 or x.shape[0] != k or x.shape[2] != self.spec.layer_sizes[0]:
            raise InvalidInputError(f"inputs shape {x.shape} does not match {k} rows")
        n = x.shape[1]
        if n == 0:
            raise InvalidInputError("batch must be nonempty")

        layers = [(params[:, span_w].reshape((k, *shape)), params[:, span_b])
                  for shape, (span_w, span_b) in zip(self._shapes, self._spans)]
        acts = [x]
        last = len(layers) - 1
        for li, ((w, b), z) in enumerate(zip(layers, self._layer_buffers((k, n)))):
            np.matmul(acts[li], w.transpose(0, 2, 1), out=z)
            z += b[:, None, :]
            if li < last:
                np.tanh(z, out=z)
            acts.append(z)
        out = acts[-1]

        if self.spec.loss == "mse":
            y = np.asarray(y, dtype=float)
            if y.shape != out.shape:
                raise InvalidInputError(f"targets shape {y.shape} != outputs {out.shape}")
            diff = out - y
            losses = (diff * diff).reshape(k, -1).sum(axis=1) / n
            delta = 2.0 * diff / n
        else:
            y = np.asarray(y)
            if y.shape != (k, n):
                raise InvalidInputError("xent targets must be (K, B) class indices")
            rows, cols = np.arange(k)[:, None], np.arange(n)
            shifted = out - out.max(axis=2, keepdims=True)
            logz = np.log(np.sum(np.exp(shifted), axis=2))
            losses = np.mean(logz - shifted[rows, cols, y], axis=1)
            soft = np.exp(shifted) / np.exp(logz)[:, :, None]
            soft[rows, cols, y] -= 1.0
            delta = soft / n

        grads = np.empty_like(params)
        for li in reversed(range(len(layers))):
            w, _ = layers[li]
            span_w, span_b = self._spans[li]
            np.matmul(delta.transpose(0, 2, 1), acts[li], out=grads[:, span_w].reshape(w.shape))
            np.add.reduce(delta, axis=1, out=grads[:, span_b])
            if li > 0:
                delta = np.matmul(delta, w) * (1.0 - acts[li] ** 2)
        return losses, grads


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
        return self.x.take(idx, axis=0), self.y.take(idx, axis=0)

    def batches(self, rngs, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """`batch(rng, batch_size)` for each generator in turn, stacked into
        (K, B, ...) inputs and targets."""
        idx = np.stack([rng.integers(0, self.n_samples, size=batch_size) for rng in rngs])
        return self.x.take(idx, axis=0), self.y.take(idx, axis=0)


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
