"""A small tanh multilayer perceptron with hand-rolled reverse-mode gradients.

Parameters live in a single flat vector so the samplers and compression
routines can treat every model as a point in R^d. Weight matrices are stored
row-major as (n_out, n_in); biases follow each matrix in the flat layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256

import numpy as np

from .errors import InvalidInputError, is_integer, require


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer_sizes = (in, hidden..., out); the loss is mean squared error."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = self.layer_sizes
        require(len(sizes) >= 2 and all(is_integer(s) and s >= 1 for s in sizes),
                "layer_sizes needs >= 2 entries, each an integer >= 1")
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in sizes))

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    def spec_hash(self) -> int:
        # "mse" names the loss, as in the headers of checkpoints already written
        digest = sha256(repr((self.layer_sizes, "mse")).encode()).digest()
        return int.from_bytes(digest[:8], "little")


@dataclass
class MlpModel:
    """The network of `spec`. One body, `Plan.run`, evaluates loss and
    gradient for one parameter vector (`loss_and_grad`) and for a stack of
    them (`losses_and_grads`), with row-major (B, width) activations and each
    bias added after its matmul; training, the LLC sampler and baseline,
    prune retraining and `forward` run on it (the full-data loss has its own,
    in `MlpTask`). One plan per (leading shape, batch size), built on first
    use, holds that shape's buffers and every layer's views into them. A call
    copies its parameters in and returns fresh arrays, so a warm call
    allocates nothing activation-sized and no result is a view of a buffer."""

    spec: MlpSpec
    _shapes: list[tuple[int, int]] = field(init=False)
    # (weights, biases) slices of each layer in the flat parameter vector
    _spans: list[tuple[slice, slice]] = field(init=False, repr=False)
    _plans: dict = field(init=False, default_factory=dict, repr=False, compare=False)

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

    def _checked(self, params: np.ndarray, stacked: bool) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.ndim == 0 or (params.ndim > 1) != stacked or params.shape[-1] != self.n_params:
            want = f"(K, ..., {self.n_params})" if stacked else self.n_params
            raise InvalidInputError(f"expected {want} parameters, got shape {params.shape}")
        return params

    def unpack(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        params = self._checked(params, stacked=False)
        return [(params[span_w].reshape(shape), params[span_b])
                for shape, (span_w, span_b) in zip(self._shapes, self._spans)]

    def pack(self, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])

    def plan(self, lead: tuple[int, ...], batch_size: int) -> Plan:
        """The plan for parameters of leading shape `lead` on batches of
        `batch_size` rows, built on first use and kept for later calls."""
        plan = self._plans.get((lead, batch_size))
        if plan is None:
            plan = self._plans[(lead, batch_size)] = Plan(self, lead, batch_size)
        return plan

    def _loaded(self, params: np.ndarray, x: np.ndarray, y: np.ndarray | None) -> Plan:
        """The plan of params L + (n_params,) and x L + (B, in), with params copied in."""
        lead = params.shape[:-1]
        sizes = self.spec.layer_sizes
        if x.shape[:-2] != lead or x.shape[-1:] != sizes[:1]:
            raise InvalidInputError(f"inputs shape {x.shape} is not {lead} + (B, {sizes[0]})")
        out = x.shape[:-1] + sizes[-1:]
        if y is not None and y.shape != out:
            raise InvalidInputError(f"targets shape {y.shape} != outputs {out}")
        plan = self.plan(lead, x.shape[-2])
        np.copyto(plan.params, params)
        return plan

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; tanh on hidden layers, linear output."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._loaded(self._checked(params, stacked=False), x, None).forward(x).copy()

    def loss_and_grad(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray, need_grad: bool = True
    ) -> tuple[float, np.ndarray | None]:
        """Batch loss, the mean over the batch of the squared error summed over
        outputs, and its exact gradient in the flat parameter vector."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        plan = self._loaded(self._checked(params, stacked=False), x, y)
        loss = float(plan.run(x, y, need_grad))
        return loss, plan.grad.copy() if need_grad else None

    def losses_and_grads(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray, need_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Row k of the result is `loss_and_grad(params[k], x[k], y[k], need_grad)`,
        bit for bit, for params L + (n_params,), x L + (B, in) and y L + (B, out)
        with a nonempty leading shape L such as (K,) or (C, K); returns losses
        (shape L) and gradients (L + (n_params,)). The same body evaluates
        both, with each layer one stacked matmul. x and y broadcast to L from
        the right, as numpy does: one (B, in) batch serves every row, and a
        (K, B, in) stack of batches serves a (C, K) stack row by row."""
        params = self._checked(params, stacked=True)
        lead = params.shape[:-1]
        try:
            x, y = (np.broadcast_to(np.asarray(a, dtype=float), lead + np.shape(a)[-2:])
                    for a in (x, y))
        except ValueError:
            raise InvalidInputError(f"batch {np.shape(x)}, {np.shape(y)} does not fit {lead}") from None
        plan = self._loaded(params, x, y)
        losses = plan.run(x, y, need_grad)
        return losses, plan.grad.copy() if need_grad else None


class Plan:
    """The buffers of one (leading shape L, batch size B): parameters and
    gradient, each L + (n_params,), with each layer's weight (L + (o, i)), its
    transpose and its bias (L + (1, o)) viewing the first and its gradients
    the second; each layer's L + (B, o) output; one backward work buffer per
    width. `run` evaluates the parameters in place on one batch."""

    def __init__(self, model: MlpModel, lead: tuple[int, ...], n: int):
        require(n >= 1, "batch must be nonempty")
        sizes = model.spec.layer_sizes
        self.n = n
        self.params, self.grad = np.empty((2,) + lead + (model.n_params,))
        outs = [np.empty(lead + (n, o)) for o in sizes[1:]]
        work = {width: np.empty(lead + (n, width)) for width in sizes[1:]}
        self.out, self.sq = outs[-1], work[sizes[-1]]
        # the output and its square, flattened per parameter vector for the loss
        self.out_rows, self.sq_rows = (a.reshape(lead + (-1,)) for a in (self.out, self.sq))
        self.layers, self.backward = [], []
        for li, ((o, i), (span_w, span_b)) in enumerate(zip(model._shapes, model._spans)):
            w = self.params[..., span_w].reshape(lead + (o, i))
            self.layers.append((w.swapaxes(-1, -2), self.params[..., None, span_b], outs[li]))
            # the delta of layer li lives in its output buffer; layer 0's
            # input is the batch, and its delta is not propagated further
            a, back = (outs[li - 1], work[i]) if li else (None, None)
            self.backward.append((outs[li], outs[li].swapaxes(-1, -2), w, a, back,
                                  self.grad[..., span_w].reshape(lead + (o, i)),
                                  self.grad[..., span_b]))
        self.backward.reverse()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output buffer, holding the network's output on x (L + (B, in))."""
        for w_t, b, z in self.layers:
            np.matmul(x, w_t, out=z)
            z += b
            if z is not self.out:
                np.tanh(z, out=z)
            x = z
        return x

    def run(self, x: np.ndarray, y: np.ndarray, need_grad: bool):
        """Losses (shape L) of the parameters on their own batch; with
        need_grad, their gradients are left in `grad`. Each matmul runs the
        same BLAS call on every vector of a stack and each sum reduces along
        one vector's own axes, so a stacked row equals the same vector
        evaluated alone, bit for bit."""
        # the residual goes into the output buffer, which the backward pass
        # does not read
        diff = np.subtract(self.forward(x), y, out=self.out)
        if not need_grad:
            np.square(diff, out=diff)
            return np.add.reduce(self.out_rows, axis=-1) / self.n
        np.multiply(diff, diff, out=self.sq)
        loss = np.add.reduce(self.sq_rows, axis=-1) / self.n
        np.multiply(2.0, diff, out=diff)
        np.divide(diff, self.n, out=diff)
        for delta, delta_t, w, a, back, grad_w, grad_b in self.backward:
            np.matmul(delta_t, x if a is None else a, out=grad_w)
            np.add.reduce(delta, axis=-2, out=grad_b)
            if a is not None:
                # the next delta, (delta @ w) * (1 - a^2), goes into the
                # buffer of a, which no later step reads
                np.matmul(delta, w, out=back)
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
                np.multiply(back, a, out=a)
        return loss


@dataclass
class MlpTask:
    """A model plus its fixed synthetic dataset, read once at construction.

    `full_loss` has its own loss-only evaluator with feature-major (width, N)
    activations. Each bias rides in its layer's matmul through a row of ones
    below the input, [x.T; 1], and below each hidden buffer, so a hidden
    layer is one matmul of its [W | b] buffer and one in-place tanh. The
    output layer's matmul writes (N, out) row-major into the residual buffer,
    reduced in the order `Plan.run` reduces it. At 4-16-16-4 with
    N = 1,024 (every shipped config) the loss equals `loss_and_grad`'s bit for
    bit; at other shapes OpenBLAS may pick another kernel for one layout, and
    the two agree to a few ulps.
    """

    model: MlpModel
    x: np.ndarray
    y: np.ndarray
    # the flat-parameter index of each entry of the (o, i + 1) [W | b]
    # buffers, consecutive views of _wb_flat
    _order: np.ndarray = field(init=False, repr=False, compare=False)
    _wb_flat: np.ndarray = field(init=False, repr=False, compare=False)
    _wb: list = field(init=False, repr=False, compare=False)
    # [x.T; 1], then each hidden layer's (o + 1, N) buffer
    _acts: list = field(init=False, repr=False, compare=False)
    _residual: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.model.spec.layer_sizes
        n = len(self.x)
        if n == 0 or np.shape(self.x) != (n, sizes[0]) or np.shape(self.y) != (n, sizes[-1]):
            raise InvalidInputError(f"data shapes {np.shape(self.x)}, {np.shape(self.y)} do "
                                    f"not fit layer sizes {sizes} with N >= 1 samples")
        shapes = self.model._shapes
        order = [np.column_stack([np.arange(span_w.start, span_w.stop).reshape(o, i),
                                  np.arange(span_b.start, span_b.stop)]).ravel()
                 for (o, i), (span_w, span_b) in zip(shapes, self.model._spans)]
        self._order = np.concatenate(order)
        self._wb_flat = np.empty(len(self._order))
        parts = np.split(self._wb_flat, np.cumsum([len(idx) for idx in order])[:-1])
        self._wb = [part.reshape(o, i + 1) for part, (o, i) in zip(parts, shapes)]
        self._acts = [np.ones((width + 1, n)) for width in sizes[:-1]]
        self._acts[0][:-1] = np.asarray(self.x, dtype=float).T
        self._residual = np.empty((n, sizes[-1]))

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def full_loss(self, params: np.ndarray) -> float:
        """The loss over all N samples: `model.loss_and_grad(params, x, y,
        need_grad=False)[0]`, through this task's feature-major evaluator."""
        params = self.model._checked(params, stacked=False)
        # the indices are all in range; mode="clip" only spares the buffered
        # copy that the default bounds check makes of `out`
        np.take(params, self._order, out=self._wb_flat, mode="clip")
        for wb, a, h in zip(self._wb, self._acts, self._acts[1:]):
            z = h[:-1]
            np.matmul(wb, a, out=z)
            np.tanh(z, out=z)
        diff = np.matmul(self._acts[-1].T, self._wb[-1].T, out=self._residual)
        diff -= self.y
        np.square(diff, out=diff)
        return float(diff.reshape(-1).sum() / len(diff))

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
    teacher_gain: float = 1.0,
) -> MlpTask:
    """Fixed regression dataset: inputs are Gaussian, targets come from a
    frozen randomly initialized teacher network of the student's architecture."""
    from .rng import rng_stream

    model = MlpModel(spec)
    rng_x = rng_stream(seed, 0)
    rng_t = rng_stream(seed, 1)
    x = rng_x.standard_normal((n_samples, spec.layer_sizes[0]))
    t_params = model.init_params(rng_t) * teacher_gain
    y = model.forward(t_params, x)
    return MlpTask(model=model, x=x, y=y)
