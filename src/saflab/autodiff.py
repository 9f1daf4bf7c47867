"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

The operation set is exactly what the adaptation networks and losses need:
matrix product, bias add, elementwise activations, row softmax, dropout,
batch normalization, gradient reversal, row gather/concat and a couple of
scalar reductions.  Each operation records one backward closure on an
explicit :class:`Tape`; :func:`backward` replays the tape in exact reverse
order, accumulating gradients additively into every tensor that requires
them.  Everything is double precision so finite-difference checks at
eps = 1e-5 resolve cleanly.

A Tape and its tensors belong to a single training run and must not be
shared across concurrent runs.  Random behaviour (dropout) always takes an
explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .exceptions import ConfigError, DataError, ShapeError, StateError

# Open-interval clamp bounds for sigmoid: keeps eta strictly inside (0, 1)
# even when the input saturates in float64.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


class Tensor:
    """Dense 2-D float64 value array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got array of shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations.

    Operations append themselves in execution order, which is already a
    topological order of the graph; the backward pass visits the record in
    exact reverse order.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Callable[[], None]] = []


def record_op(
    tape: Tape | None,
    inputs: Sequence[Tensor],
    out: Tensor,
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Register ``out = op(inputs)`` on ``tape``.

    ``backward_fn(g)`` receives dL/d(out) and returns one gradient per input
    (``None`` for inputs that get none).  Gradients accumulate additively so
    a tensor used several times collects the sum of its contributions.  This
    is the extension point composite losses use to define fused operations.
    """
    out.requires_grad = any(t.requires_grad for t in inputs)
    if tape is None or not out.requires_grad:
        return out

    def node():
        g = out.grad
        if g is None:
            return
        for t, gi in zip(inputs, backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            t.grad = gi if t.grad is None else t.grad + gi

    tape.nodes.append(node)
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate dL/dx into every requires_grad tensor reachable from loss."""
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar tensor, got {loss.shape}")
    loss.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        node()


# ---------------------------------------------------------------------------
# primitive operations


def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return record_op(tape, (a, b), out, bwd)


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        return g, g

    return record_op(tape, (a, b), out, bwd)


def add_bias(tape: Tape | None, x: Tensor, bias: Tensor) -> Tensor:
    """x[m x n] + bias[1 x n], broadcast over rows."""
    if bias.rows != 1 or bias.cols != x.cols:
        raise ShapeError(f"bias must be 1x{x.cols}, got {bias.shape}")
    out = Tensor(x.data + bias.data)

    def bwd(g):
        return g, g.sum(axis=0, keepdims=True)

    return record_op(tape, (x, bias), out, bwd)


def scale_shift(tape: Tape | None, x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """Elementwise scale * x + shift with constant coefficients."""
    out = Tensor(scale * x.data + shift)

    def bwd(g):
        return (scale * g,)

    return record_op(tape, (x,), out, bwd)


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g):
        return g * b.data, g * a.data

    return record_op(tape, (a, b), out, bwd)


def mul_colvec(tape: Tape | None, x: Tensor, c: Tensor) -> Tensor:
    """x[m x n] * c[m x 1], column vector broadcast across features."""
    if c.cols != 1 or c.rows != x.rows:
        raise ShapeError(f"column vector must be {x.rows}x1, got {c.shape}")
    out = Tensor(x.data * c.data)

    def bwd(g):
        return g * c.data, (g * x.data).sum(axis=1, keepdims=True)

    return record_op(tape, (x, c), out, bwd)


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    # subgradient 0 at exactly 0
    gate = x.data > 0.0

    def bwd(g):
        return (g * gate,)

    return record_op(tape, (x,), out, bwd)


def sigmoid(tape: Tape | None, x: Tensor) -> Tensor:
    d = x.data
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    s[~pos] = e / (1.0 + e)
    np.clip(s, _SIG_LO, _SIG_HI, out=s)
    out = Tensor(s)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return record_op(tape, (x,), out, bwd)


def softmax_rows(tape: Tape | None, x: Tensor) -> Tensor:
    if x.cols < 2:
        raise ShapeError(f"softmax needs at least 2 columns, got {x.cols}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return record_op(tape, (x,), out, bwd)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Fused log-sum-exp log-softmax on a plain array (no tape node)."""
    z = x - x.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def dropout(
    tape: Tape | None,
    x: Tensor,
    rate: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Inverted dropout: scale survivors by 1/(1-rate) so eval is identity."""
    if not (0.0 <= rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        out = Tensor(x.data.copy())

        def bwd_id(g):
            return (g,)

        return record_op(tape, (x,), out, bwd_id)
    if rng is None:
        raise StateError("training-mode dropout needs an explicit rng")
    scale = 1.0 / (1.0 - rate)
    keep = (rng.random(x.shape) >= rate) * scale
    out = Tensor(x.data * keep)

    def bwd(g):
        return (g * keep,)

    return record_op(tape, (x,), out, bwd)


class BatchNormState:
    """Running per-column statistics used by eval-mode batch normalization."""

    __slots__ = ("mean", "var")

    def __init__(self, width: int):
        self.mean = np.zeros((1, width))
        self.var = np.ones((1, width))


def batch_norm(
    tape: Tape | None,
    x: Tensor,
    gamma: "Parameter",
    beta: "Parameter",
    state: BatchNormState,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    g_t, b_t = gamma.tensor, beta.tensor
    if g_t.shape != (1, x.cols) or b_t.shape != (1, x.cols):
        raise ShapeError(f"gamma/beta must be 1x{x.cols}")
    if training:
        if x.rows < 2:
            raise DataError(f"batch norm needs batch size >= 2 in training mode, got {x.rows}")
        mu = x.data.mean(axis=0, keepdims=True)
        var = x.data.var(axis=0, keepdims=True)
        state.mean = (1.0 - momentum) * state.mean + momentum * mu
        state.var = (1.0 - momentum) * state.var + momentum * var
    else:
        mu, var = state.mean, state.var
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * ivar
    out = Tensor(xhat * g_t.data + b_t.data)

    if training:

        def bwd(g):
            # batch statistics depend on every row, so the chain rule couples
            # the batch: dx = ivar * (dxh - mean(dxh) - xhat * mean(dxh*xhat))
            dxh = g * g_t.data
            dx = ivar * (
                dxh
                - dxh.mean(axis=0, keepdims=True)
                - xhat * (dxh * xhat).mean(axis=0, keepdims=True)
            )
            return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    else:

        def bwd(g):
            return (
                g * g_t.data * ivar,
                (g * xhat).sum(axis=0, keepdims=True),
                g.sum(axis=0, keepdims=True),
            )

    return record_op(tape, (x, g_t, b_t), out, bwd)


def grad_reverse(tape: Tape | None, x: Tensor, lambda_d: float) -> Tensor:
    """Forward identity; backward multiplies the incoming gradient by -lambda_d."""
    if lambda_d < 0:
        raise ConfigError(f"gradient reversal coefficient must be >= 0, got {lambda_d}")
    out = Tensor(x.data.copy())

    def bwd(g):
        return (-lambda_d * g,)

    return record_op(tape, (x,), out, bwd)


def sum_all(tape: Tape | None, x: Tensor) -> Tensor:
    out = Tensor([[x.data.sum()]])

    def bwd(g):
        return (np.full(x.shape, g[0, 0]),)

    return record_op(tape, (x,), out, bwd)


def mean_all(tape: Tape | None, x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor([[x.data.sum() / n]])

    def bwd(g):
        return (np.full(x.shape, g[0, 0] / n),)

    return record_op(tape, (x,), out, bwd)


def take_rows(tape: Tape | None, x: Tensor, idx) -> Tensor:
    """Gather rows by index; backward scatters gradients back additively."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise ShapeError(f"row index out of range for {x.rows} rows")
    out = Tensor(x.data[idx])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return record_op(tape, (x,), out, bwd)


def concat_rows(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.cols:
        raise ShapeError(f"row concat needs equal widths, got {a.shape} and {b.shape}")
    out = Tensor(np.vstack([a.data, b.data]))
    m = a.rows

    def bwd(g):
        return g[:m], g[m:]

    return record_op(tape, (a, b), out, bwd)


# ---------------------------------------------------------------------------
# parameters and the optimizer


class Parameter:
    """Trainable tensor plus Nesterov velocity and a per-parameter LR factor."""

    __slots__ = ("name", "tensor", "velocity", "lr_multiplier")

    def __init__(self, data, lr_multiplier: float = 1.0, name: str = ""):
        if lr_multiplier <= 0:
            raise ConfigError(f"lr multiplier must be positive, got {lr_multiplier}")
        self.tensor = Tensor(data, requires_grad=True)
        self.velocity = np.zeros_like(self.tensor.data)
        self.lr_multiplier = float(lr_multiplier)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, x{self.lr_multiplier:g})"


def sgd_nesterov_step(
    params: Iterable[Parameter], base_lr: float, momentum: float
) -> None:
    """One Nesterov step: v <- mu*v - lr*g; theta <- theta + mu*v - lr*g.

    Effective lr is base_lr * lr_multiplier per parameter.  Gradients are
    cleared afterwards.
    """
    if base_lr <= 0:
        raise ConfigError(f"base_lr must be positive, got {base_lr}")
    params = list(params)
    for p in params:
        if p.tensor.grad is None:
            raise StateError(f"parameter {p.name!r} has no gradient")
    for p in params:
        g = p.tensor.grad
        lr = base_lr * p.lr_multiplier
        v = p.velocity
        v *= momentum
        v -= lr * g
        p.tensor.data += momentum * v - lr * g
        p.tensor.grad = None
