"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

The operation set is exactly what the adaptation networks and losses need:
matrix product, bias add, elementwise activations, row softmax, dropout,
batch normalization, gradient reversal, row gather/concat and a scalar
sum, plus :func:`dense`, a whole MLP layer (matrix product,
bias, optional batch norm, activation, optional dropout) fused into one
operation.  Each operation records one node on an explicit :class:`Tape`:
its inputs, its output and its backward function.  :func:`backward` walks
the nodes in exact reverse order, accumulating gradients additively into
every tensor that requires them.
:func:`dense` computes with the same array kernels as the primitive chain
it replaces, so its values and gradients are bit-identical to that chain's.
Everything is double precision so finite-difference checks at eps = 1e-5
resolve cleanly.

A :class:`ParamBuffer` packs parameters into one contiguous vector, so
:func:`sgd_nesterov_step` updates all of them with a few vector operations.

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
    """Ordered record of ``(inputs, out, backward_fn)`` nodes.

    Operations append themselves in execution order, which is already a
    topological order of the graph; :func:`backward` visits the nodes in
    exact reverse order.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple[Sequence[Tensor], Tensor, Callable]] = []


def record_op(
    tape: Tape | None,
    inputs: Sequence[Tensor],
    data: np.ndarray,
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """The tensor ``out`` around ``data = op(inputs)``, registered on ``tape``.

    ``data`` must already be a 2-D float64 array: it needs none of
    ``Tensor()``'s conversion and shape checks.  ``backward_fn(g)`` receives
    dL/d(out) and returns one gradient per input (``None`` for inputs that
    get none).  This is the extension point composite losses use to define
    fused operations.
    """
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            break
    else:
        out.requires_grad = False
        return out
    if tape is not None:
        tape.nodes.append((inputs, out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate dL/dx into every requires_grad tensor reachable from loss;
    a tensor used several times collects the sum of its contributions."""
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar tensor, got {loss.shape}")
    loss.grad = np.ones((1, 1))
    for inputs, out, backward_fn in reversed(tape.nodes):
        if out.grad is None:
            continue
        for t, gi in zip(inputs, backward_fn(out.grad)):
            if gi is not None and t.requires_grad:
                t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------------------
# array kernels, shared by the primitive operations and by :func:`dense`

# batch reductions call np.add.reduce directly: ndarray.sum, mean and var
# compute exactly this (a reduce, for mean and var then a division by the
# count) behind a Python-level wrapper
def _colsum(a: np.ndarray) -> np.ndarray:
    return np.add.reduce(a, axis=0, keepdims=True)


def _relu(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # subgradient 0 at exactly 0
    return np.maximum(d, 0.0), d > 0.0


def _sigmoid(d: np.ndarray) -> np.ndarray:
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    s[~pos] = e / (1.0 + e)
    np.clip(s, _SIG_LO, _SIG_HI, out=s)
    return s


def _sigmoid_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return g * s * (1.0 - s)


def _dropout_mask(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray:
    """Inverted-dropout multipliers: 0 for dropped entries, 1/(1-rate) for kept ones."""
    if rng is None:
        raise StateError("training-mode dropout needs an explicit rng")
    scale = 1.0 / (1.0 - rate)
    return (rng.random(shape) >= rate) * scale


_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def _bn_forward(d, gamma, beta, state, training):
    """Batch norm of ``d``; returns (output, xhat, ivar).

    Training mode normalises with the batch statistics and folds them into
    ``state``'s running statistics; eval mode normalises with those.
    """
    if training:
        n = d.shape[0]
        if n < 2:
            raise DataError(f"batch norm needs batch size >= 2 in training mode, got {n}")
        mu = _colsum(d) / n
        dev = d - mu
        var = _colsum(np.square(dev)) / n
        state.mean = (1.0 - _BN_MOMENTUM) * state.mean + _BN_MOMENTUM * mu
        state.var = (1.0 - _BN_MOMENTUM) * state.var + _BN_MOMENTUM * var
    else:
        dev = d - state.mean
        var = state.var
    ivar = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = dev * ivar
    return xhat * gamma + beta, xhat, ivar


def _bn_backward(g, gamma, xhat, ivar, training):
    """Gradients of :func:`_bn_forward` with respect to (d, gamma, beta)."""
    if training:
        # batch statistics depend on every row, so the chain rule couples
        # the batch: dx = ivar * (dxh - mean(dxh) - xhat * mean(dxh*xhat))
        n = g.shape[0]
        dxh = g * gamma
        dx = ivar * (dxh - _colsum(dxh) / n - xhat * (_colsum(dxh * xhat) / n))
    else:
        dx = g * gamma * ivar
    return dx, _colsum(g * xhat), _colsum(g)


# ---------------------------------------------------------------------------
# primitive operations


def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return record_op(tape, (a, b), a.data @ b.data, bwd)


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add needs equal shapes, got {a.shape} and {b.shape}")

    def bwd(g):
        return g, g

    return record_op(tape, (a, b), a.data + b.data, bwd)


def add_bias(tape: Tape | None, x: Tensor, bias: Tensor) -> Tensor:
    """x[m x n] + bias[1 x n], broadcast over rows."""
    if bias.rows != 1 or bias.cols != x.cols:
        raise ShapeError(f"bias must be 1x{x.cols}, got {bias.shape}")

    def bwd(g):
        return g, _colsum(g)

    return record_op(tape, (x, bias), x.data + bias.data, bwd)


def scale_shift(tape: Tape | None, x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """Elementwise scale * x + shift with constant coefficients."""

    def bwd(g):
        return (scale * g,)

    return record_op(tape, (x,), scale * x.data + shift, bwd)


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul needs equal shapes, got {a.shape} and {b.shape}")

    def bwd(g):
        return g * b.data, g * a.data

    return record_op(tape, (a, b), a.data * b.data, bwd)


def mul_colvec(tape: Tape | None, x: Tensor, c: Tensor) -> Tensor:
    """x[m x n] * c[m x 1], column vector broadcast across features."""
    if c.cols != 1 or c.rows != x.rows:
        raise ShapeError(f"column vector must be {x.rows}x1, got {c.shape}")

    def bwd(g):
        return g * c.data, (g * x.data).sum(axis=1, keepdims=True)

    return record_op(tape, (x, c), x.data * c.data, bwd)


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    y, gate = _relu(x.data)

    def bwd(g):
        return (g * gate,)

    return record_op(tape, (x,), y, bwd)


def sigmoid(tape: Tape | None, x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def bwd(g):
        return (_sigmoid_grad(g, s),)

    return record_op(tape, (x,), s, bwd)


def softmax_rows(tape: Tape | None, x: Tensor) -> Tensor:
    if x.cols < 2:
        raise ShapeError(f"softmax needs at least 2 columns, got {x.cols}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return record_op(tape, (x,), p, bwd)


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

        def bwd_id(g):
            return (g,)

        return record_op(tape, (x,), x.data.copy(), bwd_id)
    keep = _dropout_mask(x.shape, rate, rng)

    def bwd(g):
        return (g * keep,)

    return record_op(tape, (x,), x.data * keep, bwd)


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
) -> Tensor:
    g_t, b_t = gamma.tensor, beta.tensor
    if g_t.shape != (1, x.cols) or b_t.shape != (1, x.cols):
        raise ShapeError(f"gamma/beta must be 1x{x.cols}")
    y, xhat, ivar = _bn_forward(x.data, g_t.data, b_t.data, state, training)

    def bwd(g):
        return _bn_backward(g, g_t.data, xhat, ivar, training)

    return record_op(tape, (x, g_t, b_t), y, bwd)


def dense(
    tape: Tape | None,
    x: Tensor,
    w: Tensor,
    b: Tensor,
    activation: str = "none",
    rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
    bn: tuple[Tensor, Tensor, BatchNormState] | None = None,
) -> Tensor:
    """One MLP layer as one tape node: x @ w + b, then batch norm when
    ``bn = (gamma, beta, state)`` is given, the activation (``relu``,
    ``sigmoid`` or ``none``) and, for ``rate`` > 0, dropout.

    Values, gradients, dropout draws and running-statistic updates are
    bit-identical to the chain matmul -> add_bias -> batch_norm ->
    relu/sigmoid -> dropout: the backward replays the same kernels in
    reverse, and skips only the input gradient nobody asked for.
    """
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {x.shape} x {w.shape}")
    y = x.data @ w.data + b.data
    inputs: tuple[Tensor, ...] = (x, w, b)
    if bn is not None:
        gamma, beta, state = bn
        y, xhat, ivar = _bn_forward(y, gamma.data, beta.data, state, training)
        inputs = (x, w, b, gamma, beta)
    if activation == "relu":
        y, gate = _relu(y)
    elif activation == "sigmoid":
        y = s = _sigmoid(y)
    elif activation != "none":
        raise ConfigError(f"unknown activation {activation!r}")
    keep = None
    if training and rate > 0.0:
        keep = _dropout_mask(y.shape, rate, rng)
        y = y * keep

    def bwd(g):
        if keep is not None:
            g = g * keep
        if activation == "relu":
            g = g * gate
        elif activation == "sigmoid":
            g = _sigmoid_grad(g, s)
        bn_grads = ()
        if bn is not None:
            g, dgamma, dbeta = _bn_backward(g, gamma.data, xhat, ivar, training)
            bn_grads = (dgamma, dbeta)
        dx = g @ w.data.T if x.requires_grad else None
        return (dx, x.data.T @ g, _colsum(g)) + bn_grads

    return record_op(tape, inputs, y, bwd)


def grad_reverse(tape: Tape | None, x: Tensor, lambda_d: float) -> Tensor:
    """Forward identity; backward multiplies the incoming gradient by -lambda_d."""
    if lambda_d < 0:
        raise ConfigError(f"gradient reversal coefficient must be >= 0, got {lambda_d}")

    def bwd(g):
        return (-lambda_d * g,)

    return record_op(tape, (x,), x.data.copy(), bwd)


def sum_all(tape: Tape | None, x: Tensor) -> Tensor:
    def bwd(g):
        return (np.full(x.shape, g[0, 0]),)

    return record_op(tape, (x,), np.array([[x.data.sum()]]), bwd)


def take_rows(tape: Tape | None, x: Tensor, idx) -> Tensor:
    """Gather rows by index; backward scatters gradients back additively."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise ShapeError(f"row index out of range for {x.rows} rows")

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return record_op(tape, (x,), x.data[idx], bwd)


def concat_rows(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.cols:
        raise ShapeError(f"row concat needs equal widths, got {a.shape} and {b.shape}")
    m = a.rows

    def bwd(g):
        return g[:m], g[m:]

    return record_op(tape, (a, b), np.vstack([a.data, b.data]), bwd)


# ---------------------------------------------------------------------------
# parameters and the optimizer


class Parameter:
    """Trainable tensor plus a per-parameter LR factor."""

    __slots__ = ("name", "tensor", "lr_multiplier")

    def __init__(self, data, lr_multiplier: float = 1.0, name: str = ""):
        if lr_multiplier <= 0:
            raise ConfigError(f"lr multiplier must be positive, got {lr_multiplier}")
        self.tensor = Tensor(data, requires_grad=True)
        self.lr_multiplier = float(lr_multiplier)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, x{self.lr_multiplier:g})"


class ParamBuffer:
    """Parameters packed, in order, into one contiguous float64 vector.

    Packing copies each parameter's values into ``data``, then rebinds its
    ``tensor.data`` to a view of them, so in-place writes through either
    side are shared.  ``velocity`` holds the optimizer's Nesterov velocity,
    zero at the start, and ``lr_scale`` every element's lr multiplier.
    """

    __slots__ = ("params", "sizes", "data", "velocity", "lr_scale")

    def __init__(self, params: Iterable[Parameter]):
        self.params = list(params)
        self.sizes = [p.tensor.data.size for p in self.params]
        total = sum(self.sizes)
        self.data = np.empty(total)
        self.velocity = np.zeros(total)
        self.lr_scale = np.repeat(np.array([p.lr_multiplier for p in self.params]), self.sizes)
        start = 0
        for p, size in zip(self.params, self.sizes):
            stop = start + size
            shape = p.tensor.data.shape
            self.data[start:stop] = p.tensor.data.ravel()
            p.tensor.data = self.data[start:stop].reshape(shape)
            start = stop


def sgd_nesterov_step(buf: ParamBuffer, base_lr: float, momentum: float) -> None:
    """One Nesterov step: v <- mu*v - lr*g; theta <- theta + mu*v - lr*g.

    The step is a handful of vector operations over a :class:`ParamBuffer`.
    The effective lr is base_lr * lr_multiplier per element.  Parameters
    without a gradient keep their values and velocity bit for bit;
    gradients are cleared afterwards.
    """
    if base_lr <= 0:
        raise ConfigError(f"base_lr must be positive, got {base_lr}")
    flat, trained = [], []
    for p, size in zip(buf.params, buf.sizes):
        g = p.tensor.grad
        trained.append(g is not None)
        flat.append(np.zeros(size) if g is None else g.ravel())
        p.tensor.grad = None
    if not any(trained):
        raise StateError("no parameter has a gradient")
    step = base_lr * buf.lr_scale
    step *= np.concatenate(flat)
    v = momentum * buf.velocity
    v -= step
    theta = momentum * v
    theta -= step
    theta += buf.data
    where = True if all(trained) else np.repeat(trained, buf.sizes)
    np.copyto(buf.velocity, v, where=where)
    np.copyto(buf.data, theta, where=where)
