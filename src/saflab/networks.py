"""The five trainable blocks: extractor F, bottleneck B, classifier C,
adversary D, and the mixup-weight module M = (S_1..S_k, S_eta).

Blocks are small configurable MLPs.  The bottleneck and classifier carry a
10x learning-rate multiplier relative to the extractor, the adversary
follows the extractor's rate.  The adversary path applies gradient reversal
to the features first, then runs them through the shared bottleneck.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Parameter, ParamBuffer, Tape, Tensor
from .data import read_text, write_atomic
from .exceptions import DataError, ShapeError, StateError


class _Layer:
    __slots__ = ("w", "b", "activation", "dropout", "gamma", "beta", "bn_state")

    def __init__(self, w, b, activation, dropout, gamma=None, beta=None, bn_state=None):
        self.w = w
        self.b = b
        self.activation = activation
        self.dropout = dropout
        self.gamma = gamma
        self.beta = beta
        self.bn_state = bn_state


def _init_weight(fan_in: int, fan_out: int, activation: str, rng: np.random.Generator):
    # He-uniform feeds ReLU layers, Xavier-uniform everything else
    if activation == "relu":
        limit = math.sqrt(6.0 / fan_in)
    else:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class MLP:
    """Stack of FC -> [batch norm] -> activation -> [dropout] layers, each
    recorded as one :func:`saflab.autodiff.dense` tape node; ``layers`` holds
    one ``(width, "relu" | "sigmoid" | "none", dropout, batch_norm)`` row each."""

    def __init__(self, in_dim: int, layers, rng: np.random.Generator,
                 lr_multiplier: float, name: str):
        self.name = name
        self.in_dim = in_dim
        self.layers: list[_Layer] = []
        fan_in = in_dim
        for i, (width, act, rate, bn) in enumerate(layers):
            w = Parameter(_init_weight(fan_in, width, act, rng), lr_multiplier, f"{name}.{i}.w")
            b = Parameter(np.zeros((1, width)), lr_multiplier, f"{name}.{i}.b")
            gamma = beta = state = None
            if bn:
                gamma = Parameter(np.ones((1, width)), lr_multiplier, f"{name}.{i}.bn_gamma")
                beta = Parameter(np.zeros((1, width)), lr_multiplier, f"{name}.{i}.bn_beta")
                state = BatchNormState(width)
            self.layers.append(_Layer(w, b, act, rate, gamma, beta, state))
            fan_in = width

    def forward(self, tape: Tape | None, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        if x.cols != self.in_dim:
            raise ShapeError(f"{self.name} expects width {self.in_dim}, got {x.cols}")
        h = x
        for layer in self.layers:
            bn = None
            if layer.bn_state is not None:
                bn = (layer.gamma.tensor, layer.beta.tensor, layer.bn_state)
            h = ad.dense(tape, h, layer.w.tensor, layer.b.tensor, layer.activation,
                         layer.dropout, training, rng, bn)
        return h

    def parameters(self):
        for layer in self.layers:
            yield layer.w
            yield layer.b
            if layer.gamma is not None:
                yield layer.gamma
                yield layer.beta

    def named_arrays(self):
        """All persistent arrays: parameters plus batch-norm running stats."""
        for p in self.parameters():
            yield p.name, p.tensor.data
        for i, layer in enumerate(self.layers):
            if layer.bn_state is not None:
                yield f"{self.name}.{i}.bn_mean", layer.bn_state.mean
                yield f"{self.name}.{i}.bn_var", layer.bn_state.var


class _Blocks:
    """Parameters and persistent arrays of the MLPs in ``self.blocks``, in order."""

    def parameters(self):
        for block in self.blocks:
            yield from block.parameters()

    def named_arrays(self):
        for block in self.blocks:
            yield from block.named_arrays()


class SAFModule(_Blocks):
    """Parallel feature bottlenecks plus a sigmoid weight estimator."""

    def __init__(self, in_dim: int, saf_dim: int, count: int,
                 rng: np.random.Generator, lr_multiplier: float, name: str):
        self.in_dim = in_dim
        self.bottlenecks = [MLP(in_dim, [(saf_dim, "relu", 0.0, False)], rng, lr_multiplier,
                                f"{name}.s{i}") for i in range(count)]
        self.estimator = MLP(saf_dim, [(1, "sigmoid", 0.0, False)], rng, lr_multiplier,
                             f"{name}.eta")
        self.blocks = (*self.bottlenecks, self.estimator)


class ModelBundle(_Blocks):
    """F, B, C, D and M, built by :func:`build_bundle` from a checked config.

    ``buffer`` packs every parameter, in :meth:`parameters` order, into one
    flat :class:`~saflab.autodiff.ParamBuffer`, which the optimizer steps.
    """

    def __init__(self, F: MLP, B: MLP, C: MLP, D: MLP, M: SAFModule, num_classes: int):
        self.blocks = (F, B, C, D, M)
        self.F, self.B, self.C, self.D, self.M = self.blocks
        self.num_classes = num_classes
        self.buffer = ParamBuffer(self.parameters())

    def save_params(self, path) -> None:
        """Flat text format: one record per array -- name, shape, decimal values.
        A non-finite array raises :class:`StateError` naming it; nothing is written."""
        lines = []
        for name, arr in self.named_arrays():
            if not np.isfinite(arr).all():
                raise StateError(f"{name} is not finite; {path} is not written")
            vals = " ".join(repr(float(v)) for v in arr.ravel())
            lines.append(f"{name} {arr.shape[0]} {arr.shape[1]} {vals}")
        write_atomic(path, "\n".join(lines) + "\n")

    def load_params(self, path) -> None:
        records = {}
        for lineno, line in enumerate(read_text(path, DataError).split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(" ")
            where = f"{path}, line {lineno}"
            if len(parts) < 3:
                raise DataError(f"{where}: a record needs a name, rows and cols")
            name = parts[0]
            try:
                what = "shape"
                rows, cols = int(parts[1]), int(parts[2])
                what = "value"
                vals = np.array([float(v) for v in parts[3:]])
            except ValueError as exc:
                raise DataError(f"{where}: bad {what} in record {name!r}: {exc}") from None
            if min(rows, cols) < 0 or vals.size != rows * cols:
                raise DataError(f"{where}: record {name!r} has {vals.size} values for shape "
                                f"{rows}x{cols}")
            if not np.isfinite(vals).all():
                raise DataError(f"{where}: record {name!r} holds a non-finite value")
            records[name] = vals.reshape(rows, cols)
        own = dict(self.named_arrays())
        missing = sorted(set(own) - set(records))
        extra = sorted(set(records) - set(own))
        if missing or extra:
            raise DataError(f"parameter file mismatch: missing={missing}, unexpected={extra}")
        for name, arr in own.items():
            if records[name].shape != arr.shape:
                raise ShapeError(f"record {name!r} has shape {records[name].shape}, "
                                 f"expected {arr.shape}")
            arr[...] = records[name]


def build_bundle(config, rng: np.random.Generator) -> ModelBundle:
    """Construct all blocks from a validated TrainConfig.

    Learning-rate multipliers: extractor and adversary carry 1, bottleneck,
    classifier and mixup module carry 10.
    """
    k = config.num_classes
    feature_dim = config.f_widths[-1]
    hidden, drop = config.bottleneck_dim, config.dropout
    d_out = 2 if config.backbone == "dann" else k
    saf_in = hidden if config.mixup_after_bottleneck else feature_dim
    F = MLP(config.input_dim, [(w, "relu", 0.0, False) for w in config.f_widths], rng, 1.0, "F")
    B = MLP(feature_dim, [(hidden, "relu", drop, True)], rng, 10.0, "B")
    C = MLP(hidden, [(hidden, "relu", drop, False), (k, "none", 0.0, False)], rng, 10.0, "C")
    D = MLP(hidden, [(hidden, "relu", drop, False), (d_out, "none", 0.0, False)], rng, 1.0, "D")
    M = SAFModule(saf_in, config.saf_dim, config.saf_bottlenecks, rng, 10.0, "M")
    return ModelBundle(F, B, C, D, M, k)


def forward_features(tape: Tape | None, bundle: ModelBundle, x,
                     training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Run the extractor on a Batch (or raw matrix), returning feature rows."""
    feats = getattr(x, "features", x)
    t = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats, dtype=np.float64))
    return bundle.F.forward(tape, t, training, rng)


def classify(tape: Tape | None, bundle: ModelBundle, features: Tensor,
             training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Bottleneck then classifier: logits of shape batch x num_classes."""
    h = bundle.B.forward(tape, features, training, rng)
    return bundle.C.forward(tape, h, training, rng)


def adversary_logits(tape: Tape | None, bundle: ModelBundle, features: Tensor,
                     lambda_d: float, training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Gradient reversal, then the shared bottleneck, then the adversary.

    Forward-identity GRL means this equals the classify pipeline with C
    replaced by D; on the way back the extractor receives -lambda_d times
    the adversary gradient while B and D receive it unflipped.
    """
    h = ad.grad_reverse(tape, features, lambda_d)
    h = bundle.B.forward(tape, h, training, rng)
    return bundle.D.forward(tape, h, training, rng)


def saf_weight(tape: Tape | None, m: SAFModule, phi1: Tensor, phi2: Tensor) -> Tensor:
    """Adaptive mixup weight: eta = S_eta(sum of routed bottleneck outputs).

    The two pair members are distributed round-robin over the k bottlenecks:
    with k=2 this is S_eta(S1(phi1) + S2(phi2)); with k=1 both members share
    the single bottleneck; with k=4 each member feeds two.
    """
    k = len(m.bottlenecks)
    total = None
    for i in range(max(k, 2)):
        member = phi1 if i % 2 == 0 else phi2
        s = m.bottlenecks[i % k].forward(tape, member)
        total = s if total is None else ad.add(tape, total, s)
    return m.estimator.forward(tape, total)
