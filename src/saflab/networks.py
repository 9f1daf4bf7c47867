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
from .autodiff import BatchNormState, Layer, Parameter, ParamBuffer, Tape, Tensor
from .data import read_text, write_atomic
from .exceptions import DataError, ShapeError, StateError


def _init_weight(fan_in: int, fan_out: int, activation: str, rng: np.random.Generator):
    # He-uniform feeds ReLU layers, Xavier-uniform everything else
    if activation == "relu":
        limit = math.sqrt(6.0 / fan_in)
    else:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class _Layers:
    """The one parameter walk, layer by layer over ``self.layers``."""

    def parameters(self):
        for layer in self.layers:
            yield from (p for p in (layer.w, layer.b, layer.gamma, layer.beta) if p is not None)

    def named_arrays(self):
        """All persistent arrays: each layer's w, b, gamma and beta, then its
        batch-norm running statistics."""
        for layer in self.layers:
            yield from ((p.name, p.tensor.data)
                        for p in (layer.w, layer.b, layer.gamma, layer.beta) if p is not None)
            if layer.bn_state is not None:
                yield f"{layer.name}.bn_mean", layer.bn_state.mean
                yield f"{layer.name}.bn_var", layer.bn_state.var


class MLP(_Layers):
    """Stack of FC -> [batch norm] -> activation -> [dropout] layers, each an
    :class:`~saflab.autodiff.Layer` run as one :func:`saflab.autodiff.dense`
    tape node; the constructor's ``layers`` holds one ``(width, "relu" |
    "sigmoid" | "none", dropout, batch_norm)`` row each."""

    def __init__(self, in_dim: int, layers, rng: np.random.Generator,
                 lr_multiplier: float, name: str):
        self.name = name
        self.layers: list[Layer] = []
        fan_in = in_dim
        for i, (width, act, rate, bn) in enumerate(layers):
            prefix = f"{name}.{i}"
            w = Parameter(_init_weight(fan_in, width, act, rng), lr_multiplier, f"{prefix}.w")
            b = Parameter(np.zeros((1, width)), lr_multiplier, f"{prefix}.b")
            layer = Layer(prefix, w, b, act, rate)
            if bn:
                layer.gamma = Parameter(np.ones((1, width)), lr_multiplier, f"{prefix}.bn_gamma")
                layer.beta = Parameter(np.zeros((1, width)), lr_multiplier, f"{prefix}.bn_beta")
                layer.bn_state = BatchNormState(width)
            self.layers.append(layer)
            fan_in = width

    def forward(self, tape: Tape | None, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        for layer in self.layers:
            x = ad.dense(tape, x, layer, training, rng)
        return x


class SAFModule(_Layers):
    """Parallel feature bottlenecks plus a sigmoid weight estimator."""

    def __init__(self, in_dim: int, saf_dim: int, count: int,
                 rng: np.random.Generator, lr_multiplier: float, name: str):
        self.bottlenecks = [MLP(in_dim, [(saf_dim, "relu", 0.0, False)], rng, lr_multiplier,
                                f"{name}.s{i}") for i in range(count)]
        self.estimator = MLP(saf_dim, [(1, "sigmoid", 0.0, False)], rng, lr_multiplier,
                             f"{name}.eta")
        self.layers = [layer for block in (*self.bottlenecks, self.estimator)
                       for layer in block.layers]


class ModelBundle(_Layers):
    """F, B, C, D and M, built by :func:`build_bundle` from a checked config.

    ``buffer`` packs every parameter, in :meth:`parameters` order, into one
    flat :class:`~saflab.autodiff.ParamBuffer`, which the optimizer steps.
    """

    def __init__(self, F: MLP, B: MLP, C: MLP, D: MLP, M: SAFModule, num_classes: int):
        self.blocks = (F, B, C, D, M)
        self.F, self.B, self.C, self.D, self.M = self.blocks
        self.layers = [layer for block in self.blocks for layer in block.layers]
        self.num_classes = num_classes
        self.buffer = ParamBuffer(self.parameters())

    def save_params(self, path) -> None:
        """Flat text format: one record per array -- name, shape, decimal values.
        A non-finite array raises :class:`StateError` naming it; nothing is written."""
        lines = []
        for name, arr in self.named_arrays():
            if not np.isfinite(arr).all():
                raise StateError(f"{name} is not finite; {path} is not written")
            vals = " ".join(map(repr, arr.ravel().tolist()))
            lines.append(f"{name} {arr.shape[0]} {arr.shape[1]} {vals}")
        write_atomic(path, "\n".join(lines) + "\n")

    def load_params(self, path) -> None:
        records, lines = {}, {}
        for lineno, line in enumerate(read_text(path, DataError).split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(" ")
            where = f"{path}, line {lineno}"
            if len(parts) < 3:
                raise DataError(f"{where}: a record needs a name, rows and cols")
            name = parts[0]
            if name in lines:
                raise DataError(f"{where}: record {name!r} is already set on line {lines[name]}")
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
            records[name], lines[name] = vals.reshape(rows, cols), lineno
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


def parameter_counts(config) -> dict[str, int]:
    """The parameters :func:`build_bundle` makes for ``config``, counted without building
    them, per group (F; B, C and D; M) keyed by the model field that sizes it."""
    widths = (config.input_dim, *config.f_widths)
    h, k = config.bottleneck_dim, config.num_classes
    d_out = 2 if config.backbone == "dann" else k
    saf_in = h if config.mixup_after_bottleneck else widths[-1]
    return {"f_widths": sum((a + 1) * b for a, b in zip(widths, widths[1:])),
            "bottleneck_dim": (widths[-1] + 3) * h + 2 * (h + 1) * h + (h + 1) * (k + d_out),
            "saf_dim": (config.saf_bottlenecks * (saf_in + 1) + 1) * config.saf_dim + 1}


def forward_features(tape: Tape | None, bundle: ModelBundle, x) -> Tensor:
    """Run the extractor (no dropout, no batch norm) on a Batch or raw matrix."""
    return bundle.F.forward(tape, Tensor(getattr(x, "features", x)))


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
