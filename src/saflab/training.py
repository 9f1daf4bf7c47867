"""The joint training loop: source supervision + adversarial alignment +
mixup supervision, with tanh ramp schedules and periodic evaluation.

One backward pass per step carries all three objectives; the gradient
reversal layer inside the adversary path gives the adversary its
opposite-sign update within that single pass.  Target ground-truth labels
never enter the training path -- training batches carry no target labels by
construction; they are used only by :func:`evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import Batch, cycle_batches, write_atomic
from .exceptions import ConfigError, DataError, StateError
from .losses import (
    MarginParams,
    accuracy,
    conditional_entropy,
    cross_entropy,
    dann_domain_loss,
    empirical_h_divergence,
    empirical_margin_disparity,
    empirical_mdd_estimate,
    mdd_adversarial_loss,
)
from .mixup import MixupPolicy, saf_mixup_batch, saf_supervision_loss
from .networks import (ModelBundle, adversary_logits, build_bundle, classify, forward_features,
                       parameter_counts)

# caps that keep a bundle buildable (a width covers 2048-wide features) and a run finite
MAX_WIDTH = 4096
MAX_BOTTLENECKS = 64
MAX_PARAMETERS = 2**24  # 128 MiB per float64 vector of the parameter buffer
MAX_ITERATIONS = 10**7


@dataclass
class TrainConfig:
    """Every knob of one run: backbone, schedules, dimensions, mixup policy."""

    backbone: str = "mdd"
    total_iterations: int = 3000
    batch_size: int = 32
    base_lr: float = 0.004
    momentum: float = 0.9
    lambda_d_max: float = 0.1
    lambda_m_max: float = 0.1
    margin_gamma: float = 4.0
    saf_enabled: bool = True
    eval_every: int = 500
    seed: int = 0
    mixup: MixupPolicy = field(default_factory=MixupPolicy)
    input_dim: int = 2
    f_widths: tuple[int, ...] = (64, 32)
    bottleneck_dim: int = 16
    saf_dim: int = 16
    num_classes: int = 2
    saf_bottlenecks: int = 2
    dropout: float = 0.1
    mixup_after_bottleneck: bool = False

    def __post_init__(self):
        # every message starts with its field's name, which build_config maps to a key
        if self.backbone not in ("dann", "mdd"):
            raise ConfigError(f"backbone must be dann or mdd, got {self.backbone!r}")
        inf = math.inf
        bounds = {"total_iterations": (1, MAX_ITERATIONS), "batch_size": (2, inf),
                  "momentum": (0, inf), "lambda_d_max": (0, inf), "lambda_m_max": (0, inf),
                  "eval_every": (1, inf), "seed": (0, inf), "num_classes": (2, MAX_WIDTH),
                  "input_dim": (1, MAX_WIDTH), "bottleneck_dim": (1, MAX_WIDTH),
                  "saf_dim": (1, MAX_WIDTH), "saf_bottlenecks": (1, MAX_BOTTLENECKS)}
        for name, (lo, hi) in bounds.items():
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ConfigError(f"{name} must be >= {lo}, got {value}" if hi == inf
                                  else f"{name} must be in [{lo}, {hi}], got {value}")
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not self.margin_gamma > 1:
            raise ConfigError(f"margin_gamma must exceed 1, got {self.margin_gamma}")
        if not self.f_widths or not all(1 <= w <= MAX_WIDTH for w in self.f_widths):
            raise ConfigError(f"f_widths must be non-empty, each in [1, {MAX_WIDTH}], "
                              f"got {self.f_widths}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        counts = parameter_counts(self)
        if (total := sum(counts.values())) > MAX_PARAMETERS:
            raise ConfigError(f"{max(counts, key=counts.get)} sizes the largest share of the "
                              f"model's {total} parameters, above the cap of {MAX_PARAMETERS}")

    def margin_params(self) -> MarginParams:
        return MarginParams.from_gamma(self.margin_gamma)


@dataclass
class MetricsRecord:
    """One evaluation row; its fields are the metrics CSV columns, ``iteration`` as ``iter``."""

    iteration: int
    eps_c: float
    eps_d: float
    eps_m: float
    lambda_d: float
    lambda_m: float
    src_acc: float
    tgt_acc: float
    tgt_entropy: float
    mdd_est: float
    h_div: float

    def csv_row(self) -> str:
        iteration, *vals = astuple(self)
        return ",".join([str(iteration)] + [repr(float(v)) for v in vals])


METRICS_HEADER = ",".join(["iter", *(f.name for f in fields(MetricsRecord)[1:])])


def _ramp(t: int, total: int, max_value: float, speed: float) -> float:
    if t < 0:
        raise ConfigError(f"iteration must be >= 0, got {t}")
    if total < 1:
        raise ConfigError(f"total iterations must be >= 1, got {total}")
    t = min(t, total)
    return max_value * math.tanh(speed * t / total)


def lambda_d_schedule(t: int, total: int, max_value: float) -> float:
    """Adversarial weight ramp: max * tanh(10 t / T); 0 at t=0."""
    return _ramp(t, total, max_value, 10.0)


def lambda_m_schedule(t: int, total: int, max_value: float) -> float:
    """Mixup weight ramp, slower: max * tanh(5 t / T)."""
    return _ramp(t, total, max_value, 5.0)


@dataclass
class Objective:
    """One evaluation of the joint objective: its terms plus the activations
    the evaluation diagnostics read, among them the eval-mode softmax of each
    domain and the target logits (in a training step only for mdd, and the
    target's also for the mixup before B)."""

    total: Tensor
    eps_c: Tensor
    eps_d: Tensor
    eps_m: Tensor
    lambda_d: float
    lambda_m: float
    feats_src: Tensor
    feats_tgt: Tensor
    logits_src: Tensor
    logits_tgt: Tensor | None
    d_src: Tensor
    d_tgt: Tensor
    probs_src: np.ndarray | None
    probs_tgt: np.ndarray | None

    def terms(self) -> dict:
        return {"eps_c": self.eps_c.item(), "eps_d": self.eps_d.item(),
                "eps_m": self.eps_m.item(), "lambda_d": self.lambda_d,
                "lambda_m": self.lambda_m}


def objective(
    bundle: ModelBundle,
    src: Batch,
    tgt: Batch,
    config: TrainConfig,
    t: int,
    *,
    tape: Tape | None,
    rng: np.random.Generator,
) -> Objective:
    """eps_c + eps_d + lambda_m(t) * eps_m on one source and one target batch.

    :func:`train_step` builds it on a tape, in training mode, and
    differentiates ``total``; :func:`evaluate` computes the same terms in
    eval mode with ``tape=None``.  The GRL coefficient lambda_d(t) scales
    (and flips) only the extractor's share of the adversarial gradient; when
    it is exactly 0 the adversarial term is computed out of graph in eval
    mode and left out of ``total``, so the step matches plain supervised
    training.  In training mode a mixed batch of fewer than 2 rows (batch
    norm needs 2) contributes 0, like an empty one.

    F has no dropout and no batch norm, so its output is the same in either
    mode.  After the training-mode passes (source classify, then the
    adversary on each domain when it is in graph) each domain passes through
    eval-mode B, which is pure, at most once.  C and D read those outputs
    for every eval-mode view: the pseudo-labels of mdd and of the mixup, the
    out-of-graph adversary, and evaluate's logits and ``after_bottleneck``
    mixup.  A training step that mixes after B labels its training-mode B
    outputs with eval-mode C instead.  Every training-mode B pass updates
    B's running statistics, in a fixed order: an mdd+saf step makes 4 --
    source classify, source adversary, target adversary, then the mixed rows
    (with ``after_bottleneck`` the mixing inputs, target then source,
    instead of the mixed rows).  B normalises each domain's batch on its
    own, unlike the reference code of DANN and MDD, which passes one
    concatenated source+target batch; changing that changes the numerics.
    """
    if src.labels is None:
        raise DataError("source batches must carry labels")
    lam_d = lambda_d_schedule(t, config.total_iterations, config.lambda_d_max)
    lam_m = lambda_m_schedule(t, config.total_iterations, config.lambda_m_max)
    training = tape is not None
    adv_in_graph = training and lam_d > 0.0
    adv_tape = tape if adv_in_graph else None
    after = config.mixup_after_bottleneck

    feats_src = forward_features(tape, bundle, src)
    feats_tgt = forward_features(tape, bundle, tgt)
    if training:
        logits_src = classify(tape, bundle, feats_src, training, rng)
        if adv_in_graph:
            d_src = adversary_logits(tape, bundle, feats_src, lam_d, training, rng)
            d_tgt = adversary_logits(tape, bundle, feats_tgt, lam_d, training, rng)
    label_src = config.backbone == "mdd" or not training
    label_tgt = label_src or (config.saf_enabled and not after)
    h_src = bundle.B.forward(None, feats_src) if label_src or not adv_in_graph else None
    h_tgt = bundle.B.forward(None, feats_tgt) if label_tgt or not adv_in_graph else None
    if not adv_in_graph:
        d_src, d_tgt = bundle.D.forward(None, h_src), bundle.D.forward(None, h_tgt)
    logits_tgt = probs_src = probs_tgt = None
    if label_src:
        view_src = bundle.C.forward(None, h_src)
        logits_src = logits_src if training else view_src
        probs_src = ad.softmax_rows(None, view_src).data
    if label_tgt:
        logits_tgt = bundle.C.forward(None, h_tgt)
        probs_tgt = ad.softmax_rows(None, logits_tgt).data
    eps_c = cross_entropy(tape, logits_src, src.labels)
    total = eps_c
    if config.backbone == "dann":
        eps_d = dann_domain_loss(adv_tape, d_src, d_tgt)
    else:
        eps_d = mdd_adversarial_loss(adv_tape, Tensor(probs_src), d_src, Tensor(probs_tgt),
                                     d_tgt, config.margin_params())
    if lam_d > 0.0:
        total = ad.add(tape, total, eps_d)

    eps_m = Tensor([[0.0]])
    if config.saf_enabled:
        if after and training:  # mix, and label, the training-mode B outputs
            mix_tgt = bundle.B.forward(tape, feats_tgt, training, rng)
            pseudo = ad.softmax_rows(None, bundle.C.forward(None, mix_tgt)).data
            mix_src = (bundle.B.forward(tape, feats_src, training, rng)
                       if config.mixup.include_source else None)
        else:
            mix_tgt, mix_src = (h_tgt, h_src) if after else (feats_tgt, feats_src)
            pseudo = probs_tgt
        mixed = saf_mixup_batch(tape, bundle, mix_tgt, config.mixup, rng, pseudo_probs=pseudo,
                                src_features=mix_src, src_labels=src.labels)
        if len(mixed) >= 2 or not training:
            eps_m = saf_supervision_loss(tape, bundle, mixed, training, rng,
                                         through_bottleneck=not after)
            total = ad.add(tape, total, ad.scale_shift(tape, eps_m, lam_m))

    return Objective(total, eps_c, eps_d, eps_m, lam_d, lam_m, feats_src, feats_tgt,
                     logits_src, logits_tgt, d_src, d_tgt, probs_src, probs_tgt)


def train_step(
    bundle: ModelBundle,
    src: Batch,
    tgt: Batch,
    config: TrainConfig,
    t: int,
    rng: np.random.Generator,
) -> dict:
    """One optimization step on :func:`objective`; returns its terms.

    Raises :class:`StateError` naming the step and the term when a loss
    term is NaN or inf, before the parameters are updated.
    """
    tape = Tape()
    # a diverging model overflows here; the loss check (now or next step) names it
    with np.errstate(over="ignore", invalid="ignore"):
        obj = objective(bundle, src, tgt, config, t, tape=tape, rng=rng)
        terms = obj.terms()
        for name in ("eps_c", "eps_d", "eps_m"):
            if not math.isfinite(terms[name]):
                raise StateError(f"train step {t}: non-finite {name} ({terms[name]}); "
                                 "the model has diverged")
        ad.backward(obj.total, tape)
    ad.sgd_nesterov_step(bundle.buffer, config.base_lr, config.momentum)
    return terms


def evaluate(
    bundle: ModelBundle,
    src_eval: Batch,
    tgt_eval: Batch,
    config: TrainConfig,
    iteration: int = 0,
) -> MetricsRecord:
    """Eval-mode metrics: the objective's terms, accuracies, and the
    divergence diagnostics.

    Deterministic: the mixup loss uses a generator freshly seeded from the
    config, so calling twice yields identical records.  Target labels are
    consumed only here.  Raises :class:`StateError` when a parameter, a
    batch-norm running statistic, the features or the logits hold NaN or
    inf: a diverged model has no meaningful metrics.
    """
    if src_eval.labels is None or tgt_eval.labels is None:
        raise DataError("evaluation batches must carry labels")
    stats = [s for layer in bundle.layers if layer.bn_state is not None
             for s in (layer.bn_state.mean, layer.bn_state.var)]
    if not all(np.isfinite(a).all() for a in (bundle.buffer.data, *stats)):
        name = next(n for n, a in bundle.named_arrays() if not np.isfinite(a).all())
        raise StateError(f"evaluation at iteration {iteration}: non-finite {name}; "
                         "the model has diverged")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        obj = objective(bundle, src_eval, tgt_eval, config, iteration, tape=None,
                        rng=np.random.default_rng(config.seed))
    read = {"source features": obj.feats_src, "target features": obj.feats_tgt,
            "source logits": obj.logits_src, "target logits": obj.logits_tgt,
            "source adversary logits": obj.d_src, "target adversary logits": obj.d_tgt}
    for name, tensor in read.items():
        if not np.isfinite(tensor.data).all():
            raise StateError(f"evaluation at iteration {iteration}: non-finite {name}; "
                             "the model has diverged")

    if obj.d_src.cols == config.num_classes:
        params = config.margin_params()
        probs_d_s = ad.softmax_rows(None, obj.d_src).data
        probs_d_t = ad.softmax_rows(None, obj.d_tgt).data
        delta_s = empirical_margin_disparity(obj.probs_src, probs_d_s, params.rho)
        delta_t = empirical_margin_disparity(obj.probs_tgt, probs_d_t, params.rho)
        mdd_est = empirical_mdd_estimate(delta_s, delta_t)
    else:
        # a 2-way domain head is not a classifier over the label set
        mdd_est = math.nan

    return MetricsRecord(
        iteration=iteration,
        **obj.terms(),
        src_acc=accuracy(obj.logits_src, src_eval.labels),
        tgt_acc=accuracy(obj.logits_tgt, tgt_eval.labels),
        tgt_entropy=float(conditional_entropy(obj.probs_tgt).mean()),
        mdd_est=mdd_est,
        h_div=empirical_h_divergence(obj.feats_src.data, obj.feats_tgt.data),
    )


def run_experiment(
    config: TrainConfig,
    source: Batch,
    target: Batch,
    out_dir,
) -> Path:
    """Full run: T steps over independently cycling loaders, periodic evals.

    Writes metrics.csv incrementally and the final parameters to model.txt.
    A run that raises :class:`StateError` first writes error.txt: the
    iteration it reached, the exception type and the message.
    Fully deterministic given (config, data): all randomness flows from
    SeedSequence(config.seed).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ss = np.random.SeedSequence(config.seed)
    init_ss, src_ss, tgt_ss, step_ss = ss.spawn(4)
    bundle = build_bundle(config, np.random.default_rng(init_ss))
    src_iter = cycle_batches(source, config.batch_size, np.random.default_rng(src_ss))
    tgt_train = target.without_labels()
    tgt_iter = cycle_batches(tgt_train, config.batch_size, np.random.default_rng(tgt_ss))
    step_rng = np.random.default_rng(step_ss)

    done = 0
    try:
        with open(out_dir / "metrics.csv", "w", encoding="utf-8") as f:
            f.write(METRICS_HEADER + "\n")
            for t in range(config.total_iterations):
                train_step(bundle, next(src_iter), next(tgt_iter), config, t, step_rng)
                done = t + 1
                if done % config.eval_every == 0:
                    rec = evaluate(bundle, source, target, config, iteration=done)
                    f.write(rec.csv_row() + "\n")
                    f.flush()
        bundle.save_params(out_dir / "model.txt")
    except StateError as exc:
        write_atomic(out_dir / "error.txt",
                     f"iteration: {done}\ntype: {type(exc).__name__}\nmessage: {exc}\n")
        raise
    return out_dir
