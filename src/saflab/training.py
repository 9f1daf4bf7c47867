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
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import Batch, cycle_batches
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
from .mixup import MixupPolicy, pseudo_label_probs, saf_mixup_batch, saf_supervision_loss
from .networks import ModelBundle, adversary_logits, build_bundle, classify, forward_features

METRICS_HEADER = "iter,eps_c,eps_d,eps_m,lambda_d,lambda_m,src_acc,tgt_acc,tgt_entropy,mdd_est,h_div"


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
        minima = {"total_iterations": 1, "batch_size": 2, "momentum": 0, "lambda_d_max": 0,
                  "lambda_m_max": 0, "eval_every": 1, "seed": 0, "num_classes": 2,
                  "input_dim": 1, "bottleneck_dim": 1, "saf_dim": 1, "saf_bottlenecks": 1}
        for name, lo in minima.items():
            if not getattr(self, name) >= lo:
                raise ConfigError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not self.margin_gamma > 1:
            raise ConfigError(f"margin_gamma must exceed 1, got {self.margin_gamma}")
        if not self.f_widths or min(self.f_widths) < 1:
            raise ConfigError(f"f_widths must be positive and non-empty, got {self.f_widths}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    def margin_params(self) -> MarginParams:
        return MarginParams.from_gamma(self.margin_gamma)


@dataclass
class MetricsRecord:
    """One evaluation row; matches the metrics CSV column order."""

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


def _ramp(t: int, total: int, max_value: float, speed: float) -> float:
    if t < 0:
        raise ConfigError(f"iteration must be >= 0, got {t}")
    if total < 1:
        raise ConfigError(f"total iterations must be >= 1, got {total}")
    t = min(t, total)
    return max_value * math.tanh(speed * t / total)


def lambda_d_schedule(t: int, total: int, max_value: float = 0.1) -> float:
    """Adversarial weight ramp: max * tanh(10 t / T); 0 at t=0."""
    return _ramp(t, total, max_value, 10.0)


def lambda_m_schedule(t: int, total: int, max_value: float = 0.1) -> float:
    """Mixup weight ramp, slower: max * tanh(5 t / T)."""
    return _ramp(t, total, max_value, 5.0)


@dataclass
class Objective:
    """One evaluation of the joint objective: its terms plus the activations
    the evaluation diagnostics read, among them the eval-mode target logits and
    softmax (in a training step only for mdd, or for the mixup before B) and
    mdd's eval-mode source softmax."""

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
    training: bool,
    rng: np.random.Generator,
) -> Objective:
    """eps_c + eps_d + lambda_m(t) * eps_m on one source and one target batch.

    :func:`train_step` builds it on a tape in training mode and
    differentiates ``total``; :func:`evaluate` computes the same terms with
    ``tape=None, training=False``.  The GRL coefficient lambda_d(t) scales
    (and flips) only the extractor's share of the adversarial gradient; when
    it is exactly 0 the adversarial term is computed out of graph in eval
    mode and left out of ``total``, so the step matches plain supervised
    training.  In training mode a mixed batch of fewer than 2 rows (batch
    norm needs 2) contributes 0, like an empty one.  The mixup's target
    pseudo-labels are decided here: the eval-mode target softmax, or, when a
    training step mixes after B, eval-mode C on the B outputs that get mixed.

    F has no dropout and no batch norm, so its output is the same in either
    mode: the eval-mode pseudo-label and adversary passes reuse the features
    computed here.  In eval mode B is pure and the gradient reversal an
    identity, so each domain passes through B once, for C, D and the
    ``after_bottleneck`` mixup.  Every training-mode B pass updates B's
    running statistics, in a fixed order: an mdd+saf step makes 4 -- source
    classify, source adversary, target adversary, then the mixed rows (with
    ``after_bottleneck`` the mixing inputs, target then source, instead of
    the mixed rows).  B normalises each domain's batch on its own, unlike the
    reference code of DANN and MDD, which passes one concatenated
    source+target batch; changing that changes the numerics.
    """
    if src.labels is None:
        raise DataError("source batches must carry labels")
    lam_d = lambda_d_schedule(t, config.total_iterations, config.lambda_d_max)
    lam_m = lambda_m_schedule(t, config.total_iterations, config.lambda_m_max)

    feats_src = forward_features(tape, bundle, src, training, rng)
    feats_tgt = forward_features(tape, bundle, tgt, training, rng)
    adv_tape, adv_training = (tape, training) if lam_d > 0.0 else (None, False)
    after = config.mixup_after_bottleneck
    h_src = h_tgt = logits_tgt = probs_src = None
    if training:
        logits_src = classify(tape, bundle, feats_src, training, rng)
        d_src = adversary_logits(adv_tape, bundle, feats_src, lam_d, adv_training, rng)
        d_tgt = adversary_logits(adv_tape, bundle, feats_tgt, lam_d, adv_training, rng)
        # eval mode, after the adversary's B passes: mdd's target pseudo-labels,
        # and the mixup's unless it mixes training-mode B outputs
        if config.backbone == "mdd" or (config.saf_enabled and not after):
            logits_tgt = classify(None, bundle, feats_tgt)
    else:
        h_src, h_tgt = bundle.B.forward(None, feats_src), bundle.B.forward(None, feats_tgt)
        logits_src, logits_tgt = bundle.C.forward(None, h_src), bundle.C.forward(None, h_tgt)
        d_src, d_tgt = bundle.D.forward(None, h_src), bundle.D.forward(None, h_tgt)
    eps_c = cross_entropy(tape, logits_src, src.labels)
    total = eps_c
    # eval-mode target probabilities: the pseudo-labels of mdd and of the mixup,
    # and evaluate's target metrics
    probs_tgt = None if logits_tgt is None else ad.softmax_rows(None, logits_tgt).data
    if config.backbone == "dann":
        eps_d = dann_domain_loss(adv_tape, d_src, d_tgt)
    else:
        # in eval mode logits_src already is the pseudo-label pass
        probs_src = (pseudo_label_probs(bundle, feats_src.data) if training
                     else ad.softmax_rows(None, logits_src).data)
        eps_d = mdd_adversarial_loss(adv_tape, Tensor(probs_src), d_src, Tensor(probs_tgt),
                                     d_tgt, config.margin_params())
    if lam_d > 0.0:
        total = ad.add(tape, total, eps_d)

    eps_m = Tensor([[0.0]])
    if config.saf_enabled:
        def mix_view(feats: Tensor, h: Tensor | None) -> Tensor:
            if not after:
                return feats
            return bundle.B.forward(tape, feats, training, rng) if h is None else h

        mix_input = mix_view(feats_tgt, h_tgt)
        pseudo = probs_tgt
        if after and training:  # label the training-mode B outputs that get mixed
            pseudo = ad.softmax_rows(None, bundle.C.forward(None, mix_input)).data
        src_mix = mix_view(feats_src, h_src) if config.mixup.include_source else None
        mixed = saf_mixup_batch(tape, bundle, mix_input, config.mixup, rng, pseudo_probs=pseudo,
                                src_features=src_mix, src_labels=src.labels)
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
        obj = objective(bundle, src, tgt, config, t, tape=tape, training=True, rng=rng)
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
    running statistic of B (the only block with batch norm), the features or
    the logits hold NaN or inf: a diverged model has no meaningful metrics.
    """
    if src_eval.labels is None or tgt_eval.labels is None:
        raise DataError("evaluation batches must carry labels")
    stats = [s for layer in bundle.B.layers if layer.bn_state is not None
             for s in (layer.bn_state.mean, layer.bn_state.var)]
    if not all(np.isfinite(a).all() for a in (bundle.buffer.data, *stats)):
        name = next(n for n, a in bundle.named_arrays() if not np.isfinite(a).all())
        raise StateError(f"evaluation at iteration {iteration}: non-finite {name}; "
                         "the model has diverged")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        obj = objective(bundle, src_eval, tgt_eval, config, iteration, tape=None,
                        training=False, rng=np.random.default_rng(config.seed))
    read = {"source features": obj.feats_src, "target features": obj.feats_tgt,
            "source logits": obj.logits_src, "target logits": obj.logits_tgt,
            "source adversary logits": obj.d_src, "target adversary logits": obj.d_tgt}
    for name, tensor in read.items():
        if not np.isfinite(tensor.data).all():
            raise StateError(f"evaluation at iteration {iteration}: non-finite {name}; "
                             "the model has diverged")

    if obj.d_src.cols == config.num_classes:
        params = config.margin_params()
        probs_s = (ad.softmax_rows(None, obj.logits_src).data if obj.probs_src is None
                   else obj.probs_src)
        probs_d_s = ad.softmax_rows(None, obj.d_src).data
        probs_d_t = ad.softmax_rows(None, obj.d_tgt).data
        delta_s = empirical_margin_disparity(probs_s, probs_d_s, params.rho)
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

    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(METRICS_HEADER + "\n")
        for t in range(config.total_iterations):
            train_step(bundle, next(src_iter), next(tgt_iter), config, t, step_rng)
            done = t + 1
            if done % config.eval_every == 0:
                rec = evaluate(bundle, source, target, config, iteration=done)
                f.write(rec.csv_row() + "\n")
                f.flush()
    bundle.save_params(out_dir / "model.txt")
    return out_dir
