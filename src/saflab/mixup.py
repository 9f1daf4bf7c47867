"""Adaptive pairwise feature mixup on the unlabeled target stream.

Target features are drawn into random pairs; each pair gets a mixing weight
eta -- adaptively from the weight module (saf mode), from a Beta draw, or a
constant -- and contributes one mixed feature row with a matching mixed
pseudo-label distribution.  Pseudo-labels are gradient-stopped eval-mode
classifier probabilities; in saf mode the gradient with respect to eta is
kept so the weight module trains from the supervision signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .exceptions import ConfigError, DataError
from .losses import conditional_entropy, cross_entropy_divergence
from .networks import ModelBundle, classify, saf_weight

MIX_MODES = ("saf", "beta", "constant")
ENTROPY_FILTERS = ("none", "only_uncertain", "only_certain")

# keep Beta draws inside the open interval even when sampling underflows
_ETA_LO = 1e-12
_ETA_HI = 1.0 - 1e-12


@dataclass
class MixupPolicy:
    """How pairs are weighted and which target rows participate."""

    mode: str = "saf"
    beta_alpha: float = 0.2
    constant_eta: float = 0.6
    entropy_filter: str = "none"
    entropy_threshold: float | None = None  # None -> 0.5 * log(num_classes)
    include_source: bool = False

    def __post_init__(self):
        # every message starts with its field's name, as in TrainConfig
        if self.mode not in MIX_MODES:
            raise ConfigError(f"mode must be one of {', '.join(MIX_MODES)}, got {self.mode!r}")
        if self.entropy_filter not in ENTROPY_FILTERS:
            raise ConfigError(f"entropy_filter must be one of {', '.join(ENTROPY_FILTERS)}, "
                              f"got {self.entropy_filter!r}")
        if not 0.0 < self.constant_eta < 1.0:
            raise ConfigError(f"constant_eta must be in (0, 1), got {self.constant_eta}")
        if not self.beta_alpha > 0:
            raise ConfigError(f"beta_alpha must be positive, got {self.beta_alpha}")
        if self.entropy_threshold is not None and not self.entropy_threshold >= 0:
            raise ConfigError(f"entropy_threshold must be >= 0, got {self.entropy_threshold}")

    def threshold_for(self, num_classes: int) -> float:
        if self.entropy_threshold is not None:
            return self.entropy_threshold
        return 0.5 * math.log(num_classes)


@dataclass
class MixedBatch:
    """Mixed feature rows, their composite label rows, the weights used, and
    the pool rows each mixed row came from: row r mixes ``ids_a[r]`` with
    ``ids_b[r]`` (target rows first, then any source rows)."""

    features: Tensor
    soft_labels: Tensor
    etas: np.ndarray
    ids_a: np.ndarray
    ids_b: np.ndarray

    def __len__(self) -> int:
        return self.features.rows

    @classmethod
    def empty(cls, width: int, num_classes: int) -> "MixedBatch":
        no_ids = np.zeros(0, dtype=np.intp)
        return cls(Tensor(np.zeros((0, width))), Tensor(np.zeros((0, num_classes))),
                   np.zeros(0), no_ids, no_ids)


def draw_pair_positions(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random perfect matching of 0..n-1 as arrays of first and
    second members, the consecutive pairs of one ``rng.permutation(n)``; an odd
    leftover index is paired with itself (a self-training row downstream)."""
    if n < 1:
        raise DataError(f"cannot pair an empty pool (n={n})")
    order = rng.permutation(n)
    second = order[1::2] if n % 2 == 0 else np.append(order[1::2], order[-1])
    return order[0::2], second


def random_draw_pairs(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """:func:`draw_pair_positions` as a list of ``(first, second)`` tuples."""
    first, second = draw_pair_positions(n, rng)
    return list(zip(first.tolist(), second.tolist()))


def pseudo_label_probs(bundle: ModelBundle, features: np.ndarray) -> np.ndarray:
    """Eval-mode classifier probabilities of extractor features, detached."""
    logits = classify(None, bundle, Tensor(np.asarray(features, dtype=np.float64)))
    return ad.softmax_rows(None, logits).data


def saf_mixup_batch(
    tape: Tape | None,
    bundle: ModelBundle,
    target_features: Tensor,
    policy: MixupPolicy,
    rng: np.random.Generator,
    *,
    pseudo_probs: np.ndarray,
    src_features: Tensor | None = None,
    src_labels=None,
) -> MixedBatch:
    """Pair, weigh and mix the target feature rows.

    Steps: entropy-filter the target rows, append source rows when the policy
    asks for them (their one-hot ground truth stands in for pseudo-labels),
    draw a random matching, compute eta per pair, and emit the convex
    combinations of features and label distributions.  ``pseudo_probs`` are
    the target rows' pseudo-labels, one row each; training and evaluation
    take them from :func:`saflab.training.objective`.
    """
    k = bundle.num_classes
    if target_features.rows == 0:
        raise DataError("mixup needs a non-empty target feature batch")

    if policy.entropy_filter == "none":
        kept = np.arange(target_features.rows)
    else:
        h = conditional_entropy(pseudo_probs)
        thr = policy.threshold_for(k)
        # "certain" means H < threshold, "uncertain" means H >= threshold
        mask = h >= thr if policy.entropy_filter == "only_uncertain" else h < thr
        kept = np.flatnonzero(mask)

    pool = target_features
    pool_ids = kept
    pool_probs = pseudo_probs[kept]
    if policy.include_source:
        if src_features is None or src_labels is None:
            raise DataError("include_source mixup needs source features and labels")
        labels = np.asarray(src_labels, dtype=np.intp)
        pool = ad.concat_rows(tape, target_features, src_features)
        pool_ids = np.concatenate([kept, target_features.rows + np.arange(src_features.rows)])
        one_hot = np.zeros((labels.size, k))
        one_hot[np.arange(labels.size), labels] = 1.0
        pool_probs = np.vstack([pool_probs, one_hot])

    n = pool_ids.size
    if n == 0:
        return MixedBatch.empty(target_features.cols, k)

    a_pos, b_pos = draw_pair_positions(n, rng)
    ids_a, ids_b = pool_ids[a_pos], pool_ids[b_pos]
    phi1, phi2 = ad.take_rows(tape, pool, ids_a), ad.take_rows(tape, pool, ids_b)

    p = a_pos.size
    if policy.mode == "saf":
        eta = saf_weight(tape, bundle.M, phi1, phi2)
    elif policy.mode == "beta":
        draws = rng.beta(policy.beta_alpha, policy.beta_alpha, size=(p, 1))
        eta = Tensor(np.clip(draws, _ETA_LO, _ETA_HI))
    else:
        eta = Tensor(np.full((p, 1), policy.constant_eta))
    one_minus = ad.scale_shift(tape, eta, -1.0, 1.0)

    mixed = ad.add(tape, ad.mul_colvec(tape, phi1, eta), ad.mul_colvec(tape, phi2, one_minus))
    y1 = Tensor(pool_probs[a_pos])
    y2 = Tensor(pool_probs[b_pos])
    soft = ad.add(tape, ad.mul_colvec(tape, y1, eta), ad.mul_colvec(tape, y2, one_minus))

    return MixedBatch(mixed, soft, eta.data.ravel().copy(), ids_a, ids_b)


def saf_supervision_loss(
    tape: Tape | None,
    bundle: ModelBundle,
    mixed: MixedBatch,
    training: bool = True,
    rng: np.random.Generator | None = None,
    through_bottleneck: bool = True,
) -> Tensor:
    """Cross-entropy divergence of the mixed rows against their mixed labels.

    Gradients reach the extractor (through the mixed features), the weight
    module (through eta), the bottleneck and the classifier.  An empty batch
    contributes a constant zero.
    """
    if len(mixed) == 0:
        return Tensor([[0.0]])
    h = mixed.features
    if through_bottleneck:
        h = bundle.B.forward(tape, h, training, rng)
    logits = bundle.C.forward(tape, h, training, rng)
    return cross_entropy_divergence(tape, logits, mixed.soft_labels)
