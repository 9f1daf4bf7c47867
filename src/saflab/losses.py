"""Loss functions and divergence diagnostics.

Differentiable losses (cross-entropy, cross-entropy divergence, the DANN
domain loss and the MDD adversarial loss) are fused tape operations with
analytic backwards; everything built on log-sum-exp so no log(0) appears.
The margin machinery, conditional entropy and the stump-based H-divergence
estimator are plain numpy diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, add, concat_rows, log_softmax_rows, record_op, scale_shift
from .exceptions import ConfigError, DataError, ShapeError


@dataclass(frozen=True)
class MarginParams:
    """Margin weight gamma > 1 and its threshold rho = log(gamma) > 0."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ConfigError(f"gamma must exceed 1 so rho = log(gamma) > 0, got {self.gamma}")

    @property
    def rho(self) -> float:
        return math.log(self.gamma)

    @classmethod
    def from_gamma(cls, gamma: float) -> "MarginParams":
        return cls(gamma)


def _check_labels(labels, num_classes: int, batch: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != batch:
        raise ShapeError(f"labels must be a length-{batch} vector, got shape {labels.shape}")
    labels = labels.astype(np.intp)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(f"labels must lie in [0, {num_classes}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    return labels


def cross_entropy(tape: Tape | None, logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    m, k = logits.shape
    if m == 0:
        raise DataError("cross entropy needs a non-empty batch")
    y = _check_labels(labels, k, m)
    ls = log_softmax_rows(logits.data)
    loss = np.array([[-(np.add.reduce(ls[np.arange(m), y], axis=None) / m)]])

    def bwd(g):
        gg = g[0, 0] / m
        grad = np.exp(ls)
        grad[np.arange(m), y] -= 1.0
        return (gg * grad,)

    return record_op(tape, (logits,), loss, bwd)


def cross_entropy_divergence(tape: Tape | None, logits: Tensor, soft_labels) -> Tensor:
    """Mean over the batch of -sum_y Y_y * log softmax(logits)_y.

    Reduces exactly to ``cross_entropy`` when Y is one-hot, and is affine in
    Y.  ``soft_labels`` may be a Tensor, in which case gradients flow into it
    as well (the mixup weight needs this path).
    """
    y_t = soft_labels if isinstance(soft_labels, Tensor) else Tensor(np.asarray(soft_labels))
    if y_t.shape != logits.shape:
        raise ShapeError(f"soft labels shape {y_t.shape} != logits shape {logits.shape}")
    m = logits.rows
    if m == 0:
        raise DataError("cross entropy divergence needs a non-empty batch")
    ydata = y_t.data
    if ydata.min() < -1e-9:
        raise DataError(f"soft labels must be non-negative, min={ydata.min()}")
    row_sums = ydata.sum(axis=1)
    worst = np.abs(row_sums - 1.0).max()
    if worst > 1e-6:
        raise DataError(f"soft label rows must sum to 1 (worst deviation {worst:.3g})")
    ls = log_softmax_rows(logits.data)
    loss = np.array([[-np.add.reduce(ydata * ls, axis=None) / m]])

    def bwd(g):
        gg = g[0, 0] / m
        p = np.exp(ls)
        dlogits = gg * (p * row_sums[:, None] - ydata)
        dy = -gg * ls
        return dlogits, dy

    return record_op(tape, (logits, y_t), loss, bwd)


def dann_domain_loss(tape: Tape | None, d_logits_src: Tensor, d_logits_tgt: Tensor) -> Tensor:
    """Mean binary cross-entropy of the 2-way domain head; source=0, target=1."""
    if d_logits_src.cols != 2 or d_logits_tgt.cols != 2:
        raise ShapeError(
            f"domain adversary must have 2 outputs, got {d_logits_src.cols} / {d_logits_tgt.cols}"
        )
    both = concat_rows(tape, d_logits_src, d_logits_tgt)
    labels = np.concatenate(
        [np.zeros(d_logits_src.rows, dtype=np.intp), np.ones(d_logits_tgt.rows, dtype=np.intp)]
    )
    return cross_entropy(tape, both, labels)


def _complement_log_softmax_nll(tape: Tape | None, logits: Tensor, idx: np.ndarray) -> Tensor:
    """Mean of -log(1 - softmax(logits)[idx]) via log-sum-exp over the complement."""
    m, k = logits.shape
    x = logits.data
    full_max = x.max(axis=1, keepdims=True)
    e = np.exp(x - full_max)
    s_full = e.sum(axis=1, keepdims=True)
    rows = np.arange(m)
    # complement sum: drop the selected column before the log
    e_sel = e[rows, idx]
    s_comp = s_full[:, 0] - e_sel
    # log(1 - p_idx) = log(s_comp) - log(s_full); s_comp cancels as p_idx nears
    # 1, so rows with s_comp < 1e-11 * s_full (logit gap above ~25, beyond any
    # acceptance run) take log(s_comp) and their c row from the other columns
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(s_comp) - np.log(s_full[:, 0])
        c = e / s_comp[:, None]
        far = np.flatnonzero(s_comp < 1e-11 * s_full[:, 0])
        if far.size:
            rest = x[far]  # a copy
            rest[np.arange(far.size), idx[far]] = -np.inf
            rest_max = rest.max(axis=1, keepdims=True)
            e_rest = np.exp(rest - rest_max)
            s_rest = e_rest.sum(axis=1, keepdims=True)
            c[far] = e_rest / s_rest
            vals[far] = ((rest_max + np.log(s_rest)) - (full_max[far] + np.log(s_full[far])))[:, 0]
    loss = np.array([[-(np.add.reduce(vals, axis=None) / m)]])
    p = e / s_full
    c[rows, idx] = 0.0

    def bwd(g):
        gg = g[0, 0] / m
        return (gg * (p - c),)

    return record_op(tape, (logits,), loss, bwd)


def mdd_adversarial_loss(
    tape: Tape | None,
    c_logits_src: Tensor,
    d_logits_src: Tensor,
    c_logits_tgt: Tensor,
    d_logits_tgt: Tensor,
    params: MarginParams,
) -> Tensor:
    """Adversary loss of the margin-disparity backbone.

    Pseudo-labels are the gradient-stopped argmaxes of the main classifier's
    logits.  Target term: mean -log(1 - softmax(D)[y_hat]); source term is
    weighted by gamma = e^rho: gamma * mean -log(softmax(D)[y_hat]).  The
    adversary descends this loss directly while the extractor receives the
    reversed, lambda-scaled gradient through the GRL in its path.
    """
    k = c_logits_src.cols
    if not (c_logits_tgt.cols == d_logits_src.cols == d_logits_tgt.cols == k):
        raise ShapeError(
            "classifier and adversary widths must agree, got "
            f"C:{c_logits_src.cols}/{c_logits_tgt.cols} D:{d_logits_src.cols}/{d_logits_tgt.cols}"
        )
    y_src = np.argmax(c_logits_src.data, axis=1)
    y_tgt = np.argmax(c_logits_tgt.data, axis=1)
    src_term = cross_entropy(tape, d_logits_src, y_src)
    tgt_term = _complement_log_softmax_nll(tape, d_logits_tgt, y_tgt)
    return add(tape, scale_shift(tape, src_term, params.gamma), tgt_term)


# ---------------------------------------------------------------------------
# margin machinery (diagnostics, plain numpy)


def margin(probs, exemplar: int) -> float:
    """Half the gap between the exemplar-class probability and the runner-up."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size < 2:
        raise ShapeError(f"margin needs at least two class probabilities, got {p.size}")
    if not (0 <= exemplar < p.size):
        raise DataError(f"exemplar index {exemplar} out of range for {p.size} classes")
    rest = np.delete(p, exemplar)
    return 0.5 * (p[exemplar] - rest.max())


def margin_loss(rho_val: float, rho_threshold: float) -> float:
    """1 below zero margin, linear ramp down to 0 at the threshold."""
    if rho_threshold <= 0:
        raise ConfigError(f"margin threshold must be positive, got {rho_threshold}")
    if rho_val < 0.0:
        return 1.0
    if rho_val > rho_threshold:
        return 0.0
    return 1.0 - rho_val / rho_threshold


def empirical_margin_disparity(
    probs_c: np.ndarray, probs_cprime: np.ndarray, rho_threshold: float
) -> float:
    """Mean margin loss of C against C-prime's predicted labels."""
    probs_c = np.asarray(probs_c, dtype=np.float64)
    probs_cprime = np.asarray(probs_cprime, dtype=np.float64)
    if probs_c.shape != probs_cprime.shape:
        raise ShapeError(f"shapes differ: {probs_c.shape} vs {probs_cprime.shape}")
    if rho_threshold <= 0:
        raise ConfigError(f"margin threshold must be positive, got {rho_threshold}")
    m = probs_c.shape[0]
    yp = np.argmax(probs_cprime, axis=1)
    rows = np.arange(m)
    top = probs_c[rows, yp]
    masked = probs_c.copy()
    masked[rows, yp] = -np.inf
    margins = 0.5 * (top - masked.max(axis=1))
    losses = np.where(margins < 0.0, 1.0, np.where(margins > rho_threshold, 0.0,
                                                   1.0 - margins / rho_threshold))
    return float(losses.mean())


def empirical_mdd_estimate(delta_src: float, delta_tgt: float) -> float:
    """2*(source disparity - target disparity); a lower-bound diagnostic."""
    return 2.0 * (delta_src - delta_tgt)


def conditional_entropy(probs) -> np.ndarray:
    """Per-row H = -sum p log p with 0*log(0) := 0; in [0, log K]."""
    p = np.asarray(probs, dtype=np.float64)
    if p.min() < 0:
        raise DataError(f"probabilities must be non-negative, min={p.min()}")
    plogp = np.zeros_like(p)
    mask = p > 0
    plogp[mask] = p[mask] * np.log(p[mask])
    return -plogp.sum(axis=1) + 0.0


class AxisStump:
    """Threshold classifier on one axis; hi_label goes to the > side."""

    __slots__ = ("axis", "threshold", "hi_label")

    def __init__(self, axis: int, threshold: float, hi_label: int):
        self.axis = axis
        self.threshold = threshold
        self.hi_label = hi_label

    def __call__(self, x: np.ndarray) -> np.ndarray:
        hi = x[:, self.axis] > self.threshold
        return np.where(hi, self.hi_label, 1 - self.hi_label)


def axis_stump_grid(points: np.ndarray, points_per_axis: int = 64) -> list[AxisStump]:
    """Both-polarity threshold stumps on an even grid per axis.

    The grid spans the observed range of each coordinate, so the set is
    closed under label flip by construction.
    """
    stumps: list[AxisStump] = []
    for axis in range(points.shape[1]):
        col = points[:, axis]
        for thr in np.linspace(col.min(), col.max(), points_per_axis):
            stumps.append(AxisStump(axis, float(thr), 1))
            stumps.append(AxisStump(axis, float(thr), 0))
    return stumps


def _stump_thresholds(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """``np.column_stack([np.linspace(l, h, num) for l, h in zip(lo, hi)])``
    in one expression.  Each column takes scalar linspace's own branch: a
    zero step (denormal range) switches only that column to ``y / (num - 1)
    * delta``, where linspace over arrays would switch every column."""
    y = np.arange(num, dtype=np.float64)[:, None]
    delta = hi - lo
    if num == 1:
        return y * delta + lo
    step = delta / (num - 1)
    thr = np.where(step == 0, y / (num - 1) * delta, y * step) + lo
    thr[-1] = hi
    return thr


def _rows_above(cols: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Axis x threshold counts of the rows with x > threshold, from one
    domain's columns sorted ascending (NaN last): the non-NaN rows minus
    those <= it.  A NaN threshold counts no row, as ``x > nan`` does."""
    n_valid = cols.shape[1] - np.isnan(cols).sum(axis=1)
    at_most = np.array([col.searchsorted(row, "right") for col, row in zip(cols, thr.T)])
    return np.where(np.isnan(thr.T), 0, n_valid[:, None] - at_most)


def empirical_h_divergence(samples_src, samples_tgt, points_per_axis: int = 64) -> float:
    """2*(1 - min over stumps of [source-0 fraction + target-1 fraction]).

    Exhaustive enumeration over :func:`axis_stump_grid` of both samples,
    scored by counting rather than by calling each stump, with bit-identical
    results.  A stump sends the rows with x > threshold to one label and
    every other row, NaN included, to the other, so each score is a sum of
    two count fractions.  Each column is sorted once and the rows above a
    threshold are found by binary search; a NaN threshold has no row above
    it.  Close to 0 for indistinguishable sets, 2 for perfectly separable
    ones.
    """
    s = _as_points(samples_src)
    t = _as_points(samples_tgt)
    if s.shape[1] != t.shape[1]:
        raise ShapeError(f"domains have widths {s.shape[1]} and {t.shape[1]}")
    if points_per_axis < 1 or s.shape[1] == 0:
        raise ConfigError("hypothesis set must be non-empty")
    cols_s, cols_t = (np.sort(np.ascontiguousarray(p.T), axis=1) for p in (s, t))
    # each axis's range over both domains.  NaN sorts last, so a NaN makes
    # hi, and with it every threshold of its axis, NaN, as max() does; no
    # count sees the sign of a zero end
    lo = np.minimum(cols_s[:, 0], cols_t[:, 0])
    thr = _stump_thresholds(lo, np.maximum(cols_s[:, -1], cols_t[:, -1]), points_per_axis)
    n_s, n_t = s.shape[0], t.shape[0]
    above_s, above_t = _rows_above(cols_s, thr), _rows_above(cols_t, thr)
    # count / n is exactly the mean of the stump's boolean mask
    above_is_target = (n_s - above_s) / n_s + above_t / n_t
    above_is_source = above_s / n_s + (n_t - above_t) / n_t
    best = min(above_is_target.min(), above_is_source.min())
    return 2.0 * (1.0 - float(best))


def _as_points(samples) -> np.ndarray:
    feats = getattr(samples, "features", samples)
    arr = np.asarray(feats, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DataError(f"samples must be a non-empty 2-D array, got shape {arr.shape}")
    return arr


def accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DataError(f"accuracy needs a non-empty 2-D logits array, got shape {arr.shape}")
    y = _check_labels(labels, arr.shape[1], arr.shape[0])
    return float((np.argmax(arr, axis=1) == y).mean())
