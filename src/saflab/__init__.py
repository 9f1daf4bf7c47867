"""Desk-scale unsupervised domain adaptation lab.

Adversarial backbones (domain-classifier and margin-disparity style) with a
shuffle-augmentation-of-features (SAF) mixup module, built on an in-package
reverse-mode autodiff engine over dense float64 tensors.
"""

import ctypes


def _pin_heap_trim() -> None:
    """Fix glibc's trim threshold (``M_TRIM_THRESHOLD``, -1) at 256 MiB.

    By default glibc moves the threshold as blocks are freed, so a process
    keeps returning the top of its heap and page-faulting it back, and heap
    layout decides whether steps or evaluations pay.  A no-op without glibc.
    """
    try:
        ctypes.CDLL(None).mallopt(-1, 1 << 28)
    except (OSError, AttributeError, TypeError):
        pass


_pin_heap_trim()

from .autodiff import (
    BatchNormState,
    Parameter,
    Tape,
    Tensor,
    backward,
    sgd_nesterov_step,
)
from .data import Batch, DomainSpec, batch_iterator, gen_gaussian_blobs, gen_two_moons, load_csv
from .exceptions import (
    ConfigError,
    CsvParseError,
    DataError,
    SafLabError,
    ShapeError,
    StateError,
)
from .losses import (
    MarginParams,
    accuracy,
    conditional_entropy,
    cross_entropy,
    cross_entropy_divergence,
    dann_domain_loss,
    empirical_h_divergence,
    empirical_margin_disparity,
    empirical_mdd_estimate,
    margin,
    margin_loss,
    mdd_adversarial_loss,
)
from .mixup import MixedBatch, MixupPolicy, random_draw_pairs, saf_mixup_batch, saf_supervision_loss
from .networks import (
    ModelBundle,
    SAFModule,
    adversary_logits,
    build_bundle,
    classify,
    forward_features,
    saf_weight,
)
from .training import (
    MetricsRecord,
    TrainConfig,
    evaluate,
    lambda_d_schedule,
    lambda_m_schedule,
    run_experiment,
    train_step,
)

__version__ = "0.1.0"
