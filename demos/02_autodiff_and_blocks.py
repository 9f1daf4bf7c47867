"""A tour of the autodiff core and the five network blocks.

Build a bundle, push a batch through extractor -> bottleneck -> classifier,
compute a loss, and read gradients off the tape.  Also shows the gradient
reversal layer flipping the extractor's share of the adversarial gradient.
"""

import numpy as np

import saflab.autodiff as ad
from saflab import Tape, TrainConfig, backward, build_bundle, cross_entropy
from saflab.networks import adversary_logits, classify, forward_features

cfg = TrainConfig(f_widths=(8, 6), bottleneck_dim=4, saf_dim=4, dropout=0.0)
bundle = build_bundle(cfg, np.random.default_rng(0))

rng = np.random.default_rng(1)
x = rng.normal(size=(16, 2))
labels = rng.integers(0, 2, size=16)

tape = Tape()
feats = forward_features(tape, bundle, x)
logits = classify(tape, bundle, feats, training=True, rng=rng)
loss = cross_entropy(tape, logits, labels)
backward(loss, tape)

print(f"classification loss: {loss.item():.4f}")
for p in list(bundle.F.parameters())[:2]:
    print(f"  {p.name}: grad norm {np.linalg.norm(p.tensor.grad):.4f} "
          f"(lr multiplier x{p.lr_multiplier:g})")
for p in bundle.parameters():
    p.tensor.grad = None

# the reversal layer leaves the forward pass untouched but scales and flips
# what flows back into the extractor
for lam in (0.0, 0.1):
    tape = Tape()
    feats = forward_features(tape, bundle, x)
    adv = adversary_logits(tape, bundle, feats, lam)
    backward(ad.sum_all(tape, adv), tape)
    g = next(iter(bundle.F.parameters())).tensor.grad
    g_norm = 0.0 if g is None else np.linalg.norm(g)
    print(f"lambda_d={lam}: extractor grad norm from adversary = {g_norm:.5f}")
    for p in bundle.parameters():
        p.tensor.grad = None
