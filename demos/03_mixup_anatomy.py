"""Inside the feature mixup: pairing, adaptive weights, composite labels.

Draws a pool of target features, pairs them randomly, asks the weight
module for an eta per pair, and shows that mixed features sit between
their parents while mixed label rows remain proper distributions.
"""

import numpy as np

from saflab import MixupPolicy, TrainConfig, build_bundle, saf_mixup_batch
from saflab.mixup import pseudo_label_probs
from saflab.networks import forward_features

cfg = TrainConfig(dropout=0.0)
bundle = build_bundle(cfg, np.random.default_rng(0))
rng = np.random.default_rng(1)

feats = forward_features(None, bundle, rng.normal(size=(9, 2)))
probs = pseudo_label_probs(bundle, feats.data)
print("pool of 9 rows; odd count, so one row self-pairs (a self-training row)")

for mode in ("saf", "beta", "constant"):
    mixed = saf_mixup_batch(None, bundle, feats, MixupPolicy(mode=mode),
                            np.random.default_rng(7), pseudo_probs=probs)
    print(f"\nmode={mode}: pairs={list(zip(mixed.ids_a.tolist(), mixed.ids_b.tolist()))}")
    print(f"  etas: {np.round(mixed.etas, 3)}")
    print(f"  label row sums: {np.round(mixed.soft_labels.data.sum(axis=1), 12)}")

mixed = saf_mixup_batch(None, bundle, feats, MixupPolicy(), np.random.default_rng(7),
                        pseudo_probs=probs)
i, j = mixed.ids_a[0], mixed.ids_b[0]
print(f"\nfirst pair ({i}, {j}):")
print("  parent i:", np.round(feats.data[i], 3))
print("  parent j:", np.round(feats.data[j], 3))
print("  mixed   :", np.round(mixed.features.data[0], 3))
inside = ((mixed.features.data[0] >= np.minimum(feats.data[i], feats.data[j]) - 1e-12)
          & (mixed.features.data[0] <= np.maximum(feats.data[i], feats.data[j]) + 1e-12))
print("  coordinate-wise between parents:", bool(inside.all()))
print("  pseudo-label i:", np.round(probs[i], 3), " j:", np.round(probs[j], 3),
      " mixed:", np.round(mixed.soft_labels.data[0], 3))
