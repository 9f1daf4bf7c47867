"""Train briefly, then project bottleneck activations to 2-D for a figure.

The export centers the activations, finds the top two principal directions
with a dense symmetric eigensolve, and writes both a point CSV and a
standalone scatter SVG (warm colors = source, cool = target).
"""

import tempfile
from pathlib import Path

import numpy as np

from saflab import DomainSpec, TrainConfig, run_experiment, build_bundle
from saflab.data import TARGET_TAG, gen_two_moons
from saflab.embed import export_embeddings

src = gen_two_moons(DomainSpec(n_samples=150, noise_sd=0.15, seed=5))
tgt = gen_two_moons(DomainSpec(n_samples=150, noise_sd=0.15, seed=5, rotation_deg=35.0),
                    domain_tag=TARGET_TAG)

cfg = TrainConfig(backbone="dann", total_iterations=400, eval_every=400, seed=2)

with tempfile.TemporaryDirectory() as tmp:
    run_dir = run_experiment(cfg, src, tgt, Path(tmp) / "run")
    bundle = build_bundle(cfg, np.random.default_rng(cfg.seed))
    bundle.load_params(run_dir / "model.txt")

    out = Path("embedding_demo")
    out.mkdir(exist_ok=True)
    proj = export_embeddings(bundle, src, tgt, out / "embeddings.csv", out / "embeddings.svg")

print(f"projected {proj.shape[0]} rows; spread per axis: {proj.std(axis=0).round(3)}")
print("wrote embedding_demo/embeddings.csv and embedding_demo/embeddings.svg")
