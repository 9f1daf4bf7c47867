"""Golden bytes for domains of unequal size.

Pins the sha256 of ``model.txt`` and ``metrics.csv`` for dann+saf and
mdd+saf runs of 100 steps (evaluation every 50) on two-moons with 400
source and 300 target points, seed 0, target rotated 35 degrees.  At batch
32 the source epoch ends in a 16-row batch and the target epoch in a
12-row batch, and the two fall on different steps (12 and 9 in the first
epoch); ``tests/test_golden.py`` only runs domains of equal size.  It also
pins the embeddings exported from the mdd+saf model and the
``data_manifest.json`` of one fixed ``gen-data`` call, and checks that every
batch drawn from a domain keeps that domain.

Only a change that declares a numerics change in CHANGES.md may regenerate
the hashes: ``PYTHONPATH=src python tests/test_golden_ragged.py`` prints them.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from saflab import DomainSpec, build_bundle, run_experiment
from saflab.cli import main
from saflab.config import default_config
from saflab.data import SOURCE_TAG, TARGET_TAG, cycle_batches, gen_two_moons
from saflab.embed import export_embeddings

STEPS = 100
EVAL_EVERY = 50
N_SOURCE, N_TARGET = 400, 300

SETUPS = {
    "dann_saf": dict(backbone="dann", saf_enabled=True),
    "mdd_saf": dict(backbone="mdd", saf_enabled=True),
}

# sha256 of (model.txt, metrics.csv)
GOLDEN_RUNS = {
    "dann_saf": (
        "4f40c36437c2b91e92de5c9c614fd18c46e37a9c6b272c817fd2902dd63ad4d2",
        "20ccbcf5e728bbb41b776b4b57a8b9c0ac5a99ef9f792eceac31b369782c1cd2",
    ),
    "mdd_saf": (
        "203e09c2e22f0a049939daded7a78eba358c3d1f8b1e8d561b408ebad87e63f2",
        "d6944e8ad610b4b8c818f96433bfd2ded04ccce8588271670e099c4fd2a52851",
    ),
}

# sha256 of (embeddings.csv, embeddings.svg) exported from the mdd_saf model
GOLDEN_EMBEDDINGS = (
    "0cbc1b7b91d641bf67b10dfcbe5a22c5de996de8e5e710d2a991a6e9222f51d4",
    "23344ffb3e88530916412e53396dfba74b545901ca5af6069c0e9cb5af4864de",
)

GEN_DATA_ARGS = ["gen-data", "--kind", "gaussian_blobs", "--classes", "3", "--samples", "30",
                 "--rotation", "20", "--translate-x", "0.5", "--translate-y", "-0.25",
                 "--scale", "1.5", "--noise", "0.1", "--seed", "3"]

GOLDEN_DATA_MANIFEST = """\
{
  "files": {
    "source": "source.csv",
    "target": "target.csv"
  },
  "source": {
    "generator": "gaussian_blobs",
    "n_samples": 30,
    "noise_sd": 0.1,
    "rotation_deg": 0.0,
    "scale": 1.0,
    "seed": 3,
    "translation": [
      0.0,
      0.0
    ]
  },
  "target": {
    "generator": "gaussian_blobs",
    "n_samples": 30,
    "noise_sd": 0.1,
    "rotation_deg": 20.0,
    "scale": 1.5,
    "seed": 3,
    "translation": [
      0.5,
      -0.25
    ]
  }
}
"""


def _data():
    src = gen_two_moons(DomainSpec(n_samples=N_SOURCE, noise_sd=0.15, seed=0))
    tgt = gen_two_moons(DomainSpec(n_samples=N_TARGET, noise_sd=0.15, seed=0,
                                   rotation_deg=35.0), TARGET_TAG)
    return src, tgt


def run_configs():
    base = default_config().train
    return {name: replace(base, total_iterations=STEPS, eval_every=EVAL_EVERY, **kw)
            for name, kw in SETUPS.items()}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(config, out_dir):
    out = run_experiment(config, *_data(), out_dir)
    return _sha(out / "model.txt"), _sha(out / "metrics.csv")


def export_digests(config, model, out_dir):
    """Embeddings of a saved model, exported as ``saflab export-embeddings`` does."""
    bundle = build_bundle(config, np.random.default_rng(config.seed))
    bundle.load_params(model)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_embeddings(bundle, *_data(), out_dir / "embeddings.csv", out_dir / "embeddings.svg")
    return _sha(out_dir / "embeddings.csv"), _sha(out_dir / "embeddings.svg")


@pytest.fixture(scope="module")
def mdd_saf_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ragged") / "mdd_saf"
    return run_digests(run_configs()["mdd_saf"], out), out


def test_short_batches_fall_on_different_steps():
    src, tgt = _data()
    rng = np.random.default_rng(0)
    src_sizes = [len(b) for _, b in zip(range(13), cycle_batches(src, 32, rng))]
    tgt_sizes = [len(b) for _, b in zip(range(13), cycle_batches(tgt, 32, rng))]
    assert src_sizes == [32] * 12 + [16]
    assert tgt_sizes == [32] * 9 + [12] + [32] * 3


def test_subsets_keep_their_domain():
    src, tgt = _data()
    assert (src.domain, tgt.domain) == (SOURCE_TAG, TARGET_TAG)
    for batch, domain in ((src, SOURCE_TAG), (tgt, TARGET_TAG)):
        unlabeled = batch.without_labels()
        assert unlabeled.labels is None and unlabeled.domain == domain
        drawn = next(cycle_batches(unlabeled, 32, np.random.default_rng(0)))
        assert len(drawn) == 32 and drawn.domain == domain
        assert batch.subset([2, 0, 2]).domain == domain


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_run_bytes_unchanged(name, tmp_path, mdd_saf_run):
    if name == "mdd_saf":
        digests = mdd_saf_run[0]
    else:
        digests = run_digests(run_configs()[name], tmp_path / name)
    assert digests == GOLDEN_RUNS[name]


def test_embeddings_unchanged(tmp_path, mdd_saf_run):
    model = mdd_saf_run[1] / "model.txt"
    assert export_digests(run_configs()["mdd_saf"], model, tmp_path) == GOLDEN_EMBEDDINGS


def test_embeddings_domain_column(tmp_path, mdd_saf_run):
    export_digests(run_configs()["mdd_saf"], mdd_saf_run[1] / "model.txt", tmp_path)
    rows = (tmp_path / "embeddings.csv").read_text().splitlines()
    assert rows[0] == "x,y,domain,label"
    domains = [int(r.split(",")[2]) for r in rows[1:]]
    assert domains == [SOURCE_TAG] * N_SOURCE + [TARGET_TAG] * N_TARGET


def test_gen_data_manifest_text(tmp_path, capsys):
    assert main(GEN_DATA_ARGS + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "data_manifest.json").read_text() == GOLDEN_DATA_MANIFEST


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN_RUNS = {")
        for name, cfg in sorted(run_configs().items()):
            model, metrics = run_digests(cfg, Path(tmp) / name)
            print(f'    "{name}": (\n        "{model}",\n        "{metrics}",\n    ),')
        print("}\n")
        csv, svg = export_digests(run_configs()["mdd_saf"], Path(tmp) / "mdd_saf" / "model.txt",
                                  Path(tmp) / "emb")
        print(f'GOLDEN_EMBEDDINGS = (\n    "{csv}",\n    "{svg}",\n)')
