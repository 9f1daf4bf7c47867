"""Golden bytes for domains of unequal size, three classes and four columns.

Pins the sha256 of ``model.txt`` and ``metrics.csv`` for runs of 100 steps
(evaluation every 50) on 400 source and 300 target points, seed 0, target
rotated 35 degrees; ``tests/test_golden.py`` only runs two-moons domains of
equal size.  At batch 32 the source epoch ends in a 16-row batch and the
target epoch in a 12-row batch, and the two fall on different steps (12 and
9 in the first epoch).  The runs are:

- dann+saf and mdd+saf on two-moons;
- dann+saf, mdd+saf and mdd+saf with the ``only_certain`` filter (threshold
  0.5 log 3) on Gaussian blobs around the three ``gen-data`` centers, with
  ``num_classes = 3``: the mdd complement then sums over two columns, and
  dann's 2-way domain head writes ``mdd_est = nan``;
- mdd+saf with ``input_dim = 4`` on two-moons plus two N(0, 1) columns.

It also pins the ``repr`` of the dicts ``train_step`` returns for steps 0-2
of the three-class runs, the embeddings exported from the two-moons mdd+saf
model and the ``data_manifest.json`` of one fixed ``gen-data`` call, and
checks that every batch drawn from a domain keeps that domain.

Only a change that declares a numerics change in CHANGES.md may regenerate
the pins: ``PYTHONPATH=src python tests/test_golden_ragged.py`` prints them.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers import file_sha256, golden_data, run_digests
from saflab import Batch, MixupPolicy, build_bundle
from saflab.cli import _BLOB_CENTERS, main
from saflab.config import default_config
from saflab.data import SOURCE_TAG, TARGET_TAG, cycle_batches, gen_gaussian_blobs
from saflab.embed import export_embeddings

STEPS = 100
EVAL_EVERY = 50
N_SOURCE, N_TARGET = 400, 300


def _moons():
    return golden_data(N_SOURCE, N_TARGET)


def _blobs():
    return golden_data(N_SOURCE, N_TARGET, partial(gen_gaussian_blobs, centers=_BLOB_CENTERS))


def _moons_4d():
    """Two-moons with two N(0, 1) columns appended, source rows drawn first."""
    rng = np.random.default_rng(7)
    return tuple(Batch(np.hstack([b.features, rng.normal(size=(len(b), 2))]), b.labels, b.domain)
                 for b in _moons())


# name -> (data, TrainConfig fields)
SETUPS = {
    "dann_saf": (_moons, dict(backbone="dann", saf_enabled=True)),
    "mdd_saf": (_moons, dict(backbone="mdd", saf_enabled=True)),
    "blobs3_dann_saf": (_blobs, dict(backbone="dann", num_classes=3)),
    "blobs3_mdd_saf": (_blobs, dict(backbone="mdd", num_classes=3)),
    "blobs3_mdd_saf_only_certain": (
        _blobs, dict(backbone="mdd", num_classes=3,
                     mixup=MixupPolicy(entropy_filter="only_certain"))),
    "moons4d_mdd_saf": (_moons_4d, dict(backbone="mdd", input_dim=4)),
}

# sha256 of (model.txt, metrics.csv)
GOLDEN_RUNS = {
    "blobs3_dann_saf": (
        "a1047ab2bc47c12ef28d2eee2bcd059a526447af129ff871909734e5f59b09d5",
        "56f146e7fb15edf39aeddcfee15203ba74fd8e09e24ff503f88d08b8fea3369c",
    ),
    "blobs3_mdd_saf": (
        "d5b4e7bf7d51f0737d85349c5fd91fe8a42e87936f5a729ea01526f130c4add5",
        "eedd8428602bd6843a7b837896d79aec34ee17543e39d493066709d8d93a77b4",
    ),
    "blobs3_mdd_saf_only_certain": (
        "daff4659525d99fc7e916118d6d3bafeb7a8cdea8f44c7c6cf7f1de4f739f33f",
        "5f7af45912f7827859f5b8517f4099f9fdaad9b827c0fef6d51822db47c81b6f",
    ),
    "dann_saf": (
        "4f40c36437c2b91e92de5c9c614fd18c46e37a9c6b272c817fd2902dd63ad4d2",
        "20ccbcf5e728bbb41b776b4b57a8b9c0ac5a99ef9f792eceac31b369782c1cd2",
    ),
    "mdd_saf": (
        "203e09c2e22f0a049939daded7a78eba358c3d1f8b1e8d561b408ebad87e63f2",
        "d6944e8ad610b4b8c818f96433bfd2ded04ccce8588271670e099c4fd2a52851",
    ),
    "moons4d_mdd_saf": (
        "ce44737991c1bff3a0b758bb1cfdbd60d895986204dbd1d0e77f68a94a675a94",
        "ce8b6edb883e985ce1943a9791d0ec3efb9b5a55d697fa616a6d080ac29a0179",
    ),
}

# repr of train_step's dicts for steps 0-2
GOLDEN_STEPS = {
    "blobs3_dann_saf": [
        "{'eps_c': 1.3911768603990704, 'eps_d': 0.6845556166793697, 'eps_m': 1.2196466920641311, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.8527830916861299, 'eps_d': 0.9321892963289979, 'eps_m': 1.111757915435342, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.7209148760915425, 'eps_d': 0.8243983152466642, 'eps_m': 1.0871062262339564, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
    "blobs3_mdd_saf": [
        "{'eps_c': 1.3911768603990704, 'eps_d': 4.584530673773462, 'eps_m': 1.1855749008365306, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.8527830916861299, 'eps_d': 5.774728276511959, 'eps_m': 1.1160371362793486, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.8030505578492689, 'eps_d': 4.1989943225244675, 'eps_m': 1.099346162420902, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
    "blobs3_mdd_saf_only_certain": [
        "{'eps_c': 1.3911768603990704, 'eps_d': 4.584530673773462, 'eps_m': 0.0, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.8749275618669724, 'eps_d': 5.47193790680781, 'eps_m': 0.0, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.8061966985787069, 'eps_d': 3.7158301212055775, 'eps_m': 0.0, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
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
  "centers": [
    [
      -1.0,
      0.0
    ],
    [
      1.0,
      0.0
    ],
    [
      0.0,
      1.5
    ]
  ],
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


def run_configs():
    base = default_config().train
    return {name: replace(base, total_iterations=STEPS, eval_every=EVAL_EVERY, **kw)
            for name, (_, kw) in SETUPS.items()}


def export_digests(config, model, out_dir):
    """Embeddings of a saved model, exported as ``saflab export-embeddings`` does."""
    bundle = build_bundle(config, np.random.default_rng(config.seed))
    bundle.load_params(model)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_embeddings(bundle, *_moons(), out_dir / "embeddings.csv", out_dir / "embeddings.svg")
    return file_sha256(out_dir / "embeddings.csv"), file_sha256(out_dir / "embeddings.svg")


def pinned_run(name, out_dir):
    data, _ = SETUPS[name]
    return run_digests(run_configs()[name], data(), out_dir)


def test_short_batches_fall_on_different_steps():
    src, tgt = _moons()
    rng = np.random.default_rng(0)
    src_sizes = [len(b) for _, b in zip(range(13), cycle_batches(src, 32, rng))]
    tgt_sizes = [len(b) for _, b in zip(range(13), cycle_batches(tgt, 32, rng))]
    assert src_sizes == [32] * 12 + [16]
    assert tgt_sizes == [32] * 9 + [12] + [32] * 3


def test_subsets_keep_their_domain():
    src, tgt = _moons()
    assert (src.domain, tgt.domain) == (SOURCE_TAG, TARGET_TAG)
    for batch, domain in ((src, SOURCE_TAG), (tgt, TARGET_TAG)):
        unlabeled = batch.without_labels()
        assert unlabeled.labels is None and unlabeled.domain == domain
        drawn = next(cycle_batches(unlabeled, 32, np.random.default_rng(0)))
        assert len(drawn) == 32 and drawn.domain == domain
        assert batch.subset([2, 0, 2]).domain == domain


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_run_bytes_unchanged(name, golden_run):
    assert golden_run(name)[0][:2] == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_STEPS))
def test_first_steps_unchanged(name, golden_run):
    assert golden_run(name)[0][2] == GOLDEN_STEPS[name]


def test_embeddings_unchanged(tmp_path, golden_run):
    model = golden_run("mdd_saf")[1] / "model.txt"
    assert export_digests(run_configs()["mdd_saf"], model, tmp_path) == GOLDEN_EMBEDDINGS


def test_embeddings_domain_column(tmp_path, golden_run):
    export_digests(run_configs()["mdd_saf"], golden_run("mdd_saf")[1] / "model.txt", tmp_path)
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
        runs = {name: pinned_run(name, Path(tmp) / name) for name in sorted(SETUPS)}
        print("GOLDEN_RUNS = {")
        for name, (model, metrics, _) in runs.items():
            print(f'    "{name}": (\n        "{model}",\n        "{metrics}",\n    ),')
        print("}\n\nGOLDEN_STEPS = {")
        for name in sorted(n for n, (data, _) in SETUPS.items() if data is _blobs):
            print(f'    "{name}": [')
            for line in runs[name][2]:
                print(f"        {line!r},")
            print("    ],")
        print("}\n")
        csv, svg = export_digests(run_configs()["mdd_saf"], Path(tmp) / "mdd_saf" / "model.txt",
                                  Path(tmp) / "emb")
        print(f'GOLDEN_EMBEDDINGS = (\n    "{csv}",\n    "{svg}",\n)')
