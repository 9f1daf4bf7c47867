"""Multi-seed experiment fan-out, run manifests, and the ablation grid.

Each seed gets its own run directory; the manifest records per-seed result
paths, dataset hashes and the aggregate target-accuracy statistics, all
recomputable from the per-seed metrics files.  Seeds and ablation variants
run one after another in this process: a step is about 130 tiny numpy ops
that hold the GIL, so threads only add contention, and a process pool would
take the steps out of reach of in-process timing.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

from .config import FileConfig, build_config, serialize_config
from .data import Batch, load_csv, SOURCE_TAG, TARGET_TAG, write_atomic
from .exceptions import DataError
from .training import METRICS_HEADER, TrainConfig, run_experiment

# variant -> the config-file (section, key) pairs it overrides; full_saf is the base
ABLATION = {
    "backbone_only": {("train", "saf"): "off"},
    "no_bottleneck": {("mixup", "after_bottleneck"): "on"},
    "beta_eta": {("mixup", "mode"): "beta"},
    "constant_eta": {("mixup", "mode"): "constant"},
    "one_bottleneck": {("model", "saf_bottlenecks"): "1"},
    "four_bottlenecks": {("model", "saf_bottlenecks"): "4"},
    "include_source": {("mixup", "include_source"): "on"},
    "only_uncertain": {("mixup", "entropy_filter"): "only_uncertain"},
    "only_certain": {("mixup", "entropy_filter"): "only_certain"},
    "full_saf": {},
}
ABLATION_VARIANTS = tuple(ABLATION)


def load_fitted(config: TrainConfig, path, domain_tag: int) -> Batch:
    """A labeled dataset, refused at load unless it fits the model of ``config``:
    ``model.input_dim`` feature columns and labels below ``model.num_classes``."""
    batch = load_csv(path, domain_tag)
    row = int(batch.labels.argmax())
    if batch.dim != config.input_dim:
        raise DataError(f"{path}: row 1: {batch.dim} feature columns, but "
                        f"model.input_dim = {config.input_dim}")
    if batch.labels[row] >= config.num_classes:
        raise DataError(f"{path}: row {row + 2}: label {batch.labels[row]}, but "
                        f"model.num_classes = {config.num_classes}")
    return batch


def load_datasets(cfg: FileConfig, base_dir) -> tuple[Batch, Batch]:
    """Both fitted datasets, refused if the run would reach a one-row batch."""
    base, size, data = Path(base_dir), cfg.train.batch_size, []
    for path, tag in ((base / cfg.source_path, SOURCE_TAG), (base / cfg.target_path, TARGET_TAG)):
        data.append(load_fitted(cfg.train, path, tag))
        n = len(data[-1])
        if n % size == 1 and cfg.train.total_iterations > n // size:
            raise DataError(f"{path}: {n} rows end an epoch in a one-row batch at train step "
                            f"{n // size}, too small for batch norm (train.batch_size = {size})")
    return data[0], data[1]


def load_hashed(cfg: FileConfig, base_dir) -> tuple[Batch, Batch, dict[str, str]]:
    """Both datasets and the sha256 of the bytes each was parsed from."""
    source, target = load_datasets(cfg, base_dir)
    return source, target, {"source": source.sha256, "target": target.sha256}


def final_target_accuracy(run_dir) -> float:
    """tgt_acc of the last metrics row."""
    lines = (Path(run_dir) / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
    if len(lines) < 2 or lines[0] != METRICS_HEADER:
        raise DataError(f"{run_dir}: metrics.csv has no evaluation rows")
    cols = METRICS_HEADER.split(",")
    last = lines[-1].split(",")
    return float(last[cols.index("tgt_acc")])


def aggregate(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation, in list order (recompute-exact)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, sd


def run_with_seeds(cfg: FileConfig, seeds: list[int], out_dir, data) -> dict:
    """One run directory per seed plus manifest.json with the aggregates;
    ``data`` is what :func:`load_hashed` returns."""
    source, target, hashes = data
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config.cfg", serialize_config(cfg))
    results = []
    for seed in seeds:
        run_dir = run_experiment(replace(cfg.train, seed=seed), source, target,
                                 out_dir / f"seed_{seed}")
        results.append({"seed": seed, "path": str(run_dir.relative_to(out_dir)),
                        "target_accuracy": final_target_accuracy(run_dir)})
    accs = [r["target_accuracy"] for r in results]
    mean, sd = aggregate(accs)
    manifest = {
        "config": {f"{s}.{k}": v for (s, k), v in sorted(cfg.pairs().items())},
        "data_hashes": hashes,
        "seeds": seeds,
        "runs": results,
        "aggregate": {"mean_target_accuracy": mean, "sd_target_accuracy": sd},
    }
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def ablation_config(base: FileConfig, variant: str) -> FileConfig:
    """The named modification applied to the base configuration."""
    if variant not in ABLATION:
        raise DataError(f"unknown ablation variant {variant!r}")
    overrides = ABLATION[variant]
    return build_config({**base.pairs(), **overrides}) if overrides else base


def run_ablation(base: FileConfig, seeds: list[int], out_dir, base_dir) -> Path:
    """Controlled comparison: every variant over the same data and seeds.

    The data are loaded once, before anything is written, so a data error
    raises.  A failing variant is recorded in the table with its error; the
    rest proceed.  Writes ablation.csv and returns its path.
    """
    data = load_hashed(base, base_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["variant,mean_tgt_acc,sd_tgt_acc,status"]
    for variant in ABLATION_VARIANTS:
        try:
            manifest = run_with_seeds(
                ablation_config(base, variant), seeds, out_dir / variant, data
            )
            agg = manifest["aggregate"]
            rows.append(
                f"{variant},{agg['mean_target_accuracy']!r},{agg['sd_target_accuracy']!r},ok"
            )
        except Exception as exc:  # record and continue with the other variants
            rows.append(f"{variant},nan,nan,error: {exc}")
    table = out_dir / "ablation.csv"
    write_atomic(table, "\n".join(rows) + "\n")
    return table
