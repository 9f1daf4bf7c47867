"""Synthetic domain-shift datasets plus CSV ingestion.

The desk-scale stand-in for benchmark image domains: 2-D point sets (two
interleaving moons or Gaussian blobs) with a configurable affine shift
applied in the fixed order scale -> rotate -> translate.  A CSV path lets
externally extracted feature sets flow through the same pipeline.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, CsvParseError, DataError, SafLabError

SOURCE_TAG = 0
TARGET_TAG = 1

# generator limits: the arrays stay small enough to build, and every generated
# coordinate (about scale * (2 + noise) + translation) stays finite
MAX_SAMPLES = 10**6
MAX_MAGNITUDE = 1e6
MAX_LABEL = int(np.iinfo(np.intp).max)  # a label array is intp


@dataclass
class DomainSpec:
    """Generator choice, sample count, noise and affine shift for one domain."""

    generator: str = "two_moons"
    n_samples: int = 400
    noise_sd: float = 0.15
    rotation_deg: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.generator not in ("two_moons", "gaussian_blobs"):
            raise ConfigError(f"generator must be two_moons or gaussian_blobs, "
                              f"got {self.generator!r}")
        if not 2 <= self.n_samples <= MAX_SAMPLES:
            raise ConfigError(f"n_samples must be in [2, {MAX_SAMPLES}], got {self.n_samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("noise_sd", "rotation_deg", "translation", "scale"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
            if np.abs(value).max() > MAX_MAGNITUDE:
                raise ConfigError(f"{name} must be at most {MAX_MAGNITUDE:g} in magnitude, "
                                  f"got {value}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")


@dataclass
class Batch:
    """Feature matrix with optional integer labels, all from one domain."""

    features: np.ndarray
    labels: np.ndarray | None = None
    domain: int = SOURCE_TAG
    sha256: str = field(default="", init=False)  # of the file bytes load_csv parsed

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.intp)
            if self.labels.shape != (self.features.shape[0],):
                raise DataError("labels must align with feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def without_labels(self) -> "Batch":
        return Batch(self.features, None, self.domain)

    def subset(self, idx) -> "Batch":
        idx = np.asarray(idx, dtype=np.intp)
        return Batch(self.features[idx], None if self.labels is None else self.labels[idx],
                     self.domain)


def rotation_matrix(deg: float) -> np.ndarray:
    theta = np.deg2rad(deg)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def affine_transform(points: np.ndarray, spec: DomainSpec) -> np.ndarray:
    """Apply the domain shift in the fixed order scale -> rotate -> translate."""
    r = rotation_matrix(spec.rotation_deg)
    return (spec.scale * points) @ r.T + np.asarray(spec.translation, dtype=np.float64)


def gen_two_moons(spec: DomainSpec, domain_tag: int = SOURCE_TAG) -> Batch:
    """Two interleaving unit half-circles offset by (1, 0.5), noised, shifted.

    Moon 0 sits on the upper half-circle around the origin; moon 1 on the
    lower half-circle around (1, 0.5).  Gaussian noise is added before the
    affine shift.
    """
    rng = np.random.default_rng(spec.seed)
    n0 = spec.n_samples // 2
    n1 = spec.n_samples - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    outer = np.column_stack([np.cos(t0), np.sin(t0)])
    inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    points = np.vstack([outer, inner])
    points = points + rng.normal(0.0, spec.noise_sd, size=points.shape)
    points = affine_transform(points, spec)
    labels = np.concatenate([np.zeros(n0, dtype=np.intp), np.ones(n1, dtype=np.intp)])
    return Batch(points, labels, domain_tag)


def gen_gaussian_blobs(spec: DomainSpec, centers, domain_tag: int = SOURCE_TAG) -> Batch:
    """One isotropic Gaussian class at each shifted center."""
    centers = np.asarray(centers, dtype=np.float64)
    k = len(centers)
    if k < 2:
        raise ConfigError(f"need at least 2 classes, got {k}")
    if centers.shape != (k, 2):
        raise ConfigError(f"need {k} 2-D centers, got shape {centers.shape}")
    for i in range(k):
        for j in range(i + 1, k):
            if np.array_equal(centers[i], centers[j]):
                raise ConfigError(f"duplicate centers at indices {i} and {j}")
    rng = np.random.default_rng(spec.seed)
    moved = affine_transform(centers, spec)
    counts = [spec.n_samples // k + (1 if i < spec.n_samples % k else 0) for i in range(k)]
    chunks, labels = [], []
    for i, cnt in enumerate(counts):
        chunks.append(moved[i] + rng.normal(0.0, spec.noise_sd, size=(cnt, 2)))
        labels.append(np.full(cnt, i, dtype=np.intp))
    return Batch(np.vstack(chunks), np.concatenate(labels), domain_tag)


def decode_text(raw: bytes, path, error: type[SafLabError]) -> str:
    """``raw`` (the bytes of ``path``) as UTF-8, one leading BOM dropped, newlines translated."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not UTF-8") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def read_text(path, error: type[SafLabError]) -> str:
    """A UTF-8 file's text, as :func:`decode_text` gives it."""
    return decode_text(Path(path).read_bytes(), path, error)


def write_atomic(path, text: str) -> None:
    """Write `text` whole or not at all: a temp file beside `path`, then
    `os.replace` over it.  On failure the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_all(files: dict) -> None:
    """Write each ``path: text`` pair with :func:`write_atomic`, all or none: on
    a failure the files and every directory this call has made are removed."""
    made = sorted({d for p in files for d in Path(p).parents if not d.exists()})  # parents first
    for d in made:
        d.mkdir(exist_ok=True)
    done = []
    try:
        for path, text in files.items():
            write_atomic(path, text)
            done.append(path)
    except BaseException:
        for path in done:
            Path(path).unlink(missing_ok=True)
        for d in reversed(made):
            d.rmdir()
        raise


def csv_text(batch: Batch) -> str:
    """Header f0..f{d-1},label; values rendered with shortest round-trip repr."""
    lines = [",".join([f"f{i}" for i in range(batch.dim)] + ["label"])]
    for row, label in zip(batch.features.tolist(), batch.labels.tolist()):
        lines.append(",".join(map(repr, row)) + f",{label}")
    return "\n".join(lines) + "\n"


def load_csv(path, domain_tag: int) -> Batch:
    """Parse a labeled feature CSV: feature columns, then a ``label`` column.

    Rows are numbered from 1 counting the header line, so the first data row
    is row 2.  Ragged rows, non-numeric or non-finite cells, and labels that
    are fractional, negative or beyond ``MAX_LABEL`` raise CsvParseError
    naming the row.
    """
    raw = Path(path).read_bytes()
    lines = [ln for ln in decode_text(raw, path, CsvParseError).splitlines() if ln.strip() != ""]
    if not lines:
        raise CsvParseError(f"{path}: empty file")
    header = lines[0].split(",")
    width = len(header)
    if width < 2:
        raise CsvParseError(f"{path}: row 1: need at least one feature and a label column")
    if header[-1] != "label":
        raise CsvParseError(f"{path}: row 1: last column must be 'label', got {header[-1]!r}")
    feats, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise CsvParseError(
                f"{path}: row {lineno}: expected {width} cells, got {len(cells)}"
            )
        try:
            row = [float(c) for c in cells[:-1]]
        except ValueError as exc:
            raise CsvParseError(f"{path}: row {lineno}: non-numeric cell ({exc})") from None
        feats.append(row)
        cell = cells[-1].strip()
        try:
            lab = int(cell)
        except ValueError:
            raise CsvParseError(f"{path}: row {lineno}: label {cell!r} is not an integer") \
                from None
        if not 0 <= lab <= MAX_LABEL:
            raise CsvParseError(f"{path}: row {lineno}: label {lab} is not in [0, {MAX_LABEL}]")
        labels.append(lab)
    if not feats:
        raise CsvParseError(f"{path}: no data rows")
    arr = np.array(feats, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise CsvParseError(f"{path}: row {bad[0] + 2}: non-finite cell")
    batch = Batch(arr, np.array(labels, dtype=np.intp), domain_tag)
    batch.sha256 = hashlib.sha256(raw).hexdigest()
    return batch


def batch_iterator(data: Batch, batch_size: int, rng: np.random.Generator):
    """One epoch: a shuffled partition, short final batch included."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    m = len(data)
    order = rng.permutation(m)
    for start in range(0, m, batch_size):
        yield data.subset(order[start:start + batch_size])


def cycle_batches(data: Batch, batch_size: int, rng: np.random.Generator):
    """Endless epoch-shuffled batches; each epoch reshuffles independently."""
    while True:
        yield from batch_iterator(data, batch_size, rng)
