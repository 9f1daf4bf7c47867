"""2-D embedding export: bottleneck activations projected onto their top
two principal directions (a dense symmetric eigensolve), written as a
point CSV and a self-contained scatter SVG.
"""

from __future__ import annotations

import numpy as np

from .data import Batch, SOURCE_TAG, write_all
from .exceptions import DataError
from .networks import ModelBundle, forward_features

# one color family per domain, shaded by class
_SOURCE_COLORS = ["#c0392b", "#e67e22", "#d35400", "#a93226", "#f1948a"]
_TARGET_COLORS = ["#2980b9", "#16a085", "#1f618d", "#117a65", "#85c1e9"]
# scatter plot side and inner margin, in pixels
_SIZE = 480
_MARGIN = 30.0


def power_iteration_top2(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 eigenpairs of a symmetric matrix, largest eigenvalue first.

    A dense solve: one ``np.linalg.eigh`` call (the name is kept for its callers).
    Returns (components 2 x d, eigenvalues 2); each component's
    largest-magnitude coordinate is positive.
    """
    vals, vecs = np.linalg.eigh(cov)
    comps = vecs[:, :-3:-1].T
    pivots = comps[np.arange(comps.shape[0]), np.argmax(np.abs(comps), axis=1)]
    return comps * np.where(pivots < 0, -1.0, 1.0)[:, None], vals[:-3:-1]


def pca_project_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and project onto the top two principal directions.

    Returns (projected n x 2, components 2 x d).
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise DataError(f"projection needs at least 3 samples of at least 2 columns, "
                        f"got shape {x.shape}")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (x.shape[0] - 1)
    comps, _ = power_iteration_top2(cov)
    return centered @ comps.T, comps


def bottleneck_embeddings(bundle: ModelBundle, batch: Batch) -> np.ndarray:
    """Eval-mode bottleneck activations for a batch."""
    feats = forward_features(None, bundle, batch)
    return bundle.B.forward(None, feats).data


def export_embeddings(
    bundle: ModelBundle,
    src_eval: Batch,
    tgt_eval: Batch,
    out_csv,
    out_svg,
) -> np.ndarray:
    """Write `x,y,domain,label` CSV plus a scatter SVG of the projection,
    both or neither."""
    if src_eval.labels is None or tgt_eval.labels is None:
        raise DataError("embedding export needs labeled evaluation data")
    emb = np.vstack([
        bottleneck_embeddings(bundle, src_eval),
        bottleneck_embeddings(bundle, tgt_eval),
    ])
    domains = np.repeat([src_eval.domain, tgt_eval.domain], [len(src_eval), len(tgt_eval)])
    labels = np.concatenate([src_eval.labels, tgt_eval.labels])
    projected, _ = pca_project_2d(emb)

    lines = ["x,y,domain,label"]
    for i in range(projected.shape[0]):
        lines.append(
            f"{float(projected[i, 0])!r},{float(projected[i, 1])!r},"
            f"{int(domains[i])},{int(labels[i])}"
        )
    write_all({out_csv: "\n".join(lines) + "\n",
               out_svg: scatter_svg(projected, domains, labels)})
    return projected


def scatter_svg(points: np.ndarray, domains, labels) -> str:
    """Self-contained scatter plot; source in warm colors, target in cool."""
    pts = np.asarray(points, dtype=np.float64)
    domains = np.asarray(domains)
    labels = np.asarray(labels)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    size, margin = _SIZE, _MARGIN
    inner = size - 2 * margin

    def to_px(p):
        x = margin + (p[0] - lo[0]) / span[0] * inner
        y = size - margin - (p[1] - lo[1]) / span[1] * inner
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(pts.shape[0]):
        x, y = to_px(pts[i])
        family = _SOURCE_COLORS if domains[i] == SOURCE_TAG else _TARGET_COLORS
        color = family[int(labels[i]) % len(family)]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                     f'fill-opacity="0.7"/>')
    parts.append(f'<text x="{margin}" y="{margin - 10:.0f}" font-size="12" '
                 f'fill="#333">warm = source, cool = target; shade = class</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
