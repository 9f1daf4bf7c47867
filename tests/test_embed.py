"""The PCA against numpy's dense eigensolver, plus the export files."""

import numpy as np
import pytest

from saflab import DataError, DomainSpec, build_bundle
from saflab.data import TARGET_TAG, gen_two_moons
from saflab.embed import (
    export_embeddings,
    pca_project_2d,
    power_iteration_top2,
    scatter_svg,
)

from conftest import tiny_config


def _align_sign(v, ref):
    return v if v @ ref >= 0 else -v


class TestPowerIteration:
    def test_matches_dense_eigensolver_on_five_points(self, rng):
        for trial in range(5):
            x = np.random.default_rng(trial).normal(size=(5, 4))
            centered = x - x.mean(axis=0)
            cov = centered.T @ centered / 4
            comps, vals = power_iteration_top2(cov)
            ew, ev = np.linalg.eigh(cov)
            top = ev[:, np.argsort(ew)[::-1][:2]].T
            for i in range(2):
                np.testing.assert_allclose(
                    comps[i], _align_sign(top[i], comps[i]), atol=1e-8
                )
            np.testing.assert_allclose(vals, np.sort(ew)[::-1][:2], atol=1e-8)

    @pytest.mark.parametrize("diag", [(1.0, 0.5, 0.499), (1.0, 0.999, 0.2)])
    def test_close_eigenvalues_match_eigh(self, diag):
        # a small gap between the second and third eigenvalue (or the first
        # and second) is where an iterative solve stops short of the axis
        cov = np.diag(diag)
        comps, vals = power_iteration_top2(cov)
        ew, ev = np.linalg.eigh(cov)
        top = ev[:, np.argsort(ew)[::-1][:2]].T
        for i in range(2):
            np.testing.assert_allclose(comps[i], _align_sign(top[i], comps[i]), atol=1e-8)
        np.testing.assert_allclose(vals, diag[:2], atol=1e-8)

    def test_largest_coordinate_is_positive(self, rng):
        for _ in range(5):
            x = rng.normal(size=(20, 4))
            comps, _ = power_iteration_top2(np.cov(x, rowvar=False))
            for c in comps:
                assert c[np.argmax(np.abs(c))] > 0

    def test_components_orthonormal(self, rng):
        x = rng.normal(size=(50, 6))
        centered = x - x.mean(axis=0)
        comps, _ = power_iteration_top2(centered.T @ centered / 49)
        np.testing.assert_allclose(comps @ comps.T, np.eye(2), atol=1e-8)


class TestProjection:
    def test_2d_centered_input_is_isometry(self, rng):
        x = rng.normal(size=(40, 2)) @ np.array([[2.0, 0.3], [-0.4, 0.9]])
        x = x - x.mean(axis=0)
        proj, _ = pca_project_2d(x)
        d_orig = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        d_proj = np.linalg.norm(proj[:, None, :] - proj[None, :, :], axis=2)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-8)

    def test_projection_is_centered(self, rng):
        proj, _ = pca_project_2d(rng.normal(loc=5.0, size=(30, 5)))
        assert np.abs(proj.mean(axis=0)).max() < 1e-10

    def test_needs_three_samples(self, rng):
        with pytest.raises(DataError):
            pca_project_2d(rng.normal(size=(2, 4)))

    def test_needs_two_columns(self, rng):
        with pytest.raises(DataError, match="at least 2 columns"):
            pca_project_2d(rng.normal(size=(10, 1)))


class TestExport:
    def test_writes_csv_and_svg(self, tmp_path):
        cfg = tiny_config()
        bundle = build_bundle(cfg, np.random.default_rng(0))
        src = gen_two_moons(DomainSpec(n_samples=20, seed=1))
        tgt = gen_two_moons(DomainSpec(n_samples=20, seed=1, rotation_deg=30.0),
                            domain_tag=TARGET_TAG)
        csv_path = tmp_path / "emb.csv"
        svg_path = tmp_path / "emb.svg"
        proj = export_embeddings(bundle, src, tgt, csv_path, svg_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,domain,label"
        assert len(lines) == 41
        assert proj.shape == (40, 2)
        # every x,y reads back as a plain float equal bit for bit to the projection
        xy = np.array([[float(c) for c in ln.split(",")[:2]] for ln in lines[1:]])
        assert xy.tobytes() == proj.tobytes()
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 40

    def test_export_deterministic(self, tmp_path):
        cfg = tiny_config()
        bundle = build_bundle(cfg, np.random.default_rng(0))
        src = gen_two_moons(DomainSpec(n_samples=12, seed=1))
        tgt = gen_two_moons(DomainSpec(n_samples=12, seed=2), domain_tag=TARGET_TAG)
        export_embeddings(bundle, src, tgt, tmp_path / "a.csv", tmp_path / "a.svg")
        export_embeddings(bundle, src, tgt, tmp_path / "b.csv", tmp_path / "b.svg")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_svg_handles_degenerate_extent(self, tmp_path):
        pts = np.zeros((3, 2))
        svg = scatter_svg(pts, [0, 0, 1], [0, 1, 0])
        assert svg.count("<circle") == 3 and "nan" not in svg
