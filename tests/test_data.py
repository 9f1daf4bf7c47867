"""Synthetic generators, the affine shift, CSV round-trips and batching."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saflab import Batch, ConfigError, CsvParseError, DomainSpec
from saflab.data import (
    SOURCE_TAG,
    TARGET_TAG,
    affine_transform,
    batch_iterator,
    gen_gaussian_blobs,
    gen_two_moons,
    load_csv,
    read_text,
    rotation_matrix,
    save_csv,
)


class TestDomainSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            DomainSpec(n_samples=1)
        with pytest.raises(ConfigError):
            DomainSpec(noise_sd=-0.1)
        with pytest.raises(ConfigError):
            DomainSpec(scale=0.0)
        with pytest.raises(ConfigError):
            DomainSpec(generator="spiral")


class TestTwoMoons:
    def test_noiseless_canonical_radii(self):
        spec = DomainSpec(n_samples=100, noise_sd=0.0)
        batch = gen_two_moons(spec)
        pts0 = batch.features[batch.labels == 0]
        pts1 = batch.features[batch.labels == 1]
        r0 = np.linalg.norm(pts0, axis=1)
        r1 = np.linalg.norm(pts1 - [1.0, 0.5], axis=1)
        assert np.abs(r0 - 1.0).max() <= 1e-12
        assert np.abs(r1 - 1.0).max() <= 1e-12

    def test_full_turn_equals_identity(self):
        a = gen_two_moons(DomainSpec(n_samples=40, seed=3, rotation_deg=0.0))
        b = gen_two_moons(DomainSpec(n_samples=40, seed=3, rotation_deg=360.0))
        np.testing.assert_allclose(a.features, b.features, atol=1e-9)

    def test_rotation_commutes_with_mean(self):
        base = gen_two_moons(DomainSpec(n_samples=60, seed=5, rotation_deg=0.0))
        rot = gen_two_moons(DomainSpec(n_samples=60, seed=5, rotation_deg=35.0))
        r = rotation_matrix(35.0)
        np.testing.assert_allclose(
            rot.features.mean(axis=0), base.features.mean(axis=0) @ r.T, atol=1e-9
        )

    def test_balanced_within_one(self):
        batch = gen_two_moons(DomainSpec(n_samples=41))
        counts = np.bincount(batch.labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_deterministic_given_seed(self):
        a = gen_two_moons(DomainSpec(n_samples=30, seed=9))
        b = gen_two_moons(DomainSpec(n_samples=30, seed=9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_domain_tag_applied(self):
        batch = gen_two_moons(DomainSpec(n_samples=10), domain_tag=TARGET_TAG)
        assert batch.domain == TARGET_TAG


class TestAffineTransform:
    def test_order_matches_composed_matrix(self, rng):
        for _ in range(10):
            spec = DomainSpec(
                n_samples=4,
                rotation_deg=float(rng.uniform(-180, 180)),
                translation=(float(rng.normal()), float(rng.normal())),
                scale=float(rng.uniform(0.2, 3.0)),
            )
            pts = rng.normal(size=(12, 2))
            got = affine_transform(pts, spec)
            r = rotation_matrix(spec.rotation_deg)
            composed = r @ (spec.scale * np.eye(2))  # scale first, then rotate
            expected = pts @ composed.T + spec.translation
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestGaussianBlobs:
    CENTERS = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)]

    def test_zero_noise_hits_transformed_centers(self):
        spec = DomainSpec(n_samples=9, noise_sd=0.0, rotation_deg=90.0, scale=2.0,
                          translation=(1.0, -1.0))
        batch = gen_gaussian_blobs(spec, self.CENTERS)
        moved = affine_transform(np.asarray(self.CENTERS), spec)
        for i in range(3):
            pts = batch.features[batch.labels == i]
            np.testing.assert_allclose(pts, np.tile(moved[i], (len(pts), 1)), atol=1e-12)

    def test_counts_balanced_within_one(self):
        batch = gen_gaussian_blobs(DomainSpec(n_samples=10), self.CENTERS)
        counts = np.bincount(batch.labels)
        assert counts.max() - counts.min() <= 1

    def test_class_means_near_centers(self):
        spec = DomainSpec(n_samples=3000, noise_sd=0.2, seed=2)
        batch = gen_gaussian_blobs(spec, self.CENTERS)
        for i, c in enumerate(self.CENTERS):
            pts = batch.features[batch.labels == i]
            bound = 4 * spec.noise_sd / np.sqrt(len(pts))
            assert np.linalg.norm(pts.mean(axis=0) - c) < 2 * bound

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ConfigError):
            gen_gaussian_blobs(DomainSpec(n_samples=8), [(0.0, 0.0), (0.0, 0.0)])


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        batch = Batch(rng.normal(size=(2, 3)) * 1e-7, labels=[1, 0])
        path = tmp_path / "d.csv"
        save_csv(batch, path)
        loaded = load_csv(path, SOURCE_TAG)
        assert np.array_equal(loaded.features, batch.features)
        assert np.array_equal(loaded.labels, batch.labels)
        save_csv(loaded, tmp_path / "d2.csv")
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    # finite floats, with the edge cases of shortest-repr round-tripping
    # always in reach: signed zeros, subnormals and the extreme exponents
    _cells = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
         1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300])

    @given(st.data(), st.integers(1, 40), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, data, rows, cols):
        feats = data.draw(hnp.arrays(np.float64, (rows, cols), elements=self._cells))
        labels = data.draw(st.lists(st.integers(0, 9), min_size=rows, max_size=rows))
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_csv(Batch(feats, labels=labels), path)
        loaded = load_csv(path, SOURCE_TAG)
        assert loaded.features.tobytes() == feats.tobytes()
        assert loaded.labels.tolist() == labels

    def test_ragged_row_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,1\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path, SOURCE_TAG)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\nx,4.0,1\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path, SOURCE_TAG)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n1.0,0\n2.0,1\n{cell},0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match=re.escape(f"{path}: row 4: non-finite cell")):
            load_csv(path, SOURCE_TAG)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,-1\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(path, SOURCE_TAG)

    def test_label_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path, SOURCE_TAG)


class TestReadText:
    def test_newlines_translate_as_open_translates_them(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("a\r\nb\rc\n\x0cd\u2028e\r\r\n".encode("utf-8"))
        assert read_text(path, CsvParseError) == path.read_text(encoding="utf-8")

    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("\ufeff\ufeffa\ufeff\r\n".encode("utf-8"))
        assert read_text(path, CsvParseError) == "\ufeffa\ufeff\n"

    def test_csv_with_a_byte_order_mark_loads_the_same_rows(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_csv(gen_two_moons(DomainSpec(n_samples=12)), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain, SOURCE_TAG), load_csv(marked, SOURCE_TAG)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert b.sha256 == hashlib.sha256(marked.read_bytes()).hexdigest() != a.sha256

    def test_offset_counts_bytes_of_the_whole_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("\u00e9\n".encode("utf-8") * 3000 + b"\xfe")
        with pytest.raises(CsvParseError, match=re.escape(f"{path}: byte 9000 is not UTF-8")):
            read_text(path, CsvParseError)


class TestBatchIterator:
    def test_oversized_batch_is_whole_permutation(self, rng):
        data = Batch(rng.normal(size=(7, 2)), labels=rng.integers(0, 2, size=7))
        batches = list(batch_iterator(data, 10, rng))
        assert len(batches) == 1
        got = np.sort(batches[0].features, axis=0)
        np.testing.assert_array_equal(got, np.sort(data.features, axis=0))

    def test_sizes_partition_input(self, rng):
        data = Batch(rng.normal(size=(10, 2)))
        sizes = [len(b) for b in batch_iterator(data, 3, rng)]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_sequence(self, rng):
        data = Batch(rng.normal(size=(12, 2)), labels=rng.integers(0, 2, size=12))
        seq1 = [b.features for b in batch_iterator(data, 4, np.random.default_rng(5))]
        seq2 = [b.features for b in batch_iterator(data, 4, np.random.default_rng(5))]
        for a, b in zip(seq1, seq2):
            assert np.array_equal(a, b)

    def test_concatenation_is_permutation(self, rng):
        data = Batch(rng.normal(size=(11, 2)), labels=rng.integers(0, 2, size=11))
        batches = list(batch_iterator(data, 4, rng))
        stacked = np.vstack([b.features for b in batches])
        assert stacked.shape == data.features.shape
        np.testing.assert_array_equal(
            np.sort(stacked, axis=0), np.sort(data.features, axis=0)
        )

    def test_labels_follow_rows(self, rng):
        feats = np.arange(12.0).reshape(6, 2)
        data = Batch(feats, labels=np.arange(6))
        for b in batch_iterator(data, 2, rng):
            np.testing.assert_array_equal(b.features[:, 0], b.labels * 2.0)
