"""Pairing, adaptive weights, mixed batches and the mixup supervision loss."""

import itertools
import math

import numpy as np
import pytest

from saflab import (
    ConfigError,
    DataError,
    MixupPolicy,
    ShapeError,
    Tape,
    Tensor,
    backward,
    build_bundle,
    random_draw_pairs,
    saf_mixup_batch,
    saf_supervision_loss,
)
from saflab.mixup import MixedBatch, pseudo_label_probs
from saflab.networks import forward_features

from conftest import tiny_config


@pytest.fixture
def bundle():
    cfg = tiny_config(batch_size=8)
    return build_bundle(cfg, np.random.default_rng(11)), cfg


def target_feats(bundle, rng, n=10):
    return forward_features(None, bundle, rng.normal(size=(n, 2)))


class TestPolicy:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            MixupPolicy(mode="gamma")

    def test_constant_eta_open_interval(self):
        with pytest.raises(ConfigError):
            MixupPolicy(mode="constant", constant_eta=1.0)

    def test_auto_threshold_is_half_max_entropy(self):
        p = MixupPolicy()
        assert p.threshold_for(4) == pytest.approx(0.5 * math.log(4))
        assert MixupPolicy(entropy_threshold=0.2).threshold_for(4) == 0.2


class TestRandomDrawPairs:
    def test_partition_of_even_count(self, rng):
        pairs = random_draw_pairs(4, rng)
        flat = sorted(i for p in pairs for i in p)
        assert flat == [0, 1, 2, 3]
        assert len(pairs) == 2

    def test_single_index_pairs_with_itself(self, rng):
        assert random_draw_pairs(1, rng) == [(0, 0)]

    def test_odd_count_self_pairs_leftover(self, rng):
        pairs = random_draw_pairs(7, rng)
        assert len(pairs) == 4
        selfs = [p for p in pairs if p[0] == p[1]]
        assert len(selfs) == 1
        counts = {}
        for a, b in pairs:
            counts[a] = counts.get(a, 0) + 1
            if a != b:
                counts[b] = counts.get(b, 0) + 1
        assert all(c == 1 for c in counts.values())

    def test_zero_rejected(self, rng):
        with pytest.raises(DataError):
            random_draw_pairs(0, rng)

    def test_array_pairing_matches_the_list_construction(self, bundle):
        # the oracle is the per-pair construction the array slices replaced:
        # same pairs, plain int tuples, and the generator left in the same state
        b, _ = bundle
        for n in range(1, 71):
            old_rng, new_rng = np.random.default_rng(n), np.random.default_rng(n)
            order = old_rng.permutation(n)
            want = [(int(order[i]), int(order[i + 1])) for i in range(0, n - 1, 2)]
            if n % 2 == 1:
                want.append((int(order[-1]), int(order[-1])))
            got = random_draw_pairs(n, new_rng)
            assert got == want, n
            assert all(type(i) is int for pair in got for i in pair)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            mixed = saf_mixup_batch(None, b, Tensor(np.zeros((n, b.M.in_dim))),
                                    MixupPolicy(mode="constant"), np.random.default_rng(n))
            assert mixed.pair_indices == want, n

    def test_matching_marginals_uniform(self):
        # each unordered pair of 6 items should appear with frequency 1/5
        rng = np.random.default_rng(123)
        counts = {frozenset(p): 0 for p in itertools.combinations(range(6), 2)}
        draws = 10_000
        for _ in range(draws):
            for a, b in random_draw_pairs(6, rng):
                counts[frozenset((a, b))] += 1
        for pair, c in counts.items():
            assert abs(c / draws - 0.2) < 0.02, (pair, c / draws)


class TestSafMixupBatch:
    def test_equal_parents_reproduce_themselves(self, bundle, rng):
        b, _ = bundle
        row = rng.normal(size=(1, b.M.in_dim))
        feats = Tensor(np.vstack([row, row]))
        mixed = saf_mixup_batch(None, b, feats, MixupPolicy(), np.random.default_rng(0))
        np.testing.assert_allclose(mixed.features.data, row, atol=1e-15)
        probs = pseudo_label_probs(b, row)
        np.testing.assert_allclose(mixed.soft_labels.data, probs, atol=1e-15)

    def test_constant_mode_hand_computed(self, bundle):
        b, _ = bundle
        f = np.arange(2.0 * b.M.in_dim).reshape(2, b.M.in_dim) + 1.0
        feats = Tensor(f)
        probs = np.array([[0.8, 0.2], [0.3, 0.7]])
        mixed = saf_mixup_batch(
            None, b, feats, MixupPolicy(mode="constant", constant_eta=0.6),
            np.random.default_rng(1), pseudo_probs=probs,
        )
        (i, j) = mixed.pair_indices[0]
        expected_f = 0.6 * f[i] + 0.4 * f[j]
        expected_y = 0.6 * probs[i] + 0.4 * probs[j]
        np.testing.assert_allclose(mixed.features.data[0], expected_f, atol=1e-15)
        np.testing.assert_allclose(mixed.soft_labels.data[0], expected_y, atol=1e-15)

    def test_soft_label_rows_sum_to_one(self, bundle, rng):
        b, _ = bundle
        for mode in ("saf", "beta", "constant"):
            mixed = saf_mixup_batch(
                None, b, target_feats(b, rng, 21), MixupPolicy(mode=mode),
                np.random.default_rng(3),
            )
            sums = mixed.soft_labels.data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_mixed_rows_lie_between_parents(self, bundle, rng):
        b, _ = bundle
        feats = target_feats(b, rng, 16)
        mixed = saf_mixup_batch(None, b, feats, MixupPolicy(), np.random.default_rng(5))
        for r, (i, j) in enumerate(mixed.pair_indices):
            lo = np.minimum(feats.data[i], feats.data[j])
            hi = np.maximum(feats.data[i], feats.data[j])
            assert (mixed.features.data[r] >= lo - 1e-12).all()
            assert (mixed.features.data[r] <= hi + 1e-12).all()

    def test_pairing_partitions_filtered_indices(self, bundle, rng):
        b, _ = bundle
        mixed = saf_mixup_batch(None, b, target_feats(b, rng, 9), MixupPolicy(),
                                np.random.default_rng(6))
        used = [i for p in mixed.pair_indices for i in p]
        selfs = [p for p in mixed.pair_indices if p[0] == p[1]]
        assert len(selfs) == 1
        assert sorted(set(used)) == list(range(9))

    def test_saf_mode_deterministic_with_frozen_module(self, bundle, rng):
        b, _ = bundle
        feats = target_feats(b, rng, 12)
        m1 = saf_mixup_batch(None, b, feats, MixupPolicy(), np.random.default_rng(7))
        m2 = saf_mixup_batch(None, b, feats, MixupPolicy(), np.random.default_rng(7))
        np.testing.assert_array_equal(m1.etas, m2.etas)
        np.testing.assert_array_equal(m1.features.data, m2.features.data)

    def test_beta_mode_matches_beta_moments(self, bundle):
        b, _ = bundle
        rng_feats = np.random.default_rng(8)
        feats = target_feats(b, rng_feats, 20_000)
        mixed = saf_mixup_batch(None, b, feats, MixupPolicy(mode="beta", beta_alpha=0.2),
                                np.random.default_rng(9))
        etas = mixed.etas
        assert etas.size == 10_000
        # Beta(0.2, 0.2): E[X] = 1/2, E[X^2] = (0.2/0.4)*(1.2/1.4), and the
        # standard errors follow from var(X) and var(X^2)
        ex2 = 0.5 * (1.2 / 1.4)
        ex4 = ex2 * (2.2 / 2.4) * (3.2 / 3.4)
        se_mean = math.sqrt((ex2 - 0.25) / etas.size)
        se_m2 = math.sqrt((ex4 - ex2 ** 2) / etas.size)
        assert abs(etas.mean() - 0.5) <= 3 * se_mean
        assert abs((etas ** 2).mean() - ex2) <= 3 * se_m2

    def test_only_certain_with_zero_threshold_is_empty(self, bundle, rng):
        b, _ = bundle
        mixed = saf_mixup_batch(
            None, b, target_feats(b, rng, 10),
            MixupPolicy(entropy_filter="only_certain", entropy_threshold=0.0),
            np.random.default_rng(10),
        )
        assert len(mixed) == 0

    def test_only_uncertain_with_zero_threshold_keeps_all(self, bundle, rng):
        b, _ = bundle
        mixed = saf_mixup_batch(
            None, b, target_feats(b, rng, 10),
            MixupPolicy(entropy_filter="only_uncertain", entropy_threshold=0.0),
            np.random.default_rng(10),
        )
        assert len(mixed) == 5

    def test_entropy_filter_splits_pool(self, bundle, rng):
        b, _ = bundle
        feats = target_feats(b, rng, 30)
        probs = pseudo_label_probs(b, feats.data)
        from saflab.losses import conditional_entropy

        thr = float(np.median(conditional_entropy(probs)))
        uncertain = saf_mixup_batch(
            None, b, feats,
            MixupPolicy(entropy_filter="only_uncertain", entropy_threshold=thr),
            np.random.default_rng(1),
        )
        certain = saf_mixup_batch(
            None, b, feats,
            MixupPolicy(entropy_filter="only_certain", entropy_threshold=thr),
            np.random.default_rng(1),
        )
        used_u = {i for p in uncertain.pair_indices for i in p}
        used_c = {i for p in certain.pair_indices for i in p}
        assert used_u.isdisjoint(used_c)
        assert len(used_u) + len(used_c) == 30

    def test_include_source_appends_one_hot_rows(self, bundle, rng):
        b, _ = bundle
        tgt = target_feats(b, rng, 6)
        src = forward_features(None, b, rng.normal(size=(4, 2)))
        labels = np.array([0, 1, 1, 0])
        mixed = saf_mixup_batch(
            None, b, tgt, MixupPolicy(include_source=True), np.random.default_rng(2),
            src_features=src, src_labels=labels,
        )
        used = {i for p in mixed.pair_indices for i in p}
        assert used == set(range(10))
        assert len(mixed) == 5

    def test_include_source_requires_source(self, bundle, rng):
        b, _ = bundle
        with pytest.raises(DataError):
            saf_mixup_batch(None, b, target_feats(b, rng, 4),
                            MixupPolicy(include_source=True), np.random.default_rng(2))

    def test_width_mismatch(self, bundle, rng):
        b, _ = bundle
        with pytest.raises(ShapeError):
            saf_mixup_batch(None, b, Tensor(rng.normal(size=(4, b.M.in_dim + 2))),
                            MixupPolicy(), np.random.default_rng(0))

    def test_empty_input_rejected(self, bundle):
        b, _ = bundle
        with pytest.raises(DataError):
            saf_mixup_batch(None, b, Tensor(np.zeros((0, b.M.in_dim))), MixupPolicy(),
                            np.random.default_rng(0))


class TestSafSupervisionLoss:
    def test_empty_batch_contributes_zero(self, bundle):
        b, _ = bundle
        empty = MixedBatch.empty(b.M.in_dim, b.num_classes)
        loss = saf_supervision_loss(None, b, empty)
        assert loss.item() == 0.0
        assert not loss.requires_grad

    def test_gradient_reaches_all_blocks_in_saf_mode(self, bundle, rng):
        b, _ = bundle
        tape = Tape()
        feats = forward_features(tape, b, rng.normal(size=(8, 2)), training=True)
        mixed = saf_mixup_batch(tape, b, feats, MixupPolicy(), np.random.default_rng(4))
        loss = saf_supervision_loss(tape, b, mixed, training=True,
                                    rng=np.random.default_rng(5))
        backward(loss, tape)
        for block in (b.F, b.B, b.C, b.M):
            norms = [0.0 if p.tensor.grad is None else np.abs(p.tensor.grad).max()
                     for p in block.parameters()]
            assert max(norms) > 0.0, f"no gradient reached {block}"
        for p in b.parameters():
            p.tensor.grad = None

    @pytest.mark.parametrize("mode", ["beta", "constant"])
    def test_weight_module_gets_no_gradient_without_saf(self, bundle, rng, mode):
        b, _ = bundle
        tape = Tape()
        feats = forward_features(tape, b, rng.normal(size=(8, 2)), training=True)
        mixed = saf_mixup_batch(tape, b, feats, MixupPolicy(mode=mode),
                                np.random.default_rng(4))
        loss = saf_supervision_loss(tape, b, mixed, training=True,
                                    rng=np.random.default_rng(5))
        backward(loss, tape)
        m_norm = max(
            0.0 if p.tensor.grad is None else np.abs(p.tensor.grad).max()
            for p in b.M.parameters()
        )
        assert m_norm == 0.0
        for p in b.parameters():
            p.tensor.grad = None

    def test_eta_near_one_degenerates_to_self_training(self, bundle, rng):
        b, _ = bundle
        feats = target_feats(b, rng, 6)
        probs = pseudo_label_probs(b, feats.data)
        mixed = saf_mixup_batch(
            None, b, feats, MixupPolicy(mode="constant", constant_eta=1.0 - 1e-9),
            np.random.default_rng(3), pseudo_probs=probs,
        )
        first = [i for i, _ in mixed.pair_indices]
        np.testing.assert_allclose(mixed.features.data, feats.data[first], atol=1e-7)
        np.testing.assert_allclose(mixed.soft_labels.data, probs[first], atol=1e-7)

    def test_after_bottleneck_path_skips_b(self, rng):
        cfg = tiny_config(mixup_after_bottleneck=True)
        b = build_bundle(cfg, np.random.default_rng(12))
        assert b.M.in_dim == cfg.bottleneck_dim
        feats = forward_features(None, b, rng.normal(size=(6, 2)))
        h = b.B.forward(None, feats)
        mixed = saf_mixup_batch(None, b, h, MixupPolicy(), np.random.default_rng(4),
                                through_bottleneck=False)
        loss = saf_supervision_loss(None, b, mixed, training=False,
                                    through_bottleneck=False)
        logits = b.C.forward(None, Tensor(mixed.features.data))
        from saflab.losses import cross_entropy_divergence

        expected = cross_entropy_divergence(None, logits, mixed.soft_labels.data).item()
        assert abs(loss.item() - expected) < 1e-12
