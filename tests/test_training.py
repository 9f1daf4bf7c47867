"""Schedules, the joint training step, evaluation and full runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

import saflab.autodiff as ad
import saflab.losses as losses
import saflab.training as tr
from saflab import (
    ConfigError,
    DataError,
    DomainSpec,
    MixupPolicy,
    StateError,
    TrainConfig,
    build_bundle,
    evaluate,
    lambda_d_schedule,
    lambda_m_schedule,
    run_experiment,
    train_step,
)
from saflab.data import TARGET_TAG, gen_two_moons
from saflab.losses import cross_entropy
from saflab.networks import classify, forward_features
from saflab.autodiff import Tape, backward

from conftest import tiny_config
from helpers import count_eval_forwards, counting, golden_data, run_digests


def moon_pair(n=40, seed=0):
    src = gen_two_moons(DomainSpec(n_samples=n, seed=seed))
    tgt = gen_two_moons(DomainSpec(n_samples=n, seed=seed, rotation_deg=35.0),
                        domain_tag=TARGET_TAG)
    return src, tgt


class TestSchedules:
    def test_zero_at_start(self):
        assert lambda_d_schedule(0, 1000, 0.1) == 0.0
        assert lambda_m_schedule(0, 1000, 0.1) == 0.0

    def test_endpoint_values(self):
        assert abs(lambda_d_schedule(1000, 1000, 0.1) - 0.1 * math.tanh(10)) < 1e-15
        assert abs(lambda_m_schedule(1000, 1000, 0.1) - 0.1 * math.tanh(5)) < 1e-15
        assert abs(lambda_d_schedule(100, 1000, 0.1) - 0.07615941559557648881195) < 1e-15

    def test_monotone_and_ordered(self):
        total = 1000
        prev_d = prev_m = -1.0
        for t in range(0, total + 1, 10):
            d = lambda_d_schedule(t, total, 0.1)
            m = lambda_m_schedule(t, total, 0.1)
            assert d >= prev_d and m >= prev_m
            assert m <= d
            prev_d, prev_m = d, m

    def test_clamps_long_tail(self):
        assert lambda_d_schedule(5000, 1000, 0.1) == lambda_d_schedule(1000, 1000, 0.1)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ConfigError):
            lambda_d_schedule(-1, 100, 0.1)


class TestTrainStep:
    def test_requires_source_labels(self):
        cfg = tiny_config()
        bundle = build_bundle(cfg, np.random.default_rng(0))
        src, tgt = moon_pair(8)
        with pytest.raises(DataError):
            train_step(bundle, src.without_labels(), tgt.without_labels(), cfg, 0,
                       np.random.default_rng(0))

    def test_source_only_matches_plain_supervised(self):
        # saf off + lambda_d 0 must reproduce a bare source-supervision loop
        cfg = tiny_config(saf_enabled=False, lambda_d_max=0.0, total_iterations=6)
        src, tgt = moon_pair(16)
        bundle_a = build_bundle(cfg, np.random.default_rng(3))
        rng_a = np.random.default_rng(7)
        for t in range(6):
            train_step(bundle_a, src, tgt.without_labels(), cfg, t, rng_a)

        bundle_b = build_bundle(cfg, np.random.default_rng(3))
        rng_b = np.random.default_rng(7)
        from saflab.autodiff import sgd_nesterov_step

        for _ in range(6):
            tape = Tape()
            feats = forward_features(tape, bundle_b, src)
            logits = classify(tape, bundle_b, feats, training=True, rng=rng_b)
            loss = cross_entropy(tape, logits, src.labels)
            backward(loss, tape)
            sgd_nesterov_step(bundle_b.buffer, cfg.base_lr, cfg.momentum)

        for (n1, a1), (n2, a2) in zip(bundle_a.named_arrays(), bundle_b.named_arrays()):
            assert np.array_equal(a1, a2), n1

    def test_one_step_matches_hand_applied_update(self):
        # gradients from an identical replayed graph, update applied by hand
        cfg = tiny_config(backbone="dann", total_iterations=10)
        src, tgt = moon_pair(12)
        bundle_a = build_bundle(cfg, np.random.default_rng(5))
        bundle_b = build_bundle(cfg, np.random.default_rng(5))
        t = 3

        train_step(bundle_a, src, tgt.without_labels(), cfg, t, np.random.default_rng(9))

        from saflab import autodiff as ad
        from saflab.losses import dann_domain_loss
        from saflab.mixup import pseudo_label_probs, saf_mixup_batch, saf_supervision_loss
        from saflab.networks import adversary_logits

        rng = np.random.default_rng(9)
        lam_d = lambda_d_schedule(t, cfg.total_iterations, cfg.lambda_d_max)
        lam_m = lambda_m_schedule(t, cfg.total_iterations, cfg.lambda_m_max)
        tape = Tape()
        feats_src = forward_features(tape, bundle_b, src)
        logits_src = classify(tape, bundle_b, feats_src, training=True, rng=rng)
        eps_c = cross_entropy(tape, logits_src, src.labels)
        feats_tgt = forward_features(tape, bundle_b, tgt.without_labels())
        d_src = adversary_logits(tape, bundle_b, feats_src, lam_d, training=True, rng=rng)
        d_tgt = adversary_logits(tape, bundle_b, feats_tgt, lam_d, training=True, rng=rng)
        eps_d = dann_domain_loss(tape, d_src, d_tgt)
        mixed = saf_mixup_batch(tape, bundle_b, feats_tgt, cfg.mixup, rng,
                                pseudo_probs=pseudo_label_probs(bundle_b, feats_tgt.data))
        eps_m = saf_supervision_loss(tape, bundle_b, mixed, training=True, rng=rng)
        total = ad.add(tape, ad.add(tape, eps_c, eps_d), ad.scale_shift(tape, eps_m, lam_m))
        backward(total, tape)

        buf = bundle_b.buffer
        for p, size, stop in zip(buf.params, buf.sizes, np.cumsum(buf.sizes)):
            if p.tensor.grad is None:
                continue
            lr = cfg.base_lr * p.lr_multiplier
            velocity = buf.velocity[stop - size:stop].reshape(p.tensor.shape)
            v = cfg.momentum * velocity - lr * p.tensor.grad
            p.tensor.data += cfg.momentum * v - lr * p.tensor.grad
            velocity[...] = v
            p.tensor.grad = None

        for (n1, a1), (n2, a2) in zip(bundle_a.named_arrays(), bundle_b.named_arrays()):
            np.testing.assert_allclose(a1, a2, atol=1e-12, err_msg=n1)

    def test_lambda_m_scales_weight_module_update_linearly(self):
        src, tgt = moon_pair(16)
        updates = {}
        for scale, lam in (("x1", 0.05), ("x2", 0.1)):
            cfg = tiny_config(momentum=0.0, lambda_m_max=lam, total_iterations=10,
                              lambda_d_max=0.0, saf_enabled=True)
            bundle = build_bundle(cfg, np.random.default_rng(4))
            before = {p.name: p.tensor.data.copy() for p in bundle.M.parameters()}
            train_step(bundle, src, tgt.without_labels(), cfg, 10, np.random.default_rng(2))
            updates[scale] = {
                p.name: p.tensor.data - before[p.name] for p in bundle.M.parameters()
            }
        for name in updates["x1"]:
            np.testing.assert_allclose(updates["x2"][name], 2.0 * updates["x1"][name],
                                       atol=1e-15)

    def test_step_touches_only_expected_state(self):
        cfg = tiny_config(saf_enabled=False, lambda_d_max=0.0)
        src, tgt = moon_pair(8)
        bundle = build_bundle(cfg, np.random.default_rng(1))
        d_before = {p.name: p.tensor.data.copy() for p in bundle.D.parameters()}
        m_before = {p.name: p.tensor.data.copy() for p in bundle.M.parameters()}
        train_step(bundle, src, tgt.without_labels(), cfg, 0, np.random.default_rng(0))
        # untouched blocks stay bitwise at init (no gradient ever reaches them)
        for p in bundle.D.parameters():
            assert np.array_equal(p.tensor.data, d_before[p.name])
        for p in bundle.M.parameters():
            assert np.array_equal(p.tensor.data, m_before[p.name])


    @pytest.mark.parametrize("backbone, saf, after, passes", [
        ("dann", False, False, (0, 0)), ("dann", False, True, (0, 0)),
        ("dann", True, False, (1, 1)), ("dann", True, True, (0, 1)),
        ("mdd", False, False, (2, 2)), ("mdd", False, True, (2, 2)),
        ("mdd", True, False, (2, 2)), ("mdd", True, True, (2, 3)),
    ])
    def test_objective_decides_every_pseudo_label(self, monkeypatch, backbone, saf, after,
                                                  passes):
        # eval-mode (B, C) passes of one step: mdd's source and target
        # pseudo-labels, the mixup's target pseudo-labels (C alone on the
        # training-mode B outputs with after_bottleneck)
        cfg = tiny_config(backbone=backbone, saf_enabled=saf, mixup_after_bottleneck=after)
        src, tgt = moon_pair(16)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        calls = count_eval_forwards(monkeypatch, bundle, "BC")
        # t = 2: lambda_d > 0, so the adversary runs in training mode
        train_step(bundle, src, tgt.without_labels(), cfg, 2, np.random.default_rng(3))
        assert (calls["B"], calls["C"]) == passes

    @pytest.mark.parametrize("backbone", ["dann", "mdd"])
    @pytest.mark.parametrize("saf", [False, True])
    def test_out_of_graph_adversary_reads_the_eval_passes(self, monkeypatch, backbone, saf):
        # t = 0: lambda_d = 0, so D runs out of graph on the one eval-mode B pass
        # of each domain, the pass that also gives the pseudo-labels; neither the
        # adversary path nor the gradient reversal runs
        cfg = tiny_config(backbone=backbone, saf_enabled=saf)
        src, tgt = moon_pair(16)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        calls = count_eval_forwards(monkeypatch, bundle, "BD")
        monkeypatch.setattr(tr, "adversary_logits",
                            counting(calls, "adversary", tr.adversary_logits))
        monkeypatch.setattr(ad, "grad_reverse", counting(calls, "grad_reverse", ad.grad_reverse))
        train_step(bundle, src, tgt.without_labels(), cfg, 0, np.random.default_rng(3))
        assert calls == {"B": 2, "D": 2, "adversary": 0, "grad_reverse": 0}

    @pytest.mark.parametrize("backbone", ["dann", "mdd"])
    def test_an_empty_only_certain_pool_adds_no_mixup_term(self, backbone):
        # no row's entropy is below 0, so the filter leaves the mixup no row
        cfg = tiny_config(backbone=backbone, mixup=MixupPolicy(entropy_filter="only_certain",
                                                               entropy_threshold=0.0))
        src, tgt = moon_pair(16)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        m_before = [p.tensor.data.tobytes() for p in bundle.M.parameters()]
        terms = train_step(bundle, src, tgt.without_labels(), cfg, 2, np.random.default_rng(3))
        assert terms["eps_m"] == 0.0
        assert [p.tensor.data.tobytes() for p in bundle.M.parameters()] == m_before
        assert evaluate(bundle, src, tgt, cfg, iteration=1).eps_m == 0.0


class TestEvaluate:
    def test_untrained_accuracy_near_chance(self):
        cfg = tiny_config()
        src, tgt = moon_pair(200, seed=12)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        rec = evaluate(bundle, src, tgt, cfg)
        assert 0.35 <= rec.tgt_acc <= 0.65

    def test_deterministic(self):
        cfg = tiny_config()
        src, tgt = moon_pair(30)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        r1 = evaluate(bundle, src, tgt, cfg, iteration=5)
        r2 = evaluate(bundle, src, tgt, cfg, iteration=5)
        assert r1 == r2

    def test_requires_labels(self):
        cfg = tiny_config()
        src, tgt = moon_pair(10)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        with pytest.raises(DataError):
            evaluate(bundle, src, tgt.without_labels(), cfg)

    def test_mdd_estimate_present_for_mdd_backbone(self):
        cfg = tiny_config(backbone="mdd")
        src, tgt = moon_pair(20)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        rec = evaluate(bundle, src, tgt, cfg)
        assert -2.0 <= rec.mdd_est <= 2.0
        assert 0.0 <= rec.src_acc <= 1.0
        assert rec.h_div <= 2.0

    def test_dann_two_class_alignment_of_heads(self):
        # with K = 2 the domain head doubles as a classifier, so the
        # disparity diagnostic stays defined
        cfg = tiny_config(backbone="dann", num_classes=2)
        src, tgt = moon_pair(20)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        rec = evaluate(bundle, src, tgt, cfg)
        assert not math.isnan(rec.mdd_est)

    def test_overflowing_features_fail_loudly(self):
        # parameters and running statistics stay finite, but F's output overflows
        cfg = tiny_config()
        src, tgt = moon_pair(20)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        for layer in bundle.F.layers:
            layer.w.tensor.data[:] = 1e300
        with pytest.raises(StateError, match="^evaluation at iteration 7: non-finite source "
                                             "features; the model has diverged$"):
            evaluate(bundle, src, tgt, cfg, iteration=7)

    @pytest.mark.parametrize("backbone", ["dann", "mdd"])
    @pytest.mark.parametrize("after, b_passes", [(False, 3), (True, 2)])
    def test_each_domain_passes_through_b_once(self, monkeypatch, backbone, after, b_passes):
        # eval-mode B is a pure function, so C, D and the mixup reuse the
        # source and target passes, and only the mixed rows take one more
        # (none when the mixup runs after B).  The class softmaxes come with
        # the objective: evaluate adds only the adversary's two
        cfg = tiny_config(backbone=backbone, mixup_after_bottleneck=after)
        src, tgt = moon_pair(20)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        calls = count_eval_forwards(monkeypatch, bundle, "B")
        monkeypatch.setattr(ad, "softmax_rows", counting(calls, "softmax", ad.softmax_rows))
        evaluate(bundle, src, tgt, cfg, iteration=3)
        assert calls == {"B": b_passes, "softmax": 4}


class TestRunExperiment:
    def test_eval_cadence_rows(self, tmp_path):
        cfg = tiny_config(total_iterations=10, eval_every=5)
        src, tgt = moon_pair(20)
        out = run_experiment(cfg, src, tgt, tmp_path / "run")
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == tr.METRICS_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "5"
        assert lines[2].split(",")[0] == "10"
        assert (out / "model.txt").exists()

    def test_bitwise_deterministic(self, tmp_path):
        cfg = tiny_config(total_iterations=8, eval_every=4)
        src, tgt = moon_pair(24)
        out1 = run_experiment(cfg, src, tgt, tmp_path / "a")
        out2 = run_experiment(cfg, src, tgt, tmp_path / "b")
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()

    def test_target_labels_never_reach_training(self, tmp_path, monkeypatch):
        cfg = tiny_config(total_iterations=4, eval_every=2)
        src, tgt = moon_pair(16)
        seen = []
        real_step = tr.train_step

        def audit(bundle, s, t_batch, *args, **kw):
            seen.append(t_batch.labels)
            return real_step(bundle, s, t_batch, *args, **kw)

        monkeypatch.setattr(tr, "train_step", audit)
        run_experiment(cfg, src, tgt, tmp_path / "run")
        assert len(seen) == 4
        assert all(lab is None for lab in seen)

    def test_saf_off_is_backbone_only_run(self, tmp_path):
        # the saf flag alone must not perturb anything else in the pipeline
        src, tgt = moon_pair(20)
        cfg_off = tiny_config(saf_enabled=False, total_iterations=6, eval_every=3)
        out1 = run_experiment(cfg_off, src, tgt, tmp_path / "off1")
        out2 = run_experiment(cfg_off, src, tgt, tmp_path / "off2")
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


# every mixup path a run can take: saf off, and saf with each pool, weight and filter policy
READ_ONLY_SETUPS = {
    "saf_off": dict(saf_enabled=False),
    "saf": {},
    "include_source": dict(mixup=MixupPolicy(include_source=True)),
    "only_certain": dict(mixup=MixupPolicy(entropy_filter="only_certain")),
    "beta": dict(mixup=MixupPolicy(mode="beta")),
    "constant": dict(mixup=MixupPolicy(mode="constant")),
    "after_bottleneck_source": dict(mixup=MixupPolicy(include_source=True),
                                    mixup_after_bottleneck=True),
}


@pytest.mark.parametrize("setup", sorted(READ_ONLY_SETUPS))
@pytest.mark.parametrize("backbone", ["dann", "mdd"])
def test_no_op_writes_into_an_array_it_was_given_or_returned(tmp_path, monkeypatch,
                                                              backbone, setup):
    """Identity forwards return their input's array, and backwards read their
    inputs when they run; both rest on this.  Every recorded array is made
    read-only, and the run must finish with the same bytes."""
    cfg = replace(TrainConfig(), backbone=backbone, total_iterations=12, eval_every=6,
                  **READ_ONLY_SETUPS[setup])
    data = golden_data(64, 64)
    plain = run_digests(cfg, data, tmp_path / "plain", steps=12)
    record_op = ad.record_op

    def read_only(tape, inputs, out, backward_fn):
        out.flags.writeable = False
        return record_op(tape, inputs, out, backward_fn)

    monkeypatch.setattr(ad, "record_op", read_only)
    monkeypatch.setattr(losses, "record_op", read_only)
    assert run_digests(cfg, data, tmp_path / "read_only", steps=12) == plain
