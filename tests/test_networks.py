"""Block construction, seam checks, forward pipelines, the flat parameter
buffer and parameter files."""

from dataclasses import replace

import numpy as np
import pytest

import saflab.autodiff as ad
import saflab.networks as nets
from saflab import (
    ConfigError,
    DomainSpec,
    MixupPolicy,
    ShapeError,
    Tape,
    Tensor,
    TrainConfig,
    backward,
    build_bundle,
    gen_two_moons,
    train_step,
)
from saflab.data import TARGET_TAG, Batch

from conftest import tiny_config
from helpers import assert_grad_close, fd_grad, in_width


class TestBuildBundle:
    def test_default_desk_seams(self):
        cfg = tiny_config(f_widths=(64, 32), bottleneck_dim=16, saf_dim=16)
        bundle = build_bundle(cfg, np.random.default_rng(0))
        assert [in_width(block) for block in (bundle.F, bundle.B, bundle.C)] == [2, 32, 16]
        assert [block.layers[-1].w.tensor.cols for block in bundle.blocks[:4]] == [32, 16, 2, 2]
        assert in_width(bundle.M) == 32 and in_width(bundle.M.estimator) == 16

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(num_classes=1)

    def test_same_seed_bitwise_identical(self):
        cfg = tiny_config()
        b1 = build_bundle(cfg, np.random.default_rng(5))
        b2 = build_bundle(cfg, np.random.default_rng(5))
        for (n1, a1), (n2, a2) in zip(b1.named_arrays(), b2.named_arrays()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_lr_multipliers(self):
        bundle = build_bundle(tiny_config(), np.random.default_rng(0))
        for p in bundle.F.parameters():
            assert p.lr_multiplier == 1.0
        for p in bundle.D.parameters():
            assert p.lr_multiplier == 1.0
        for block in (bundle.B, bundle.C):
            for p in block.parameters():
                assert p.lr_multiplier == 10.0
        for p in bundle.M.parameters():
            assert p.lr_multiplier == 10.0

    @pytest.mark.parametrize("changes", [
        {}, {"backbone": "dann"}, {"backbone": "dann", "num_classes": 3},
        {"mixup_after_bottleneck": True, "saf_bottlenecks": 4}, {"num_classes": 3},
        {"saf_bottlenecks": 1},
    ])
    def test_parameter_counts_match_the_buffer(self, changes):
        cfg = TrainConfig(**changes)
        bundle = build_bundle(cfg, np.random.default_rng(0))

        def size(*blocks):
            return sum(p.tensor.data.size for block in blocks for p in block.parameters())

        assert nets.parameter_counts(cfg) == {"f_widths": size(bundle.F),
                                              "bottleneck_dim": size(bundle.B, bundle.C, bundle.D),
                                              "saf_dim": size(bundle.M)}
        assert sum(nets.parameter_counts(cfg).values()) == bundle.buffer.data.size

    def test_mdd_adversary_mirrors_classifier(self):
        bundle = build_bundle(tiny_config(backbone="mdd"), np.random.default_rng(0))
        assert [l.w.tensor.shape for l in bundle.D.layers] == \
               [l.w.tensor.shape for l in bundle.C.layers]


class TestForwardFeatures:
    def test_zero_weights_give_zero_features(self, tiny_bundle):
        bundle, cfg = tiny_bundle
        for layer in bundle.F.layers:
            layer.w.tensor.data[:] = 0.0
            layer.b.tensor.data[:] = 0.0
        out = nets.forward_features(None, bundle, np.ones((3, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((3, cfg.f_widths[-1])))

    def test_row_independence(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        x = rng.normal(size=(5, 2))
        full = nets.forward_features(None, bundle, x).data
        single = nets.forward_features(None, bundle, x[2:3]).data
        np.testing.assert_allclose(full[2:3], single, atol=1e-15)

    def test_width_mismatch(self, tiny_bundle):
        bundle, _ = tiny_bundle
        with pytest.raises(ShapeError):
            nets.forward_features(None, bundle, np.ones((3, 7)))

    def test_accepts_batches(self, tiny_bundle, rng):
        bundle, cfg = tiny_bundle
        batch = Batch(rng.normal(size=(4, 2)))
        assert nets.forward_features(None, bundle, batch).shape == (4, cfg.f_widths[-1])

    def test_first_layer_fd(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        x = rng.normal(size=(4, 2))
        w0 = bundle.F.layers[0].w
        tape = Tape()
        loss = ad.sum_all(tape, nets.forward_features(tape, bundle, x))
        backward(loss, tape)
        analytic = w0.tensor.grad.copy()
        w0.tensor.grad = None

        def f(v):
            orig = w0.tensor.data.copy()
            w0.tensor.data[:] = v
            out = nets.forward_features(None, bundle, x).data.sum()
            w0.tensor.data[:] = orig
            return out

        assert_grad_close(analytic, fd_grad(f, w0.tensor.data.copy()))


class TestClassify:
    def test_eval_mode_deterministic(self, rng):
        cfg = tiny_config(dropout=0.5)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        feats = nets.forward_features(None, bundle, rng.normal(size=(6, 2)))
        a = nets.classify(None, bundle, feats).data
        b = nets.classify(None, bundle, feats).data
        assert np.array_equal(a, b)

    def test_training_dropout_varies(self, rng):
        cfg = tiny_config(dropout=0.5, batch_size=8)
        bundle = build_bundle(cfg, np.random.default_rng(2))
        feats = nets.forward_features(None, bundle, rng.normal(size=(8, 2)))
        r = np.random.default_rng(9)
        a = nets.classify(None, bundle, feats, training=True, rng=r).data
        b = nets.classify(None, bundle, feats, training=True, rng=r).data
        assert not np.array_equal(a, b)

    def test_pipeline_matches_plain_arithmetic(self, rng):
        cfg = tiny_config(dropout=0.0)
        bundle = build_bundle(cfg, np.random.default_rng(3))
        x = rng.normal(size=(8, 2))

        h = x
        for layer in bundle.F.layers:
            h = np.maximum(h @ layer.w.tensor.data + layer.b.tensor.data, 0.0)
        bl = bundle.B.layers[0]
        h = h @ bl.w.tensor.data + bl.b.tensor.data
        h = (h - bl.bn_state.mean) / np.sqrt(bl.bn_state.var + 1e-5)
        h = np.maximum(h * bl.gamma.tensor.data + bl.beta.tensor.data, 0.0)
        c0, c1 = bundle.C.layers
        h = np.maximum(h @ c0.w.tensor.data + c0.b.tensor.data, 0.0)
        expected = h @ c1.w.tensor.data + c1.b.tensor.data

        feats = nets.forward_features(None, bundle, x)
        got = nets.classify(None, bundle, feats).data
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestAdversaryLogits:
    def test_forward_equals_classify_with_d(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        feats = nets.forward_features(None, bundle, rng.normal(size=(5, 2)))
        adv = nets.adversary_logits(None, bundle, feats, 0.3).data
        h = bundle.B.forward(None, Tensor(feats.data))
        expected = bundle.D.forward(None, h).data
        np.testing.assert_allclose(adv, expected, atol=1e-15)

    def _f_grad_from_adversary(self, bundle, x, lam):
        tape = Tape()
        feats = nets.forward_features(tape, bundle, x)
        adv = nets.adversary_logits(tape, bundle, feats, lam, training=False)
        loss = ad.sum_all(tape, adv)
        backward(loss, tape)
        grads = [p.tensor.grad.copy() for p in bundle.F.parameters()]
        for p in bundle.parameters():
            p.tensor.grad = None
        return grads

    def test_lambda_zero_blocks_extractor_gradient(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        grads = self._f_grad_from_adversary(bundle, rng.normal(size=(4, 2)), 0.0)
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_lambda_scales_reversed_gradient(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        x = rng.normal(size=(4, 2))
        g_scaled = self._f_grad_from_adversary(bundle, x, 0.1)

        # reference graph without the reversal layer
        tape = Tape()
        feats = nets.forward_features(tape, bundle, x)
        h = bundle.B.forward(tape, feats, training=False)
        loss = ad.sum_all(tape, bundle.D.forward(tape, h, training=False))
        backward(loss, tape)
        g_plain = [p.tensor.grad.copy() for p in bundle.F.parameters()]
        for p in bundle.parameters():
            p.tensor.grad = None

        for gs, gp in zip(g_scaled, g_plain):
            np.testing.assert_allclose(gs, -0.1 * gp, atol=1e-12)


class TestSafWeight:
    def test_zero_module_gives_half(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        for p in bundle.M.parameters():
            p.tensor.data[:] = 0.0
        phi = Tensor(rng.normal(size=(3, in_width(bundle.M))))
        eta = nets.saf_weight(None, bundle.M, phi, phi)
        np.testing.assert_array_equal(eta.data, np.full((3, 1), 0.5))

    def test_two_bottlenecks_are_order_sensitive(self, rng):
        cfg = tiny_config()
        bundle = build_bundle(cfg, np.random.default_rng(4))
        m = bundle.M
        # force visibly different maps and a pass-through estimator
        m.bottlenecks[0].layers[0].w.tensor.data[:] = 1.0
        m.bottlenecks[0].layers[0].b.tensor.data[:] = 1.0
        m.bottlenecks[1].layers[0].w.tensor.data[:] = -1.0
        m.bottlenecks[1].layers[0].b.tensor.data[:] = 2.0
        phi1 = Tensor(np.full((1, in_width(m)), 0.3))
        phi2 = Tensor(np.full((1, in_width(m)), -0.9))
        e12 = nets.saf_weight(None, m, phi1, phi2).data[0, 0]
        e21 = nets.saf_weight(None, m, phi2, phi1).data[0, 0]
        assert e12 != e21

    def test_single_bottleneck_is_symmetric(self, rng):
        cfg = tiny_config(saf_bottlenecks=1)
        bundle = build_bundle(cfg, np.random.default_rng(4))
        phi1 = Tensor(rng.normal(size=(4, in_width(bundle.M))))
        phi2 = Tensor(rng.normal(size=(4, in_width(bundle.M))))
        e12 = nets.saf_weight(None, bundle.M, phi1, phi2).data
        e21 = nets.saf_weight(None, bundle.M, phi2, phi1).data
        np.testing.assert_array_equal(e12, e21)

    def test_four_bottleneck_routing(self, rng):
        cfg = tiny_config(saf_bottlenecks=4)
        bundle = build_bundle(cfg, np.random.default_rng(4))
        m = bundle.M
        phi1 = Tensor(rng.normal(size=(2, in_width(m))))
        phi2 = Tensor(rng.normal(size=(2, in_width(m))))
        got = nets.saf_weight(None, m, phi1, phi2).data

        total = None
        for i, member in enumerate([phi1, phi2, phi1, phi2]):
            s = m.bottlenecks[i].forward(None, member).data
            total = s if total is None else total + s
        expected = m.estimator.forward(None, Tensor(total)).data
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_open_interval(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        phi1 = Tensor(rng.normal(scale=50.0, size=(16, in_width(bundle.M))))
        phi2 = Tensor(rng.normal(scale=50.0, size=(16, in_width(bundle.M))))
        eta = nets.saf_weight(None, bundle.M, phi1, phi2).data
        assert eta.min() > 0.0 and eta.max() < 1.0

    def test_width_mismatch(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        bad = Tensor(rng.normal(size=(2, in_width(bundle.M) + 1)))
        with pytest.raises(ShapeError):
            nets.saf_weight(None, bundle.M, bad, bad)

    def test_differentiable_wrt_module(self, tiny_bundle, rng):
        bundle, _ = tiny_bundle
        phi1 = Tensor(rng.normal(size=(3, in_width(bundle.M))))
        phi2 = Tensor(rng.normal(size=(3, in_width(bundle.M))))
        tape = Tape()
        loss = ad.sum_all(tape, nets.saf_weight(tape, bundle.M, phi1, phi2))
        backward(loss, tape)
        grads = [p.tensor.grad for p in bundle.M.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)


@pytest.mark.parametrize("block, layer", [("F", "F.0"), ("B", "B.0"), ("C", "C.0"), ("D", "D.0"),
                                          ("M", "M.s0.0")])
def test_a_width_mismatch_is_refused_by_dense_naming_the_layer(tiny_bundle, block, layer):
    bundle, _ = tiny_bundle
    width = in_width(getattr(bundle, block))
    bad = Tensor(np.ones((3, width + 1)))
    forward = getattr(bundle, block).forward if block != "M" else (
        lambda tape, x: nets.saf_weight(tape, bundle.M, x, x))
    message = f"^{layer} expects width {width}, got {width + 1}$"
    with pytest.raises(ShapeError, match=message) as refused:
        forward(None, bad)
    assert refused.traceback[-1].name == "dense"


class TestParameterFile:
    def test_round_trip_exact(self, tmp_path, rng):
        cfg = tiny_config()
        bundle = build_bundle(cfg, np.random.default_rng(6))
        # move running stats off their defaults so they round-trip too
        bl = bundle.B.layers[0]
        bl.bn_state.mean[:] = rng.normal(size=bl.bn_state.mean.shape)
        bl.bn_state.var[:] = rng.uniform(0.5, 2.0, size=bl.bn_state.var.shape)
        path = tmp_path / "model.txt"
        bundle.save_params(path)

        other = build_bundle(cfg, np.random.default_rng(7))
        other.load_params(path)
        for (n1, a1), (n2, a2) in zip(bundle.named_arrays(), other.named_arrays()):
            assert n1 == n2
            assert np.array_equal(a1, a2), n1

    def test_mismatched_file_rejected(self, tmp_path):
        cfg = tiny_config()
        bundle = build_bundle(cfg, np.random.default_rng(6))
        path = tmp_path / "model.txt"
        bundle.save_params(path)
        other = build_bundle(tiny_config(bottleneck_dim=4), np.random.default_rng(6))
        with pytest.raises(Exception):
            other.load_params(path)


def _moons(n=16):
    src = gen_two_moons(DomainSpec(n_samples=n, seed=0))
    tgt = gen_two_moons(DomainSpec(n_samples=n, seed=0, rotation_deg=35.0), TARGET_TAG)
    return src, tgt.without_labels()


def _velocities(bundle):
    """Each parameter's slice of the buffer's velocity, by name."""
    buf = bundle.buffer
    stops = np.cumsum(buf.sizes)
    return {p.name: buf.velocity[stop - size:stop]
            for p, size, stop in zip(buf.params, buf.sizes, stops)}


def _state(bundle, block):
    """Bytes of every parameter's values and velocity."""
    velocity = _velocities(bundle)
    return [(p.tensor.data.tobytes(), velocity[p.name].tobytes()) for p in block.parameters()]


class TestParamBuffer:
    def test_every_parameter_is_a_view_in_order(self):
        bundle = build_bundle(tiny_config(backbone="mdd"), np.random.default_rng(0))
        buf = bundle.buffer
        params = list(bundle.parameters())
        assert buf.params == params
        total = sum(p.tensor.data.size for p in params)
        assert buf.data.shape == buf.velocity.shape == buf.lr_scale.shape == (total,)
        buf.data[:] = np.arange(total)
        assert not buf.velocity.any()
        start = 0
        for p in params:
            stop = start + p.tensor.data.size
            assert np.shares_memory(p.tensor.data, buf.data), p.name
            assert np.array_equal(p.tensor.data.ravel(), np.arange(start, stop)), p.name
            assert np.all(buf.lr_scale[start:stop] == p.lr_multiplier), p.name
            start = stop

    def test_load_params_writes_through_the_views(self, tmp_path):
        cfg = tiny_config()
        saved = build_bundle(cfg, np.random.default_rng(6))
        saved.save_params(tmp_path / "model.txt")
        other = build_bundle(cfg, np.random.default_rng(7))
        flat = other.buffer.data
        other.load_params(tmp_path / "model.txt")
        assert other.buffer.data is flat
        assert flat.tobytes() == saved.buffer.data.tobytes()
        assert all(np.shares_memory(p.tensor.data, flat) for p in other.parameters())

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = tiny_config(backbone="mdd")
        bundle = build_bundle(cfg, np.random.default_rng(6))
        src, tgt = _moons()
        step_rng = np.random.default_rng(1)
        for t in range(3):
            train_step(bundle, src, tgt, cfg, t, step_rng)
        bundle.save_params(tmp_path / "a.txt")
        other = build_bundle(cfg, np.random.default_rng(7))
        other.load_params(tmp_path / "a.txt")
        other.save_params(tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_adversary_keeps_its_bytes_at_step_zero(self):
        # lambda_d(0) = 0 keeps the adversary out of the graph, so D gets no
        # gradient: a step must leave its values and its velocity alone
        cfg = tiny_config(backbone="mdd")
        bundle = build_bundle(cfg, np.random.default_rng(0))
        src, tgt = _moons()
        step_rng = np.random.default_rng(1)
        for t in (1, 2):
            train_step(bundle, src, tgt, cfg, t, step_rng)
        velocity = _velocities(bundle)
        assert any(np.abs(velocity[p.name]).max() > 0 for p in bundle.D.parameters())
        d_before, f_before = _state(bundle, bundle.D), _state(bundle, bundle.F)
        assert train_step(bundle, src, tgt, cfg, 0, step_rng)["lambda_d"] == 0.0
        assert _state(bundle, bundle.D) == d_before
        assert _state(bundle, bundle.F) != f_before

    def test_weight_module_keeps_its_bytes_without_mixed_rows(self):
        # an only_certain filter at threshold 0.01 keeps fewer than 2 rows of
        # a barely trained model, so M gets no gradient in that step
        cfg = tiny_config(backbone="mdd")
        strict = replace(cfg, mixup=MixupPolicy(entropy_filter="only_certain",
                                                entropy_threshold=0.01))
        bundle = build_bundle(cfg, np.random.default_rng(0))
        src, tgt = _moons()
        step_rng = np.random.default_rng(1)
        for t in (1, 2):
            train_step(bundle, src, tgt, cfg, t, step_rng)
        velocity = _velocities(bundle)
        assert any(np.abs(velocity[p.name]).max() > 0 for p in bundle.M.parameters())
        m_before, f_before = _state(bundle, bundle.M), _state(bundle, bundle.F)
        assert train_step(bundle, src, tgt, strict, 3, step_rng)["eps_m"] == 0.0
        assert _state(bundle, bundle.M) == m_before
        assert _state(bundle, bundle.F) != f_before
