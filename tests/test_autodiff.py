"""Tensor, tape, primitive ops, backward pass and the Nesterov optimizer."""

import numpy as np
import pytest

import saflab.autodiff as ad
from saflab import BatchNormState, Parameter, ShapeError, StateError, Tape, Tensor, backward
from saflab.exceptions import ConfigError, DataError

from helpers import assert_grad_close, fd_grad, mean_all


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestTensor:
    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))

    def test_item_needs_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0, 2.0]]).item()


class TestMatmul:
    def test_identity(self):
        tape = Tape()
        out = ad.matmul(tape, t([[1, 0], [0, 1]]), t([[3, 4], [5, 6]]))
        np.testing.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_row_by_column(self):
        out = ad.matmul(None, t([[1, 2]]), t([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(None, t(np.zeros((2, 3))), t(np.zeros((2, 2))))

    def test_grad_of_sum_equals_colsums(self, rng):
        a = t(rng.normal(size=(3, 4)))
        b_data = rng.normal(size=(4, 2))
        tape = Tape()
        b = t(b_data)
        loss = ad.sum_all(tape, ad.matmul(tape, a, b))
        backward(loss, tape)
        expected = np.tile(b_data.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

        def f(x):
            return (x @ b_data).sum()

        assert_grad_close(a.grad, fd_grad(f, a.data))

    def test_grad_wrt_second_operand(self, rng):
        a_data = rng.normal(size=(3, 4))
        b = t(rng.normal(size=(4, 2)))
        tape = Tape()
        loss = ad.sum_all(tape, ad.matmul(tape, t(a_data, grad=False), b))
        backward(loss, tape)
        assert_grad_close(b.grad, fd_grad(lambda x: (a_data @ x).sum(), b.data))


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(None, t([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_relu_all_negative_zero_grad(self):
        tape = Tape()
        x = t([[-1.0, -2.0], [-3.0, -0.5]])
        loss = ad.sum_all(tape, ad.relu(tape, x))
        backward(loss, tape)
        assert loss.data[0, 0] == 0.0
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_relu_fd_away_from_kink(self, rng):
        data = rng.normal(size=(4, 5))
        data[np.abs(data) < 1e-3] = 0.5
        x = t(data)
        tape = Tape()
        loss = ad.sum_all(tape, ad.relu(tape, x))
        backward(loss, tape)
        assert_grad_close(x.grad, fd_grad(lambda v: np.maximum(v, 0.0).sum(), data))

    def test_sigmoid_zero(self):
        assert ad.sigmoid(None, t([[0.0]])).data[0, 0] == 0.5

    def test_sigmoid_symmetry(self, rng):
        x = rng.normal(scale=3.0, size=(5, 5))
        s_pos = ad.sigmoid(None, t(x)).data
        s_neg = ad.sigmoid(None, t(-x)).data
        np.testing.assert_allclose(s_pos, 1.0 - s_neg, atol=1e-15)

    def test_sigmoid_matches_high_precision_value(self):
        # frozen from a 50-digit evaluation of 1/(1+e^-4.2)
        out = ad.sigmoid(None, t([[4.2]])).data[0, 0]
        assert abs(out - 0.985225968306726942249466) < 1e-12

    def test_sigmoid_open_interval_at_saturation(self):
        out = ad.sigmoid(None, t([[800.0, -800.0]])).data
        assert 0.0 < out[0, 1] and out[0, 0] < 1.0

    def test_sigmoid_fd(self, rng):
        data = rng.normal(size=(3, 4))
        x = t(data)
        tape = Tape()
        loss = ad.sum_all(tape, ad.sigmoid(tape, x))
        backward(loss, tape)
        assert_grad_close(x.grad, fd_grad(lambda v: (1 / (1 + np.exp(-v))).sum(), data))


class TestSoftmax:
    def test_uniform_on_zero_row(self):
        out = ad.softmax_rows(None, t(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.data, np.full((1, 4), 0.25))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(6, 5))
        p1 = ad.softmax_rows(None, t(x)).data
        p2 = ad.softmax_rows(None, t(x + 123.456)).data
        np.testing.assert_allclose(p1, p2, atol=1e-14)

    def test_row_sums_tight(self, rng):
        x = rng.normal(scale=30.0, size=(20, 7))
        p = ad.softmax_rows(None, t(x)).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_high_precision_row(self):
        # frozen 50-digit values of softmax([1, 2, 3])
        out = ad.softmax_rows(None, t([[1.0, 2.0, 3.0]])).data[0]
        expected = [
            0.0900305731703804579980221,
            0.2447284710547976524729596,
            0.6652409557748218895290183,
        ]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_needs_two_columns(self):
        with pytest.raises(ShapeError):
            ad.softmax_rows(None, t([[1.0]]))

    def test_fd(self, rng):
        # weight the entries so the gradient is not the degenerate all-ones case
        data = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        x = t(data)
        tape = Tape()
        p = ad.softmax_rows(tape, x)
        loss = ad.sum_all(tape, ad.mul(tape, p, t(w, grad=False)))
        backward(loss, tape)

        def f(v):
            z = v - v.max(axis=1, keepdims=True)
            e = np.exp(z)
            return ((e / e.sum(axis=1, keepdims=True)) * w).sum()

        assert_grad_close(x.grad, fd_grad(f, data))


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = t(rng.normal(size=(3, 3)))
        for training in (True, False):
            out = ad.dropout(None, x, 0.0, training, rng)
            np.testing.assert_array_equal(out.data, x.data)

    def test_eval_identity(self, rng):
        x = t(rng.normal(size=(3, 3)))
        out = ad.dropout(None, x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_rate(self, rng):
        with pytest.raises(ConfigError):
            ad.dropout(None, t([[1.0]]), 1.0, True, rng)

    def test_survivor_fraction_and_mean(self, rng):
        x_data = rng.uniform(0.5, 1.5, size=(1000, 100))
        out = ad.dropout(None, t(x_data), 0.5, True, rng)
        survivors = (out.data != 0).mean()
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.data.mean() - x_data.mean()) < 0.02 * x_data.mean()

    def test_grad_uses_same_mask(self, rng):
        data = rng.normal(size=(5, 4))
        x = t(data)
        tape = Tape()
        out = ad.dropout(tape, x, 0.3, True, np.random.default_rng(3))
        loss = ad.sum_all(tape, out)
        backward(loss, tape)
        mask = (out.data != 0).astype(float) / 0.7
        np.testing.assert_allclose(x.grad, mask, atol=1e-12)


class TestBatchNorm:
    def _params(self, width, gamma=1.0, beta=0.0):
        g = Parameter(np.full((1, width), gamma), name="g")
        b = Parameter(np.full((1, width), beta), name="b")
        return g, b, BatchNormState(width)

    def test_normalized_input_passthrough(self, rng):
        x_data = rng.normal(size=(64, 3))
        x_data = (x_data - x_data.mean(axis=0)) / x_data.std(axis=0)
        g, b, state = self._params(3)
        out = ad.batch_norm(None, t(x_data), g, b, state, training=True)
        np.testing.assert_allclose(out.data, x_data, atol=1e-4)

    def test_gamma_zero_gives_beta(self, rng):
        g, b, state = self._params(3, gamma=0.0, beta=2.5)
        with pytest.raises(ConfigError):
            Parameter(np.zeros((1, 1)), lr_multiplier=0.0)
        out = ad.batch_norm(None, t(rng.normal(size=(8, 3))), g, b, state, training=True)
        np.testing.assert_allclose(out.data, 2.5, atol=1e-12)

    def test_training_column_stats(self, rng):
        g, b, state = self._params(5)
        out = ad.batch_norm(None, t(rng.normal(loc=3.0, scale=2.0, size=(40, 5))),
                            g, b, state, training=True)
        assert np.abs(out.data.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)

    def test_batch_of_one_rejected(self, rng):
        g, b, state = self._params(2)
        with pytest.raises(DataError):
            ad.batch_norm(None, t(rng.normal(size=(1, 2))), g, b, state, training=True)

    def test_eval_uses_running_stats(self, rng):
        g, b, state = self._params(2)
        state.mean[:] = [[1.0, -1.0]]
        state.var[:] = [[4.0, 0.25]]
        x_data = rng.normal(size=(6, 2))
        out = ad.batch_norm(None, t(x_data), g, b, state, training=False)
        expected = (x_data - state.mean) / np.sqrt(state.var + 1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_fd_training_mode(self, rng):
        data = rng.normal(size=(6, 3))
        weights = rng.normal(size=(6, 3))
        g, b, _ = self._params(3)
        g.tensor.data[:] = rng.normal(size=(1, 3))
        b.tensor.data[:] = rng.normal(size=(1, 3))

        x = t(data)
        tape = Tape()
        out = ad.batch_norm(tape, x, g, b, BatchNormState(3), training=True)
        loss = ad.sum_all(tape, ad.mul(tape, out, t(weights, grad=False)))
        backward(loss, tape)

        def f(v):
            bn = ad.batch_norm(None, Tensor(v), g, b, BatchNormState(3), training=True)
            return (bn.data * weights).sum()

        assert_grad_close(x.grad, fd_grad(f, data))

    def test_fd_gamma_beta(self, rng):
        data = rng.normal(size=(6, 3))
        weights = rng.normal(size=(6, 3))
        g, b, _ = self._params(3)

        def run(tape):
            return ad.batch_norm(tape, t(data, grad=False), g, b, BatchNormState(3),
                                 training=True)

        tape = Tape()
        loss = ad.sum_all(tape, ad.mul(tape, run(tape), t(weights, grad=False)))
        backward(loss, tape)
        gg, gb = g.tensor.grad, b.tensor.grad

        def f_gamma(v):
            g.tensor.data[:] = v
            return (run(None).data * weights).sum()

        def f_beta(v):
            b.tensor.data[:] = v
            return (run(None).data * weights).sum()

        orig_g = g.tensor.data.copy()
        assert_grad_close(gg, fd_grad(f_gamma, orig_g))
        g.tensor.data[:] = orig_g
        orig_b = b.tensor.data.copy()
        assert_grad_close(gb, fd_grad(f_beta, orig_b))
        b.tensor.data[:] = orig_b


LAYER_KINDS = {
    # activation, dropout rate, batch norm: the layers build_bundle builds
    "relu": ("relu", 0.0, False),
    "relu_dropout": ("relu", 0.3, False),
    "relu_bn_dropout": ("relu", 0.3, True),
    "none": ("none", 0.0, False),
    "sigmoid": ("sigmoid", 0.0, False),
}


class TestDense:
    """The fused layer node against the primitive chain it replaces."""

    @staticmethod
    def _layer(kind, seed=3, width_in=4, width=5):
        act, rate, bn = LAYER_KINDS[kind]
        r = np.random.default_rng(seed)
        w = Parameter(r.uniform(-1, 1, (width_in, width)), name="w")
        b = Parameter(r.normal(size=(1, width)), name="b")
        norm = None
        if bn:
            state = BatchNormState(width)
            state.mean = r.normal(size=(1, width))
            state.var = r.uniform(0.5, 2.0, (1, width))
            norm = (Parameter(r.uniform(0.5, 1.5, (1, width)), name="gamma"),
                    Parameter(r.normal(size=(1, width)), name="beta"), state)
        return w, b, act, rate, norm

    @staticmethod
    def _chain(tape, x, layer, training, rng):
        w, b, act, rate, norm = layer
        h = ad.add_bias(tape, ad.matmul(tape, x, w.tensor), b.tensor)
        if norm is not None:
            h = ad.batch_norm(tape, h, norm[0], norm[1], norm[2], training)
        if act == "relu":
            h = ad.relu(tape, h)
        elif act == "sigmoid":
            h = ad.sigmoid(tape, h)
        if rate > 0.0:
            h = ad.dropout(tape, h, rate, training, rng)
        return h

    @staticmethod
    def _fused(tape, x, layer, training, rng):
        w, b, act, rate, norm = layer
        bn = None if norm is None else (norm[0].tensor, norm[1].tensor, norm[2])
        return ad.dense(tape, x, w.tensor, b.tensor, act, rate, training, rng, bn)

    def _run(self, forward, kind, training):
        """x feeds two calls of one layer, so both x and every parameter
        accumulate two gradient contributions."""
        layer = self._layer(kind)
        data = np.random.default_rng(11).normal(size=(6, 4))
        upstream = np.random.default_rng(12).normal(size=(2, 6, 5))
        rng = np.random.default_rng(13)
        x = t(data)
        tape = Tape()
        outs = [forward(tape, x, layer, training, rng) for _ in range(2)]
        loss = ad.add(tape, *[ad.sum_all(tape, ad.mul(tape, o, t(u, grad=False)))
                              for o, u in zip(outs, upstream)])
        backward(loss, tape)
        w, b, _, _, norm = layer
        params = [w, b] + ([] if norm is None else [norm[0], norm[1]])
        arrays = [o.data for o in outs] + [x.grad] + [p.tensor.grad for p in params]
        if norm is not None:
            arrays += [norm[2].mean, norm[2].var]
        return [a.tobytes() for a in arrays], rng.bit_generator.state

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_bit_identical_to_primitive_chain(self, kind, training):
        assert self._run(self._fused, kind, training) == self._run(self._chain, kind, training)

    def test_one_node_per_layer_call(self):
        x = t(np.ones((3, 4)))
        tape = Tape()
        self._fused(tape, x, self._layer("relu_bn_dropout"), True, np.random.default_rng(0))
        assert len(tape.nodes) == 1

    def test_input_without_grad_gets_none(self):
        x = t(np.ones((3, 4)), grad=False)
        tape = Tape()
        w, b, act, rate, _ = layer = self._layer("relu")
        backward(ad.sum_all(tape, self._fused(tape, x, layer, True, None)), tape)
        assert x.grad is None and w.tensor.grad is not None and b.tensor.grad is not None

    def test_fd_training_mode(self, rng):
        # sigmoid keeps the loss smooth; batch norm couples the rows; the
        # dropout mask is redrawn from the same seed for every evaluation
        w, b, _, rate, norm = self._layer("relu_bn_dropout")
        layer = (w, b, "sigmoid", rate, norm)
        data = rng.normal(size=(6, 4))
        weights = rng.normal(size=(6, 5))

        def loss_of(tape, x):
            out = self._fused(tape, x, layer, True, np.random.default_rng(5))
            return ad.sum_all(tape, ad.mul(tape, out, t(weights, grad=False)))

        x = t(data)
        tape = Tape()
        backward(loss_of(tape, x), tape)
        assert_grad_close(x.grad, fd_grad(lambda v: loss_of(None, Tensor(v)).item(), data))
        for p in (w, b, norm[0], norm[1]):
            orig = p.tensor.data.copy()

            def f(v, p=p):
                p.tensor.data[:] = v
                return loss_of(None, t(data, grad=False)).item()

            assert_grad_close(p.tensor.grad, fd_grad(f, orig))
            p.tensor.data[:] = orig

    def test_shape_mismatch(self):
        w, b, act, rate, _ = self._layer("relu")
        with pytest.raises(ShapeError):
            ad.dense(None, t(np.ones((2, 3))), w.tensor, b.tensor, act)


class TestGradReverse:
    def test_forward_bitwise_identity(self, rng):
        x = t(rng.normal(size=(4, 4)))
        out = ad.grad_reverse(None, x, 0.7)
        assert np.array_equal(out.data, x.data)

    def test_lambda_zero_kills_gradient(self, rng):
        x = t(rng.normal(size=(3, 2)))
        tape = Tape()
        loss = ad.sum_all(tape, ad.grad_reverse(tape, x, 0.0))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.zeros((3, 2)))

    def test_scaled_negation(self, rng):
        x = t(rng.normal(size=(3, 2)))
        tape = Tape()
        loss = ad.sum_all(tape, ad.grad_reverse(tape, x, 0.1))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, np.full((3, 2), -0.1), atol=1e-15)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            ad.grad_reverse(None, t([[1.0]]), -0.5)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = t(rng.normal(size=(3, 4)))
        tape = Tape()
        loss = ad.sum_all(tape, x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_double_use_doubles_gradient(self, rng):
        x = t(rng.normal(size=(2, 2)))
        tape = Tape()
        loss = ad.sum_all(tape, ad.add(tape, x, x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_non_scalar_loss_rejected(self, rng):
        x = t(rng.normal(size=(2, 2)))
        tape = Tape()
        y = ad.relu(tape, x)
        with pytest.raises(ShapeError):
            backward(y, tape)

    def test_inputs_without_grad_record_no_node(self, rng):
        a, b = t(rng.normal(size=(2, 3)), grad=False), t(rng.normal(size=(2, 3)), grad=False)
        tape = Tape()
        out = ad.sum_all(tape, ad.relu(tape, ad.add(tape, a, b)))
        assert not out.requires_grad
        assert tape.nodes == []

    def test_op_without_tape_requires_grad_and_records_nothing(self, rng):
        x = t(rng.normal(size=(2, 3)))
        tape = Tape()
        y = ad.relu(None, x)
        assert y.requires_grad
        backward(ad.sum_all(tape, y), tape)
        assert len(tape.nodes) == 1
        np.testing.assert_array_equal(y.grad, np.ones((2, 3)))
        assert x.grad is None

    def test_branch_that_misses_the_loss_is_skipped(self, rng):
        data = rng.normal(size=(3, 4))

        def run(dead_branch):
            x = t(data)
            tape = Tape()
            live = ad.sigmoid(tape, x)
            if dead_branch:
                dead = ad.sum_all(tape, ad.scale_shift(tape, x, 3.0, 1.0))
            backward(ad.sum_all(tape, live), tape)
            if dead_branch:
                assert len(tape.nodes) == 4 and dead.grad is None
            return x.grad

        assert run(True).tobytes() == run(False).tobytes()

    def test_batch_split_averaging_matches_full_batch(self, rng):
        # mean-reduced losses: average of half-batch gradients == full gradient
        w_data = rng.normal(size=(3, 2))
        x_full = rng.normal(size=(8, 3))

        def grad_for(x_part):
            w = Parameter(w_data.copy(), name="w")
            tape = Tape()
            out = ad.matmul(tape, t(x_part, grad=False), w.tensor)
            loss = mean_all(tape, ad.relu(tape, out))
            backward(loss, tape)
            return w.tensor.grad

        g_full = grad_for(x_full)
        g_halves = 0.5 * (grad_for(x_full[:4]) + grad_for(x_full[4:]))
        np.testing.assert_allclose(g_full, g_halves, atol=1e-10)


class TestGatherConcat:
    def test_take_rows_scatter_accumulates(self, rng):
        x = t(rng.normal(size=(4, 3)))
        tape = Tape()
        picked = ad.take_rows(tape, x, [0, 0, 2])
        loss = ad.sum_all(tape, picked)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1], [0, 0, 0]])

    def test_concat_rows_splits_gradient(self, rng):
        a = t(rng.normal(size=(2, 3)))
        b = t(rng.normal(size=(3, 3)))
        tape = Tape()
        both = ad.concat_rows(tape, a, b)
        loss = ad.sum_all(tape, ad.mul_colvec(tape, both, t(np.arange(5.0).reshape(5, 1), grad=False)))
        backward(loss, tape)
        np.testing.assert_array_equal(a.grad, [[0, 0, 0], [1, 1, 1]])
        np.testing.assert_array_equal(b.grad, [[2, 2, 2], [3, 3, 3], [4, 4, 4]])


class TestOptimizer:
    def test_zero_momentum_is_plain_sgd(self):
        p = Parameter(np.array([[1.0, 2.0]]), name="p")
        p.tensor.grad = np.array([[0.5, -1.0]])
        ad.sgd_nesterov_step(ad.ParamBuffer([p]), base_lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p.tensor.data, [[0.95, 2.1]], atol=1e-15)
        assert p.tensor.grad is None

    def test_zero_grad_coasts_by_momentum_squared(self):
        p = Parameter(np.array([[1.0]]), name="p")
        buf = ad.ParamBuffer([p])
        buf.velocity[:] = 0.5
        p.tensor.grad = np.zeros((1, 1))
        ad.sgd_nesterov_step(buf, base_lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p.tensor.data, [[1.0 + 0.81 * 0.5]], atol=1e-15)

    def test_two_steps_match_hand_recursion(self):
        lr, mu, g = 0.004, 0.9, 0.25
        p = Parameter(np.array([[1.0]]), name="p")
        buf = ad.ParamBuffer([p])
        theta, v = 1.0, 0.0
        for _ in range(2):
            p.tensor.grad = np.array([[g]])
            ad.sgd_nesterov_step(buf, base_lr=lr, momentum=mu)
            v = mu * v - lr * g
            theta = theta + mu * v - lr * g
        assert abs(p.tensor.data[0, 0] - theta) < 1e-12

    def test_lr_multiplier_scales_step(self):
        p = Parameter(np.array([[0.0]]), lr_multiplier=10.0, name="p")
        p.tensor.grad = np.array([[1.0]])
        ad.sgd_nesterov_step(ad.ParamBuffer([p]), base_lr=0.01, momentum=0.0)
        np.testing.assert_allclose(p.tensor.data, [[-0.1]], atol=1e-15)

    def test_buffer_skips_parameters_without_gradient(self):
        p = Parameter(np.array([[1.0, 2.0]]), name="p")
        q = Parameter(np.array([[3.0]]), lr_multiplier=10.0, name="q")
        buf = ad.ParamBuffer([p, q])
        assert np.shares_memory(p.tensor.data, buf.data)
        buf.velocity[2:] = 0.5
        p.tensor.grad = np.array([[0.5, -1.0]])
        ad.sgd_nesterov_step(buf, base_lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p.tensor.data, [[0.905, 2.19]], atol=1e-15)
        assert q.tensor.data.tobytes() == np.array([[3.0]]).tobytes()
        assert buf.velocity[2:].tobytes() == np.array([0.5]).tobytes()
        assert p.tensor.grad is None

    def test_missing_gradient_raises(self):
        p = Parameter(np.array([[0.0]]), name="p")
        with pytest.raises(StateError):
            ad.sgd_nesterov_step(ad.ParamBuffer([p]), base_lr=0.01, momentum=0.9)
