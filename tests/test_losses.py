"""Loss formulas, margin machinery, entropy and the H-divergence estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import saflab.autodiff as ad
import saflab.losses as L
from saflab import Batch, ConfigError, DataError, ShapeError, Tape, Tensor, backward

from helpers import assert_grad_close, fd_grad


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMarginParams:
    def test_gamma_must_exceed_one(self):
        for gamma in (1.0, 0.5, math.nan):
            with pytest.raises(ConfigError, match="gamma must exceed 1"):
                L.MarginParams(gamma)

    def test_from_gamma(self):
        p = L.MarginParams.from_gamma(4.0)
        assert math.isclose(p.rho, math.log(4.0), rel_tol=1e-15)
        assert p.gamma == 4.0


class TestCrossEntropy:
    def test_zero_logits_two_classes(self):
        val = L.cross_entropy(None, t(np.zeros((6, 2))), np.array([0, 1, 0, 1, 1, 0]))
        assert abs(val.item() - math.log(2)) < 1e-15

    def test_confident_logit_near_zero_loss(self):
        logits = np.zeros((1, 3))
        logits[0, 2] = 20.0
        val = L.cross_entropy(None, t(logits), [2])
        assert val.item() < 1e-8

    def test_random_case_matches_high_precision(self):
        # frozen from a 50-digit straight-line evaluation of the same instance
        gen = np.random.default_rng(42)
        logits = gen.normal(size=(5, 3))
        labels = gen.integers(0, 3, size=5)
        assert labels.tolist() == [1, 0, 0, 1, 2]
        val = L.cross_entropy(None, t(logits), labels)
        assert abs(val.item() - 1.093096624810112267537954) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            L.cross_entropy(None, t(np.zeros((2, 3))), [0, 3])

    def test_fd(self, rng):
        logits_data = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        x = t(logits_data)
        tape = Tape()
        loss = L.cross_entropy(tape, x, labels)
        backward(loss, tape)

        def f(v):
            ls = ad.log_softmax_rows(v)
            return -ls[np.arange(6), labels].mean()

        assert_grad_close(x.grad, fd_grad(f, logits_data))


class TestCrossEntropyDivergence:
    def test_one_hot_reduces_to_cross_entropy(self, rng):
        logits = rng.normal(size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        onehot = np.eye(5)[labels]
        ced = L.cross_entropy_divergence(None, t(logits), onehot).item()
        ce = L.cross_entropy(None, t(logits), labels).item()
        assert abs(ced - ce) < 1e-12

    def test_uniform_labels_zero_logits(self):
        val = L.cross_entropy_divergence(None, t(np.zeros((3, 4))), np.full((3, 4), 0.25))
        assert abs(val.item() - math.log(4)) < 1e-14

    def test_affine_in_soft_labels(self, rng):
        logits = t(rng.normal(size=(5, 3)))
        y1 = np.eye(3)[rng.integers(0, 3, size=5)]
        y2 = np.eye(3)[rng.integers(0, 3, size=5)]
        mix = 0.3 * y1 + 0.7 * y2
        lhs = L.cross_entropy_divergence(None, logits, mix).item()
        rhs = (0.3 * L.cross_entropy_divergence(None, logits, y1).item()
               + 0.7 * L.cross_entropy_divergence(None, logits, y2).item())
        assert abs(lhs - rhs) < 1e-10

    def test_non_normalized_rows_rejected(self, rng):
        bad = np.full((2, 3), 0.5)
        with pytest.raises(DataError):
            L.cross_entropy_divergence(None, t(rng.normal(size=(2, 3))), bad)

    def test_matching_distribution_gives_row_entropy(self, rng):
        # logits = log(y) makes softmax reproduce y, so the loss hits the
        # entropy lower bound of the cross-entropy decomposition
        y = rng.dirichlet(np.ones(4), size=6)
        val = L.cross_entropy_divergence(None, t(np.log(y)), y).item()
        entropy = float(L.conditional_entropy(y).mean())
        assert abs(val - entropy) < 1e-12

    def test_fd_both_arguments(self, rng):
        logits_data = rng.normal(size=(4, 3))
        y_data = rng.dirichlet(np.ones(3), size=4)
        x = t(logits_data)
        y = t(y_data)
        tape = Tape()
        loss = L.cross_entropy_divergence(tape, x, y)
        backward(loss, tape)

        def f_x(v):
            return -(y_data * ad.log_softmax_rows(v)).sum() / 4

        def f_y(v):
            return -(v * ad.log_softmax_rows(logits_data)).sum() / 4

        assert_grad_close(x.grad, fd_grad(f_x, logits_data))
        assert_grad_close(y.grad, fd_grad(f_y, y_data))


class TestDannDomainLoss:
    def test_zero_logits(self):
        val = L.dann_domain_loss(None, t(np.zeros((3, 2))), t(np.zeros((5, 2))))
        assert abs(val.item() - math.log(2)) < 1e-15

    def test_separating_logits(self):
        src = np.tile([20.0, -20.0], (4, 1))
        tgt = np.tile([-20.0, 20.0], (4, 1))
        assert L.dann_domain_loss(None, t(src), t(tgt)).item() < 1e-8

    def test_mixed_batch_matches_high_precision(self):
        gen = np.random.default_rng(7)
        d_src = gen.normal(size=(3, 2))
        d_tgt = gen.normal(size=(2, 2))
        val = L.dann_domain_loss(None, t(d_src), t(d_tgt)).item()
        assert abs(val - 0.5499082072892803235264833) < 1e-12

    def test_width_must_be_two(self, rng):
        with pytest.raises(ShapeError):
            L.dann_domain_loss(None, t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3))))

    def test_fd(self, rng):
        src_data = rng.normal(size=(3, 2))
        tgt_data = rng.normal(size=(4, 2))
        src, tgt = t(src_data), t(tgt_data)
        tape = Tape()
        loss = L.dann_domain_loss(tape, src, tgt)
        backward(loss, tape)

        def f_src(v):
            ls_s = ad.log_softmax_rows(v)
            ls_t = ad.log_softmax_rows(tgt_data)
            return -(ls_s[:, 0].sum() + ls_t[:, 1].sum()) / 7

        assert_grad_close(src.grad, fd_grad(f_src, src_data))


class TestMddAdversarialLoss:
    PARAMS = L.MarginParams.from_gamma(4.0)

    def test_uniform_outputs(self):
        c = t(np.zeros((4, 2)) + [0.4, 0.1], grad=False)
        d_uniform = t(np.zeros((4, 2)))
        val = L.mdd_adversarial_loss(None, c, d_uniform, c, d_uniform, self.PARAMS)
        expected = math.log(2) + 4.0 * math.log(2)
        assert abs(val.item() - expected) < 1e-12

    def test_agreeing_adversary_small_source_term(self):
        c = np.tile([5.0, 0.0], (3, 1))
        d = np.tile([25.0, 0.0], (3, 1))     # sigma_yhat ~ 1 - 1e-11 on source
        d_t = np.tile([-25.0, 0.0], (3, 1))  # sigma_yhat ~ 1e-11 on target
        val = L.mdd_adversarial_loss(None, t(c), t(d), t(c), t(d_t), self.PARAMS).item()
        assert val < 1e-8

    def test_random_case_matches_straight_line_oracle(self):
        gen = np.random.default_rng(11)
        c_src = gen.normal(size=(4, 3))
        d_src = gen.normal(size=(4, 3))
        c_tgt = gen.normal(size=(5, 3))
        d_tgt = gen.normal(size=(5, 3))
        val = L.mdd_adversarial_loss(None, t(c_src, False), t(d_src),
                                     t(c_tgt, False), t(d_tgt), self.PARAMS).item()
        # frozen from a 50-digit evaluation of the same instance
        assert abs(val - 4.859663408327409495166075) < 1e-10

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeError):
            L.mdd_adversarial_loss(None, t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 2))),
                                   t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3))),
                                   self.PARAMS)

    def test_pseudo_labels_are_gradient_stopped(self, rng):
        c_src = t(rng.normal(size=(3, 3)))
        c_tgt = t(rng.normal(size=(4, 3)))
        d_src = t(rng.normal(size=(3, 3)))
        d_tgt = t(rng.normal(size=(4, 3)))
        tape = Tape()
        loss = L.mdd_adversarial_loss(tape, c_src, d_src, c_tgt, d_tgt, self.PARAMS)
        backward(loss, tape)
        assert c_src.grad is None and c_tgt.grad is None
        assert d_src.grad is not None and d_tgt.grad is not None

    def test_fd(self, rng):
        c_src = rng.normal(size=(3, 3))
        c_tgt = rng.normal(size=(4, 3))
        d_src_data = rng.normal(size=(3, 3))
        d_tgt_data = rng.normal(size=(4, 3))
        d_src, d_tgt = t(d_src_data), t(d_tgt_data)
        tape = Tape()
        loss = L.mdd_adversarial_loss(tape, t(c_src, False), d_src, t(c_tgt, False), d_tgt,
                                      self.PARAMS)
        backward(loss, tape)
        y_s = np.argmax(c_src, axis=1)
        y_t = np.argmax(c_tgt, axis=1)

        def f_src(v):
            ls = ad.log_softmax_rows(v)
            return -4.0 * ls[np.arange(3), y_s].mean()

        def f_tgt(v):
            p = np.exp(ad.log_softmax_rows(v))
            return -np.log(1.0 - p[np.arange(4), y_t]).mean()

        assert_grad_close(d_src.grad, fd_grad(f_src, d_src_data))
        assert_grad_close(d_tgt.grad, fd_grad(f_tgt, d_tgt_data))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_complement_loss_finite_over_every_logit_gap(self, k):
        # the selected logit leads the others by 0..700; the reference is
        # lse(x) - lse(x without idx) and its gradient softmax(x) minus the
        # softmax over the other columns.  Past the split (1 - p < 1e-11) the
        # loss takes the other columns' log-sum-exp and matches to 1e-13.
        # Below it the plain s_full - e_sel keeps its bytes, and with them its
        # cancellation error of a few eps / (1 - p), which reaches ~1e-5 at
        # the split (gap ~25.3).  Past gap ~745 s_comp underflows to 0, which
        # must neither warn nor reach the result
        eps = np.finfo(np.float64).eps

        def lse(v):
            top = v.max()
            return top + np.log(np.exp(v - top).sum())

        def softmax(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        gen = np.random.default_rng(k)
        for gap in [*np.arange(0.0, 700.25, 0.25), 800.0, 1e4]:
            x = gen.normal(size=k)
            idx = int(gen.integers(k))
            x[idx] = np.delete(x, idx).max() + gap
            rest = x.copy()
            rest[idx] = -np.inf
            ref = lse(x) - lse(rest)
            logits = t(x[None, :])
            tape = Tape()
            loss = L._complement_log_softmax_nll(tape, logits, np.array([idx]))
            backward(loss, tape)
            grad_err = np.abs(logits.grad[0] - (softmax(x) - softmax(rest))).max()
            err = abs(loss.item() - ref)
            assert math.isfinite(loss.item()), gap
            if ref > -math.log(0.99e-11):
                assert err <= 1e-13 * max(1.0, ref), (gap, err)
                assert grad_err <= 1e-15, (gap, grad_err)
            else:
                bound = 4 * eps * (math.exp(ref) + ref + 1.0)
                assert err <= bound and grad_err <= bound, (gap, err, grad_err)


class TestMargin:
    def test_certain_prediction(self):
        assert L.margin([1.0, 0.0], 0) == 0.5

    def test_uniform_tie(self):
        assert L.margin([0.25] * 4, 1) == 0.0

    def test_direct_formula(self):
        assert L.margin([0.2, 0.7, 0.1], 0) == pytest.approx(-0.25, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            L.margin([1.0], 0)

    def test_range(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            v = L.margin(p, int(rng.integers(0, 5)))
            assert -0.5 <= v <= 0.5


class TestMarginLoss:
    RHO = math.log(4.0)

    def test_negative_margin(self):
        assert L.margin_loss(-0.1, self.RHO) == 1.0

    def test_at_threshold(self):
        assert L.margin_loss(self.RHO, self.RHO) == 0.0

    def test_midpoint(self):
        assert L.margin_loss(self.RHO / 2, self.RHO) == 0.5

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, a, b):
        lo, hi = min(a, b), max(a, b)
        va, vb = L.margin_loss(hi, 0.6), L.margin_loss(lo, 0.6)
        assert 0.0 <= va <= 1.0 and 0.0 <= vb <= 1.0
        assert va <= vb


class TestEmpiricalMarginDisparity:
    def test_identical_confident_classifiers(self, rng):
        rho = 0.2
        probs = np.tile([0.9, 0.05, 0.05], (10, 1))
        assert L.empirical_margin_disparity(probs, probs, rho) == 0.0

    def test_fully_disagreeing(self):
        c = np.tile([0.9, 0.1], (6, 1))
        cp = np.tile([0.1, 0.9], (6, 1))
        assert L.empirical_margin_disparity(c, cp, 0.5) == 1.0

    def test_matches_row_by_row_oracle(self, rng):
        rho = math.log(4.0)
        c = rng.dirichlet(np.ones(3), size=20)
        cp = rng.dirichlet(np.ones(3), size=20)
        fast = L.empirical_margin_disparity(c, cp, rho)
        slow = np.mean([
            L.margin_loss(L.margin(c[i], int(np.argmax(cp[i]))), rho) for i in range(20)
        ])
        assert abs(fast - slow) < 1e-12

    def test_mdd_estimate_range(self, rng):
        for _ in range(30):
            ds = rng.uniform(0, 1)
            dt = rng.uniform(0, 1)
            assert -2.0 <= L.empirical_mdd_estimate(ds, dt) <= 2.0
        assert L.empirical_mdd_estimate(0.4, 0.4) == 0.0
        assert L.empirical_mdd_estimate(1.0, 0.0) == 2.0


class TestConditionalEntropy:
    def test_one_hot_is_exactly_zero(self):
        h = L.conditional_entropy(np.eye(4))
        assert np.array_equal(h, np.zeros(4))

    def test_uniform_rows(self):
        assert L.conditional_entropy(np.full((1, 10), 0.1))[0] == pytest.approx(
            math.log(10), abs=1e-14
        )
        assert L.conditional_entropy([[0.5, 0.5]])[0] == math.log(2)

    def test_negative_probability_rejected(self):
        with pytest.raises(DataError):
            L.conditional_entropy([[-0.1, 1.1]])

    def test_uniform_maximizes(self, rng):
        k = 5
        uniform = np.full((1, k), 1.0 / k)
        h_max = L.conditional_entropy(uniform)[0]
        for _ in range(40):
            delta = rng.normal(size=(1, k)) * 1e-3
            delta -= delta.mean()
            if np.allclose(delta, 0):
                continue
            p = uniform + delta
            assert L.conditional_entropy(p)[0] < h_max

    def test_bounds(self, rng):
        p = rng.dirichlet(np.ones(6), size=100)
        h = L.conditional_entropy(p)
        assert h.min() >= 0.0
        assert h.max() <= math.log(6) + 1e-12


def _h_div_oracle(s, t_pts, stumps):
    """Independent loop-based reimplementation of the stump enumeration."""
    best = None
    for h in stumps:
        score = 0.0
        n_src_as_source = sum(1 for x in s if h(x.reshape(1, -1))[0] == 0)
        n_tgt_as_target = sum(1 for x in t_pts if h(x.reshape(1, -1))[0] == 1)
        score = n_src_as_source / len(s) + n_tgt_as_target / len(t_pts)
        if best is None or score < best:
            best = score
    return 2.0 * (1.0 - best)


def _h_div_loop(s, t_pts, stumps):
    """The stump enumeration as one vectorized call per stump, in the float
    arithmetic the counting estimator must reproduce bit for bit."""
    best = min(float((h(s) == 0).mean()) + float((h(t_pts) == 1).mean()) for h in stumps)
    return 2.0 * (1.0 - best)


class TestHDivergence:
    def test_stump_grid_order_and_labels(self, rng):
        # axis-major, thresholds ascending, hi = 1 then 0; each threshold is
        # the Python float of its column's linspace
        pts = rng.normal(size=(20, 3))
        stumps = L.axis_stump_grid(pts, 5)
        assert len(stumps) == 30
        probe = np.vstack([2.0 * rng.normal(size=(50, 3)), pts, np.full((1, 3), np.nan)])
        want = [(a, float(t), hi) for a in range(3)
                for t in np.linspace(pts[:, a].min(), pts[:, a].max(), 5) for hi in (1, 0)]
        outputs = [h(probe) for h in stumps]
        for got, (a, t, hi) in zip(outputs, want):
            expected = np.where(probe[:, a] > t, hi, 1 - hi)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert len({out.tobytes() for out in outputs}) == 30  # the probe tells all apart

    def test_identical_sets_give_zero(self, rng):
        pts = rng.normal(size=(50, 2))
        val = L.empirical_h_divergence(pts, pts.copy())
        assert abs(val) <= 0.1

    def test_separated_sets_give_two(self, rng):
        s = rng.normal(size=(40, 2)) - [5.0, 0.0]
        t_pts = rng.normal(size=(40, 2)) + [5.0, 0.0]
        assert L.empirical_h_divergence(s, t_pts) == 2.0

    def test_matches_loop_oracle_on_overlapping_gaussians(self, rng):
        s = rng.normal(size=(25, 2))
        t_pts = rng.normal(loc=0.7, size=(30, 2))
        stumps = L.axis_stump_grid(np.vstack([s, t_pts]), 16)
        fast = L.empirical_h_divergence(s, t_pts, points_per_axis=16)
        slow = _h_div_oracle(s, t_pts, stumps)
        assert abs(fast - slow) < 1e-12

    @pytest.mark.slow
    @given(st.data(), st.integers(1, 6), st.integers(1, 70))
    @settings(max_examples=200, deadline=None)
    def test_default_grid_is_bit_identical_to_the_loop(self, data, cols, points):
        # coarse values give ties on the grid; constant columns, NaN and
        # +-inf exercise the degenerate thresholds
        signed_zero = st.sampled_from([0.0, -0.0])
        values = st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-3.0, 3.0).map(lambda v: round(v, 1)), signed_zero)
        special = st.sampled_from([math.nan, math.inf, -math.inf])

        def domain():
            rows = data.draw(st.integers(1, 60))
            pts = data.draw(hnp.arrays(np.float64, (rows, cols), elements=values))
            for r, c, v in data.draw(st.lists(st.tuples(
                    st.integers(0, rows - 1), st.integers(0, cols - 1), special), max_size=3)):
                pts[r, c] = v
            return pts

        s, t_pts = domain(), domain()
        for c in data.draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
            s[:, c] = t_pts[:, c] = data.draw(values)
        # columns of mixed signed zeros: the sorted ends may be either zero
        for c in data.draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
            for pts in (s, t_pts):
                pts[:, c] = data.draw(hnp.arrays(np.float64, len(pts), elements=signed_zero))
        with np.errstate(invalid="ignore"):
            stumps = L.axis_stump_grid(np.vstack([s, t_pts]), points)
            fast = L.empirical_h_divergence(s, t_pts, points_per_axis=points)
        assert repr(fast) == repr(_h_div_loop(s, t_pts, stumps))

    @given(st.data(), st.integers(1, 6), st.integers(1, 70))
    @settings(max_examples=300, deadline=None)
    def test_threshold_grid_is_per_column_linspace(self, data, cols, points):
        # zero steps (equal or adjacent ends), subnormal ranges, +-inf and
        # NaN ends each take a different branch of scalar linspace
        ends = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-306, 1e-306),
                         st.floats(allow_nan=False),
                         st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]))
        lo = np.array(data.draw(st.lists(ends, min_size=cols, max_size=cols)))
        with np.errstate(invalid="ignore", over="ignore"):  # nextafter(max, inf) overflows
            hi = np.array([data.draw(st.one_of(st.just(v), st.just(np.nextafter(v, np.inf)),
                                               ends)) for v in lo])
            want = np.column_stack([np.linspace(a, b, points) for a, b in zip(lo, hi)])
            got = L._stump_thresholds(lo, hi, points)
        assert got.tobytes() == want.tobytes()

    def test_evaluate_shaped_features_match_the_loop(self):
        # 400 x 32 ReLU outputs, half of them exact zeros, as evaluate
        # passes them; one target row holds NaN on every other axis
        rng = np.random.default_rng(5)
        s = np.maximum(rng.normal(size=(400, 32)), 0.0)
        t_pts = np.maximum(rng.normal(loc=0.3, size=(400, 32)), 0.0)
        t_pts[17, ::2] = np.nan
        stumps = L.axis_stump_grid(np.vstack([s, t_pts]), 64)
        fast = L.empirical_h_divergence(s, t_pts)
        assert fast > 0.0
        assert repr(fast) == repr(_h_div_loop(s, t_pts, stumps))

    def test_constant_column_leaves_other_thresholds_in_place(self):
        # on [-3.0, 0.2] with 39 points, threshold 19 is -1.4000000000000001;
        # linspace over both columns at once would put it at -1.4 because
        # the second column is constant, and lose the one perfect split
        s = np.array([[-3.0, 1.0], [-1.45, 1.0]])
        t_pts = np.array([[-1.4, 1.0], [0.2, 1.0]])
        assert L.empirical_h_divergence(s, t_pts, points_per_axis=39) == 2.0

    def test_symmetric_under_domain_swap(self, rng):
        s = rng.normal(size=(30, 2))
        t_pts = rng.normal(loc=0.5, size=(30, 2))
        a = L.empirical_h_divergence(s, t_pts)
        b = L.empirical_h_divergence(t_pts, s)
        assert abs(a - b) < 1e-12

    def test_accepts_batches(self, rng):
        s = Batch(rng.normal(size=(20, 2)))
        t_b = Batch(rng.normal(size=(20, 2)))
        val = L.empirical_h_divergence(s, t_b)
        assert -2.0 <= val <= 2.0

    def test_empty_hypothesis_set_rejected(self, rng):
        with pytest.raises(ConfigError):
            L.empirical_h_divergence(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)),
                                     points_per_axis=0)


class TestAccuracy:
    def test_all_correct(self):
        logits = np.eye(3) * 5
        assert L.accuracy(logits, [0, 1, 2]) == 1.0

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 2])
        assert L.accuracy(logits, labels) == 0.5

    def test_matches_direct_count(self, rng):
        logits = rng.normal(size=(50, 4))
        labels = rng.integers(0, 4, size=50)
        direct = sum(int(np.argmax(logits[i]) == labels[i]) for i in range(50)) / 50
        assert L.accuracy(logits, labels) == direct

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            L.accuracy(np.zeros((0, 2)), [])


@pytest.mark.parametrize("refused, error, match", [
    pytest.param(lambda: L.cross_entropy(None, t(np.zeros((3, 2))), [0, 1]), ShapeError,
                 r"labels must be a length-3 vector, got shape \(2,\)", id="labels-length"),
    pytest.param(lambda: L.cross_entropy(None, t(np.zeros((2, 2))), [[0, 1]]), ShapeError,
                 r"labels must be a length-2 vector, got shape \(1, 2\)", id="labels-2d"),
    pytest.param(lambda: L.cross_entropy(None, t(np.zeros((0, 2))), []), DataError,
                 "cross entropy needs a non-empty batch", id="cross-entropy-empty"),
    pytest.param(lambda: L.cross_entropy_divergence(None, t(np.zeros((2, 2))), np.ones((2, 3)) / 3),
                 ShapeError, r"soft labels shape \(2, 3\) != logits shape \(2, 2\)",
                 id="divergence-shape"),
    pytest.param(lambda: L.cross_entropy_divergence(None, t(np.zeros((0, 2))), np.zeros((0, 2))),
                 DataError, "cross entropy divergence needs a non-empty batch",
                 id="divergence-empty"),
    pytest.param(lambda: L.cross_entropy_divergence(None, t(np.zeros((1, 2))), [[1.5, -0.5]]),
                 DataError, "soft labels must be non-negative, min=-0.5", id="divergence-negative"),
    pytest.param(lambda: L.margin([0.2, 0.8], 2), DataError,
                 "exemplar index 2 out of range for 2 classes", id="margin-exemplar-high"),
    pytest.param(lambda: L.margin([0.2, 0.8], -1), DataError,
                 "exemplar index -1 out of range for 2 classes", id="margin-exemplar-negative"),
    pytest.param(lambda: L.margin_loss(0.1, 0.0), ConfigError,
                 "margin threshold must be positive, got 0.0", id="margin-loss-threshold"),
    pytest.param(lambda: L.empirical_margin_disparity(np.eye(2), np.eye(2), -1.0), ConfigError,
                 "margin threshold must be positive, got -1.0", id="disparity-threshold"),
    pytest.param(lambda: L.empirical_margin_disparity(np.eye(2), np.eye(3), 0.5), ShapeError,
                 r"shapes differ: \(2, 2\) vs \(3, 3\)", id="disparity-shape"),
    pytest.param(lambda: L.empirical_h_divergence(np.zeros((3, 2)), np.zeros((3, 1))), ShapeError,
                 "domains have widths 2 and 1", id="h-divergence-widths"),
    pytest.param(lambda: L.empirical_h_divergence(np.zeros(3), np.zeros((3, 1))), DataError,
                 r"samples must be a non-empty 2-D array, got shape \(3,\)", id="points-1d"),
    pytest.param(lambda: L.empirical_h_divergence(np.zeros((3, 2)), np.zeros((0, 2))), DataError,
                 r"samples must be a non-empty 2-D array, got shape \(0, 2\)", id="points-no-rows"),
])
def test_each_refusal_names_its_cause(refused, error, match):
    with pytest.raises(error, match=match):
        refused()
