"""Optimizer tests: hand-evaluated Adam recurrences and clipping behavior."""

import numpy as np
import pytest

from slu import autodiff as ad
from slu.optim import Adam, Param, clip_global_norm

from helpers import adam_step_oracle


def _param(value, name="w", decay=True):
    t = ad.Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    return Param(name, t, decay)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # Hand oracle at t=1: m = 0.1, v = 0.001; bias correction divides by
        # 0.1 and 0.001, so m_hat = 1, v_hat = 1 and the update is
        # lr * 1 / (1 + eps) ~ 0.1. w goes from 1.0 to ~0.9.
        p = _param([1.0])
        p.tensor.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.tensor.data, [0.9], atol=1e-6)
        assert opt.step_count == 1

    def test_zero_grad_zero_decay_leaves_param_unchanged(self):
        p = _param([3.0])
        p.tensor.grad = np.array([0.0])
        opt = Adam([p], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(p.tensor.data, [3.0])

    def test_missing_grad_is_skipped(self):
        p = _param([3.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.tensor.data, [3.0])

    def test_step_leaves_grad_untouched(self):
        p = _param([1.0])
        p.tensor.grad = np.array([2.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.tensor.grad, [2.0])

    def test_two_steps_match_hand_recurrence(self):
        # Constant grad 1.0, lr 0.1: replay the m/v recurrences directly.
        p = _param([1.0])
        opt = Adam([p], lr=0.1)
        w, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            w -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            p.tensor.grad = np.array([1.0])
            opt.step()
            np.testing.assert_allclose(p.tensor.data, [w], rtol=1e-10)

    def test_decoupled_decay_shrinks_even_with_zero_grad(self):
        p = _param([100.0])
        p.tensor.grad = np.array([0.0])
        opt = Adam([p], lr=0.1, weight_decay=0.01)
        opt.step()
        # Pure decay term: w - lr * wd * w = 100 - 0.1 * 0.01 * 100 = 99.9
        np.testing.assert_allclose(p.tensor.data, [99.9], rtol=1e-10)

    def test_decay_respects_exemption_flag(self):
        bias = _param([100.0], name="b", decay=False)
        bias.tensor.grad = np.array([0.0])
        opt = Adam([bias], lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_array_equal(bias.tensor.data, [100.0])

    def test_descent_on_quadratic(self):
        # Minimize w^2: Adam should shrink |w| monotonically at small lr.
        p = _param([2.0])
        opt = Adam([p], lr=0.01)
        prev = abs(p.tensor.data[0])
        for _ in range(200):
            p.tensor.grad = 2.0 * p.tensor.data
            opt.step()
            cur = abs(p.tensor.data[0])
            assert cur <= prev + 1e-12
            prev = cur
        assert prev < 0.5


class TestInPlaceAdam:
    """``Adam.step`` updates in place with the same operations, in the same
    order, as the allocating form kept in ``helpers.adam_step_oracle``."""

    SHAPES = [((6, 5), np.float32, True), ((5,), np.float32, False),
              ((), np.float32, True), ((3, 4), np.float64, True),
              ((0, 3), np.float32, True), ((7,), np.float32, True)]

    def _params(self):
        rng = np.random.default_rng(11)
        return [Param(f"p{i}", ad.Tensor(rng.standard_normal(shape).astype(dtype),
                                         requires_grad=True), decay)
                for i, (shape, dtype, decay) in enumerate(self.SHAPES)]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_three_steps_bit_identical_to_allocating_step(self, weight_decay):
        ours, theirs = self._params(), self._params()
        opt = Adam(ours, lr=0.05, weight_decay=weight_decay)
        ref = Adam(theirs, lr=0.05, weight_decay=weight_decay)
        rng = np.random.default_rng(5)
        for _ in range(3):
            for a, b in zip(ours, theirs):
                g = rng.standard_normal(a.tensor.shape).astype(a.tensor.dtype)
                a.tensor.grad, b.tensor.grad = g, g.copy()
            ours[-1].tensor.grad = theirs[-1].tensor.grad = None  # skipped
            opt.step()
            adam_step_oracle(ref)
            for a, b in zip(ours, theirs):
                assert a.tensor.dtype == b.tensor.dtype
                np.testing.assert_array_equal(a.tensor.data, b.tensor.data)
            for m, m_ref in zip(opt._m + opt._v, ref._m + ref._v):
                np.testing.assert_array_equal(m, m_ref)

    def test_step_updates_the_parameter_array_in_place(self):
        p = _param([1.0, -2.0])
        data = p.tensor.data
        p.tensor.grad = np.array([1.0, 1.0])
        Adam([p], lr=0.1).step()
        assert p.tensor.data is data
        np.testing.assert_allclose(data, [0.9, -2.1], atol=1e-6)


class TestClipping:
    def test_norm_reported_and_grads_scaled(self):
        a = _param(np.zeros(3))
        b = _param(np.zeros(4))
        a.tensor.grad = np.array([3.0, 0.0, 0.0])
        b.tensor.grad = np.array([0.0, 4.0, 0.0, 0.0])
        norm = clip_global_norm([a, b], max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0)
        total = np.sqrt((a.tensor.grad**2).sum() + (b.tensor.grad**2).sum())
        np.testing.assert_allclose(total, 1.0, rtol=1e-6)
        # Direction preserved.
        np.testing.assert_allclose(a.tensor.grad, [0.6, 0.0, 0.0], rtol=1e-6)

    def test_below_threshold_untouched(self):
        a = _param(np.zeros(2))
        a.tensor.grad = np.array([0.3, 0.4])
        norm = clip_global_norm([a], max_norm=5.0)
        np.testing.assert_allclose(norm, 0.5)
        np.testing.assert_array_equal(a.tensor.grad, [0.3, 0.4])

    def test_zero_max_norm_disables(self):
        a = _param(np.zeros(2))
        a.tensor.grad = np.array([30.0, 40.0])
        clip_global_norm([a], max_norm=0.0)
        np.testing.assert_array_equal(a.tensor.grad, [30.0, 40.0])

    def test_norm_matches_float64_copy_reference(self):
        # The norm sums squares in float64 without copying a gradient; it
        # must agree with the plain reference that casts every one first.
        rng = np.random.default_rng(4)
        grads = [(rng.standard_normal(shape) * 3.0).astype(dtype)
                 for shape, dtype in [((64, 33), np.float32), ((7,), np.float64),
                                      ((2, 9, 4), np.float64), ((5, 3), np.float32)]]
        grads[1:1] = [None]
        grads.append(None)
        params = []
        for g in grads:
            p = _param(np.zeros(1 if g is None else g.shape))
            p.tensor.grad = g
            params.append(p)
        ref = np.sqrt(sum((g.astype(np.float64) ** 2).sum() for g in grads if g is not None))
        norm = clip_global_norm(params, max_norm=0.0)
        assert abs(norm - ref) <= 1e-12 * ref
