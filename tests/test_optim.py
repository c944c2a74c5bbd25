"""Optimizer tests: hand-evaluated Adam recurrences and clipping behavior."""

import numpy as np
import pytest

from slu import autodiff as ad
from slu.gradcheck import toy_setup
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
        opt = Adam([p], lr=0.1)
        data = p.tensor.data  # the optimizer's view, not the array it was built from
        p.tensor.grad = np.array([1.0, 1.0])
        opt.step()
        assert p.tensor.data is data
        np.testing.assert_allclose(data, [0.9, -2.1], atol=1e-6)


class TestFlatStorage:
    """``Adam`` keeps parameters, gradients and moments in one flat array
    per dtype, and ``backward()`` writes leaf gradients into its views."""

    def _pair(self, dtype=np.float32, suffix=""):
        rng = np.random.default_rng(7)
        return [Param(name + suffix, ad.Tensor(rng.standard_normal(shape).astype(dtype),
                                               requires_grad=True), decay)
                for name, shape, decay in (("w", (3, 4), True), ("b", (4,), False))]

    def _backward(self, params):
        w, b = (p.tensor for p in params)
        x = ad.Tensor(np.arange(6.0, dtype=w.dtype).reshape(2, 3))
        ad.tsum(ad.mul(ad.add(ad.matmul(x, w), b), ad.add(ad.matmul(x, w), b))).backward()

    def test_backward_fills_the_optimizers_gradient_view(self):
        params = self._pair()
        opt = Adam(params, lr=0.01)
        views = [p.tensor._grad_view for p in params]
        for _ in range(2):  # a zeroed view is refilled, not added to
            opt.zero_grad()
            self._backward(params)
            got = [p.tensor.grad for p in params]
            for g, view in zip(got, views):
                assert g is view
            free = self._pair()
            for p, f in zip(params, free):
                f.tensor.data[...] = p.tensor.data
            self._backward(free)
            for g, f in zip(got, free):
                np.testing.assert_array_equal(g, f.tensor.grad)
            opt.step()

    def test_gradless_parameter_keeps_data_and_moments(self):
        params = self._pair()
        opt = Adam(params, lr=0.01, weight_decay=0.1)
        self._backward(params)
        opt.step()
        before = [(p.tensor.data.copy(), m.copy(), v.copy())
                  for p, m, v in zip(params, opt._m, opt._v)]
        opt.zero_grad()
        self._backward(params)
        params[0].tensor.grad = None  # the decayed weight: no decay either
        opt.step()
        for got, want in zip((params[0].tensor.data, opt._m[0], opt._v[0]), before[0]):
            assert got.tobytes() == want.tobytes()
        assert params[1].tensor.data.tobytes() != before[1][0].tobytes()

    def test_gradless_parameter_between_two_with_gradients_is_left_alone(self):
        # Three decay parameters of one dtype sit in layout order, so the
        # middle one's slot is a gap between the two runs that are swept.
        def triple():
            rng = np.random.default_rng(8)
            return [Param(name, ad.Tensor(rng.standard_normal(shape).astype(np.float32),
                                          requires_grad=True))
                    for name, shape in (("u", (2, 3)), ("v", (4,)), ("w", (3, 2)))]

        ours, theirs = triple(), triple()
        opt = Adam(ours, lr=0.05, weight_decay=0.1)
        ref = Adam(theirs, lr=0.05, weight_decay=0.1)
        assert [p.name for p, *_ in opt._layout] == ["u", "v", "w"]
        for step in range(2):
            for a, b in zip(ours, theirs):
                a.tensor.grad = np.full(a.tensor.shape, 0.5, np.float32)
                b.tensor.grad = a.tensor.grad.copy()
            if step == 1:  # v's gradient slot still holds step 0's values
                ours[1].tensor.grad = theirs[1].tensor.grad = None
            v_before = ours[1].tensor.data.copy(), opt._m[1].copy(), opt._v[1].copy()
            opt.step()
            adam_step_oracle(ref)
            for a, b in zip(ours, theirs):
                np.testing.assert_array_equal(a.tensor.data, b.tensor.data)
        for got, want in zip((ours[1].tensor.data, opt._m[1], opt._v[1]), v_before):
            assert got.tobytes() == want.tobytes()

    def test_hand_assigned_gradient_is_used(self):
        ours, theirs = self._pair(), self._pair()
        opt, ref = Adam(ours, lr=0.05), Adam(theirs, lr=0.05)
        g = np.full((3, 4), 0.5, dtype=np.float32)
        ours[0].tensor.grad, theirs[0].tensor.grad = g, g.copy()
        opt.step()
        adam_step_oracle(ref)
        np.testing.assert_array_equal(ours[0].tensor.data, theirs[0].tensor.data)
        np.testing.assert_array_equal(ours[1].tensor.data, theirs[1].tensor.data)
        np.testing.assert_array_equal(ours[0].tensor.grad, g)

    def test_step_after_load_state_arrays_updates_the_loaded_values(self):
        model, _ = toy_setup(0)
        params = model.params()
        opt = Adam(params, lr=0.1)
        loaded = {name: a + 1.0 for name, a in model.state_arrays().items()}
        model.load_state_arrays(loaded)
        for p in params:
            p.tensor.grad = np.ones_like(p.tensor.data)
        opt.step()
        for p in params:  # first step: every entry moves by lr against the gradient
            np.testing.assert_allclose(p.tensor.data, loaded[p.name] - 0.1, rtol=0, atol=1e-6)

    def test_replacing_a_parameter_array_raises(self):
        params = self._pair()
        opt = Adam(params, lr=0.01)
        params[1].tensor.data = params[1].tensor.data.copy()
        for p in params:
            p.tensor.grad = np.ones_like(p.tensor.data)
        before = params[0].tensor.data.copy()
        with pytest.raises(ValueError, match="parameter b"):
            opt.step()
        np.testing.assert_array_equal(params[0].tensor.data, before)

    def test_float32_and_float64_parameters_share_one_adam(self):
        ours, theirs = ([*self._pair(np.float32), *self._pair(np.float64, "64")]
                        for _ in range(2))
        opt = Adam(ours, lr=0.05, weight_decay=0.01)
        ref = Adam(theirs, lr=0.05, weight_decay=0.01)
        bases = {p.tensor.dtype: p.tensor.data.base for p in ours}
        for p in ours:  # one flat array per dtype
            assert p.tensor.data.base is bases[p.tensor.dtype]
        assert bases[np.dtype(np.float32)] is not bases[np.dtype(np.float64)]
        for _ in range(2):
            for a, b in zip(ours, theirs):
                a.tensor.grad = np.full(a.tensor.shape, 0.3, a.tensor.dtype)
                b.tensor.grad = a.tensor.grad.copy()
            opt.step()
            adam_step_oracle(ref)
            for a, b in zip(ours, theirs):
                assert a.tensor.dtype == b.tensor.dtype
                np.testing.assert_array_equal(a.tensor.data, b.tensor.data)


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
