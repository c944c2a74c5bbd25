"""Tensor-core tests: forward values against independent oracles, backward
against central finite differences (float64, step 1e-3, tolerance 1e-4
relative with the max(1, |a|, |b|) denominator)."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slu import autodiff as ad
from slu.config import AblationMode
from slu.data import RowMap
from slu.gradcheck import toy_setup

from slu.interaction import _row_max

from helpers import (
    assert_close,
    fd_check_unary,
    layer_norm_oracle,
    numeric_grad,
    reshape,
    sigmoid,
    softmax_oracle,
    stack,
    tanh,
    where,
)


class TestForwardValues:
    def test_softmax_reference_vector(self):
        # Hand oracle: e^1, e^2, e^3 = 2.718282, 7.389056, 20.085537;
        # sum = 30.192875; each term normalized by the sum.
        out = ad.softmax(ad.Tensor([1.0, 2.0, 3.0], dtype=np.float64))
        np.testing.assert_allclose(
            out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-5
        )

    def test_softmax_shift_invariance(self):
        x = np.array([10.0, 11.0, 12.0])
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + 500.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_softmax_extreme_inputs_stay_finite(self):
        out = ad.softmax(ad.Tensor([1000.0, -1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-6)

    def test_logsumexp_matches_direct_formula(self, rng):
        x = rng.standard_normal((3, 5))
        out = ad.logsumexp(ad.Tensor(x, dtype=np.float64), axis=-1)
        np.testing.assert_allclose(out.data, np.log(np.exp(x).sum(axis=-1)), rtol=1e-12)

    def test_logsumexp_large_values(self):
        out = ad.logsumexp(ad.Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, 1000.0 + np.log(2.0), rtol=1e-6)

    def test_layer_norm_standardizes_before_affine(self, rng):
        x = rng.standard_normal((2, 3, 8)) * 5 + 3
        gamma = ad.Tensor(np.ones(8))
        beta = ad.Tensor(np.zeros(8))
        out = ad.layer_norm(ad.Tensor(x, dtype=np.float64), gamma, beta).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_item_needs_exactly_one_entry(self):
        assert ad.Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ad.ShapeError, match=r"\(2,\)"):
            ad.Tensor([3.0, 4.0]).item()
        with pytest.raises(ad.ShapeError):
            ad.Tensor(np.zeros((0,))).item()

    def test_matmul_shape_error_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((4, 5)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(a, b)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor([1.0, 2.0]), ad.Tensor(np.zeros((2, 2))))

    def test_maxpool_ignores_padded_positions(self):
        # Packed rows hold no pads, and each sentence pools only its own
        # rows: the larger pad and next-sentence values never win.
        x = np.array([[[1.0], [9.0], [100.0]], [[50.0], [100.0], [100.0]]])
        rows = RowMap(np.array([[True, True, False], [True, False, False]]))
        out = ad.maxpool_over_time(ad.Tensor(rows.gather(x)), rows.lengths)
        np.testing.assert_array_equal(out.data, [[9.0], [50.0]])

    def test_maxpool_requires_a_real_token(self):
        # The lengths still sum to N: np.maximum.reduceat would read the
        # next sentence's first row for the empty one instead of raising.
        with pytest.raises(ValueError, match="positive"):
            ad.maxpool_over_time(ad.Tensor(np.zeros((5, 3))), np.array([3, 0, 2]))

    def test_maxpool_matches_the_padded_masked_max(self, rng):
        # Reference: the earlier masked pool over the padded (B, n, d)
        # layout, pads at -inf, argmax taking the earliest of tied rows.
        # Small integers make ties common.
        mask = np.arange(6)[None, :] < np.array([6, 1, 4, 2, 5])[:, None]
        padded = rng.integers(-3, 3, size=(5, 6, 4)).astype(float)
        rows = RowMap(mask)
        tx = ad.Tensor(rows.gather(padded), requires_grad=True)
        out = ad.maxpool_over_time(tx, rows.lengths)
        ad.tsum(out).backward()
        masked = np.where(mask[:, :, None], padded, -np.inf)
        np.testing.assert_array_equal(out.data, masked.max(axis=1))
        ref_grad = np.zeros_like(padded)
        np.put_along_axis(ref_grad, masked.argmax(axis=1)[:, None], 1.0, axis=1)
        np.testing.assert_array_equal(tx.grad, rows.gather(ref_grad))

    @pytest.mark.parametrize("lengths", [[2, 2], [6], [[5]]],
                             ids=["short_sum", "long_sum", "not_1d"])
    def test_maxpool_rejects_lengths_that_do_not_split_the_rows(self, lengths):
        with pytest.raises(ValueError):
            ad.maxpool_over_time(ad.Tensor(np.zeros((5, 3))), np.array(lengths))

    @pytest.mark.filterwarnings("error")
    def test_maxpool_nan_stays_in_its_sentence(self):
        x = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0], [5.0, -1.0]])
        tx = ad.Tensor(x, requires_grad=True)
        out = ad.maxpool_over_time(tx, np.array([2, 2]))
        np.testing.assert_array_equal(out.data, [[np.nan, 2.0], [5.0, 4.0]])
        ad.tsum(out).backward()
        np.testing.assert_array_equal(tx.grad, [[0, 1], [1, 0], [0, 1], [1, 0]])

    def test_where_selects_by_mask(self):
        cond = np.array([True, False, True])
        out = where(cond, ad.Tensor([1.0, 1.0, 1.0]), ad.Tensor([2.0, 2.0, 2.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 1.0])

    def test_dropout_eval_is_identity(self, rng):
        x = ad.Tensor(rng.standard_normal((4, 4)))
        out = ad.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_train_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = np.ones((2000,), dtype=np.float64)
        out = ad.dropout(ad.Tensor(x), 0.25, rng, training=True).data
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)
        # Inverted scaling keeps the expectation near 1.
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor([1.0]), 1.0, rng, training=True)
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor([1.0]), -0.1, rng, training=True)


class TestBackward:
    def test_add_broadcast_unbroadcasts_grad(self):
        a = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        b = ad.Tensor(np.ones((3,)), requires_grad=True)
        ad.tsum(ad.add(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.full((3,), 2.0))

    def test_mul_grads(self):
        a = ad.Tensor([2.0, 3.0], requires_grad=True)
        b = ad.Tensor([5.0, 7.0], requires_grad=True)
        ad.tsum(ad.mul(a, b)).backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_shared_node_accumulates_both_paths(self):
        x = ad.Tensor([3.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1 = 7
        ad.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.GradError):
            ad.mul(x, x).backward()

    def test_repeated_backward_with_zeroing_is_reproducible(self, rng):
        W = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        x = ad.Tensor(rng.standard_normal((2, 4)))

        def run():
            loss = ad.tsum(tanh(ad.matmul(x, W)))
            loss.backward()
            g = W.grad.copy()
            W.zero_grad()
            return g

        np.testing.assert_array_equal(run(), run())

    def test_grads_accumulate_across_backward_calls(self):
        x = ad.Tensor([1.0], requires_grad=True)
        ad.tsum(ad.mul(x, ad.Tensor([3.0]))).backward()
        first = x.grad.copy()
        ad.tsum(ad.mul(x, ad.Tensor([3.0]))).backward()
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = ad.Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = ad.add(y, ad.Tensor([0.001]))
        ad.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_shared_first_gradients_do_not_alias(self):
        # The outer add hands one array to both of its inputs; if a buffer
        # kept it, the inner add's contribution would also land in b.grad.
        a = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        b = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        ad.tsum(ad.add(ad.add(a, b), a)).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("build", [
        lambda h, c: ad.add(h, h),
        lambda h, c: ad.tsum(h),
        lambda h, c: reshape(h, (6,)),
        lambda h, c: ad.add(h, c),
    ], ids=["add_self", "tsum", "reshape", "add_broadcast"])
    def test_first_gradient_is_an_owned_writeable_copy(self, build):
        h = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        c = ad.Tensor(np.ones((3,)), requires_grad=True)
        ad.tsum(build(h, c)).backward()
        for t in (h, c):
            if t.grad is None:
                continue
            assert t.grad.shape == t.shape and t.grad.dtype == t.dtype
            assert t.grad.flags.owndata and t.grad.flags.writeable
        if c.grad is not None:
            assert not np.shares_memory(h.grad, c.grad)

    def test_zero_contribution_gives_zeros_unreachable_keeps_none(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        unused = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        never = np.zeros((2, 2), dtype=bool)
        ad.tsum(where(never, w, x)).backward()
        np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))
        assert unused.grad is None

    def test_backward_frees_intermediates(self, rng):
        W = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = ad.Tensor(rng.standard_normal((2, 5, 4)))
        h = ad.matmul(x, W)
        y = tanh(h)
        loss = ad.tsum(y)
        loss.backward()
        assert W.grad is not None
        for node in (h, y, loss):
            assert node.grad is None
            assert node._parents == ()

    def test_second_backward_through_freed_graph_raises(self, rng):
        W = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        h = tanh(ad.matmul(ad.Tensor(rng.standard_normal((2, 4))), W))
        loss = ad.tsum(h)
        loss.backward()
        first = W.grad.copy()
        with pytest.raises(ad.GradError):
            loss.backward()
        with pytest.raises(ad.GradError):
            ad.tsum(ad.mul(h, h)).backward()
        np.testing.assert_array_equal(W.grad, first)

    def test_no_grad_skips_graph(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        assert y._backward is None


class TestBackwardContract:
    """A closure returns one contribution per parent; only the engine
    writes gradient buffers."""

    @pytest.mark.parametrize("count", [0, 2])
    def test_wrong_number_of_contributions_raises(self, count):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad._make_node(x.data * 2.0, (x,), lambda g: (g,) * count)
        with pytest.raises(ValueError):
            ad.tsum(y).backward()

    def test_none_and_constant_parents_get_no_gradient(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        skipped = ad.Tensor(np.ones(3), requires_grad=True)
        const = ad.Tensor(np.ones(3))
        y = ad._make_node(x.data.copy(), (x, skipped, const), lambda g: (g, None, g))
        ad.tsum(y).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))
        assert skipped.grad is None
        assert const.grad is None

    @pytest.mark.parametrize("getitem_first", [False, True],
                             ids=["dense_first", "getitem_first"])
    def test_dense_and_repeated_getitem_sum(self, monkeypatch, getitem_first):
        x = ad.Tensor(np.zeros(4), requires_grad=True)
        dense = ad.tsum(ad.mul(x, ad.Tensor([1.0, 2.0, 3.0, 4.0])))
        picked = ad.tsum(ad.mul(x[np.array([2, 2, 0])], ad.Tensor([10.0, 20.0, 30.0])))
        seen = []
        accumulate = ad._accumulate

        def spy(node, v):
            if node is x:
                seen.append(v.copy())
            accumulate(node, v)

        monkeypatch.setattr(ad, "_accumulate", spy)
        ad.add(*((picked, dense) if getitem_first else (dense, picked))).backward()
        np.testing.assert_array_equal(x.grad, [31.0, 2.0, 33.0, 4.0])
        # The operand order sets which contribution reaches x first.
        np.testing.assert_array_equal(seen[0], [30.0, 0.0, 30.0, 0.0] if getitem_first
                                      else [1.0, 2.0, 3.0, 4.0])

    def test_first_contribution_is_unchanged_by_a_second(self, monkeypatch):
        # If a buffer kept the first array a closure returned, the second
        # contribution would be added into that array too.
        x = ad.Tensor(np.ones(3), requires_grad=True)
        returned = []
        accumulate = ad._accumulate

        def spy(node, v):
            if node is x:
                returned.append((v, v.copy()))
            accumulate(node, v)

        monkeypatch.setattr(ad, "_accumulate", spy)
        loss = ad.add(ad.tsum(ad.mul(x, ad.Tensor([1.0, 2.0, 3.0]))),
                      ad.tsum(ad.mul(x[np.array([0, 0])], ad.Tensor([5.0, 7.0]))))
        loss.backward()
        assert len(returned) == 2
        for v, at_arrival in returned:
            np.testing.assert_array_equal(v, at_arrival)
        np.testing.assert_array_equal(x.grad, [13.0, 2.0, 3.0])

    @pytest.mark.parametrize("mode", [m.value for m in AblationMode])
    def test_training_step_contributions_are_arrays(self, monkeypatch, mode):
        model, batch = toy_setup(seed=3, ablation=mode)
        kinds = set()
        accumulate = ad._accumulate

        def spy(node, v):
            kinds.add(type(v))
            accumulate(node, v)

        monkeypatch.setattr(ad, "_accumulate", spy)
        model.loss(batch, training=True).backward()
        assert kinds == {np.ndarray}

    def test_float64_contribution_is_stored_in_node_dtype(self):
        x = ad.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        third = np.full(3, 1.0 / 3.0)
        y = ad._make_node(np.zeros((), dtype=np.float32), (x,), lambda g: (third,))
        y.backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, third.astype(np.float32))


class TestRowScatter:
    """``getitem`` scatters its gradient back by one rule for every numpy
    index, summing entries read more than once; ``np.add.at`` with the same
    index is the oracle."""

    @pytest.mark.parametrize("idx", [
        np.array([[3, 0, 3], [5, 3, 0]]),  # repeated and unsorted rows
        np.array([4, 1, 1, 6, 0, 4, 4]),
        np.array([2]),  # single id
        np.array([[1], [1]]),
        np.array([-1, 6, 0, -7]),  # negative ids wrap onto the same rows
        np.zeros((2, 0), dtype=np.int64),  # empty index
        (np.array([1, 1, 6, 1]), np.array([4, 4, 0, -1])),  # repeated cells
        np.arange(35).reshape(7, 5) % 3 == 0,
        (slice(1, 6, 2), np.array([0, 4, 0])),
        (np.array([3, 3]), None, slice(None)),
        (Ellipsis, np.array([2, 2, -3])),
    ], ids=["repeated_2d", "repeated_1d", "single", "single_repeated", "negative", "empty",
            "tuple_repeated", "bool_mask", "slice_and_array", "none", "ellipsis"])
    def test_matches_add_at(self, rng, idx):
        table = rng.standard_normal((7, 5))
        r = rng.standard_normal(table[idx].shape)
        tt = ad.Tensor(table, requires_grad=True)
        ad.tsum(ad.mul(tt[idx], ad.Tensor(r))).backward()
        expected = np.zeros_like(table)
        np.add.at(expected, idx, r)
        np.testing.assert_allclose(tt.grad, expected, rtol=1e-12, atol=1e-12)

    def test_float32_table_keeps_a_float32_grad(self, rng):
        table = ad.Tensor(rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True)
        picked = table[np.array([5, 1, 5, -1])]
        ad.tsum(ad.mul(picked, 0.5)).backward()
        assert table.grad.dtype == np.float32
        np.testing.assert_array_equal(table.grad[5], np.full(4, 1.5, np.float32))

    def test_dense_then_row_scatter_sum(self, rng):
        table = rng.standard_normal((6, 4))
        ids = np.array([[5, 1, 5], [1, 1, 2]])
        r = rng.standard_normal((2, 3, 4))
        dense = rng.standard_normal((6, 4))
        tt = ad.Tensor(table, requires_grad=True)
        loss = ad.add(ad.tsum(ad.mul(tt, ad.Tensor(dense))),
                      ad.tsum(ad.mul(tt[ids], ad.Tensor(r))))
        loss.backward()
        expected = dense.copy()
        np.add.at(expected, ids, r)
        np.testing.assert_allclose(tt.grad, expected, rtol=1e-12, atol=1e-12)


class TestReductionKernels:
    @pytest.mark.parametrize("width", [1, 2, 24, 46])
    def test_attention_row_max_is_np_max(self, rng, width):
        x = rng.standard_normal((3, 2, 5, width)).astype(np.float32)
        x[0, :, :, width // 2:] = -np.inf  # pad keys
        x[1, 0, 2, width - 1] = np.nan
        got = _row_max(x)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, np.max(x, axis=-1, keepdims=True))
        assert np.isnan(got[1, 0, 2, 0])

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("shape", [(7,), (5, 128), (3, 2, 6, 24), (0, 4)])
    def test_gemv_row_sum_matches_np_sum(self, rng, dtype, tol, shape):
        x = rng.standard_normal(shape).astype(dtype)
        for scale in (1.0, 1.0 / shape[-1]):
            got = ad._row_sum(x, scale)
            assert got.dtype == dtype
            ref = np.sum(x, axis=-1, keepdims=True) * scale
            # relative to the sum of magnitudes, the scale of a sum's rounding
            bound = tol * np.abs(x).sum(axis=-1, keepdims=True) * scale
            assert got.shape == ref.shape and (np.abs(got - ref) <= bound).all()

    def test_softmax_matches_the_numpy_reduction_oracle(self, rng):
        x = rng.standard_normal((4, 6, 9))
        r = rng.standard_normal(x.shape)
        grads = []
        for op in (ad.softmax, softmax_oracle):
            tx = ad.Tensor(x, requires_grad=True)
            out = op(tx)
            ad.tsum(ad.mul(out, ad.Tensor(r))).backward()
            grads.append((out.data, tx.grad))
        (got, got_grad), (ref, ref_grad) = grads
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got_grad, ref_grad, rtol=1e-12, atol=1e-15)

    def test_layer_norm_matches_the_numpy_reduction_oracle(self, rng):
        x = 3.0 * rng.standard_normal((5, 7, 128)) + 1.5
        gamma, beta = rng.standard_normal(128), rng.standard_normal(128)
        r = rng.standard_normal(x.shape)
        results = []
        for op in (ad.layer_norm, layer_norm_oracle):
            ts = [ad.Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            out = op(*ts)
            ad.tsum(ad.mul(out, ad.Tensor(r))).backward()
            results.append([out.data] + [t.grad for t in ts])
        for got, ref in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_maxpool_without_a_graph_is_bit_equal_to_the_graph_path(self):
        x = np.array([[1.0, 2.0, -3.0], [np.nan, 2.0, -3.0], [4.0, 0.5, 7.0],
                      [4.0, 0.5, 7.0], [4.0, -1.0, 2.0], [-2.0, 9.0, np.nan]],
                     dtype=np.float32)
        lengths = np.array([2, 3, 1])
        graph = ad.maxpool_over_time(ad.Tensor(x, requires_grad=True), lengths)
        assert graph.requires_grad
        plain = ad.maxpool_over_time(ad.Tensor(x), lengths)
        with ad.no_grad():
            no_grad = ad.maxpool_over_time(ad.Tensor(x, requires_grad=True), lengths)
        for fast in (plain, no_grad):
            assert not fast.requires_grad and fast.dtype == np.float32
            assert fast.data.tobytes() == graph.data.tobytes()


class TestFiniteDifferences:
    """Every primitive's backward against the central-difference oracle."""

    def test_relu(self, rng):
        # Keep inputs away from the kink at 0.
        x = rng.standard_normal((3, 4))
        x = np.where(np.abs(x) < 0.05, 0.5, x)
        fd_check_unary(ad.relu, x)

    def test_sigmoid(self, rng):
        fd_check_unary(sigmoid, rng.standard_normal((3, 4)))

    def test_tanh(self, rng):
        fd_check_unary(tanh, rng.standard_normal((3, 4)))

    def test_softmax(self, rng):
        fd_check_unary(ad.softmax, rng.standard_normal((3, 5)))

    def test_logsumexp(self, rng):
        fd_check_unary(ad.logsumexp, rng.standard_normal((3, 5)), axis=-1)

    def test_reshape(self, rng):
        fd_check_unary(reshape, rng.standard_normal((3, 4)), shape=(2, 6))

    def test_transpose(self, rng):
        fd_check_unary(ad.transpose, rng.standard_normal((2, 3, 4)), axes=(0, 2, 1))

    @pytest.mark.parametrize("b", [-2.5, np.array([0.5, -1.0, 2.0, 3.0])],
                             ids=["scalar", "broadcast_row"])
    def test_mul(self, rng, b):
        fd_check_unary(ad.mul, rng.standard_normal((3, 4)), b=b)

    def test_getitem_slice_last_axis(self, rng):
        fd_check_unary(ad.getitem, rng.standard_normal((2, 3, 6)),
                       idx=(slice(None), slice(None), slice(1, 4)))

    def test_getitem_2d_block(self, rng):
        fd_check_unary(ad.getitem, rng.standard_normal((6, 6)), idx=(slice(1, 4), slice(0, 2)))

    def test_getitem_time_step(self, rng):
        fd_check_unary(ad.getitem, rng.standard_normal((2, 4, 3)), idx=(slice(None), 2))

    def test_getitem_operator_is_getitem(self, rng):
        x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        rows = np.array([2, 0, 2])
        np.testing.assert_array_equal(x[1:, ::2].data, x.data[1:, ::2])
        np.testing.assert_array_equal(x[rows].data, x.data[rows])
        ad.tsum(x[rows]).backward()
        np.testing.assert_array_equal(x.grad, np.array([1.0, 0.0, 2.0])[:, None] * np.ones((1, 4)))

    def test_matmul(self, rng):
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((4, 5))
        r = rng.standard_normal((3, 5))

        ta = ad.Tensor(A, requires_grad=True)
        tb = ad.Tensor(B, requires_grad=True)
        ad.tsum(ad.mul(ad.matmul(ta, tb), ad.Tensor(r))).backward()

        def fa(a):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.matmul(ad.Tensor(a), ad.Tensor(B)), ad.Tensor(r))).item())

        def fb(b):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.matmul(ad.Tensor(A), ad.Tensor(b)), ad.Tensor(r))).item())

        assert_close(ta.grad, numeric_grad(fa, A))
        assert_close(tb.grad, numeric_grad(fb, B))

    def test_batched_matmul(self, rng):
        A = rng.standard_normal((2, 3, 4))
        B = rng.standard_normal((2, 4, 5))
        r = rng.standard_normal((2, 3, 5))
        ta = ad.Tensor(A, requires_grad=True)
        tb = ad.Tensor(B, requires_grad=True)
        ad.tsum(ad.mul(ad.matmul(ta, tb), ad.Tensor(r))).backward()

        def fa(a):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.matmul(ad.Tensor(a), ad.Tensor(B)), ad.Tensor(r))).item())

        assert_close(ta.grad, numeric_grad(fa, A))

    def test_broadcast_matmul_shared_weight(self, rng):
        # (B, n, d) @ (d, k): the weight gradient sums over batch and time.
        A = rng.standard_normal((2, 3, 4))
        W = rng.standard_normal((4, 5))
        r = rng.standard_normal((2, 3, 5))
        tw = ad.Tensor(W, requires_grad=True)
        ad.tsum(ad.mul(ad.matmul(ad.Tensor(A), tw), ad.Tensor(r))).backward()

        def fw(w):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.matmul(ad.Tensor(A), ad.Tensor(w)), ad.Tensor(r))).item())

        assert_close(tw.grad, numeric_grad(fw, W))

    @pytest.mark.parametrize("shape,axes", [
        ((2, 3, 4), None),
        ((2, 2, 3, 4), None),
        ((3, 2, 4), (1, 0, 2)),
    ], ids=["3d", "4d", "transposed_view"])
    def test_folded_matmul(self, rng, shape, axes):
        # (..., k) @ (k, m): the weight gradient sums over every leading
        # axis, for a non-contiguous ``a`` (a transpose view) too.
        A = rng.standard_normal(shape)
        if axes is not None:
            A = A.transpose(axes)
            assert not A.flags.c_contiguous
        W = rng.standard_normal((4, 5))
        r = rng.standard_normal(A.shape[:-1] + (5,))
        ta = ad.Tensor(A, requires_grad=True)
        tw = ad.Tensor(W, requires_grad=True)
        out = ad.matmul(ta, tw)
        np.testing.assert_allclose(out.data, np.matmul(A, W), rtol=1e-12)
        ad.tsum(ad.mul(out, ad.Tensor(r))).backward()

        def f(a, w):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.matmul(ad.Tensor(a), ad.Tensor(w)),
                                            ad.Tensor(r))).item())

        assert_close(ta.grad, numeric_grad(lambda a: f(a, W), A))
        assert_close(tw.grad, numeric_grad(lambda w: f(A, w), W))

    def test_layer_norm_all_inputs(self, rng):
        x = rng.standard_normal((2, 3, 6))
        gamma = rng.standard_normal(6) + 1.0
        beta = rng.standard_normal(6)
        r = rng.standard_normal((2, 3, 6))

        tx = ad.Tensor(x, requires_grad=True)
        tg = ad.Tensor(gamma, requires_grad=True)
        tb = ad.Tensor(beta, requires_grad=True)
        ad.tsum(ad.mul(ad.layer_norm(tx, tg, tb), ad.Tensor(r))).backward()

        def make(slot):
            def f(arr):
                vals = [x, gamma, beta]
                vals[slot] = arr
                with ad.no_grad():
                    out = ad.layer_norm(ad.Tensor(vals[0]), ad.Tensor(vals[1]), ad.Tensor(vals[2]))
                    return float(ad.tsum(ad.mul(out, ad.Tensor(r))).item())
            return f

        assert_close(tx.grad, numeric_grad(make(0), x))
        assert_close(tg.grad, numeric_grad(make(1), gamma))
        assert_close(tb.grad, numeric_grad(make(2), beta))

    def test_concat(self, rng):
        A = rng.standard_normal((2, 3))
        B = rng.standard_normal((2, 5))
        r = rng.standard_normal((2, 8))
        ta = ad.Tensor(A, requires_grad=True)
        tb = ad.Tensor(B, requires_grad=True)
        ad.tsum(ad.mul(ad.concat([ta, tb], axis=1), ad.Tensor(r))).backward()

        def fa(a):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.concat([ad.Tensor(a), ad.Tensor(B)], axis=1), ad.Tensor(r))).item())

        assert_close(ta.grad, numeric_grad(fa, A))
        np.testing.assert_allclose(tb.grad, r[:, 3:])

    def test_embedding_scatter_accumulates_repeats(self, rng):
        table = rng.standard_normal((5, 3))
        ids = np.array([[0, 2, 0], [2, 2, 1]])
        r = rng.standard_normal((2, 3, 3))
        tt = ad.Tensor(table, requires_grad=True)
        ad.tsum(ad.mul(tt[ids], ad.Tensor(r))).backward()

        expected = np.zeros_like(table)
        for b in range(2):
            for t in range(3):
                expected[ids[b, t]] += r[b, t]
        np.testing.assert_allclose(tt.grad, expected, rtol=1e-12)

    def test_getitem_arange_grid(self, rng):
        # One entry of the last axis per (batch, time) cell, as the CRF's
        # gold-emission pick does.
        x = rng.standard_normal((2, 3, 4))
        idx = np.array([[0, 3, 1], [2, 2, 0]])
        sel = (np.arange(2)[:, None], np.arange(3)[None, :], idx)
        r = rng.standard_normal((2, 3))
        tx = ad.Tensor(x, requires_grad=True)
        out = ad.getitem(tx, sel)
        np.testing.assert_array_equal(
            out.data, np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
        )
        ad.tsum(ad.mul(out, ad.Tensor(r))).backward()

        def f(arr):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.getitem(ad.Tensor(arr), sel), ad.Tensor(r))).item())

        assert_close(tx.grad, numeric_grad(f, x))

    def test_getitem_accumulates_repeated_cells(self, rng):
        m = rng.standard_normal((4, 4))
        rows = np.array([1, 1, 3])
        cols = np.array([2, 2, 0])
        tm = ad.Tensor(m, requires_grad=True)
        ad.tsum(ad.getitem(tm, (rows, cols))).backward()
        expected = np.zeros_like(m)
        expected[1, 2] = 2.0
        expected[3, 0] = 1.0
        np.testing.assert_array_equal(tm.grad, expected)

    def test_maxpool(self, rng):
        x = rng.standard_normal((5, 3))
        lengths = np.array([3, 2])
        r = rng.standard_normal((2, 3))
        tx = ad.Tensor(x, requires_grad=True)
        ad.tsum(ad.mul(ad.maxpool_over_time(tx, lengths), ad.Tensor(r))).backward()

        def f(arr):
            with ad.no_grad():
                return float(ad.tsum(ad.mul(ad.maxpool_over_time(ad.Tensor(arr), lengths),
                                            ad.Tensor(r))).item())

        assert_close(tx.grad, numeric_grad(f, x))

    def test_maxpool_tie_routes_to_earliest(self):
        # Each sentence's tie goes to its own earliest row, the second
        # sentence's included.
        x = np.array([[5.0], [5.0], [1.0], [2.0], [2.0]])
        tx = ad.Tensor(x, requires_grad=True)
        ad.tsum(ad.maxpool_over_time(tx, np.array([3, 2]))).backward()
        np.testing.assert_array_equal(tx.grad[:, 0], [1.0, 0.0, 0.0, 1.0, 0.0])

    def test_where_grad_routes_by_mask(self, rng):
        cond = np.array([[True, False], [False, True]])
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        ta = ad.Tensor(A, requires_grad=True)
        tb = ad.Tensor(B, requires_grad=True)
        ad.tsum(where(cond, ta, tb)).backward()
        np.testing.assert_array_equal(ta.grad, cond.astype(float))
        np.testing.assert_array_equal(tb.grad, (~cond).astype(float))

    def test_dropout_backward_matches_mask(self):
        x = np.ones((64,), dtype=np.float64)
        rng = np.random.default_rng(3)
        tx = ad.Tensor(x, requires_grad=True)
        out = ad.dropout(tx, 0.5, rng, training=True)
        ad.tsum(out).backward()
        np.testing.assert_array_equal(tx.grad, out.data)

    def test_stack_roundtrip(self, rng):
        steps = [ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(4)]
        out = stack(steps, axis=1)
        assert out.shape == (2, 4, 3)
        r = rng.standard_normal((2, 4, 3))
        ad.tsum(ad.mul(out, ad.Tensor(r))).backward()
        for t, s in enumerate(steps):
            np.testing.assert_allclose(s.grad, r[:, t])

    @pytest.mark.parametrize("axis", [0, 2, -1])
    def test_stack_other_axes(self, rng, axis):
        parts = [ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(3)]
        out = stack(parts, axis=axis)
        ref = np.stack([p.data for p in parts], axis=axis)
        np.testing.assert_array_equal(out.data, ref)
        r = rng.standard_normal(ref.shape)
        ad.tsum(ad.mul(out, ad.Tensor(r))).backward()
        for k, p in enumerate(parts):
            np.testing.assert_array_equal(p.grad, np.take(r, k, axis=axis))


class TestNoDeadOps:
    def test_every_public_op_runs_in_training_or_decoding(self, monkeypatch):
        # An op that no loss, backward or decode reaches is dead code.
        called: set[str] = set()
        ops = [name for name, fn in vars(ad).items()
               if inspect.isfunction(fn) and fn.__module__ == ad.__name__
               and not name.startswith("_")]

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ops:
            monkeypatch.setattr(ad, name, counting(name, getattr(ad, name)))
        for mode in AblationMode:
            model, batch = toy_setup(seed=0, ablation=mode.value)
            model.loss(batch, training=True).backward()
        model.predict(batch.token_ids, batch.mask)
        assert sorted(set(ops) - called) == []


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_a_distribution(self, xs):
        out = ad.softmax(ad.Tensor(np.array(xs, dtype=np.float64))).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_logsumexp_bounds(self, xs):
        x = np.array(xs, dtype=np.float64)
        val = ad.logsumexp(ad.Tensor(x), axis=0).data
        assert val >= x.max() - 1e-9
        assert val <= x.max() + np.log(len(xs)) + 1e-9
