"""Encoder tests: packed output, direction symmetry, gradient check."""

import numpy as np
import pytest

from slu import autodiff as ad
from slu import encoder
from slu.data import RowMap
from slu.encoder import Encoder

from helpers import assert_close, bilstm_oracle, numeric_grad


def make_encoder(vocab=9, e=8, d=8, seed=0, dtype=np.float64):
    return Encoder(vocab, e, d, np.random.default_rng(seed), dtype=dtype)


class TestShapes:
    def test_single_token_full_width(self):
        enc = Encoder(5, 300, 128, np.random.default_rng(0))
        H = enc.encode(np.array([[2]]), RowMap(np.array([[True]])))
        assert H.shape == (1, 128)

    def test_batch_shape(self):
        enc = make_encoder()
        ids = np.array([[1, 2, 3], [4, 5, 0]])
        mask = np.array([[True, True, True], [True, True, False]])
        assert enc.encode(ids, RowMap(mask)).shape == (5, 8)

    def test_mask_shape_mismatch_rejected(self):
        enc = make_encoder()
        with pytest.raises(ad.ShapeError):
            enc.encode(np.array([[1, 2]]), RowMap(np.array([[True, True, True]])))

    def test_out_of_range_token_id(self):
        enc = make_encoder(vocab=5)
        with pytest.raises(IndexError):
            enc.encode(np.array([[7]]), RowMap(np.array([[True]])))

    @pytest.mark.parametrize("bad", [5, -1], ids=["past_end", "negative"])
    def test_embedding_out_of_range_id(self, bad):
        # numpy would wrap -1 to the last row; the encoder must refuse it.
        enc = make_encoder(vocab=5)
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            enc.encode(np.array([[0, bad]]), RowMap(np.array([[True, True]])))


class TestMasking:
    def test_appending_pad_leaves_real_positions_unchanged(self):
        enc = make_encoder()
        ids = np.array([[3, 4, 5]])
        mask = np.array([[True, True, True]])
        H = enc.encode(ids, RowMap(mask)).data

        padded_ids = np.array([[3, 4, 5, 0, 0]])
        padded_mask = np.array([[True, True, True, False, False]])
        H_pad = enc.encode(padded_ids, RowMap(padded_mask)).data

        np.testing.assert_allclose(H_pad, H, atol=1e-5)

    def test_padded_positions_emit_zero(self):
        # Pads emit no row at all, and no gradient flows back to them: the
        # pad id occurs only at pad positions, so its embedding row gets zero.
        enc = make_encoder()
        ids = np.array([[3, 4, 0, 0]])
        mask = np.array([[True, True, False, False]])
        H = enc.encode(ids, RowMap(mask))
        assert H.shape == (2, 8)
        ad.tsum(H).backward()
        np.testing.assert_array_equal(enc.embedding.grad[0], 0.0)
        assert enc.embedding.grad[3].any() and enc.embedding.grad[4].any()

    def test_backward_direction_starts_at_last_real_token(self):
        # The backward channel at the last real position must equal the
        # single-step response to that token, pads notwithstanding.
        enc = make_encoder()
        ids_short = np.array([[6]])
        mask_short = np.array([[True]])
        single = enc.encode(ids_short, RowMap(mask_short)).data[0, 4:]

        ids = np.array([[3, 6, 0, 0]])
        mask = np.array([[True, True, False, False]])
        H = enc.encode(ids, RowMap(mask)).data
        np.testing.assert_allclose(H[1, 4:], single, atol=1e-12)

    def test_pad_before_real_token_rejected(self):
        # The mask layout is checked once, where the batch's RowMap is built.
        with pytest.raises(ValueError, match="prefix"):
            RowMap(np.array([[True, False, True]]))

    def test_zero_weights_give_zero_states(self):
        enc = make_encoder()
        for cell in (enc.fwd, enc.bwd):
            cell.W.data[:] = 0.0
            cell.b.data[:] = 0.0
        H = enc.encode(np.array([[1, 2, 3]]), RowMap(np.ones((1, 3), bool))).data
        np.testing.assert_array_equal(H, 0.0)


class TestEncoderDropout:
    """``dropout_p`` drops embedding entries before both LSTMs."""

    ids = np.array([[1, 4, 2], [3, 5, 0]])
    rows = RowMap(np.array([[True, True, True], [True, True, False]]))

    def test_training_drops_the_embeddings(self):
        enc = make_encoder()
        out = enc.encode(self.ids, self.rows, dropout_p=0.5,
                         rng=np.random.default_rng(3), training=True).data

        embedded = ad.dropout(enc.embedding[self.rows.gather(self.ids)], 0.5,
                              np.random.default_rng(3), training=True,
                              pad_mask=self.rows.mask)
        ref = enc.bilstm(embedded, self.rows)
        np.testing.assert_array_equal(out, ref.data)
        assert not np.allclose(out, enc.encode(self.ids, self.rows).data)

    def test_eval_mode_is_unaffected(self):
        enc = make_encoder()
        out = enc.encode(self.ids, self.rows, dropout_p=0.5,
                         rng=np.random.default_rng(3), training=False).data
        np.testing.assert_array_equal(out, enc.encode(self.ids, self.rows).data)


def lengths_rows(lengths, n):
    return RowMap(np.arange(n)[None, :] < np.asarray(lengths)[:, None])


class TestOracle:
    """The one-node ``bilstm`` against both directions stepped apart with
    per-step masks (``helpers.bilstm_oracle``), built from generic ops."""

    # (B, n) shapes with rows of full length, a middle length and 1.
    cases = {"ragged": [5, 3, 1], "one_token": [1], "full_and_single": [4, 1, 4]}

    def run(self, fn, lengths, dtype):
        n = max(lengths)
        enc = make_encoder(vocab=9, e=6, d=8, seed=4, dtype=dtype)
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.standard_normal((sum(lengths), 6)).astype(dtype), requires_grad=True)
        r = rng.standard_normal((sum(lengths), 8)).astype(dtype)
        out = fn(enc, x, lengths_rows(lengths, n))
        ad.tsum(ad.mul(out, ad.Tensor(r))).backward()
        return out, [t.grad for t in (x, enc.fwd.W, enc.fwd.b, enc.bwd.W, enc.bwd.b)]

    def check(self, case, dtype, out_tol, grad_tol):
        lengths = self.cases[case]
        out, grads = self.run(lambda enc, x, rows: enc.bilstm(x, rows), lengths, dtype)
        ref, ref_grads = self.run(bilstm_oracle, lengths, dtype)
        assert out.dtype == dtype and all(g.dtype == dtype for g in grads)
        assert_close(out.data, ref.data, out_tol)
        for g, ref_g in zip(grads, ref_grads):
            assert_close(g, ref_g, grad_tol)

    def test_outputs_and_gradients_match(self):
        self.check("ragged", np.float64, 1e-12, 1e-8)

    @pytest.mark.parametrize("case", ["one_token", "full_and_single"])
    def test_float64_edge_shapes(self, case):
        self.check(case, np.float64, 1e-12, 1e-8)

    @pytest.mark.parametrize("case", list(cases))
    def test_float32(self, case):
        self.check(case, np.float32, 1e-4, 1e-4)


class TestOneNode:
    """``bilstm`` is a single graph node over the input and the four weights."""

    def test_one_node_five_parents_no_scatter(self, monkeypatch):
        class NoAddAt:  # np.add whose unbuffered scatter raises
            def __getattr__(self, name):
                return getattr(np.add, name)

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def at(self, *args, **kwargs):
                raise AssertionError("np.add.at called")

        class Numpy:
            add = NoAddAt()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(ad, "np", Numpy())
        monkeypatch.setattr(encoder, "np", Numpy())
        enc = make_encoder()
        x = ad.Tensor(np.random.default_rng(1).standard_normal((7, 8)), requires_grad=True)
        out = enc.bilstm(x, lengths_rows([4, 2, 1], 4))
        assert out._parents == (x, enc.fwd.W, enc.fwd.b, enc.bwd.W, enc.bwd.b)
        assert all(p._parents == () for p in out._parents)
        ad.tsum(out).backward()
        assert all(p.grad is not None for p in (x, enc.fwd.W, enc.fwd.b, enc.bwd.W, enc.bwd.b))

    def test_no_grad_gives_a_plain_tensor(self):
        enc = make_encoder()
        x = ad.Tensor(np.ones((4, 8)), requires_grad=True)
        rows = lengths_rows([3, 1], 3)
        with ad.no_grad():
            out = enc.bilstm(x, rows)
        assert not out.requires_grad and out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, enc.bilstm(x, rows).data)


class TestDirectionSymmetry:
    def test_reversal_swaps_channels_when_cells_tied(self):
        enc = make_encoder()
        enc.bwd.W.data = enc.fwd.W.data.copy()
        enc.bwd.b.data = enc.fwd.b.data.copy()

        ids = np.array([[2, 5, 7, 3]])
        rows = RowMap(np.ones((1, 4), bool))
        H = enc.encode(ids, rows).data
        H_rev = enc.encode(ids[:, ::-1], rows).data

        half = 4
        swapped = np.concatenate([H[::-1, half:], H[::-1, :half]], axis=-1)
        np.testing.assert_allclose(H_rev, swapped, atol=1e-12)


class TestGradients:
    def test_finite_differences_two_token_batch(self):
        enc = make_encoder(vocab=6, e=4, d=8, dtype=np.float64)
        ids = np.array([[1, 4], [2, 0]])
        rows = RowMap(np.array([[True, True], [True, False]]))
        rng = np.random.default_rng(11)
        r = rng.standard_normal((3, 8))

        loss = ad.tsum(ad.mul(enc.encode(ids, rows), ad.Tensor(r)))
        loss.backward()

        for name, tensor in [
            ("embedding", enc.embedding),
            ("fwd.W", enc.fwd.W),
            ("fwd.b", enc.fwd.b),
            ("bwd.W", enc.bwd.W),
            ("bwd.b", enc.bwd.b),
        ]:
            def f(arr, tensor=tensor):
                saved = tensor.data
                tensor.data = arr
                with ad.no_grad():
                    val = ad.tsum(ad.mul(enc.encode(ids, rows), ad.Tensor(r))).item()
                tensor.data = saved
                return val

            assert_close(tensor.grad, numeric_grad(f, tensor.data), 1e-4)
