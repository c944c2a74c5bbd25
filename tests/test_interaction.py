"""Interaction block tests: stage-level oracles on packed rows, ablation
wiring, masking invariance, the padded-oracle equivalence of the fused
attention node, the packed layout from the embedding lookup to the heads,
and gradient spot checks."""

import dataclasses

import numpy as np
import pytest

from slu import autodiff as ad
from slu.config import AblationMode, ConfigError
from slu.data import RowMap
from slu.decoders import joint_loss
from slu.gradcheck import toy_setup
from slu.interaction import (
    InteractionLayer,
    InteractionStack,
    label_attention,
    multi_head_attention,
)
from slu.model import JointModel

from helpers import assert_close, multi_head_attention_padded, numeric_grad

ALL_MODES = list(AblationMode)


def make_stack(d=8, heads=2, ffn=16, L=2, mode=AblationMode.FULL, seed=0,
               dtype=np.float64):
    return InteractionStack(d, heads, ffn, L, mode, 0.0, np.random.default_rng(seed),
                              dtype=dtype)


def label_matrices(d=8, n_s=4, n_i=3, seed=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    W_S = ad.Tensor(rng.standard_normal((d, n_s)).astype(dtype), requires_grad=True)
    W_I = ad.Tensor(rng.standard_normal((d, n_i)).astype(dtype), requires_grad=True)
    return W_I, W_S


def op_nodes(*roots):
    """Every op node (a tensor with parents) reachable from ``roots``."""
    seen, todo, nodes = set(), list(roots), []
    while todo:
        node = todo.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        nodes.append(node)
        todo.extend(node._parents)
    return nodes


def packed(x: np.ndarray, mask: np.ndarray | None = None):
    """(B, n, d) array -> (packed (N, d) tensor, its RowMap); no mask means
    every position is real."""
    rows = RowMap(np.ones(x.shape[:2], bool) if mask is None else mask)
    return ad.Tensor(rows.gather(x)), rows


class TestLabelAttention:
    def test_single_label_adds_its_embedding_everywhere(self, rng):
        H, _ = packed(rng.standard_normal((1, 3, 4)))
        W = ad.Tensor(rng.standard_normal((4, 1)))
        out = label_attention(H, W).data
        np.testing.assert_allclose(out, H.data + W.data[:, 0], rtol=1e-6)

    def test_output_shape(self, rng):
        H, _ = packed(rng.standard_normal((2, 5, 128)))
        W = ad.Tensor(rng.standard_normal((128, 72)))
        out = label_attention(H, W)
        assert out.shape == (10, 128)

    def test_orthogonal_states_average_the_labels(self):
        # All scores are zero, so the attention row is uniform and the
        # update equals the mean label embedding.
        H = np.zeros((1, 2, 4))
        H[0, :, 0] = [3.0, -2.0]
        W = np.zeros((4, 3))
        W[2] = [1.0, 2.0, 6.0]  # labels live in coordinates H never touches
        W[3] = [0.0, 4.0, -1.0]
        Hp, _ = packed(H)
        out = label_attention(Hp, ad.Tensor(W)).data
        np.testing.assert_allclose(out - Hp.data, np.broadcast_to(W.mean(axis=1), (2, 4)),
                                   atol=1e-7)


RAGGED = np.array([[True] * 5, [True, True, True, False, False], [True, False, False, False, False]])


def attention_inputs(rng, dtype=np.float64, dm=6):
    """Packed Q, K, V leaves over the ragged 3-sentence mask above."""
    rows = RowMap(RAGGED)
    N = len(rows.rows)
    return [ad.Tensor(rng.standard_normal((N, dm)).astype(dtype), requires_grad=True)
            for _ in range(3)], rows


class TestMultiHeadAttention:
    def test_hand_oracle_one_head(self):
        # Oracle: scores = Q K^T / sqrt(2); rows through softmax; context is
        # the weighted sum of V rows. Worked by hand with numpy below.
        Q = np.array([[1.0, 0.0], [0.0, 2.0]])
        K = np.array([[1.0, 1.0], [0.0, 1.0]])
        V = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = Q @ K.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        A = e / e.sum(axis=1, keepdims=True)
        expected = A @ V

        got = multi_head_attention(
            ad.Tensor(Q, dtype=np.float64), ad.Tensor(K, dtype=np.float64),
            ad.Tensor(V, dtype=np.float64), RowMap(np.ones((1, 2), bool)), num_heads=1,
        ).data
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_single_position_weight_is_one(self, rng):
        V = rng.standard_normal((1, 4))
        out = multi_head_attention(
            ad.Tensor(rng.standard_normal((1, 4))),
            ad.Tensor(rng.standard_normal((1, 4))),
            ad.Tensor(V), RowMap(np.ones((1, 1), bool)), num_heads=2,
        ).data
        np.testing.assert_array_equal(out, V)

    def test_masked_key_gets_zero_weight(self, rng):
        # One-hot value rows over the three real keys turn the context into
        # the attention row over them; the pad key's scattered zero row
        # scores 0, so any weight on it would leave the row short of one.
        mask = np.array([[True, True, True, False]])
        out = multi_head_attention(
            ad.Tensor(rng.standard_normal((3, 3)) - 4.0),
            ad.Tensor(rng.standard_normal((3, 3)) + 4.0),
            ad.Tensor(np.eye(3)), RowMap(mask), num_heads=1,
        ).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_weights_are_softmax_over_real_keys(self, rng):
        # The same one-hot trick: each context row must equal the softmax
        # of that query's scores over the real keys alone.
        Q = rng.standard_normal((3, 3))
        K = rng.standard_normal((3, 3))
        out = multi_head_attention(ad.Tensor(Q), ad.Tensor(K), ad.Tensor(np.eye(3)),
                                   RowMap(np.array([[True, True, True, False]])),
                                   num_heads=1).data
        ref = np.exp(Q @ K.T / np.sqrt(3.0))
        ref = ref / ref.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_weights_sum_to_one_constant_values(self, rng):
        c = rng.standard_normal(6)
        mask = np.array([[True] * 5, [True, True, True, False, False]])
        V = np.broadcast_to(c, (8, 6)).copy()
        out = multi_head_attention(
            ad.Tensor(rng.standard_normal((8, 6))),
            ad.Tensor(rng.standard_normal((8, 6))),
            ad.Tensor(V), RowMap(mask), num_heads=3,
        ).data
        np.testing.assert_allclose(out, np.broadcast_to(c, (8, 6)), atol=1e-5)

    def test_width_not_divisible_by_heads(self, rng):
        X = ad.Tensor(rng.standard_normal((2, 6)))
        with pytest.raises(ConfigError):
            multi_head_attention(X, X, X, RowMap(np.ones((1, 2), bool)), num_heads=4)

    def test_is_one_node_with_three_parents(self, rng):
        (Q, K, V), rows = attention_inputs(rng)
        out = multi_head_attention(Q, K, V, rows, num_heads=2)
        assert out._parents == (Q, K, V)

    @pytest.mark.parametrize("dropout_p", [0.0, 0.3], ids=["no_dropout", "dropout"])
    def test_matches_padded_oracle_float64(self, rng, dropout_p):
        # Outputs within 1e-12 and Q/K/V gradients within 1e-8 of the
        # composed attention on the padded layout, fed the same dropout draw.
        (Q, K, V), rows = attention_inputs(rng)
        r = rng.standard_normal(Q.shape)
        out = multi_head_attention(Q, K, V, rows, 2, dropout_p, np.random.default_rng(4))
        ad.tsum(ad.mul(out, ad.Tensor(r))).backward()

        pads = [ad.Tensor(rows.scatter(t.data), requires_grad=True) for t in (Q, K, V)]
        ref = multi_head_attention_padded(*pads, rows.mask, 2, dropout_p,
                                          np.random.default_rng(4))
        ad.tsum(ad.mul(ref, ad.Tensor(rows.scatter(r)))).backward()

        assert_close(out.data, rows.gather(ref.data), tol=1e-12)
        for t, pad in zip((Q, K, V), pads):
            assert_close(t.grad, rows.gather(pad.grad), tol=1e-8)
            # Pad rows of the oracle's inputs get no gradient either.
            assert not pad.grad[~rows.mask].any()

    @pytest.mark.parametrize("dropout_p", [-0.1, 1.0])
    def test_rejects_a_dropout_probability_outside_0_1(self, rng, dropout_p):
        # The node shares ``ad.dropout``'s keep-mask rule and its check.
        (Q, K, V), rows = attention_inputs(rng)
        with pytest.raises(ValueError, match="dropout probability"):
            multi_head_attention(Q, K, V, rows, 2, dropout_p, rng)

    def test_float32_matches_padded_oracle(self, rng):
        (Q, K, V), rows = attention_inputs(rng, dtype=np.float32)
        out = multi_head_attention(Q, K, V, rows, 2)
        ref = multi_head_attention_padded(
            *[ad.Tensor(rows.scatter(t.data)) for t in (Q, K, V)], rows.mask, 2)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.data, rows.gather(ref.data), rtol=1e-4, atol=1e-6)

    def test_gradients_match_fd_with_ragged_keys(self, rng):
        (Q, K, V), rows = attention_inputs(rng, dm=4)
        r = rng.standard_normal(Q.shape)
        ad.tsum(ad.mul(multi_head_attention(Q, K, V, rows, 2), ad.Tensor(r))).backward()
        for which, t in enumerate((Q, K, V)):
            def f(x, which=which):
                args = [Q, K, V]
                args[which] = ad.Tensor(x)
                with ad.no_grad():
                    return float((multi_head_attention(*args, rows, 2).data * r).sum())
            assert_close(t.grad, numeric_grad(f, t.data))


class TestFfnFuse:
    def layer(self, d=4):
        return InteractionLayer(d, 2, 8, AblationMode.FULL, 0.0,
                                np.random.default_rng(0), "t", dtype=np.float64)

    def test_zero_second_projection_reduces_to_layer_norm(self, rng):
        layer = self.layer()
        layer.W2.data[:] = 0.0
        layer.b2.data[:] = 0.0
        H_I, rows = packed(rng.standard_normal((1, 3, 4)))
        H_S, _ = packed(rng.standard_normal((1, 3, 4)))
        out_I, out_S = layer.ffn_fuse(H_I, H_S, rows, None)
        np.testing.assert_allclose(out_I.data, layer.ln_i_out(H_I).data, atol=1e-12)
        np.testing.assert_allclose(out_S.data, layer.ln_s_out(H_S).data, atol=1e-12)

    def test_single_token_window_pads_with_zeros(self, rng):
        # With n=1 the window is [zeros, h, zeros]; the FFN rows that read
        # the two neighbor blocks multiply zeros, so replacing them with
        # junk must not change anything. Packed, the two sentences' rows
        # sit next to each other: the edge masks must keep them apart.
        d = 4
        layer = self.layer(d)
        H_I, rows = packed(rng.standard_normal((2, 1, d)))
        H_S, _ = packed(rng.standard_normal((2, 1, d)))
        base_I, base_S = layer.ffn_fuse(H_I, H_S, rows, None)

        layer.W1.data[: 2 * d] = 999.0
        layer.W1.data[4 * d :] = -777.0
        junk_I, junk_S = layer.ffn_fuse(H_I, H_S, rows, None)
        np.testing.assert_array_equal(base_I.data, junk_I.data)
        np.testing.assert_array_equal(base_S.data, junk_S.data)

    def test_padded_neighbor_contributes_zero_like_a_boundary(self, rng):
        # The window of the last real token must look identical whether the
        # sequence is alone or, after its pad positions, the next
        # sentence's rows follow it in the packed layout.
        layer = self.layer()
        H_I = rng.standard_normal((1, 2, 4))
        H_S = rng.standard_normal((1, 2, 4))
        alone_I, rows = packed(H_I)
        alone_S, _ = packed(H_S)
        out_I, _ = layer.ffn_fuse(alone_I, alone_S, rows, None)

        mask = np.array([[True, True, False, False], [True, True, True, True]])
        more_I = np.concatenate([np.pad(H_I, ((0, 0), (0, 2), (0, 0))),
                                 rng.standard_normal((1, 4, 4))])
        more_S = np.concatenate([np.pad(H_S, ((0, 0), (0, 2), (0, 0))),
                                 rng.standard_normal((1, 4, 4))])
        both_I, rows2 = packed(more_I, mask)
        both_S, _ = packed(more_S, mask)
        out_I_pad, _ = layer.ffn_fuse(both_I, both_S, rows2, None)
        np.testing.assert_allclose(out_I_pad.data[:2], out_I.data, atol=1e-10)

    @pytest.mark.parametrize("block,offset", [(0, -1), (1, 0), (2, 1)],
                             ids=["left", "centre", "right"])
    def test_window_block_reads_its_neighbour(self, rng, block, offset):
        # Keep one 2d-row block of W1 and zero the other two: the FFN at
        # position t then sees only position t + offset, and zeros where
        # that neighbour lies beyond the sequence.
        d, n = 4, 5
        layer = self.layer(d)
        rows = slice(2 * d * block, 2 * d * (block + 1))
        kept = layer.W1.data[rows].copy()
        layer.W1.data[:] = 0.0
        layer.W1.data[rows] = kept
        H_I = rng.standard_normal((2, n, d))
        H_S = rng.standard_normal((2, n, d))
        P_I, row_map = packed(H_I)
        P_S, _ = packed(H_S)
        out_I, out_S = layer.ffn_fuse(P_I, P_S, row_map, None)

        combined = np.concatenate([H_I, H_S], axis=-1)
        neighbour = np.zeros_like(combined)
        for t in range(n):
            if 0 <= t + offset < n:
                neighbour[:, t] = combined[:, t + offset]
        hidden = np.maximum(neighbour @ kept + layer.b1.data, 0.0)
        ffn = row_map.gather(hidden @ layer.W2.data + layer.b2.data)
        expect_I = layer.ln_i_out(ad.Tensor(P_I.data + ffn)).data
        expect_S = layer.ln_s_out(ad.Tensor(P_S.data + ffn)).data
        np.testing.assert_allclose(out_I.data, expect_I, atol=1e-12)
        np.testing.assert_allclose(out_S.data, expect_S, atol=1e-12)


class TestStack:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_output_shapes_all_modes(self, mode, rng):
        stack = make_stack(mode=mode)
        W_I, W_S = label_matrices()
        H, rows = packed(rng.standard_normal((2, 3, 8)))
        out_I, out_S = stack.forward(H, W_I, W_S, rows)
        assert out_I.shape == (6, 8)
        assert out_S.shape == (6, 8)

    def test_single_layer_allowed_zero_rejected(self):
        make_stack(L=1)
        with pytest.raises(ConfigError):
            make_stack(L=0)

    def test_width_head_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            make_stack(d=6, heads=4)

    def test_intent_to_slot_only_skips_the_intent_cross_term(self, rng):
        # In this mode the intent stream's update is only LN(H_I): feed the
        # cross-attention stage directly and compare against plain layer norm.
        layer = InteractionLayer(8, 2, 16, AblationMode.INTENT_TO_SLOT_ONLY, 0.0,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        H_I, rows = packed(rng.standard_normal((1, 3, 8)))
        H_S, _ = packed(rng.standard_normal((1, 3, 8)))
        new_I, new_S = layer.cross_attention(H_I, H_S, rows, None)
        np.testing.assert_allclose(new_I.data, layer.ln_i(H_I).data, atol=1e-12)
        assert not np.allclose(new_S.data, layer.ln_s(H_S).data)

    def test_slot_to_intent_only_skips_the_slot_cross_term(self, rng):
        layer = InteractionLayer(8, 2, 16, AblationMode.SLOT_TO_INTENT_ONLY, 0.0,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        H_I, rows = packed(rng.standard_normal((1, 3, 8)))
        H_S, _ = packed(rng.standard_normal((1, 3, 8)))
        new_I, new_S = layer.cross_attention(H_I, H_S, rows, None)
        np.testing.assert_allclose(new_S.data, layer.ln_s(H_S).data, atol=1e-12)
        assert not np.allclose(new_I.data, layer.ln_i(H_I).data)

    def test_no_label_attention_modes_pass_input_through(self, rng):
        H, rows = packed(rng.standard_normal((1, 3, 8)))
        W_I, W_S = label_matrices()
        for mode, touched in [
            (AblationMode.NO_INTENT_LABEL_ATTENTION, "slot"),
            (AblationMode.NO_SLOT_LABEL_ATTENTION, "intent"),
        ]:
            layer = InteractionLayer(8, 2, 16, mode, 0.0, np.random.default_rng(0),
                                       "t", dtype=np.float64)
            # Track which stream still receives a label-attention update by
            # comparing against a full-mode twin with identical parameters.
            full = InteractionLayer(8, 2, 16, AblationMode.FULL, 0.0,
                                      np.random.default_rng(0), "t", dtype=np.float64)
            out = layer.forward(H, H, W_I, W_S, rows)
            ref = full.forward(H, H, W_I, W_S, rows)
            same = np.allclose(out[0].data, ref[0].data) and \
                np.allclose(out[1].data, ref[1].data)
            assert not same, f"{mode} behaved like the full model"

    def test_self_attention_mode_mixes_both_streams(self, rng):
        stack = make_stack(mode=AblationMode.SELF_ATTENTION)
        W_I, W_S = label_matrices()
        H, rows = packed(rng.standard_normal((2, 4, 8)))
        out_I, out_S = stack.forward(H, W_I, W_S, rows)
        assert np.isfinite(out_I.data).all()
        assert np.isfinite(out_S.data).all()
        assert not np.allclose(out_I.data, out_S.data)

    def test_padding_invariance_full_stack(self, rng):
        # The same real rows under a wider mask: only attention sees the
        # padded layout, and its extra pad keys must carry no weight.
        for mode in ALL_MODES:
            stack = make_stack(mode=mode, seed=3)
            W_I, W_S = label_matrices()
            mask = np.array([[True, True, True], [True, True, False]])
            H, rows = packed(rng.standard_normal((2, 3, 8)), mask)
            out = stack.forward(H, W_I, W_S, rows)

            mask_padded = np.concatenate([mask, np.zeros((2, 2), bool)], axis=1)
            out_pad = stack.forward(H, W_I, W_S, RowMap(mask_padded))

            for a, b in zip(out, out_pad):
                np.testing.assert_allclose(b.data, a.data, atol=1e-5, err_msg=f"mode={mode}")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_pads_are_zero_and_pad_inputs_ignored(self, mode):
        # Pad positions never enter the packed stream: the model's
        # emissions there are exactly zero, and other token ids written
        # into the pad positions change no bit of any output or of any
        # parameter gradient.
        model, batch = toy_setup(seed=3, ablation=mode.value)
        pads = ~batch.mask
        assert pads.any()
        junk = dataclasses.replace(
            batch, token_ids=np.where(pads, model.vocab.n_words - 1, batch.token_ids))
        runs = []
        for b in (batch, junk):
            for p in model.params():
                p.tensor.zero_grad()
            logits, emissions = model.forward(b.token_ids, b.mask)
            joint_loss(logits, b.intent_ids, model.crf, emissions, b.slot_ids,
                       b.mask).backward()
            grads = [None if p.tensor.grad is None else p.tensor.grad.tobytes()
                     for p in model.params()]
            runs.append((logits.data, emissions.data, grads))
        (logits, emissions, grads), (junk_logits, junk_emissions, junk_grads) = runs
        assert not emissions[pads].any()
        np.testing.assert_array_equal(junk_logits, logits)
        np.testing.assert_array_equal(junk_emissions, emissions)
        assert junk_grads == grads

    def test_sentence_without_real_tokens_rejected(self):
        with pytest.raises(ValueError, match="no real tokens"):
            RowMap(np.array([[True, True], [False, False]]))

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_no_padded_tensor_between_pack_and_unpack(self, mode):
        # From the embedding lookup to the heads, every node holds N = 7
        # packed rows (or one row per sentence, after the intent pool);
        # only the emissions the CRF reads have the padded (B, n) layout.
        B, n = 2, 5
        ref, _ = toy_setup(seed=0, ablation=mode.value)
        config = ref.config.replace(dropout=0.2, encoder_dropout=0.2)
        model = JointModel(config, ref.vocab, dtype=np.float64)
        mask = np.array([[True] * 5, [True, True, False, False, False]])
        ids = np.where(mask, 2, 0)
        logits, emissions = model.forward(ids, mask, training=True)
        assert emissions.shape[:2] == (B, n)
        inner = op_nodes(logits, emissions)
        assert len(inner) > 20
        lookup = [node for node in inner if model.encoder.embedding in node._parents]
        assert [node.shape for node in lookup] == [(7, config.embed_dim)]
        for node in inner:
            if node is not emissions:
                assert node.shape[0] != B * n and node.shape[:2] != (B, n), node

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_training_step_matmuls_are_2d(self, mode):
        # On packed rows every matmul is one 2-D GEMM; a padded activation
        # would take the batched-GEMM path and sum its weight gradient
        # over the batch.
        model, batch = toy_setup(seed=0, ablation=mode.value)
        model = JointModel(model.config.replace(dropout=0.2, encoder_dropout=0.2),
                           model.vocab, dtype=np.float64)
        matmuls = [node for node in op_nodes(model.loss(batch, training=True))
                   if node._backward.__qualname__.startswith("matmul.")]
        assert matmuls
        for node in matmuls:
            assert [p.ndim for p in node._parents] == [2, 2], node

    def test_intent_stream_ignores_unused_direction_parameters(self, rng):
        # The slot-to-intent projections exist but are never evaluated in
        # intent_to_slot_only mode; scrambling them must change nothing.
        stack = make_stack(mode=AblationMode.INTENT_TO_SLOT_ONLY, seed=5)
        W_I, W_S = label_matrices()
        H, rows = packed(rng.standard_normal((2, 3, 8)))
        base_I, base_S = stack.forward(H, W_I, W_S, rows)

        for layer in stack.layers:
            for key in ("q_i", "k_s", "v_s"):
                layer._weights[key].data[:] = rng.standard_normal((8, 8))
        pert_I, pert_S = stack.forward(H, W_I, W_S, rows)

        np.testing.assert_array_equal(base_I.data, pert_I.data)
        np.testing.assert_array_equal(base_S.data, pert_S.data)


class TestPackedDropout:
    """Every packed dropout draws its keep mask at the packed (N, k) shape,
    so trailing pad columns change no draw and no bit of the output."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trailing_pads_change_nothing_in_training(self, dtype):
        ref, batch = toy_setup(seed=0)
        model = JointModel(ref.config.replace(dropout=0.3, encoder_dropout=0.3), ref.vocab,
                           dtype=dtype)
        layer = model.stack.layers[0]
        wide = ((0, 0), (0, 3))
        runs = []
        for ids, mask in ((batch.token_ids, batch.mask),
                          (np.pad(batch.token_ids, wide), np.pad(batch.mask, wide))):
            rows, rng = RowMap(mask), np.random.default_rng(11)
            H = model.encoder.encode(ids, rows, rng)
            out_I, out_S = layer.ffn_fuse(H, H, rows, rng)
            runs.append(([H.data, out_I.data, out_S.data], rng.bit_generator.state))
        (outs, state), (wide_outs, wide_state) = runs
        for a, b in zip(outs, wide_outs):
            np.testing.assert_array_equal(b, a)
        assert wide_state == state
        with ad.no_grad():
            H_eval = model.encoder.encode(batch.token_ids, RowMap(batch.mask))
        assert not np.array_equal(H_eval.data, outs[0])


class TestGradients:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_random_parameter_coordinates_match_fd(self, mode):
        # Spot check ~8 coordinates of every parameter tensor per mode; the
        # exhaustive sweep runs in the full-model gradient suite.
        stack = make_stack(d=4, heads=2, ffn=8, L=2, mode=mode, seed=7)
        W_I, W_S = label_matrices(d=4, n_s=3, n_i=2, seed=8)
        rng = np.random.default_rng(9)
        mask = np.array([[True, True, True], [True, True, False]])
        H, rows = packed(rng.standard_normal((2, 3, 4)), mask)
        r_I = rng.standard_normal((5, 4))
        r_S = rng.standard_normal((5, 4))

        def loss_tensor():
            out_I, out_S = stack.forward(H, W_I, W_S, rows)
            return ad.add(ad.tsum(ad.mul(out_I, ad.Tensor(r_I))),
                          ad.tsum(ad.mul(out_S, ad.Tensor(r_S))))

        loss = loss_tensor()
        loss.backward()

        params = stack.params() + [("W_I", W_I), ("W_S", W_S)]
        for entry in params:
            name, tensor = (entry.name, entry.tensor) if hasattr(entry, "name") else entry
            flat = tensor.data.reshape(-1)
            # Parameters outside the active wiring never receive a gradient.
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            gflat = grad.reshape(-1)
            coords = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for i in coords:
                orig = flat[i]

                def fd_at(step):
                    flat[i] = orig + step
                    with ad.no_grad():
                        fp = loss_tensor().item()
                    flat[i] = orig - step
                    with ad.no_grad():
                        fm = loss_tensor().item()
                    flat[i] = orig
                    return (fp - fm) / (2 * step)

                fd = fd_at(1e-3)
                if abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])) > 1e-4:
                    # A relu kink inside the step window biases the central
                    # difference; a genuinely wrong gradient stays wrong at
                    # any step size, so retry closer in.
                    fd = fd_at(1e-5)
                denom = max(1.0, abs(fd), abs(gflat[i]))
                assert abs(fd - gflat[i]) / denom <= 1e-4, \
                    f"{mode} {name}[{i}]: analytic {gflat[i]:.6e} vs fd {fd:.6e}"
