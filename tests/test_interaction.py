"""Interaction block tests: stage-level oracles, ablation wiring,
masking invariance, and gradient spot checks."""

import numpy as np
import pytest

from slu import autodiff as ad
from slu.interaction import (
    InteractionLayer,
    InteractionStack,
    label_attention,
    multi_head_attention,
)
from slu.config import AblationMode, ConfigError

from helpers import assert_close, numeric_grad

ALL_MODES = list(AblationMode)


def make_stack(d=8, heads=2, ffn=16, L=2, mode=AblationMode.FULL, seed=0,
               dtype=np.float64):
    return InteractionStack(d, heads, ffn, L, mode, np.random.default_rng(seed),
                              dtype=dtype)


def label_matrices(d=8, n_s=4, n_i=3, seed=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    W_S = ad.Tensor(rng.standard_normal((d, n_s)).astype(dtype), requires_grad=True)
    W_I = ad.Tensor(rng.standard_normal((d, n_i)).astype(dtype), requires_grad=True)
    return W_I, W_S


class TestLabelAttention:
    def test_single_label_adds_its_embedding_everywhere(self, rng):
        H = ad.Tensor(rng.standard_normal((1, 3, 4)))
        W = ad.Tensor(rng.standard_normal((4, 1)))
        mask = np.ones((1, 3), bool)
        out = label_attention(H, W, mask).data
        np.testing.assert_allclose(out, H.data + W.data[:, 0], rtol=1e-6)

    def test_output_shape(self, rng):
        H = ad.Tensor(rng.standard_normal((2, 5, 128)))
        W = ad.Tensor(rng.standard_normal((128, 72)))
        out = label_attention(H, W, np.ones((2, 5), bool))
        assert out.shape == (2, 5, 128)

    def test_orthogonal_states_average_the_labels(self):
        # All scores are zero, so the attention row is uniform and the
        # update equals the mean label embedding.
        H = np.zeros((1, 2, 4))
        H[0, :, 0] = [3.0, -2.0]
        W = np.zeros((4, 3))
        W[2] = [1.0, 2.0, 6.0]  # labels live in coordinates H never touches
        W[3] = [0.0, 4.0, -1.0]
        out = label_attention(ad.Tensor(H), ad.Tensor(W), np.ones((1, 2), bool)).data
        np.testing.assert_allclose(out - H, np.broadcast_to(W.mean(axis=1), (1, 2, 4)),
                                   atol=1e-7)

    def test_masked_positions_pass_through(self, rng):
        H = ad.Tensor(rng.standard_normal((1, 3, 4)))
        W = ad.Tensor(rng.standard_normal((4, 5)))
        mask = np.array([[True, False, True]])
        out = label_attention(H, W, mask).data
        np.testing.assert_array_equal(out[0, 1], H.data[0, 1])
        assert not np.allclose(out[0, 0], H.data[0, 0])


class TestMultiHeadAttention:
    def test_hand_oracle_one_head(self):
        # Oracle: scores = Q K^T / sqrt(2); rows through softmax; context is
        # the weighted sum of V rows. Worked by hand with numpy below.
        Q = np.array([[[1.0, 0.0], [0.0, 2.0]]])
        K = np.array([[[1.0, 1.0], [0.0, 1.0]]])
        V = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        scores = Q[0] @ K[0].T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        A = e / e.sum(axis=1, keepdims=True)
        expected = A @ V[0]

        got = multi_head_attention(
            ad.Tensor(Q, dtype=np.float64), ad.Tensor(K, dtype=np.float64),
            ad.Tensor(V, dtype=np.float64), np.ones((1, 2), bool), num_heads=1,
        ).data
        np.testing.assert_allclose(got[0], expected, atol=1e-6)

    def test_single_position_weight_is_one(self, rng):
        V = rng.standard_normal((1, 1, 4))
        out = multi_head_attention(
            ad.Tensor(rng.standard_normal((1, 1, 4))),
            ad.Tensor(rng.standard_normal((1, 1, 4))),
            ad.Tensor(V), np.ones((1, 1), bool), num_heads=2,
        ).data
        np.testing.assert_array_equal(out, V)

    def test_masked_key_gets_zero_weight(self, rng):
        n = 4
        # One-hot value rows turn the context into the attention row itself.
        V = np.eye(n)[None, :, :].astype(np.float64)
        mask = np.array([[True, True, False, True]])
        out = multi_head_attention(
            ad.Tensor(rng.standard_normal((1, n, n))),
            ad.Tensor(rng.standard_normal((1, n, n))),
            ad.Tensor(V), mask, num_heads=1,
        ).data
        np.testing.assert_array_equal(out[0, :, 2], 0.0)

    def test_weights_sum_to_one_constant_values(self, rng):
        c = rng.standard_normal(6)
        V = np.broadcast_to(c, (2, 5, 6)).copy()
        out = multi_head_attention(
            ad.Tensor(rng.standard_normal((2, 5, 6))),
            ad.Tensor(rng.standard_normal((2, 5, 6))),
            ad.Tensor(V),
            np.array([[True] * 5, [True, True, True, False, False]]),
            num_heads=3,
        ).data
        np.testing.assert_allclose(out, np.broadcast_to(c, (2, 5, 6)), atol=1e-5)

    def test_width_not_divisible_by_heads(self, rng):
        X = ad.Tensor(rng.standard_normal((1, 2, 6)))
        with pytest.raises(ConfigError):
            multi_head_attention(X, X, X, np.ones((1, 2), bool), num_heads=4)


class TestFfnFuse:
    def test_zero_second_projection_reduces_to_layer_norm(self, rng):
        layer = InteractionLayer(4, 2, 8, AblationMode.FULL,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        layer.W2.data[:] = 0.0
        layer.b2.data[:] = 0.0
        H_I = ad.Tensor(rng.standard_normal((1, 3, 4)))
        H_S = ad.Tensor(rng.standard_normal((1, 3, 4)))
        out_I, out_S = layer.ffn_fuse(H_I, H_S, np.ones((1, 3), bool), 0.0, None, False)
        np.testing.assert_allclose(out_I.data, layer.ln_i_out(H_I).data, atol=1e-12)
        np.testing.assert_allclose(out_S.data, layer.ln_s_out(H_S).data, atol=1e-12)

    def test_single_token_window_pads_with_zeros(self, rng):
        # With n=1 the window is [zeros, h, zeros]; the FFN rows that read
        # the two neighbor blocks multiply zeros, so replacing them with
        # junk must not change anything.
        d = 4
        layer = InteractionLayer(d, 2, 8, AblationMode.FULL,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        H_I = ad.Tensor(rng.standard_normal((2, 1, d)))
        H_S = ad.Tensor(rng.standard_normal((2, 1, d)))
        mask = np.ones((2, 1), bool)
        base_I, base_S = layer.ffn_fuse(H_I, H_S, mask, 0.0, None, False)

        layer.W1.data[: 2 * d] = 999.0
        layer.W1.data[4 * d :] = -777.0
        junk_I, junk_S = layer.ffn_fuse(H_I, H_S, mask, 0.0, None, False)
        np.testing.assert_array_equal(base_I.data, junk_I.data)
        np.testing.assert_array_equal(base_S.data, junk_S.data)

    def test_padded_neighbor_contributes_zero_like_a_boundary(self, rng):
        # The window of the last real token must look identical whether the
        # sequence simply ends there or pad positions follow it.
        layer = InteractionLayer(4, 2, 8, AblationMode.FULL,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        H_I = rng.standard_normal((1, 2, 4))
        H_S = rng.standard_normal((1, 2, 4))
        out_I, _ = layer.ffn_fuse(ad.Tensor(H_I), ad.Tensor(H_S),
                                  np.ones((1, 2), bool), 0.0, None, False)

        H_I_pad = np.concatenate([H_I, rng.standard_normal((1, 2, 4))], axis=1)
        H_S_pad = np.concatenate([H_S, rng.standard_normal((1, 2, 4))], axis=1)
        mask = np.array([[True, True, False, False]])
        out_I_pad, _ = layer.ffn_fuse(ad.Tensor(H_I_pad), ad.Tensor(H_S_pad),
                                      mask, 0.0, None, False)
        np.testing.assert_allclose(out_I_pad.data[:, :2], out_I.data, atol=1e-10)

    @pytest.mark.parametrize("block,offset", [(0, -1), (1, 0), (2, 1)],
                             ids=["left", "centre", "right"])
    def test_window_block_reads_its_neighbour(self, rng, block, offset):
        # Keep one 2d-row block of W1 and zero the other two: the FFN at
        # position t then sees only position t + offset, and zeros where
        # that neighbour lies beyond the sequence.
        d, n = 4, 5
        layer = InteractionLayer(d, 2, 8, AblationMode.FULL,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        rows = slice(2 * d * block, 2 * d * (block + 1))
        kept = layer.W1.data[rows].copy()
        layer.W1.data[:] = 0.0
        layer.W1.data[rows] = kept
        H_I = rng.standard_normal((2, n, d))
        H_S = rng.standard_normal((2, n, d))
        out_I, out_S = layer.ffn_fuse(ad.Tensor(H_I), ad.Tensor(H_S),
                                      np.ones((2, n), bool), 0.0, None, False)

        combined = np.concatenate([H_I, H_S], axis=-1)
        neighbour = np.zeros_like(combined)
        for t in range(n):
            if 0 <= t + offset < n:
                neighbour[:, t] = combined[:, t + offset]
        hidden = np.maximum(neighbour @ kept + layer.b1.data, 0.0)
        ffn = hidden @ layer.W2.data + layer.b2.data
        expect_I = layer.ln_i_out(ad.Tensor(H_I + ffn)).data
        expect_S = layer.ln_s_out(ad.Tensor(H_S + ffn)).data
        np.testing.assert_allclose(out_I.data, expect_I, atol=1e-12)
        np.testing.assert_allclose(out_S.data, expect_S, atol=1e-12)


class TestStack:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_output_shapes_all_modes(self, mode, rng):
        stack = make_stack(mode=mode)
        W_I, W_S = label_matrices()
        H = ad.Tensor(rng.standard_normal((2, 3, 8)))
        out_I, out_S = stack.forward(H, W_I, W_S, np.ones((2, 3), bool))
        assert out_I.shape == (2, 3, 8)
        assert out_S.shape == (2, 3, 8)

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
        layer = InteractionLayer(8, 2, 16, AblationMode.INTENT_TO_SLOT_ONLY,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        H_I = ad.Tensor(rng.standard_normal((1, 3, 8)))
        H_S = ad.Tensor(rng.standard_normal((1, 3, 8)))
        new_I, new_S = layer.cross_attention(H_I, H_S, np.ones((1, 3), bool),
                                             0.0, None, False)
        np.testing.assert_allclose(new_I.data, layer.ln_i(H_I).data, atol=1e-12)
        assert not np.allclose(new_S.data, layer.ln_s(H_S).data)

    def test_slot_to_intent_only_skips_the_slot_cross_term(self, rng):
        layer = InteractionLayer(8, 2, 16, AblationMode.SLOT_TO_INTENT_ONLY,
                                   np.random.default_rng(0), "t", dtype=np.float64)
        H_I = ad.Tensor(rng.standard_normal((1, 3, 8)))
        H_S = ad.Tensor(rng.standard_normal((1, 3, 8)))
        new_I, new_S = layer.cross_attention(H_I, H_S, np.ones((1, 3), bool),
                                             0.0, None, False)
        np.testing.assert_allclose(new_S.data, layer.ln_s(H_S).data, atol=1e-12)
        assert not np.allclose(new_I.data, layer.ln_i(H_I).data)

    def test_no_label_attention_modes_pass_input_through(self, rng):
        H = ad.Tensor(rng.standard_normal((1, 3, 8)))
        W_I, W_S = label_matrices()
        mask = np.ones((1, 3), bool)
        for mode, touched in [
            (AblationMode.NO_INTENT_LABEL_ATTENTION, "slot"),
            (AblationMode.NO_SLOT_LABEL_ATTENTION, "intent"),
        ]:
            layer = InteractionLayer(8, 2, 16, mode, np.random.default_rng(0),
                                       "t", dtype=np.float64)
            # Track which stream still receives a label-attention update by
            # comparing against a full-mode twin with identical parameters.
            full = InteractionLayer(8, 2, 16, AblationMode.FULL,
                                      np.random.default_rng(0), "t", dtype=np.float64)
            out = layer.forward(H, H, W_I, W_S, mask)
            ref = full.forward(H, H, W_I, W_S, mask)
            same = np.allclose(out[0].data, ref[0].data) and \
                np.allclose(out[1].data, ref[1].data)
            assert not same, f"{mode} behaved like the full model"

    def test_self_attention_mode_mixes_both_streams(self, rng):
        stack = make_stack(mode=AblationMode.SELF_ATTENTION)
        W_I, W_S = label_matrices()
        H = ad.Tensor(rng.standard_normal((2, 4, 8)))
        out_I, out_S = stack.forward(H, W_I, W_S, np.ones((2, 4), bool))
        assert np.isfinite(out_I.data).all()
        assert np.isfinite(out_S.data).all()
        assert not np.allclose(out_I.data, out_S.data)

    def test_padding_invariance_full_stack(self, rng):
        for mode in ALL_MODES:
            stack = make_stack(mode=mode, seed=3)
            W_I, W_S = label_matrices()
            H_real = rng.standard_normal((2, 3, 8))
            mask = np.array([[True, True, True], [True, True, False]])
            H_real[1, 2] = 0.0  # encoder zeroes pad positions
            out = stack.forward(ad.Tensor(H_real), W_I, W_S, mask)

            pad = np.zeros((2, 2, 8))
            H_padded = np.concatenate([H_real, pad], axis=1)
            mask_padded = np.concatenate([mask, np.zeros((2, 2), bool)], axis=1)
            out_pad = stack.forward(ad.Tensor(H_padded), W_I, W_S, mask_padded)

            for a, b in zip(out, out_pad):
                np.testing.assert_allclose(
                    np.where(mask[:, :, None], b.data[:, :3], 0.0),
                    np.where(mask[:, :, None], a.data, 0.0),
                    atol=1e-5, err_msg=f"mode={mode}",
                )

    def test_intent_stream_ignores_unused_direction_parameters(self, rng):
        # The slot-to-intent projections exist but are never evaluated in
        # intent_to_slot_only mode; scrambling them must change nothing.
        stack = make_stack(mode=AblationMode.INTENT_TO_SLOT_ONLY, seed=5)
        W_I, W_S = label_matrices()
        H = ad.Tensor(rng.standard_normal((2, 3, 8)))
        mask = np.ones((2, 3), bool)
        base_I, base_S = stack.forward(H, W_I, W_S, mask)

        for layer in stack.layers:
            for key in ("q_i", "k_s", "v_s"):
                layer._weights[key].data[:] = rng.standard_normal((8, 8))
        pert_I, pert_S = stack.forward(H, W_I, W_S, mask)

        np.testing.assert_array_equal(base_I.data, pert_I.data)
        np.testing.assert_array_equal(base_S.data, pert_S.data)


class TestGradients:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_random_parameter_coordinates_match_fd(self, mode):
        # Spot check ~8 coordinates of every parameter tensor per mode; the
        # exhaustive sweep runs in the full-model gradient suite.
        stack = make_stack(d=4, heads=2, ffn=8, L=2, mode=mode, seed=7)
        W_I, W_S = label_matrices(d=4, n_s=3, n_i=2, seed=8)
        rng = np.random.default_rng(9)
        H = ad.Tensor(rng.standard_normal((2, 3, 4)))
        mask = np.array([[True, True, True], [True, True, False]])
        r_I = rng.standard_normal((2, 3, 4))
        r_S = rng.standard_normal((2, 3, 4))

        def loss_tensor():
            out_I, out_S = stack.forward(H, W_I, W_S, mask)
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
