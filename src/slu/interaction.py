"""Stacked interaction block relating the intent and slot streams.

Each layer runs three stages:

1. Label attention per stream: attention over the tied decoder label
   embeddings folds explicit label information into the hidden states.
2. Bidirectional cross-attention: the slot stream queries the intent stream
   and vice versa, each followed by a residual and layer norm.
3. Window fusion: the two streams are concatenated, each token gathers its
   [t-1, t, t+1] neighborhood, and one shared feed-forward projects that
   window back to width d; the result is added to both residuals.

Ablation modes rewire individual stages so each connection's contribution
can be measured in isolation.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import AblationMode, ConfigError
from .encoder import uniform_init
from .optim import Param


def label_attention(H: Tensor, W: Tensor, mask: np.ndarray,
                    dropout_p: float = 0.0,
                    rng: np.random.Generator | None = None,
                    training: bool = False) -> Tensor:
    """Fold label embeddings into hidden states: H + softmax(H W) W^T.

    ``W`` is the tied d x |labels| decoder matrix; the attention weight of
    each position distributes over the label axis. Masked positions pass
    through unchanged.
    """
    A = ad.softmax(ad.matmul(H, W), axis=-1)
    A = ad.dropout(A, dropout_p, rng, training)
    update = ad.matmul(A, ad.transpose(W, (1, 0)))
    out = ad.add(H, update)
    return ad.where(mask[:, :, None], out, H)


def multi_head_attention(Q: Tensor, K: Tensor, V: Tensor, key_mask: np.ndarray,
                         num_heads: int, dropout_p: float = 0.0,
                         rng: np.random.Generator | None = None,
                         training: bool = False) -> Tensor:
    """Scaled dot-product attention with head splitting and a key-side mask.

    Inputs are (B, n, dm) projections; heads are split from dm, attended
    independently, and concatenated back. No output projection. The
    1/sqrt(dk) scale is a Python float, so it takes the scores' dtype and
    a float32 model stays float32.
    """
    B, n, dm = Q.data.shape
    if dm % num_heads != 0:
        raise ConfigError(f"model width {dm} is not divisible by {num_heads} heads")
    dk = dm // num_heads

    def split(x: Tensor) -> Tensor:
        return ad.transpose(ad.reshape(x, (B, n, num_heads, dk)), (0, 2, 1, 3))

    q, k, v = split(Q), split(K), split(V)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    A = ad.softmax(scores, axis=-1, mask=key_mask[:, None, None, :])
    A = ad.dropout(A, dropout_p, rng, training)
    ctx = ad.matmul(A, v)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (B, n, dm))


class _LayerNormParams:
    def __init__(self, width: int, name: str, dtype):
        self.gamma = Tensor(np.ones(width, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(width, dtype=dtype), requires_grad=True)
        self.name = name

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)

    def params(self) -> list[Param]:
        return [
            Param(f"{self.name}.gamma", self.gamma, decay=False),
            Param(f"{self.name}.beta", self.beta, decay=False),
        ]


class InteractionLayer:
    """One interaction block; parameter set depends on the ablation mode."""

    def __init__(self, d: int, num_heads: int, ffn_dim: int, mode: AblationMode,
                 rng: np.random.Generator, name: str, dtype=np.float32):
        if d % num_heads != 0:
            raise ConfigError(f"hidden_dim {d} is not divisible by num_heads {num_heads}")
        self.d = d
        self.num_heads = num_heads
        self.mode = mode
        self.name = name
        bound = 1.0 / np.sqrt(d)

        def weight(shape):
            return Tensor(uniform_init(rng, shape, bound, dtype), requires_grad=True)

        self._weights: dict[str, Tensor] = {}
        if mode == AblationMode.SELF_ATTENTION:
            # Single-stream attention over the 2d concatenation of both streams.
            for key in ("self_q", "self_k", "self_v"):
                self._weights[key] = weight((2 * d, 2 * d))
            self.ln_self = _LayerNormParams(2 * d, f"{name}.ln_self", dtype)
            self.ln_s = self.ln_i = None
        else:
            # Both direction's projections always exist so single-direction
            # modes differ from the full model only in wiring, not in the
            # parameter inventory: q_s/k_i/v_i feed intent info into the
            # slot stream, q_i/k_s/v_s feed slot info into the intent stream.
            for key in ("q_s", "k_i", "v_i", "q_i", "k_s", "v_s"):
                self._weights[key] = weight((d, d))
            self.ln_s = _LayerNormParams(d, f"{name}.ln_s", dtype)
            self.ln_i = _LayerNormParams(d, f"{name}.ln_i", dtype)
            self.ln_self = None

        ffn_in = 6 * d  # three window positions, each 2d wide
        self.W1 = Tensor(uniform_init(rng, (ffn_in, ffn_dim), 1.0 / np.sqrt(ffn_in), dtype),
                         requires_grad=True)
        self.b1 = Tensor(np.zeros(ffn_dim, dtype=dtype), requires_grad=True)
        self.W2 = Tensor(uniform_init(rng, (ffn_dim, d), 1.0 / np.sqrt(ffn_dim), dtype),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        self.ln_s_out = _LayerNormParams(d, f"{name}.ln_s_out", dtype)
        self.ln_i_out = _LayerNormParams(d, f"{name}.ln_i_out", dtype)

    def params(self) -> list[Param]:
        out = [Param(f"{self.name}.{k}", w, decay=True) for k, w in self._weights.items()]
        for ln in (self.ln_self, self.ln_s, self.ln_i):
            if ln is not None:
                out.extend(ln.params())
        out.extend([
            Param(f"{self.name}.W1", self.W1, decay=True),
            Param(f"{self.name}.b1", self.b1, decay=False),
            Param(f"{self.name}.W2", self.W2, decay=True),
            Param(f"{self.name}.b2", self.b2, decay=False),
        ])
        out.extend(self.ln_s_out.params())
        out.extend(self.ln_i_out.params())
        return out

    def cross_attention(self, H_I: Tensor, H_S: Tensor, mask: np.ndarray,
                         dropout_p, rng, training) -> tuple[Tensor, Tensor]:
        w = self._weights
        mode = self.mode
        if mode == AblationMode.SELF_ATTENTION:
            X = ad.concat([H_S, H_I], axis=-1)
            ctx = multi_head_attention(
                ad.matmul(X, w["self_q"]), ad.matmul(X, w["self_k"]),
                ad.matmul(X, w["self_v"]), mask, self.num_heads,
                dropout_p, rng, training,
            )
            fused = self.ln_self(ad.add(X, ctx))
            d = self.d
            return fused[..., d:], fused[..., :d]

        if mode != AblationMode.SLOT_TO_INTENT_ONLY:
            C_S = multi_head_attention(
                ad.matmul(H_S, w["q_s"]), ad.matmul(H_I, w["k_i"]),
                ad.matmul(H_I, w["v_i"]), mask, self.num_heads,
                dropout_p, rng, training,
            )
            new_S = self.ln_s(ad.add(H_S, C_S))
        else:
            new_S = self.ln_s(H_S)
        if mode != AblationMode.INTENT_TO_SLOT_ONLY:
            C_I = multi_head_attention(
                ad.matmul(H_I, w["q_i"]), ad.matmul(H_S, w["k_s"]),
                ad.matmul(H_S, w["v_s"]), mask, self.num_heads,
                dropout_p, rng, training,
            )
            new_I = self.ln_i(ad.add(H_I, C_I))
        else:
            new_I = self.ln_i(H_I)
        return new_I, new_S

    def ffn_fuse(self, H_I: Tensor, H_S: Tensor, mask: np.ndarray,
                  dropout_p, rng, training) -> tuple[Tensor, Tensor]:
        combined = ad.concat([H_I, H_S], axis=-1)  # (B, n, 2d)
        B, n, width = combined.shape
        # Zero padded positions so windows never read pad garbage; beyond-
        # boundary neighbors read the zero edges added on either side.
        combined = ad.where(mask[:, :, None], combined, 0.0)
        edge = ad.Tensor(np.zeros((B, 1, width), dtype=combined.dtype))
        padded = ad.concat([edge, combined, edge], axis=1)  # (B, n + 2, 2d)
        window = ad.concat([padded[:, :n], combined, padded[:, 2:]], axis=-1)  # (B, n, 6d)
        del padded  # without a graph to hold it, free it before the FFN GEMMs
        hidden = ad.relu(ad.add(ad.matmul(window, self.W1), self.b1))
        ffn = ad.add(ad.matmul(hidden, self.W2), self.b2)
        ffn = ad.dropout(ffn, dropout_p, rng, training)
        out_I = self.ln_i_out(ad.add(H_I, ffn))
        out_S = self.ln_s_out(ad.add(H_S, ffn))
        return out_I, out_S

    def forward(self, in_I: Tensor, in_S: Tensor, W_I: Tensor, W_S: Tensor,
                mask: np.ndarray, dropout_p: float = 0.0,
                rng: np.random.Generator | None = None,
                training: bool = False) -> tuple[Tensor, Tensor]:
        if self.mode == AblationMode.NO_INTENT_LABEL_ATTENTION:
            H_I = in_I
        else:
            H_I = label_attention(in_I, W_I, mask, dropout_p, rng, training)
        if self.mode == AblationMode.NO_SLOT_LABEL_ATTENTION:
            H_S = in_S
        else:
            H_S = label_attention(in_S, W_S, mask, dropout_p, rng, training)
        H_I, H_S = self.cross_attention(H_I, H_S, mask, dropout_p, rng, training)
        return self.ffn_fuse(H_I, H_S, mask, dropout_p, rng, training)


class InteractionStack:
    """L independent layers; the first consumes the encoder output twice."""

    def __init__(self, d: int, num_heads: int, ffn_dim: int, num_layers: int,
                 mode: AblationMode, rng: np.random.Generator, dtype=np.float32):
        if num_layers < 1:
            raise ConfigError(f"num_layers must be at least 1, got {num_layers}")
        self.layers = [
            InteractionLayer(d, num_heads, ffn_dim, mode, rng, f"interact.{i}", dtype)
            for i in range(num_layers)
        ]

    def params(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, H: Tensor, W_I: Tensor, W_S: Tensor, mask: np.ndarray,
                dropout_p: float = 0.0, rng: np.random.Generator | None = None,
                training: bool = False) -> tuple[Tensor, Tensor]:
        cur_I, cur_S = H, H
        for layer in self.layers:
            cur_I, cur_S = layer.forward(
                cur_I, cur_S, W_I, W_S, mask, dropout_p, rng, training
            )
        return cur_I, cur_S
