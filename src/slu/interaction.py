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

Packed layout: every stage is position-wise except attention, so the stack
never computes on pad positions. ``InteractionStack.forward`` takes the
encoder's packed ``(N, d)`` rows (sentence after sentence, N real tokens in
all, placed by the batch's ``RowMap``) and returns both streams in that
layout, as ByteTransformer's padding-free transformer does (Zhai et al.,
arXiv 2210.03052). The window FFN reads a row's sentence neighbours from
the rows just above and below it, zeroed by the row map's edge masks where
the sentence ends. ``multi_head_attention`` is one graph node and the only
stage that sees the padded layout: it scatters its packed inputs into
``(B, h, n, dk)`` heads, masks the pad keys once and gathers the real rows
of its result. Every dropout draws its keep mask at the padded shape and
keeps the real rows, so a seed draws the same masks as it would over the
padded batch.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import AblationMode, ConfigError
from .data import RowMap
from .encoder import uniform_init
from .optim import Param


def label_attention(H: Tensor, W: Tensor, rows: RowMap,
                    dropout_p: float = 0.0,
                    rng: np.random.Generator | None = None,
                    training: bool = False) -> Tensor:
    """Fold label embeddings into packed states: H + softmax(H W) W^T.

    ``W`` is the tied d x |labels| decoder matrix; the attention weight of
    each row distributes over the label axis.
    """
    A = ad.softmax(ad.matmul(H, W))
    A = ad.dropout(A, dropout_p, rng, training, pad_mask=rows.mask)
    return ad.add(H, ad.matmul(A, ad.transpose(W, (1, 0))))


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims: a running ``np.maximum`` over its
    columns, bit-equal to ``np.max`` (a NaN propagates) and several times
    faster for the short key axis of attention scores."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def multi_head_attention(Q: Tensor, K: Tensor, V: Tensor, rows: RowMap,
                         num_heads: int, dropout_p: float = 0.0,
                         rng: np.random.Generator | None = None,
                         training: bool = False) -> Tensor:
    """Scaled dot-product attention over packed (N, dm) rows, as one node.

    Heads are split from dm, attended independently within each sentence
    and concatenated back; no output projection. The forward scatters the
    rows into zero-padded (B, h, n, dk) heads, forms the scores with one
    product, masks the pad keys with one broadcast add of a (B, 1, 1, n)
    0/-inf bias, then runs softmax, dropout (a keep mask drawn at the
    (B, h, n, n) shape) and the context product, and gathers the real
    rows. The backward forms dV, then the gradient of the weights, then
    the softmax backward A * (dA - sum(dA * A)) times the scale, then dQ
    and dK: FlashAttention's fused forward and backward (Dao et al., arXiv
    2205.14135) without the tiling. The softmax's row max is a running
    maximum over the key columns and its row sums, forward and backward,
    are GEMVs, because numpy's reductions over a short last axis are
    slow. The 1/sqrt(dk) scale is a Python float, so a float32 model
    stays float32.
    """
    dm = Q.shape[-1]
    if dm % num_heads != 0:
        raise ConfigError(f"model width {dm} is not divisible by {num_heads} heads")
    dk = dm // num_heads
    B, n = rows.mask.shape
    scale = 1.0 / math.sqrt(dk)

    def heads(x: np.ndarray) -> np.ndarray:  # (N, dm) -> (B, h, n, dk)
        return rows.scatter(x).reshape(B, n, num_heads, dk).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (B, h, n, dk) -> (N, dm)
        return rows.gather(x.transpose(0, 2, 1, 3).reshape(B, n, dm))

    q, k, v = heads(Q.data), heads(K.data), heads(V.data)
    A = q @ k.swapaxes(-1, -2)
    A *= scale
    A += np.where(rows.mask, 0.0, -np.inf).astype(A.dtype)[:, None, None, :]
    A -= _row_max(A)
    np.exp(A, out=A)
    A /= ad._row_sum(A)
    keep = None
    if training and dropout_p > 0.0:
        keep = (rng.random(A.shape) >= dropout_p).astype(A.dtype) * (1.0 / (1.0 - dropout_p))
    A_used = A if keep is None else A * keep
    out = merge(A_used @ v)

    def backward(g):
        G = heads(g)
        dV = merge(A_used.swapaxes(-1, -2) @ G)
        dA = G @ v.swapaxes(-1, -2)
        if keep is not None:
            dA *= keep
        dA -= ad._row_sum(dA * A)
        dA *= A
        dA *= scale
        return merge(dA @ k), merge(dA.swapaxes(-1, -2) @ q), dV

    return ad._make_node(out, (Q, K, V), backward)


def window(H_I: Tensor, H_S: Tensor, rows: RowMap) -> Tensor:
    """Each packed row's [x_{t-1}, x_t, x_{t+1}] window, x = [H_I, H_S].

    (N, d) streams -> (N, 6d). The neighbour blocks are the rows shifted
    by one, times the row map's edge masks, so a neighbour beyond the
    sentence reads zeros.
    """
    d = H_I.shape[-1]
    w = np.empty((H_I.shape[0], 6 * d), dtype=H_I.dtype)
    x = w[:, 2 * d:4 * d]
    x[:, :d] = H_I.data
    x[:, d:] = H_S.data
    w[:1, :2 * d] = 0.0
    np.multiply(x[:-1], rows.left[1:], out=w[1:, :2 * d])
    w[-1:, 4 * d:] = 0.0
    np.multiply(x[1:], rows.right[:-1], out=w[:-1, 4 * d:])

    def backward(g):
        dx = g[:, 2 * d:4 * d].copy()
        dx[:-1] += g[1:, :2 * d] * rows.left[1:]
        dx[1:] += g[:-1, 4 * d:] * rows.right[:-1]
        return dx[:, :d], dx[:, d:]

    return ad._make_node(w, (H_I, H_S), backward)


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

    def cross_attention(self, H_I: Tensor, H_S: Tensor, rows: RowMap,
                        dropout_p, rng, training) -> tuple[Tensor, Tensor]:
        w = self._weights
        mode = self.mode
        if mode == AblationMode.SELF_ATTENTION:
            X = ad.concat([H_S, H_I], axis=-1)
            ctx = multi_head_attention(
                ad.matmul(X, w["self_q"]), ad.matmul(X, w["self_k"]),
                ad.matmul(X, w["self_v"]), rows, self.num_heads,
                dropout_p, rng, training,
            )
            fused = self.ln_self(ad.add(X, ctx))
            d = self.d
            return fused[..., d:], fused[..., :d]

        if mode != AblationMode.SLOT_TO_INTENT_ONLY:
            C_S = multi_head_attention(
                ad.matmul(H_S, w["q_s"]), ad.matmul(H_I, w["k_i"]),
                ad.matmul(H_I, w["v_i"]), rows, self.num_heads,
                dropout_p, rng, training,
            )
            new_S = self.ln_s(ad.add(H_S, C_S))
        else:
            new_S = self.ln_s(H_S)
        if mode != AblationMode.INTENT_TO_SLOT_ONLY:
            C_I = multi_head_attention(
                ad.matmul(H_I, w["q_i"]), ad.matmul(H_S, w["k_s"]),
                ad.matmul(H_S, w["v_s"]), rows, self.num_heads,
                dropout_p, rng, training,
            )
            new_I = self.ln_i(ad.add(H_I, C_I))
        else:
            new_I = self.ln_i(H_I)
        return new_I, new_S

    def ffn_fuse(self, H_I: Tensor, H_S: Tensor, rows: RowMap,
                 dropout_p, rng, training) -> tuple[Tensor, Tensor]:
        hidden = ad.relu(ad.add(ad.matmul(window(H_I, H_S, rows), self.W1), self.b1))
        ffn = ad.add(ad.matmul(hidden, self.W2), self.b2)
        ffn = ad.dropout(ffn, dropout_p, rng, training, pad_mask=rows.mask)
        out_I = self.ln_i_out(ad.add(H_I, ffn))
        out_S = self.ln_s_out(ad.add(H_S, ffn))
        return out_I, out_S

    def forward(self, in_I: Tensor, in_S: Tensor, W_I: Tensor, W_S: Tensor,
                rows: RowMap, dropout_p: float = 0.0,
                rng: np.random.Generator | None = None,
                training: bool = False) -> tuple[Tensor, Tensor]:
        """One layer over packed (N, d) streams."""
        if self.mode == AblationMode.NO_INTENT_LABEL_ATTENTION:
            H_I = in_I
        else:
            H_I = label_attention(in_I, W_I, rows, dropout_p, rng, training)
        if self.mode == AblationMode.NO_SLOT_LABEL_ATTENTION:
            H_S = in_S
        else:
            H_S = label_attention(in_S, W_S, rows, dropout_p, rng, training)
        H_I, H_S = self.cross_attention(H_I, H_S, rows, dropout_p, rng, training)
        return self.ffn_fuse(H_I, H_S, rows, dropout_p, rng, training)


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

    def forward(self, H: Tensor, W_I: Tensor, W_S: Tensor, rows: RowMap,
                dropout_p: float = 0.0, rng: np.random.Generator | None = None,
                training: bool = False) -> tuple[Tensor, Tensor]:
        """Packed (N, d) encoder rows -> packed (intent, slot) streams."""
        cur_I = cur_S = H
        for layer in self.layers:
            cur_I, cur_S = layer.forward(
                cur_I, cur_S, W_I, W_S, rows, dropout_p, rng, training
            )
        return cur_I, cur_S
