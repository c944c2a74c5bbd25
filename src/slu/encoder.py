"""Shared utterance encoder: embedding lookup plus a bidirectional LSTM.

Each direction has its own LSTM weights; the two hidden sequences are
concatenated feature-wise, so the output width is ``hidden_dim`` with
``hidden_dim // 2`` units per direction. The BiLSTM is one autodiff node
with a hand-written backward through time: both directions step together
in one numpy time loop, the node keeps each step's gate activations, cell
states, ``tanh(c)`` and hidden states, and its backward forms the weight,
bias and input gradients once over all steps after the reverse loop.

Packed in and out: the embedding lookup reads only the real tokens, as
``(N, embed_dim)`` rows in the batch's ``RowMap`` order. The BiLSTM places
them in its zeroed time-major buffers, runs the padded time loop, and
emits the real positions as packed ``(N, hidden_dim)`` rows. Pads trail
the real tokens in both directions' streams, so no real position ever
reads a pad, and pad token ids never enter the graph: appending pads
cannot change any real position.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import RowMap
from .optim import Param


def uniform_init(rng: np.random.Generator, shape, bound: float, dtype=np.float32) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class LSTMCell:
    """Weights of one LSTM direction: one fused weight for all four gates.

    ``W`` is (input_dim + hidden_dim, 4 * hidden_dim): input rows first,
    then hidden rows. Gate layout along the output axis: input, forget,
    output, candidate. No peepholes; initial hidden and cell states are
    zero. ``Encoder.bilstm`` runs the recurrence.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 name: str, dtype=np.float32):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.name = name
        bound = 1.0 / np.sqrt(hidden_dim)
        self.W = Tensor(
            uniform_init(rng, (input_dim + hidden_dim, 4 * hidden_dim), bound, dtype),
            requires_grad=True,
        )
        self.b = Tensor(np.zeros(4 * hidden_dim, dtype=dtype), requires_grad=True)

    def params(self) -> list[Param]:
        return [
            Param(f"{self.name}.W", self.W, decay=True),
            Param(f"{self.name}.b", self.b, decay=False),
        ]


class Encoder:
    """Embedding table plus forward/backward LSTM cells."""

    def __init__(self, vocab_size: int, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator, pretrained: np.ndarray | None = None,
                 dtype=np.float32):
        if hidden_dim % 2 != 0:
            raise ValueError(f"hidden_dim must be even, got {hidden_dim}")
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        if pretrained is not None:
            if pretrained.shape != (vocab_size, embed_dim):
                raise ValueError(
                    f"pretrained table shape {pretrained.shape} does not match "
                    f"({vocab_size}, {embed_dim})"
                )
            table = pretrained.astype(dtype)
        else:
            table = uniform_init(rng, (vocab_size, embed_dim), 0.1, dtype)
        self.embedding = Tensor(table, requires_grad=True)
        half = hidden_dim // 2
        self.fwd = LSTMCell(embed_dim, half, rng, "encoder.fwd", dtype)
        self.bwd = LSTMCell(embed_dim, half, rng, "encoder.bwd", dtype)

    def params(self) -> list[Param]:
        return [Param("encoder.embedding", self.embedding, decay=True)] \
            + self.fwd.params() + self.bwd.params()

    def encode(self, token_ids: np.ndarray, rows: RowMap,
               dropout_p: float = 0.0, rng: np.random.Generator | None = None,
               training: bool = False) -> Tensor:
        """(B, n) int ids placed by ``rows`` -> packed (N, hidden_dim) states."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ad.ShapeError(f"token_ids must be 2-D, got shape {token_ids.shape}")
        if rows.mask.shape != token_ids.shape:
            raise ad.ShapeError(
                f"mask shape {rows.mask.shape} does not match ids {token_ids.shape}"
            )
        vocab_size = self.embedding.shape[0]
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= vocab_size):
            raise IndexError(
                f"token id out of range [0, {vocab_size}): "
                f"min={token_ids.min()}, max={token_ids.max()}"
            )
        embedded = ad.dropout(self.embedding[rows.gather(token_ids)], dropout_p, rng,
                              training, pad_mask=rows.mask)
        return self.bilstm(embedded, rows)

    def bilstm(self, embedded: Tensor, rows: RowMap) -> Tensor:
        """Both LSTM directions over packed (N, e) inputs -> packed (N, hidden_dim).

        The backward direction reads each sequence reversed within its
        length (as TensorFlow's ``reverse_sequence``). Each packed row
        ``(sent, t_fwd)`` is step ``t_fwd`` of the forward stream and step
        ``t_bwd = len - 1 - t_fwd`` of the backward one. These two maps
        scatter the inputs into zeroed time-major buffers, gather the output
        states in ``rows`` order, and, in the backward pass, scatter the
        packed output gradient (pad steps get none) and gather the input
        gradient.

        The recursion is one graph node with parents ``(embedded, fwd.W,
        fwd.b, bwd.W, bwd.b)``, in plain numpy. The two directions' weights
        are stacked on a leading axis; the input half of ``W`` goes over
        every step in one GEMM before the loop, and each step is one
        ``(2, B, dh) @ (2, dh, 4dh)`` product. The node keeps the gate
        activations, cell states, ``tanh(c)`` and hidden states, time by
        time in ``(2, n, B, ·)`` buffers. Its backward walks the steps in
        reverse, one ``(2, B, 4dh) @ (2, 4dh, dh)`` product each, into a
        buffer of gate gradients; both halves of each ``W`` gradient, the
        bias gradient and the input gradient are then formed once over
        all steps (the weight-gradient hoisting of Appleyard et al.,
        arXiv 1604.01946).
        """
        B, n = rows.mask.shape
        e = embedded.shape[1]
        dh = self.hidden_dim // 2
        sent, t_fwd = np.divmod(rows.rows, n)  # each packed row's (b, t)
        t_bwd = rows.lengths[sent] - 1 - t_fwd  # its step in the backward stream
        W = np.stack([self.fwd.W.data, self.bwd.W.data])  # (2, e + dh, 4dh)
        b = np.stack([self.fwd.b.data, self.bwd.b.data])  # (2, 4dh)
        x2 = np.zeros((2, n, B, e), embedded.dtype)  # time-major inputs, zero at pads
        x2[0, t_fwd, sent] = x2[1, t_bwd, sent] = embedded.data
        x2 = x2.reshape(2, n * B, e)
        xW = (x2 @ W[:, :e] + b[:, None]).reshape(2, n, B, 4 * dh)
        W_h = W[:, e:]
        dtype = xW.dtype
        gates = np.empty((2, n, B, 4 * dh), dtype)  # i, f, o after sigmoid; g after tanh
        cs = np.zeros((2, n + 1, B, dh), dtype)  # cs[:, t + 1] is c_t; cs[:, 0] = 0
        hs = np.zeros((2, n + 1, B, dh), dtype)  # likewise for h_t
        tcs = np.empty((2, n, B, dh), dtype)  # tanh(c_t)
        for t in range(n):
            a = hs[:, t] @ W_h
            a += xW[:, t]
            gt = gates[:, t]
            ifo = gt[..., :3 * dh]
            np.negative(a[..., :3 * dh], out=ifo)
            np.exp(ifo, out=ifo)
            ifo += 1.0
            np.reciprocal(ifo, out=ifo)
            np.tanh(a[..., 3 * dh:], out=gt[..., 3 * dh:])
            c = np.multiply(gt[..., dh:2 * dh], cs[:, t], out=cs[:, t + 1])
            c += gt[..., :dh] * gt[..., 3 * dh:]
            np.tanh(c, out=tcs[:, t])
            np.multiply(gt[..., 2 * dh:3 * dh], tcs[:, t], out=hs[:, t + 1])
        out = np.concatenate([hs[0, t_fwd + 1, sent], hs[1, t_bwd + 1, sent]], axis=-1)

        def backward(g):
            # Upstream gradient per direction, time-major; zero at pad steps.
            dH = np.zeros((2, n, B, dh), dtype)
            dH[0, t_fwd, sent] = g[:, :dh]
            dH[1, t_bwd, sent] = g[:, dh:]
            sig = gates[..., :3 * dh]
            i, f, o, gg = (gates[..., k * dh:(k + 1) * dh] for k in range(4))
            # Per-step factors that turn dc (gates i, f, g) or dh (gate o)
            # into pre-activation gradients, and dh into its share of dc.
            F = np.empty_like(gates)
            np.multiply(sig, 1.0 - sig, out=F[..., :3 * dh])
            F[..., :dh] *= gg
            F[..., dh:2 * dh] *= cs[:, :n]
            F[..., 2 * dh:3 * dh] *= tcs
            np.multiply(i, 1.0 - gg * gg, out=F[..., 3 * dh:])
            K = o * (1.0 - tcs * tcs)
            dA = np.empty_like(gates)
            W_hT = np.swapaxes(W_h, -1, -2)
            dc_next = np.zeros((2, B, dh), dtype)
            for t in range(n - 1, -1, -1):
                dh_t = dH[:, t]
                dc = dh_t * K[:, t]
                dc += dc_next
                da = dA[:, t]
                np.multiply(F[:, t].reshape(2, B, 4, dh), dc[:, :, None],
                            out=da.reshape(2, B, 4, dh))
                np.multiply(F[:, t, :, 2 * dh:3 * dh], dh_t, out=da[..., 2 * dh:3 * dh])
                if t:
                    dH[:, t - 1] += da @ W_hT
                    dc_next = dc * f[:, t]
            dA2 = dA.reshape(2, n * B, 4 * dh)
            dW = np.empty_like(W)
            np.matmul(np.swapaxes(x2, 1, 2), dA2, out=dW[:, :e])
            np.matmul(np.swapaxes(hs[:, :n].reshape(2, n * B, dh), 1, 2), dA2, out=dW[:, e:])
            db = dA2.sum(axis=1)
            dx = None
            if embedded.requires_grad:
                dx2 = (dA2 @ np.swapaxes(W[:, :e], 1, 2)).reshape(2, n, B, e)
                dx = dx2[0, t_fwd, sent] + dx2[1, t_bwd, sent]
            return dx, dW[0], db[0], dW[1], db[1]

        return ad._make_node(out, (embedded, self.fwd.W, self.fwd.b, self.bwd.W, self.bwd.b),
                             backward)
