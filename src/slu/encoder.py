"""Shared utterance encoder: embedding lookup plus a bidirectional LSTM.

Each direction has its own LSTM weights; the two hidden sequences are
concatenated feature-wise, so the output width is ``hidden_dim`` with
``hidden_dim // 2`` units per direction. Both directions step together in
one time loop.

Masking contract: the mask marks a prefix of each row, so pads trail the
real tokens. The backward direction reads each sequence reversed within
its length, so pads trail in its stream too and no real position ever
reads a pad; pad outputs are zeroed once, after the loop. Appending pad
tokens therefore cannot change any real position.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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

    def encode(self, token_ids: np.ndarray, mask: np.ndarray,
               dropout_p: float = 0.0, rng: np.random.Generator | None = None,
               training: bool = False) -> Tensor:
        """(B, n) int ids + boolean mask -> (B, n, hidden_dim) states."""
        token_ids = np.asarray(token_ids)
        mask = np.asarray(mask, dtype=bool)
        if token_ids.ndim != 2:
            raise ad.ShapeError(f"token_ids must be 2-D, got shape {token_ids.shape}")
        if mask.shape != token_ids.shape:
            raise ad.ShapeError(
                f"mask shape {mask.shape} does not match ids {token_ids.shape}"
            )
        vocab_size = self.embedding.shape[0]
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= vocab_size):
            raise IndexError(
                f"token id out of range [0, {vocab_size}): "
                f"min={token_ids.min()}, max={token_ids.max()}"
            )
        if (mask[:, 1:] & ~mask[:, :-1]).any():
            raise ValueError("mask must mark a prefix of each row (pads trail real tokens)")
        embedded = ad.dropout(self.embedding[token_ids], dropout_p, rng, training)
        return self.bilstm(embedded, mask)

    def bilstm(self, embedded: Tensor, mask: np.ndarray) -> Tensor:
        """Both LSTM directions over (B, n, e) inputs -> (B, n, hidden_dim).

        ``mask`` must mark a prefix of each row; pad outputs are zero.
        The backward direction reads each sequence reversed within its
        length (as TensorFlow's ``reverse_sequence``): time t maps to
        len-1-t on real positions and to itself on pads. The map is its own
        inverse, so it also puts the backward outputs back in place. The
        two directions' weights are stacked on a leading axis, and the
        input half of ``W`` is applied to all time steps before the loop.
        """
        B, n, e = embedded.shape
        dh = self.hidden_dim // 2
        steps = np.arange(n)
        lengths = mask.sum(axis=1, keepdims=True)
        rev = (np.arange(B)[:, None], np.where(mask, lengths - 1 - steps, steps))
        W = ad.stack([self.fwd.W, self.bwd.W])  # (2, e + dh, 4dh)
        b = ad.stack([self.fwd.b, self.bwd.b])[:, None]  # (2, 1, 4dh)
        x = ad.reshape(ad.stack([embedded, embedded[rev]]), (2, B * n, e))
        xW = ad.reshape(ad.add(ad.matmul(x, W[:, :e]), b), (2, B, n, 4 * dh))
        W_h = W[:, e:]
        h = c = Tensor(np.zeros((2, B, dh), dtype=embedded.dtype))
        hs = []
        for t in range(n):
            gates = ad.add(xW[:, :, t], ad.matmul(h, W_h))
            ifo = ad.sigmoid(gates[..., :3 * dh])
            i, f, o = ifo[..., :dh], ifo[..., dh:2 * dh], ifo[..., 2 * dh:]
            g = ad.tanh(gates[..., 3 * dh:])
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
            hs.append(h)
        H = ad.stack(hs, axis=2)  # (2, B, n, dh)
        out = ad.concat([H[0], H[(1, *rev)]], axis=-1)
        return ad.where(mask[:, :, None], out, 0.0)
