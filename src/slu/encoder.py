"""Shared utterance encoder: embedding lookup plus a bidirectional LSTM.

Each direction runs an independent LSTM cell over the embedded tokens; the
two final hidden sequences are concatenated feature-wise, so the output
width is ``hidden_dim`` with ``hidden_dim // 2`` units per direction.

Masking contract: padded positions produce zero vectors and never advance
either recurrence, so the backward direction effectively starts at the last
real token and appending pad tokens cannot change any real position.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import Param


def uniform_init(rng: np.random.Generator, shape, bound: float, dtype=np.float32) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class LSTMCell:
    """Single-direction LSTM with one fused weight for all four gates.

    Gate layout along the output axis: input, forget, output, candidate.
    No peepholes; initial hidden and cell states are zero.
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

    def step(self, x_t: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        dh = self.hidden_dim
        gates = ad.add(ad.matmul(ad.concat([x_t, h_prev], axis=-1), self.W), self.b)
        i = ad.sigmoid(gates[:, :dh])
        f = ad.sigmoid(gates[:, dh:2 * dh])
        o = ad.sigmoid(gates[:, 2 * dh:3 * dh])
        g = ad.tanh(gates[:, 3 * dh:])
        c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        return h, c

    def run(self, embedded: Tensor, mask: np.ndarray, reverse: bool) -> Tensor:
        """Full pass over (B, n, input_dim); returns (B, n, hidden_dim).

        The state only advances where the mask is True, and emitted vectors
        at masked positions are zero.
        """
        B, n, _ = embedded.data.shape
        dtype = embedded.data.dtype
        h = Tensor(np.zeros((B, self.hidden_dim), dtype=dtype))
        c = Tensor(np.zeros((B, self.hidden_dim), dtype=dtype))
        zero = Tensor(np.zeros((B, self.hidden_dim), dtype=dtype))
        order = range(n - 1, -1, -1) if reverse else range(n)
        outputs: list[Tensor | None] = [None] * n
        for t in order:
            m_t = mask[:, t][:, None]  # (B, 1) broadcasts over features
            h_new, c_new = self.step(embedded[:, t], h, c)
            h = ad.where(m_t, h_new, h)
            c = ad.where(m_t, c_new, c)
            outputs[t] = ad.where(m_t, h, zero)
        return ad.stack(outputs, axis=1)


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
        embedded = self.embedding[token_ids]
        if dropout_p > 0.0 and training:
            embedded = ad.dropout(embedded, dropout_p, rng, training)
        h_fwd = self.fwd.run(embedded, mask, reverse=False)
        h_bwd = self.bwd.run(embedded, mask, reverse=True)
        return ad.concat([h_fwd, h_bwd], axis=-1)
