"""Full joint model: encoder -> interaction stack -> two decoders.

The intent and slot projection matrices serve double duty: the decoders
score with them and the interaction layers attend over them as label
embeddings, so both views train the same parameters.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .interaction import InteractionStack
from .config import Config
from .data import Batch, Vocab
from .decoders import CrfHead, IntentHead, joint_loss
from .encoder import Encoder
from .optim import Param


class JointModel:
    """Trainable end-to-end model for one (config, vocab) pair."""

    def __init__(self, config: Config, vocab: Vocab,
                 pretrained: np.ndarray | None = None,
                 dtype=np.float32):
        config.validate()
        if vocab.n_slots < 1 or vocab.n_intents < 1:
            raise ValueError("vocabulary must contain at least one slot and intent label")
        self.config = config
        self.vocab = vocab
        self.dtype = dtype
        self.rng = np.random.default_rng(config.seed)
        d = config.hidden_dim
        self.encoder = Encoder(vocab.n_words, config.embed_dim, d, self.rng,
                               pretrained=pretrained, dtype=dtype)
        self.intent_head = IntentHead(d, vocab.n_intents, self.rng, dtype=dtype)
        self.crf = CrfHead(d, vocab.n_slots, self.rng, dtype=dtype)
        self.stack = InteractionStack(d, config.num_heads, config.ffn_dim,
                                        config.num_layers, config.mode,
                                        self.rng, dtype=dtype)

    def params(self) -> list[Param]:
        return (self.encoder.params() + self.stack.params()
                + self.intent_head.params() + self.crf.params())

    def forward(self, token_ids: np.ndarray, mask: np.ndarray,
                training: bool = False) -> tuple[Tensor, Tensor]:
        """Token ids + mask -> (intent logits (B, |I|), emissions (B, n, |S|))."""
        cfg = self.config
        H = self.encoder.encode(token_ids, mask, dropout_p=cfg.encoder_dropout,
                                rng=self.rng, training=training)
        H_I, H_S = self.stack.forward(
            H, self.intent_head.W, self.crf.W, mask,
            dropout_p=cfg.dropout, rng=self.rng, training=training,
        )
        return self.intent_head.logits(H_I, mask), self.crf.emissions(H_S)

    def loss(self, batch: Batch, training: bool = True) -> Tensor:
        logits, emissions = self.forward(batch.token_ids, batch.mask, training)
        return joint_loss(logits, batch.intent_ids, self.crf, emissions,
                          batch.slot_ids, batch.mask)

    def predict(self, token_ids: np.ndarray, mask: np.ndarray
                ) -> tuple[np.ndarray, list[list[int]]]:
        """Evaluation-mode decode: (intent ids (B,), slot id paths).
        Intent ties break toward the lowest label index."""
        with ad.no_grad():
            logits, emissions = self.forward(token_ids, mask, training=False)
        intents = logits.data.argmax(axis=-1)
        paths = self.crf.viterbi(emissions.data, mask)
        return intents, paths

    def predict_batch(self, batch: Batch) -> list[tuple[str, list[str]]]:
        """Decoded (intent, tags) strings for each batch member, in order."""
        intents, paths = self.predict(batch.token_ids, batch.mask)
        vocab = self.vocab
        return [
            (vocab.id2intent[intents[b]], [vocab.id2slot[s] for s in paths[b]])
            for b in range(batch.size)
        ]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Named copies of every parameter array."""
        return {p.name: p.tensor.data.copy() for p in self.params()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Install named arrays; names and shapes must match exactly."""
        own = {p.name: p.tensor for p in self.params()}
        missing = sorted(set(own) - set(arrays))
        extra = sorted(set(arrays) - set(own))
        if missing or extra:
            raise ValueError(
                f"parameter names do not match: missing {missing}, unexpected {extra}"
            )
        for name, tensor in own.items():
            arr = np.asarray(arrays[name])
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"parameter {name}: shape {arr.shape} does not match "
                    f"{tensor.data.shape}"
                )
            tensor.data = arr.astype(tensor.data.dtype).copy()
