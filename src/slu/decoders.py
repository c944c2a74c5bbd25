"""Output heads: intent classification and CRF slot tagging, plus the
joint loss that trains both at once.

The d x |labels| projection matrices are the same objects the interaction
layers read as label embeddings, so label attention and decoding share
parameters by construction.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import uniform_init
from .optim import Param

NEG_INF = -1.0e4  # forbidden-transition score; large enough to never win


class IntentHead:
    """Sentence-level classifier over a masked max-pooled representation."""

    def __init__(self, d: int, num_intents: int, rng: np.random.Generator,
                 dtype=np.float32):
        bound = 1.0 / np.sqrt(d)
        self.W = Tensor(uniform_init(rng, (d, num_intents), bound, dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(num_intents, dtype=dtype), requires_grad=True)
        self.num_intents = num_intents

    def params(self) -> list[Param]:
        return [Param("intent.W", self.W, decay=True),
                Param("intent.b", self.b, decay=False)]

    def logits(self, H_I: Tensor, mask: np.ndarray) -> Tensor:
        """(B, n, d) states -> (B, |I|) scores via masked max over time."""
        c = ad.maxpool_over_time(H_I, mask)
        return ad.add(ad.matmul(c, self.W), self.b)

    def predict(self, H_I: Tensor, mask: np.ndarray) -> np.ndarray:
        """Argmax intents; ties break toward the lowest label index."""
        return self.logits(H_I, mask).data.argmax(axis=-1)


def cross_entropy_sum(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Summed (not averaged) negative log-likelihood of the gold classes."""
    logp = ad.log_softmax(logits, axis=-1)
    return ad.scale(ad.tsum(logp[np.arange(logp.shape[0]), np.asarray(gold)]), -1.0)


class CrfHead:
    """Linear-chain CRF over slot tags with virtual begin/end states.

    The transition table T has shape (|S|+2, |S|+2); index |S| is the
    virtual begin state and |S|+1 the virtual end state. Transitions into
    begin and out of end are pinned to a large negative score so no path
    can use them.
    """

    def __init__(self, d: int, num_slots: int, rng: np.random.Generator,
                 dtype=np.float32):
        bound = 1.0 / np.sqrt(d)
        self.W = Tensor(uniform_init(rng, (d, num_slots), bound, dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(num_slots, dtype=dtype), requires_grad=True)
        T = rng.uniform(-0.1, 0.1, size=(num_slots + 2, num_slots + 2)).astype(dtype)
        T[:, num_slots] = NEG_INF      # nothing may enter the begin state
        T[num_slots + 1, :] = NEG_INF  # nothing may leave the end state
        self.T = Tensor(T, requires_grad=True)
        self.num_slots = num_slots

    def params(self) -> list[Param]:
        return [Param("crf.W", self.W, decay=True),
                Param("crf.b", self.b, decay=False),
                Param("crf.T", self.T, decay=True)]

    @property
    def begin(self) -> int:
        return self.num_slots

    @property
    def end(self) -> int:
        return self.num_slots + 1

    def emissions(self, H_S: Tensor) -> Tensor:
        """(B, n, d) states -> (B, n, |S|) per-token label scores."""
        return ad.add(ad.matmul(H_S, self.W), self.b)

    def log_partition(self, emissions: Tensor, mask: np.ndarray) -> Tensor:
        """log Z per sequence via the forward algorithm in log space."""
        B, n, S = emissions.data.shape
        trans3 = self.T[None, :S, :S]  # (1, from, to)
        alpha = ad.add(self.T[self.begin, :S], emissions[:, 0])  # (B, S)
        for t in range(1, n):
            inner = ad.add(ad.reshape(alpha, (B, S, 1)), trans3)
            prop = ad.add(ad.logsumexp(inner, axis=1), emissions[:, t])
            alpha = ad.where(mask[:, t][:, None], prop, alpha)
        alpha = ad.add(alpha, self.T[:S, self.end])
        return ad.logsumexp(alpha, axis=-1)  # (B,)

    def gold_score(self, emissions: Tensor, gold: np.ndarray,
                   mask: np.ndarray) -> Tensor:
        """Path score of the gold tags: emissions plus all transition factors."""
        gold = np.asarray(gold)
        mask = np.asarray(mask, dtype=bool)
        safe_gold = np.where(mask, gold, 0)
        B, n = safe_gold.shape
        em = emissions[np.arange(B)[:, None], np.arange(n)[None, :], safe_gold]  # (B, n)
        em_sum = ad.tsum(ad.mul(em, ad.Tensor(mask.astype(emissions.data.dtype))))

        prev_idx: list[int] = []
        cur_idx: list[int] = []
        lengths = mask.sum(axis=1)
        for b in range(gold.shape[0]):
            seq = gold[b, : lengths[b]]
            path = [self.begin, *seq.tolist(), self.end]
            prev_idx.extend(path[:-1])
            cur_idx.extend(path[1:])
        trans_sum = ad.tsum(self.T[np.array(prev_idx), np.array(cur_idx)])
        return ad.add(em_sum, trans_sum)

    def nll(self, emissions: Tensor, gold: np.ndarray, mask: np.ndarray) -> Tensor:
        """-log P(gold | emissions), summed over the batch."""
        logZ = ad.tsum(self.log_partition(emissions, mask))
        return ad.add(logZ, ad.scale(self.gold_score(emissions, gold, mask), -1.0))

    def viterbi(self, emissions: np.ndarray, mask: np.ndarray) -> list[list[int]]:
        """Best-scoring tag path per sequence (max-product with backpointers).

        Score ties at a backpointer resolve to the lowest label index.
        """
        emissions = np.asarray(emissions)
        mask = np.asarray(mask, dtype=bool)
        S = self.num_slots
        T = self.T.data
        trans = T[:S, :S]
        start = T[self.begin, :S]
        end = T[:S, self.end]
        paths: list[list[int]] = []
        for b in range(emissions.shape[0]):
            length = int(mask[b].sum())
            if length == 0:
                raise ValueError(f"sequence {b} has no real tokens")
            em = emissions[b, :length]
            delta = start + em[0]
            backptr = np.zeros((length, S), dtype=np.int64)
            for t in range(1, length):
                cand = delta[:, None] + trans  # (from, to)
                backptr[t] = cand.argmax(axis=0)
                delta = cand[backptr[t], np.arange(S)] + em[t]
            delta = delta + end
            best = int(delta.argmax())
            path = [best]
            for t in range(length - 1, 0, -1):
                best = int(backptr[t, best])
                path.append(best)
            paths.append(path[::-1])
        return paths


def joint_loss(intent_logits: Tensor, intent_gold: np.ndarray,
               crf: CrfHead, emissions: Tensor, slot_gold: np.ndarray,
               mask: np.ndarray) -> Tensor:
    """Intent cross-entropy plus CRF negative log-likelihood, both summed
    over the batch and divided by batch size; the two terms weigh equally."""
    B = intent_logits.data.shape[0]
    total = ad.add(
        cross_entropy_sum(intent_logits, intent_gold),
        crf.nll(emissions, slot_gold, mask),
    )
    return ad.scale(total, 1.0 / B)
