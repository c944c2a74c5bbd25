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
from .data import RowMap
from .encoder import uniform_init
from .optim import Param

NEG_INF = -1.0e4  # forbidden-transition score; large enough to never win


class IntentHead:
    """Sentence-level classifier over a max-pooled representation."""

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

    def logits(self, H_I: Tensor, rows: RowMap) -> Tensor:
        """Packed (N, d) states -> (B, |I|) scores via a max per sentence."""
        c = ad.maxpool_over_time(H_I, rows.lengths)
        return ad.add(ad.matmul(c, self.W), self.b)


def unpack(X: Tensor, rows: RowMap) -> Tensor:
    """(N, k) packed rows -> (B, n, k), exactly zero at pads."""
    return ad._make_node(rows.scatter(X.data), (X,), lambda g: (rows.gather(g),))


def cross_entropy_sum(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Summed (not averaged) negative log-likelihood of the gold classes:
    the sum over rows of logsumexp(logits) minus the gold logit."""
    picked = logits[np.arange(logits.shape[0]), np.asarray(gold)]
    return ad.tsum(ad.logsumexp(logits, axis=-1) - picked)


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

    def emissions(self, H_S: Tensor, rows: RowMap) -> Tensor:
        """Packed (N, d) states -> (B, n, |S|) per-token label scores,
        zero at pads."""
        return unpack(ad.add(ad.matmul(H_S, self.W), self.b), rows)

    def log_partition(self, emissions: Tensor, mask: np.ndarray) -> Tensor:
        """log Z per sequence, shape (B,), as one graph node over
        ``emissions`` and ``T``.

        The forward algorithm runs scaled in linear space (Rabiner 1989,
        section V.A): each step is one (B, S) @ (S, S) product of the state
        with exp(T[:S, :S] - max), and the state is renormalised to a
        maximum of 1 with its log scale carried per sequence. Position 0
        always counts; a later step whose mask entry is False carries the
        state unchanged. The backward closure runs the matching recursion
        for the posterior marginals and returns the float64 gradients
        ``(dE, dT)`` for the node's two parents: the unary marginals are
        ``dE``, their first and last rows the gradients of
        ``T[begin, :S]`` and ``T[:S, end]``, and the pairwise marginals
        summed over steps the gradient of ``T[:S, :S]``; every other entry
        of ``T`` gets zero. The engine casts each into its parent's dtype.

        Numeric range: internals are float64 whatever the input dtype.
        Emissions enter in log space, so their spread is not limited; a
        state underflows to zero only when the mass flowing into it is more
        than ~700 nats below the best state of the previous step plus the
        largest transition score. A forbidden transition (``NEG_INF``)
        therefore contributes nothing, as long as some allowed path exists.
        The output dtype is ``np.result_type`` of the emissions and ``T``.
        """
        E = emissions.data
        B, n, S = E.shape
        mask = np.asarray(mask, dtype=bool)
        T = self.T.data.astype(np.float64)
        trans, start, stop = T[:S, :S], T[self.begin, :S], T[:S, self.end]
        top = trans.max()
        P = np.exp(trans - top)
        A = np.empty((n, B, S))  # scaled forward state entering each step
        a = start + E[:, 0]
        log_scale = a.max(axis=1)
        A[0] = np.exp(a - log_scale[:, None])
        with np.errstate(divide="ignore"):
            for t in range(1, n):
                w = np.log(A[t - 1] @ P) + E[:, t]
                peak = w.max(axis=1)
                on = mask[:, t]
                A[t] = np.where(on[:, None], np.exp(w - peak[:, None]), A[t - 1])
                log_scale = np.where(on, log_scale + (top + peak), log_scale)
        stop_top = stop.max()
        z = A[-1] * np.exp(stop - stop_top)
        z_sum = z.sum(axis=1)
        log_z = log_scale + stop_top + np.log(z_sum)

        def backward(g):
            # G is the gradient of sum(g * log Z) with respect to the
            # log-space state at a step: g times that step's unary marginals.
            # Stepping back, state i passes on G[j] * A[i] P[i, j] / U[j],
            # U[j] being the mass flowing into j, so R = G / U carries the
            # pairwise marginals and feeds the T[:S, :S] gradient.
            G = z * (g / z_sum)[:, None]
            dE = np.zeros((B, n, S))
            dT = np.zeros_like(T)
            dT[:S, self.end] = G.sum(axis=0)
            L = A[:-1].reshape(-1, S)
            U = (L @ P).reshape(n - 1, B, S)
            R = np.zeros_like(U)  # stays 0 where the step is masked or U is 0
            for t in range(n - 1, 0, -1):
                on = mask[:, t][:, None]
                np.divide(G, U[t - 1], out=R[t - 1], where=on & (U[t - 1] > 0))
                dE[:, t] = np.where(on, G, 0.0)
                G = np.where(on, A[t - 1] * (R[t - 1] @ P.T), G)
            dE[:, 0] = G
            dT[self.begin, :S] = G.sum(axis=0)
            dT[:S, :S] = P * (L.T @ R.reshape(-1, S))
            return dE, dT

        out = log_z.astype(np.result_type(E.dtype, self.T.data.dtype))
        return ad._make_node(out, (emissions, self.T), backward)

    def gold_score(self, emissions: Tensor, gold: np.ndarray,
                   mask: np.ndarray) -> Tensor:
        """Path score of the gold tags: emissions plus all transition
        factors, begin -> tag_0 -> ... -> tag_{L-1} -> end per sentence."""
        sent, t = np.nonzero(mask)
        tags = np.asarray(gold)[sent, t]
        em_sum = ad.tsum(emissions[sent, t, tags])
        first = np.flatnonzero(t == 0)
        after_last = np.r_[first[1:], tags.size]
        prev = np.insert(tags, first, self.begin)
        cur = np.insert(tags, after_last, self.end)
        trans_sum = ad.tsum(self.T[prev, cur])
        return ad.add(em_sum, trans_sum)

    def nll(self, emissions: Tensor, gold: np.ndarray, mask: np.ndarray) -> Tensor:
        """-log P(gold | emissions), summed over the batch."""
        logZ = ad.tsum(self.log_partition(emissions, mask))
        return ad.add(logZ, ad.mul(self.gold_score(emissions, gold, mask), -1.0))

    def viterbi(self, emissions: np.ndarray, mask: np.ndarray) -> list[list[int]]:
        """Best-scoring tag path per sequence (max-product with backpointers).

        The transition block is transposed once into a (to, from) layout,
        so each step's add and ``argmax`` run along the contiguous axis of
        one reused (S, S) buffer. Score ties at a backpointer resolve to
        the lowest label index.
        """
        emissions = np.asarray(emissions)
        lengths = RowMap(mask).lengths
        S = self.num_slots
        T = self.T.data
        trans = np.ascontiguousarray(T[:S, :S].T)  # (to, from)
        start = T[self.begin, :S]
        end = T[:S, self.end]
        cand = np.empty((S, S), dtype=np.result_type(emissions, T))
        to = np.arange(S)
        paths: list[list[int]] = []
        for b in range(emissions.shape[0]):
            length = int(lengths[b])
            em = emissions[b, :length]
            delta = start + em[0]
            backptr = np.zeros((length, S), dtype=np.intp)
            for t in range(1, length):
                np.add(trans, delta, out=cand)
                cand.argmax(axis=1, out=backptr[t])
                delta = cand[to, backptr[t]] + em[t]
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
    return ad.mul(total, 1.0 / B)
