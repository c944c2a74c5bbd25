"""Output heads: intent classification and CRF slot tagging, plus the
joint loss that trains both at once.

The d x |labels| projection matrices are the same objects the interaction
layers read as label embeddings, so label attention and decoding share
parameters by construction. The intent cross-entropy, the CRF
log-partition and the CRF gold path score are each one graph node with a
hand-written backward; ``tsum``, ``mul`` and ``add`` combine them.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import RowMap, prefix_lengths
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
    """Summed (not averaged) negative log-likelihood of the gold classes, as
    one graph node over ``logits``: per row, the row max m plus log sum
    exp(x - m) minus the gold logit, in the logits' dtype. Its backward is
    ``g`` times softmax minus one-hot."""
    x = logits.data
    rows, gold = np.arange(x.shape[0]), np.asarray(gold)
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    loss = (m[:, 0] + np.log(s[:, 0]) - x[rows, gold]).sum()

    def backward(g):
        d = e / s
        d[rows, gold] -= 1.0
        return (d * g,)

    return ad._make_node(loss, (logits,), backward)


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

        ``mask`` marks a non-empty prefix of each row, as ``RowMap``
        requires (``ValueError`` otherwise), so sentence b ends at step
        ``last[b] = lengths[b] - 1``. The forward algorithm runs scaled in
        linear space (Rabiner 1989, section V.A) over all n steps of every
        sentence, with pad emissions zeroed once and no per-step mask. Step
        t forms and keeps the mass ``U[t] = A[t-1] @ P`` flowing into each
        state, with P = exp(T[:S, :S] - max), and renormalises the state
        A[t] to a maximum of 1, keeping the step's peak. The log scales are
        the cumulative sum of the peaks, each with the max added once, so
        a sentence's scale is the same sum in the same order as a running
        one. Each sentence's log Z is read from its state and scale at its
        own last step, so nothing its pad steps compute reaches it.

        The backward closure runs the matching recursion for the posterior
        marginals. Each sentence's end gradient is seeded at its own last
        step of a time-major (n, B, S) array, and a step back is four numpy
        calls with no masks: R = G / U where U > 0, one GEMM R @ P.T, one
        multiply by the stored state and one add into the step before. G
        is exactly zero after a sentence's last step, so ``dE`` is exactly
        zero at pads. The closure returns the float64 gradients ``(dE,
        dT)`` for the node's two parents: the unary marginals are ``dE``;
        the first step's marginals and the end gradients are the gradients
        of ``T[begin, :S]`` and ``T[:S, end]``; the pairwise marginals
        summed over steps are the gradient of ``T[:S, :S]``; every other
        entry of ``T`` gets zero. The engine casts each into its parent's
        dtype.

        Numeric range: internals are float64 whatever the input dtype.
        Emissions enter in log space, so their spread is not limited; a
        state underflows to zero only when the mass flowing into it is more
        than ~700 nats below the best state of the previous step plus the
        largest transition score. A forbidden transition (``NEG_INF``)
        therefore contributes nothing, as long as some allowed path runs
        through all n steps. The output dtype is ``np.result_type`` of the
        emissions and ``T``.
        """
        B, n, S = emissions.shape
        mask = np.asarray(mask, dtype=bool)
        last = prefix_lengths(mask) - 1
        every = np.arange(B)
        E = np.where(mask[:, :, None], emissions.data, 0)  # pads never read
        T = self.T.data.astype(np.float64)
        trans, start, stop = T[:S, :S], T[self.begin, :S], T[:S, self.end]
        top = trans.max()
        P = np.exp(trans - top)
        A = np.empty((n, B, S))  # scaled forward state at each step
        U = np.empty((n, B, S))  # mass flowing into each step; none into step 0
        U[0] = 0.0
        peak = np.empty((n, B))  # step 0's log scale, then each later step's peak
        a = start + E[:, 0]
        a.max(axis=1, out=peak[0])
        A[0] = np.exp(a - peak[0][:, None])
        with np.errstate(divide="ignore"):
            for t in range(1, n):
                w = A[t]
                np.matmul(A[t - 1], P, out=U[t])
                np.log(U[t], out=w)
                w += E[:, t]
                w.max(axis=1, out=peak[t])
                w -= peak[t][:, None]
                np.exp(w, out=w)
        peak[1:] += top
        stop_top = stop.max()
        z = A[last, every] * np.exp(stop - stop_top)
        z_sum = z.sum(axis=1)
        log_z = np.cumsum(peak, axis=0)[last, every] + stop_top + np.log(z_sum)

        def backward(g):
            # G is the gradient of sum(g * log Z) with respect to the
            # log-space state at a step: g times that step's unary marginals.
            # Stepping back, state i passes on G[j] * A[i] P[i, j] / U[j],
            # so R = G / U carries the pairwise marginals and feeds the
            # T[:S, :S] gradient.
            G_end = z * (g / z_sum)[:, None]
            D = np.zeros((n, B, S))  # G at each step, seeded with the ends
            D[last, every] = G_end
            R = np.zeros_like(U)  # stays 0 where no mass flows
            flows = U > 0
            for t in range(n - 1, 0, -1):
                np.divide(D[t], U[t], out=R[t], where=flows[t])
                D[t - 1] += A[t - 1] * (R[t] @ P.T)
            dT = np.zeros_like(T)
            dT[self.begin, :S] = D[0].sum(axis=0)
            dT[:S, self.end] = G_end.sum(axis=0)
            dT[:S, :S] = P * (A[:-1].reshape(-1, S).T @ R[1:].reshape(-1, S))
            return D.transpose(1, 0, 2), dT

        out = log_z.astype(np.result_type(emissions.dtype, self.T.data.dtype))
        return ad._make_node(out, (emissions, self.T), backward)

    def gold_score(self, emissions: Tensor, gold: np.ndarray,
                   mask: np.ndarray) -> Tensor:
        """Summed gold path score, begin -> tag_0 -> ... -> tag_{L-1} -> end
        per sentence, as one graph node over ``emissions`` and ``T`` that
        never reads a pad. Its backward is the observed counts of the CRF
        gradient (Lafferty et al. 2001): ``g`` at each gold ``(b, t, tag)``,
        and ``g`` times the number of times each gold transition is taken."""
        sent, t = np.nonzero(mask)
        tags = np.asarray(gold)[sent, t]
        first = np.flatnonzero(t == 0)
        after_last = np.r_[first[1:], tags.size]
        prev = np.insert(tags, first, self.begin)
        cur = np.insert(tags, after_last, self.end)
        score = emissions.data[sent, t, tags].sum() + self.T.data[prev, cur].sum()

        def backward(g):
            dE = np.zeros_like(emissions.data)
            dE[sent, t, tags] = g
            K = self.num_slots + 2
            counts = np.bincount(prev * K + cur, minlength=K * K).reshape(K, K)
            return dE, counts * g

        return ad._make_node(score, (emissions, self.T), backward)

    def nll(self, emissions: Tensor, gold: np.ndarray, mask: np.ndarray) -> Tensor:
        """-log P(gold | emissions), summed over the batch."""
        logZ = ad.tsum(self.log_partition(emissions, mask))
        return ad.add(logZ, ad.mul(self.gold_score(emissions, gold, mask), -1.0))

    def viterbi(self, emissions: np.ndarray, mask: np.ndarray) -> list[list[int]]:
        """Best-scoring tag path per sequence (max-product with backpointers).

        All sentences step together, one time step at a time, and step t
        touches only the sentences longer than t. A ``from`` state more
        than ``span = max(T[:S, :S]) - min(T[:S, :S])`` below its step's
        best state cannot win any ``to`` state, so a sentence keeps only
        its states at or above ``best - (span + margin)``. The rounding
        margin ``8 * eps * (|best| + max|T[:S, :S]| + 1)`` makes sure that
        a pruned state could not have tied after float rounding.

        The kept states run in ascending index order, one column of a
        (b, K) index at a time, and a candidate replaces the running best
        only when strictly greater. A sentence that keeps more than 8
        states, or whose best score is not finite, takes the full
        (to, from) add and ``argmax`` at that step instead. Both kinds add
        the same floats as a per-sentence loop, so scores are bit-equal,
        and score ties at a backpointer resolve to the lowest label index.
        Backpointers sit in one (n, B, S) block that holds the identity at
        a sentence's pad steps, so one backtrace serves every sentence.
        """
        emissions = np.asarray(emissions)
        lengths = prefix_lengths(mask)
        S = self.num_slots
        T = self.T.data
        trans = T[:S, :S]  # (from, to)
        trans_t = np.ascontiguousarray(trans.T)  # (to, from)
        span = trans.max() - trans.min()
        eps = np.finfo(np.result_type(emissions, T)).eps
        top = np.abs(trans).max() + 1
        delta = T[self.begin, :S] + emissions[:, 0]
        steps = int(lengths.max())
        back = np.tile(np.arange(S), (steps, lengths.size, 1))
        with np.errstate(invalid="ignore"):  # inf - inf at a non-finite best
            for t in range(1, steps):
                live = np.flatnonzero(lengths > t)
                d = delta[live]
                best = d.max(axis=1)
                floor = best - (span + 8 * eps * (np.abs(best) + top))
                keep = d >= floor[:, None]
                kept = keep.sum(axis=1)
                # Rows that take the full step keep one placeholder state here.
                full = np.flatnonzero((kept > 8) | ~np.isfinite(floor))
                keep[full] = False
                keep[full, 0] = True
                kept[full] = 1
                # (b, K) kept states per row, ascending, padded with the first
                rows, cols = np.nonzero(keep)
                first = np.cumsum(kept) - kept
                idx = np.repeat(cols[first][:, None], kept.max(), axis=1)
                idx[rows, np.arange(rows.size) - first[rows]] = cols
                r = np.arange(live.size)
                val = d[r, idx[:, 0]][:, None] + trans[idx[:, 0]]
                bp = np.repeat(idx[:, :1], S, axis=1)
                for j in idx.T[1:]:
                    v = d[r, j][:, None] + trans[j]
                    won = v > val
                    np.copyto(val, v, where=won)
                    np.copyto(bp, j[:, None], where=won)
                if full.size:
                    cand = trans_t + d[full, None, :]  # (rows, to, from)
                    bp[full] = cand.argmax(axis=2)
                    val[full] = np.take_along_axis(cand, bp[full, :, None], axis=2)[:, :, 0]
                delta[live] = val + emissions[live, t]
                back[t, live] = bp
        cur = (delta + T[:S, self.end]).argmax(axis=1)
        path = np.empty((lengths.size, steps), dtype=np.intp)
        path[:, -1] = cur
        every = np.arange(lengths.size)
        for t in range(steps - 1, 0, -1):
            cur = back[t, every, cur]
            path[:, t - 1] = cur
        return [p[:n].tolist() for p, n in zip(path, lengths)]


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
