"""Layout fuzz for the fused loss nodes: the CRF log-partition and gold
score over ragged batches in any length order, with ties and trailing
all-pad columns, against their composed and loop oracles; the intent
cross-entropy against its composed oracle.

The fused log-partition zeroes pad emissions and steps every sentence
through all n steps, reading each one's result at its own last step, so a
slip in that bookkeeping shows only for some layouts. Pads may hold NaN or
±inf emissions and any tag, which no node may read. Examples are bounded
and derandomized, so every run tests the same batches and the file stays
fast.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slu import autodiff as ad
from slu.decoders import CrfHead, cross_entropy_sum

from helpers import cross_entropy_composed, crf_gold_score_loop, crf_log_partition_composed
from test_decoders import partition_and_grads

FUZZ = settings(max_examples=120, derandomize=True, database=None, deadline=None)


def ragged_batch(lengths, extra, S, seed):
    """(crf, emissions, mask, r) in float64: sentences of ``lengths`` in
    that order, ``extra`` all-pad columns after the longest, S labels, and
    a random T and upstream gradient r."""
    lengths = np.array(lengths)
    n = int(lengths.max()) + extra
    rng = np.random.default_rng(seed)
    crf = CrfHead(4, S, rng, dtype=np.float64)
    crf.T.data[:S, :S] = rng.standard_normal((S, S))
    crf.T.data[crf.begin, :S] = rng.standard_normal(S)
    crf.T.data[:S, crf.end] = rng.standard_normal(S)
    mask = np.arange(n) < lengths[:, None]
    em = rng.standard_normal((lengths.size, n, S)) * 3.0
    return crf, em, mask, rng.standard_normal(lengths.size)


@FUZZ
@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5),
       extra=st.integers(0, 2), S=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       pad=st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
@example(lengths=[1, 1, 1], extra=0, S=3, seed=1, pad=np.nan)  # every sentence length 1
@example(lengths=[1], extra=2, S=2, seed=2, pad=-np.inf)  # one token, then pads
@example(lengths=[4, 4, 4], extra=0, S=4, seed=3, pad=0.0)  # equal lengths, no pad
@example(lengths=[3, 5, 3, 2], extra=2, S=5, seed=4, pad=np.inf)  # all-pad columns
def test_log_partition_matches_the_composed_oracle(lengths, extra, S, seed, pad):
    crf, clean, mask, r = ragged_batch(lengths, extra, S, seed)
    clean[~mask] = 0.0
    dirty = clean.copy()
    dirty[~mask] = pad
    with np.errstate(all="raise"):  # a non-finite pad reaching arithmetic raises
        log_z, dE, dT = partition_and_grads(CrfHead.log_partition, crf, dirty, mask, r)
    want = partition_and_grads(crf_log_partition_composed, crf, clean, mask, r)
    np.testing.assert_allclose(log_z, want[0], rtol=0, atol=1e-10)
    np.testing.assert_allclose(dE, want[1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(dT, want[2], rtol=0, atol=1e-8)
    assert np.all(dE[~mask] == 0.0)
    # The pads are never read: the same bits as with zeros there.
    same = partition_and_grads(CrfHead.log_partition, crf, clean, mask, r)
    for got, ref in zip((log_z, dE, dT), same):
        np.testing.assert_array_equal(got, ref)


def scaled_value_and_grads(loss, leaves, r):
    """The value of ``loss``, and the gradients of ``r * loss`` at ``leaves``."""
    for leaf in leaves:
        leaf.grad = None
    value = loss.item()
    ad.mul(loss, r).backward()
    return value, [leaf.grad for leaf in leaves]


@FUZZ
@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5),
       extra=st.integers(0, 2), S=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       pad=st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
@example(lengths=[1, 1, 1], extra=0, S=3, seed=1, pad=np.nan)  # every sentence length 1
@example(lengths=[3, 5, 3, 2], extra=2, S=5, seed=4, pad=-np.inf)  # all-pad columns
def test_gold_score_matches_the_loop(lengths, extra, S, seed, pad):
    crf, clean, mask, r = ragged_batch(lengths, extra, S, seed)
    gold = np.random.default_rng(seed).integers(0, S, size=mask.shape)  # pads too
    clean[~mask] = 0.0
    dirty = clean.copy()
    dirty[~mask] = pad
    em = ad.Tensor(dirty, requires_grad=True)
    with np.errstate(all="raise"):  # a non-finite pad reaching arithmetic raises
        score, (dE, dT) = scaled_value_and_grads(crf.gold_score(em, gold, mask),
                                                 (em, crf.T), r[0])
    want, want_dE, want_dT = crf_gold_score_loop(crf, clean, gold, mask)
    np.testing.assert_allclose(score, want.sum(), rtol=0, atol=1e-10)
    np.testing.assert_allclose(dE, r[0] * want_dE, rtol=0, atol=1e-8)
    np.testing.assert_allclose(dT, r[0] * want_dT, rtol=0, atol=1e-8)
    assert np.all(dE[~mask] == 0.0)


@FUZZ
@given(B=st.integers(1, 6), C=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 3.0, 30.0]))
@example(B=1, C=1, seed=0, scale=3.0)  # one class: zero loss, zero gradient
def test_cross_entropy_matches_the_composed_oracle(B, C, seed, scale):
    rng = np.random.default_rng(seed)
    gold = rng.integers(0, C, size=B)
    r = rng.standard_normal()
    x = ad.Tensor(rng.standard_normal((B, C)) * scale, requires_grad=True)
    with np.errstate(all="raise"):
        got, (dx,) = scaled_value_and_grads(cross_entropy_sum(x, gold), (x,), r)
    want, (want_dx,) = scaled_value_and_grads(cross_entropy_composed(x, gold), (x,), r)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-8)


@pytest.mark.parametrize("mask", [
    [[True, False, True], [True, True, True]],
    [[True, True, False], [False, False, False]],
    [[False, True, True], [True, True, True]],
], ids=["gap", "empty_sentence", "leading_pad"])
def test_a_mask_that_is_not_a_non_empty_prefix_is_rejected(mask):
    crf = CrfHead(4, 3, np.random.default_rng(0), dtype=np.float64)
    em = np.zeros((2, 3, 3))
    with pytest.raises(ValueError, match="prefix|no real tokens"):
        partition_and_grads(CrfHead.log_partition, crf, em, np.array(mask), np.ones(2))
