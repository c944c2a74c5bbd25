"""Decoder tests: intent head arithmetic, CRF against an exhaustive-path
oracle, normalization, Viterbi agreement, and the joint loss."""

import numpy as np
import pytest

from slu import autodiff as ad
from slu.data import RowMap
from slu.decoders import (
    NEG_INF,
    CrfHead,
    IntentHead,
    cross_entropy_sum,
    joint_loss,
)
from slu.gradcheck import toy_setup

from helpers import (
    assert_close,
    crf_brute_force,
    crf_gold_score_loop,
    crf_log_partition_composed,
    numeric_grad,
    viterbi_loop,
)


def make_crf(num_slots, d=4, seed=0, zero=False):
    crf = CrfHead(d, num_slots, np.random.default_rng(seed), dtype=np.float64)
    if zero:
        crf.T.data[:] = 0.0
    return crf


def random_crf_instance(rng, n, S):
    em = rng.standard_normal((n, S))
    T = rng.standard_normal((S + 2, S + 2))
    T[:, S] = NEG_INF
    T[S + 1, :] = NEG_INF
    return em, T


class TestIntentHead:
    def test_single_token_pools_to_that_vector(self, rng):
        head = IntentHead(3, 2, np.random.default_rng(0), dtype=np.float64)
        h = rng.standard_normal((1, 3))
        logits = head.logits(ad.Tensor(h), RowMap(np.ones((1, 1), bool))).data
        expected = h[0] @ head.W.data + head.b.data
        np.testing.assert_allclose(logits[0], expected, atol=1e-12)

    def test_hand_arithmetic_two_by_two(self):
        head = IntentHead(2, 2, np.random.default_rng(0), dtype=np.float64)
        head.W.data = np.array([[1.0, -1.0], [2.0, 0.5]])
        head.b.data = np.array([0.1, -0.2])
        # c = elementwise max over the two tokens = [3.0, 4.0];
        # logits = [3*1 + 4*2 + 0.1, 3*(-1) + 4*0.5 - 0.2] = [11.1, -1.2]
        h = np.array([[3.0, -7.0], [0.0, 4.0]])
        logits = head.logits(ad.Tensor(h), RowMap(np.ones((1, 2), bool))).data
        np.testing.assert_allclose(logits[0], [11.1, -1.2], atol=1e-12)

    def test_joint_predict_tie_takes_lowest_index(self):
        model, batch = toy_setup(seed=0)
        model.intent_head.W.data[:] = 0.0
        model.intent_head.b.data[:] = 0.3
        intents, _ = model.predict(batch.token_ids, batch.mask)
        assert intents.tolist() == [0] * batch.size

    def test_pad_tokens_do_not_reach_the_pool(self, rng):
        # Packed, a short sentence's rows are followed by the next
        # sentence's; those must not reach its pool either.
        head = IntentHead(3, 2, np.random.default_rng(0), dtype=np.float64)
        h = rng.standard_normal((2, 2, 3))
        h[0, 1] = 100.0
        h[1, 0] = 100.0
        rows = RowMap(np.array([[True, False], [True, True]]))
        logits = head.logits(ad.Tensor(rows.gather(h)), rows).data
        expected = h[0, 0] @ head.W.data + head.b.data
        np.testing.assert_allclose(logits[0], expected, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits_give_log_of_class_count(self):
        logits = ad.Tensor(np.zeros((3, 7)))
        loss = cross_entropy_sum(logits, np.array([0, 3, 6]))
        np.testing.assert_allclose(loss.item(), 3 * np.log(7), rtol=1e-6)

    def test_confident_correct_logits_vanish(self):
        logits = np.full((1, 4), -50.0)
        logits[0, 2] = 50.0
        loss = cross_entropy_sum(ad.Tensor(logits), np.array([2]))
        assert loss.item() < 1e-6

    def test_matches_numpy_log_softmax(self, rng):
        x = rng.standard_normal((5, 7)) * 4.0
        gold = np.array([0, 6, 3, 3, 1])
        shifted = x - x.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        loss = cross_entropy_sum(ad.Tensor(x, dtype=np.float64), gold)
        np.testing.assert_allclose(loss.item(), -logp[np.arange(5), gold].sum(),
                                   rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        gold = np.array([2, 0, 4])
        x = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
        cross_entropy_sum(x, gold).backward()
        numeric = numeric_grad(lambda v: cross_entropy_sum(ad.Tensor(v), gold).item(),
                               x.data)
        assert_close(x.grad, numeric)


class TestCrfNll:
    def test_single_token_single_label_is_certain(self):
        crf = make_crf(1)
        em = ad.Tensor(np.array([[[2.5]]]))
        nll = crf.nll(em, np.array([[0]]), np.array([[True]]))
        np.testing.assert_allclose(nll.item(), 0.0, atol=1e-6)

    def test_all_zeros_gives_uniform_over_paths(self):
        crf = make_crf(4, zero=True)
        em = ad.Tensor(np.zeros((1, 3, 4)))
        nll = crf.nll(em, np.array([[0, 1, 2]]), np.ones((1, 3), bool))
        np.testing.assert_allclose(nll.item(), 3 * np.log(4), rtol=1e-6)

    def test_partition_matches_enumeration_oracle(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 5))
            S = int(rng.integers(1, 5))
            em, T = random_crf_instance(rng, n, S)
            crf = make_crf(S)
            crf.T.data = T
            log_z_oracle, _, _ = crf_brute_force(em, T)
            log_z = crf.log_partition(
                ad.Tensor(em[None, :, :]), np.ones((1, n), bool)
            ).data[0]
            np.testing.assert_allclose(log_z, log_z_oracle, atol=1e-6)

    def test_partition_respects_mask(self, rng):
        # Padding the sequence must not change the partition at all.
        S = 3
        em, T = random_crf_instance(rng, 2, S)
        crf = make_crf(S)
        crf.T.data = T
        base = crf.log_partition(ad.Tensor(em[None]), np.ones((1, 2), bool)).data[0]
        em_pad = np.concatenate([em, rng.standard_normal((2, S))], axis=0)
        mask = np.array([[True, True, False, False]])
        padded = crf.log_partition(ad.Tensor(em_pad[None]), mask).data[0]
        np.testing.assert_allclose(padded, base, atol=1e-10)

    def test_normalization_sums_to_one(self, rng):
        # Sum of exp(-NLL) over every possible gold assignment must be 1.
        import itertools

        for trial in range(5):
            n = int(rng.integers(1, 4))
            S = int(rng.integers(2, 5))
            em, T = random_crf_instance(rng, n, S)
            crf = make_crf(S)
            crf.T.data = T
            em_t = ad.Tensor(em[None])
            mask = np.ones((1, n), bool)
            total = 0.0
            for path in itertools.product(range(S), repeat=n):
                with ad.no_grad():
                    nll = crf.nll(em_t, np.array([path]), mask).item()
                total += np.exp(-nll)
            np.testing.assert_allclose(total, 1.0, atol=1e-5)

    def test_emission_shift_invariance(self, rng):
        # Adding a constant to every emission at one time step cancels
        # between path score and partition.
        S = 3
        em, T = random_crf_instance(rng, 3, S)
        crf = make_crf(S)
        crf.T.data = T
        gold = np.array([[0, 2, 1]])
        mask = np.ones((1, 3), bool)
        base = crf.nll(ad.Tensor(em[None]), gold, mask).item()
        shifted = em.copy()
        shifted[1] += 7.3
        after = crf.nll(ad.Tensor(shifted[None]), gold, mask).item()
        np.testing.assert_allclose(after, base, atol=1e-6)
        a = crf.viterbi(em[None], mask)
        b = crf.viterbi(shifted[None], mask)
        assert a == b

    def test_batched_nll_is_sum_of_singles(self, rng):
        S = 3
        crf = make_crf(S, seed=2)
        em1 = rng.standard_normal((1, 2, S))
        em2 = rng.standard_normal((1, 3, S))
        gold1 = np.array([[0, 1]])
        gold2 = np.array([[2, 0, 1]])
        n1 = crf.nll(ad.Tensor(em1), gold1, np.ones((1, 2), bool)).item()
        n2 = crf.nll(ad.Tensor(em2), gold2, np.ones((1, 3), bool)).item()

        em_batch = np.zeros((2, 3, S))
        em_batch[0, :2] = em1[0]
        em_batch[1] = em2[0]
        gold = np.array([[0, 1, 0], [2, 0, 1]])
        mask = np.array([[True, True, False], [True, True, True]])
        both = crf.nll(ad.Tensor(em_batch), gold, mask).item()
        np.testing.assert_allclose(both, n1 + n2, rtol=1e-6)

    def test_gradients_match_fd(self, rng):
        S = 3
        crf = make_crf(S, seed=4)
        em = rng.standard_normal((2, 3, S))
        gold = np.array([[0, 1, 2], [2, 0, 0]])
        mask = np.array([[True, True, True], [True, True, False]])

        em_t = ad.Tensor(em, requires_grad=True)
        crf.nll(em_t, gold, mask).backward()

        def f_em(arr):
            with ad.no_grad():
                return crf.nll(ad.Tensor(arr), gold, mask).item()

        assert_close(em_t.grad, numeric_grad(f_em, em))

        def f_T(arr):
            saved = crf.T.data
            crf.T.data = arr
            with ad.no_grad():
                val = crf.nll(ad.Tensor(em), gold, mask).item()
            crf.T.data = saved
            return val

        assert_close(crf.T.grad, numeric_grad(f_T, crf.T.data))


def partition_and_grads(log_partition, crf, em, mask, r):
    """log Z and the gradients of sum(log Z * r) w.r.t. emissions and T."""
    em_t = ad.Tensor(em, requires_grad=True)
    crf.T.grad = None
    log_z = log_partition(crf, em_t, mask)
    ad.tsum(ad.mul(log_z, ad.Tensor(r.astype(log_z.data.dtype)))).backward()
    return log_z.data, em_t.grad, crf.T.grad


def ragged_instance(rng, S=5, dtype=np.float64, t_dtype=None):
    """Batch of four with lengths 1, full width 6, 3 and 4, a random T and
    a non-constant upstream gradient r."""
    lengths = np.array([1, 6, 3, 4])
    mask = np.arange(6)[None, :] < lengths[:, None]
    crf = CrfHead(4, S, np.random.default_rng(3), dtype=t_dtype or dtype)
    crf.T.data[:S, :S] = rng.standard_normal((S, S))
    crf.T.data[crf.begin, :S] = rng.standard_normal(S)
    crf.T.data[:S, crf.end] = rng.standard_normal(S)
    em = rng.standard_normal((4, 6, S)).astype(dtype)
    return crf, em, mask, rng.standard_normal(4)


class TestFusedLogPartition:
    """The fused log-partition node against the composed log-space oracle."""

    def assert_matches_oracle(self, crf, em, mask, r, value_tol=1e-10,
                              grad_tol=1e-8):
        fused = partition_and_grads(CrfHead.log_partition, crf, em, mask, r)
        composed = partition_and_grads(crf_log_partition_composed, crf, em, mask, r)
        assert fused[0].dtype == composed[0].dtype
        np.testing.assert_allclose(fused[0], composed[0], rtol=0, atol=value_tol)
        for got, want in zip(fused[1:], composed[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=grad_tol)
        return fused

    def test_float64_ragged_batch(self, rng):
        crf, em, mask, r = ragged_instance(rng)
        _, _, dT = self.assert_matches_oracle(crf, em, mask, r)
        S = crf.num_slots
        assert np.all(dT[:, crf.begin] == 0.0)
        assert np.all(dT[crf.end, :] == 0.0)
        assert np.all(dT[crf.begin, S:] == 0.0) and np.all(dT[S:, crf.end] == 0.0)

    def test_float32_ragged_batch(self, rng):
        crf, em, mask, r = ragged_instance(rng, dtype=np.float32)
        fused = partition_and_grads(CrfHead.log_partition, crf, em, mask, r)
        composed = partition_and_grads(crf_log_partition_composed, crf, em, mask, r)
        for got, want in zip(fused, composed):
            assert got.dtype == np.float32
            assert_close(got, want, tol=1e-4)
        assert np.all(fused[2][:, crf.begin] == 0.0)
        assert np.all(fused[2][crf.end, :] == 0.0)

    def test_float32_transitions_with_float64_emissions(self, rng):
        crf, em, mask, r = ragged_instance(rng, t_dtype=np.float32)
        fused = partition_and_grads(CrfHead.log_partition, crf, em, mask, r)
        composed = partition_and_grads(crf_log_partition_composed, crf, em, mask, r)
        assert fused[0].dtype == np.float64 and fused[2].dtype == np.float32
        np.testing.assert_allclose(fused[0], composed[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(fused[1], composed[1], rtol=0, atol=1e-8)
        assert_close(fused[2], composed[2], tol=1e-6)  # stored in float32

    def test_forbidden_transitions(self, rng):
        crf, em, mask, r = ragged_instance(rng)
        S = crf.num_slots
        forbid = rng.random((S, S)) < 0.4
        np.fill_diagonal(forbid, False)  # staying put is allowed ...
        forbid[:, 0] = True  # ... except in label 0, which only a path's start may take
        crf.T.data[:S, :S][forbid] = NEG_INF
        _, _, dT = self.assert_matches_oracle(crf, em, mask, r)
        assert np.all(dT[:S, :S][forbid] == 0.0)

    def test_emissions_spread_two_hundred_nats(self, rng):
        crf, em, mask, r = ragged_instance(rng)
        em = rng.uniform(-200.0, 200.0, size=em.shape)
        log_z, _, _ = self.assert_matches_oracle(crf, em, mask, r)
        assert np.all(np.isfinite(log_z))

    def test_single_label(self, rng):
        crf, em, mask, r = ragged_instance(rng, S=1)
        self.assert_matches_oracle(crf, em, mask, r)

    def test_is_one_graph_node_over_emissions_and_transitions(self, rng):
        crf, em, mask, _ = ragged_instance(rng)
        em_t = ad.Tensor(em, requires_grad=True)
        log_z = crf.log_partition(em_t, mask)
        assert len(log_z._parents) == 2
        assert log_z._parents[0] is em_t and log_z._parents[1] is crf.T
        assert all(p._parents == () for p in log_z._parents)


class TestGoldScore:
    def test_matches_per_sentence_loop(self, rng):
        # Pad positions hold arbitrary tags, which must not count; only the
        # summation order of the emissions differs from the loop.
        crf, em, mask, _ = ragged_instance(rng)
        gold = rng.integers(0, 5, size=mask.shape)
        em_t = ad.Tensor(em, requires_grad=True)
        score = crf.gold_score(em_t, gold, mask)
        score.backward()
        ref, ref_dE, ref_dT = crf_gold_score_loop(crf, em, gold, mask)
        assert_close(score.item(), ref.sum(), tol=1e-12)
        np.testing.assert_array_equal(em_t.grad, ref_dE)
        np.testing.assert_array_equal(crf.T.grad, ref_dT)


class TestViterbi:
    def test_matches_brute_force_argmax(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 5))
            S = int(rng.integers(1, 5))
            em, T = random_crf_instance(rng, n, S)
            crf = make_crf(S)
            crf.T.data = T
            _, best_path, best_score = crf_brute_force(em, T)
            got = crf.viterbi(em[None], np.ones((1, n), bool))[0]
            assert got == best_path, f"trial {trial}: {got} vs {best_path}"

    def test_single_token_argmax_with_boundaries(self, rng):
        S = 4
        em, T = random_crf_instance(rng, 1, S)
        crf = make_crf(S)
        crf.T.data = T
        scores = T[S, :S] + em[0] + T[:S, S + 1]
        assert crf.viterbi(em[None], np.ones((1, 1), bool))[0] == [int(scores.argmax())]

    def test_forbidden_bigram_is_avoided(self):
        S = 3
        crf = make_crf(S, zero=True)
        crf.T.data[1, 2] = NEG_INF
        em = np.zeros((1, 2, S))
        em[0, 0, 1] = 5.0  # strongly prefer 1 then 2, but 1->2 is forbidden
        em[0, 1, 2] = 5.0
        path = crf.viterbi(em, np.ones((1, 2), bool))[0]
        assert not (path[0] == 1 and path[1] == 2)
        assert 5.0 in (em[0, 0, path[0]], em[0, 1, path[1]])

    def test_tie_breaks_to_lowest_label(self):
        crf = make_crf(3, zero=True)
        em = np.zeros((1, 2, 3))
        assert crf.viterbi(em, np.ones((1, 2), bool))[0] == [0, 0]

    def test_path_score_at_least_gold(self, rng):
        for trial in range(30):
            n = int(rng.integers(1, 5))
            S = int(rng.integers(2, 5))
            em, T = random_crf_instance(rng, n, S)
            crf = make_crf(S)
            crf.T.data = T
            gold = rng.integers(0, S, size=(1, n))
            mask = np.ones((1, n), bool)
            pred = crf.viterbi(em[None], mask)[0]

            def score(path):
                s = T[S, path[0]] + em[0, path[0]]
                for t in range(1, n):
                    s += T[path[t - 1], path[t]] + em[t, path[t]]
                return s + T[path[-1], S + 1]

            assert score(pred) >= score(gold[0].tolist()) - 1e-9

    def _oracle_case(self, rng, lengths):
        S = 120
        crf = CrfHead(8, S, rng, dtype=np.float32)
        mask = np.arange(max(lengths))[None, :] < np.array(lengths)[:, None]
        em = rng.standard_normal(mask.shape + (S,)).astype(np.float32)
        return crf, em, mask

    def test_matches_the_from_to_loop_on_a_ragged_batch(self, rng):
        crf, em, mask = self._oracle_case(rng, [1, 46, 7, 2, 30, 1, 13])
        assert crf.viterbi(em, mask) == viterbi_loop(crf, em, mask)

    def test_matches_the_from_to_loop_on_planted_ties(self, rng):
        # States 3 and 7 get equal rows and columns of T and equal
        # emissions, so at every step the two `from` states tie: both
        # layouts must send the backpointer to the lower one.
        crf, em, mask = self._oracle_case(rng, [12, 5, 1, 9])
        T = crf.T.data
        T[7] = T[3]
        T[:, 7] = T[:, 3]
        em[:, :, 7] = em[:, :, 3] = em[:, :, 3] + 4.0
        paths = crf.viterbi(em, mask)
        assert paths == viterbi_loop(crf, em, mask)
        assert any(3 in path for path in paths)
        assert all(7 not in path for path in paths)

    def test_matches_the_from_to_loop_with_a_forbidden_transition(self, rng):
        crf, em, mask = self._oracle_case(rng, [20, 3, 1, 46])
        em[:, :, 5] += 6.0
        crf.T.data[5, 5] = NEG_INF
        paths = crf.viterbi(em, mask)
        assert paths == viterbi_loop(crf, em, mask)
        assert all((a, b) != (5, 5) for path in paths for a, b in zip(path, path[1:]))

    def test_matches_the_from_to_loop_on_length_one_sentences(self, rng):
        crf, em, mask = self._oracle_case(rng, [1] * 9)
        paths = crf.viterbi(em, mask)
        assert paths == viterbi_loop(crf, em, mask)
        assert all(len(path) == 1 for path in paths)

    def test_empty_sequence_rejected(self):
        crf = make_crf(2)
        with pytest.raises(ValueError):
            crf.viterbi(np.zeros((1, 2, 2)), np.array([[False, False]]))


class TestJointLoss:
    def test_perfect_predictions_drive_loss_to_zero(self):
        crf = make_crf(1)
        logits = np.full((1, 3), -50.0)
        logits[0, 1] = 50.0
        em = ad.Tensor(np.array([[[0.0], [0.0]]]))
        loss = joint_loss(ad.Tensor(logits), np.array([1]), crf, em,
                          np.array([[0, 0]]), np.ones((1, 2), bool))
        assert loss.item() < 1e-5

    def test_uniform_intent_contributes_log_seven(self):
        crf = make_crf(1)
        logits = ad.Tensor(np.zeros((2, 7)))
        em = ad.Tensor(np.zeros((2, 1, 1)))
        loss = joint_loss(logits, np.array([0, 3]), crf, em,
                          np.zeros((2, 1), int), np.ones((2, 1), bool))
        np.testing.assert_allclose(loss.item(), np.log(7), rtol=1e-6)

    def test_two_example_batch_is_mean_of_singles(self, rng):
        S, I = 3, 4
        crf = make_crf(S, seed=6)
        logits = rng.standard_normal((2, I))
        em = rng.standard_normal((2, 3, S))
        intent_gold = np.array([1, 3])
        slot_gold = np.array([[0, 1, 2], [2, 2, 0]])
        mask = np.array([[True, True, True], [True, True, False]])

        full = joint_loss(ad.Tensor(logits), intent_gold, crf, ad.Tensor(em),
                          slot_gold, mask).item()
        singles = []
        for b in range(2):
            singles.append(
                joint_loss(ad.Tensor(logits[b : b + 1]), intent_gold[b : b + 1],
                           crf, ad.Tensor(em[b : b + 1]), slot_gold[b : b + 1],
                           mask[b : b + 1]).item()
            )
        np.testing.assert_allclose(full, np.mean(singles), rtol=1e-6)
