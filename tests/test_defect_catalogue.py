"""Defect catalogue: tests that the checks still catch what they caught.

Each entry plants one defect the project has already met, as a
``monkeypatch`` that swaps one function in ``slu`` for a defective copy,
and names the Tier-1 check that must catch it. Most copies are the
function's own source with a line or two edited (``edit_source``); their
code replaces the original's in place, so a test that imported the
function by name runs the mutant too. The test runs the check on the
real code, where it must pass, then with the defect, where it must fail.
This is mutation testing (DeMillo, Lipton & Sayward 1978) limited to
known defects. A change that rewrites a mutated function updates its
mutant here in the same change; a mutant is never dropped to make a
check pass.
"""

import __future__
import inspect
import re
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from slu import autodiff as ad
from slu import checkpoint, decoders, interaction, optim, train
from slu.model import JointModel
from slu.config import AblationMode
from slu.data import RowMap
from slu.decoders import CrfHead
from slu.encoder import Encoder

import test_acceptance
import test_autodiff
import test_data
import test_decoders
import test_encoder
import test_gradcheck
import test_interaction
import test_layout_fuzz
import test_optim
import test_train


def edit_source(monkeypatch, func, edits: dict[str, str]):
    """Swap ``func``'s code for that of its own source with every key of
    ``edits`` replaced by its value, all at once. Each key must occur in
    the source exactly once."""
    src = textwrap.dedent(inspect.getsource(func))
    for old in edits:
        assert src.count(old) == 1, old
    src = re.sub("|".join(map(re.escape, edits)), lambda m: edits[m.group()], src)
    namespace = dict(func.__globals__)
    exec(compile(src, inspect.getsourcefile(func), "exec",
                 flags=__future__.annotations.compiler_flag), namespace)
    monkeypatch.setattr(func, "__code__", namespace[func.__name__].__code__)


def getitem_assigns(monkeypatch):
    """``getitem``'s backward assigns where it should add: an entry read
    more than once keeps only its last gradient."""

    def getitem(a, idx):
        a = ad._as_tensor(a)

        def backward(g):
            at = np.arange(a.data.size).reshape(a.data.shape)[idx]
            d = np.zeros(a.data.size, dtype=a.data.dtype)
            d[at.ravel()] = g.ravel()
            return (d.reshape(a.data.shape),)

        return ad._make_node(a.data[idx], (a,), backward)

    monkeypatch.setattr(ad, "getitem", getitem)


def maxpool_routes_every_tie(monkeypatch):
    """``maxpool_over_time``'s backward sends ``g`` to every row that ties
    for its column's max, not to the earliest one only."""
    maxpool = ad.maxpool_over_time

    def every_tie(a, lengths):
        out = maxpool(a, lengths)
        if out._backward is not None:
            at_peak = a.data == np.repeat(out.data, lengths, axis=0)
            out._backward = lambda g: (np.repeat(g, lengths, axis=0) * at_peak,)
        return out

    monkeypatch.setattr(ad, "maxpool_over_time", every_tie)


def accumulate_without_copy(monkeypatch):
    """``_accumulate`` keeps a first contribution of the right shape and
    dtype as the gradient buffer itself, so later in-place adds write
    into an array that a closure may have handed to another parent."""
    accumulate = ad._accumulate

    def without_copy(node, v):
        if node.grad is None and v.shape == node.shape and v.dtype == node.dtype:
            node.grad = v
        else:
            accumulate(node, v)

    monkeypatch.setattr(ad, "_accumulate", without_copy)


def intermediate_adds_in_place(monkeypatch):
    """``_accumulate`` adds an intermediate's later contributions into its
    buffer in place, and that buffer may be an array a closure also handed
    to another parent."""
    edit_source(monkeypatch, ad._accumulate,
                {"node.grad = (grad + v).astype(node.data.dtype, copy=False)": "grad += v"})


def matmul_weight_gradient_scaled(monkeypatch):
    """``matmul``'s gradient for its right operand (the weight) ×0.9."""
    matmul = ad.matmul

    def scaled(a, b):
        out = matmul(a, b)
        backward = out._backward
        if backward is not None:
            def wrong(g):
                ga, gb = backward(g)
                return ga, None if gb is None else gb * 0.9
            out._backward = wrong
        return out

    monkeypatch.setattr(ad, "matmul", scaled)


def bilstm_drops_dc_next(monkeypatch):
    """``Encoder.bilstm``'s backward drops ``dc_next``: no cell-state
    gradient flows from a step to the one before it."""
    edit_source(monkeypatch, Encoder.bilstm, {"dc += dc_next": "pass"})


def attention_backward_unscaled(monkeypatch):
    """``multi_head_attention``'s backward leaves out ``* scale``."""
    edit_source(monkeypatch, interaction.multi_head_attention, {"dA *= scale": "pass"})


def rowmap_edges_swapped(monkeypatch):
    """``RowMap`` stores its ``left`` and ``right`` edge masks swapped."""
    edit_source(monkeypatch, RowMap.__init__, {
        "self.left, self.right = left, right": "self.left, self.right = right, left"})


def adam_without_bias_correction(monkeypatch):
    """``Adam.step`` divides neither moment by its bias correction."""
    edit_source(monkeypatch, optim.Adam.step, {"bc1 = 1.0 - self.beta1 ** t": "bc1 = 1.0",
                                               "bc2 = 1.0 - self.beta2 ** t": "bc2 = 1.0"})


def adam_sweeps_gradless_params(monkeypatch):
    """``Adam.step`` sweeps a parameter without a gradient too, so its stale
    gradient view moves its moments, and weight decay shrinks it."""
    edit_source(monkeypatch, optim.Adam.step, {"continue": "g = grad"})


def clipping_skipped(monkeypatch):
    """``clip_global_norm`` reports the norm but never scales a gradient."""
    edit_source(monkeypatch, optim.clip_global_norm, {"p.tensor.grad *= ratio": "pass"})


def viterbi_greedy(monkeypatch):
    """``CrfHead.viterbi`` takes each token's best emission and ignores
    the transitions."""

    def greedy(self, emissions, mask):
        lengths = RowMap(mask).lengths
        return [np.asarray(emissions)[b, :n].argmax(axis=-1).tolist()
                for b, n in enumerate(lengths)]

    monkeypatch.setattr(CrfHead, "viterbi", greedy)


def viterbi_prunes_without_span(monkeypatch):
    """``CrfHead.viterbi`` keeps only the states within the rounding margin
    of a step's best score, leaving ``span`` out of the prune threshold, so
    it drops states that can still win a ``to`` state."""
    edit_source(monkeypatch, CrfHead.viterbi, {"span + 8 * eps": "8 * eps"})


def viterbi_prunes_without_margin(monkeypatch):
    """``CrfHead.viterbi`` prunes at exactly ``best - span``, with no
    rounding margin, so a state whose sum ties the best one's after float
    rounding can be dropped and the tie goes to the higher index."""
    edit_source(monkeypatch, CrfHead.viterbi,
                {"(span + 8 * eps * (np.abs(best) + top))": "span"})


def keep_mask_unscaled(monkeypatch):
    """The keep-mask rule that ``dropout`` and the attention node share
    leaves out the ``1/(1-p)`` scale, so survivors keep their value."""
    edit_source(monkeypatch, ad._keep_mask, {" * (1.0 / (1.0 - p))": ""})


def checkpoint_load_swaps_arrays(monkeypatch):
    """``load_checkpoint`` hands back two same-shape arrays under each
    other's names: the first layer's slot query and key projections."""
    q, k = 'params["interact.0.q_s"]', 'params["interact.0.k_s"]'
    edit_source(monkeypatch, checkpoint.load_checkpoint, {
        "return Checkpoint(": f"{q}, {k} = {k}, {q}; return Checkpoint("})


def crf_backward_ends_swapped(monkeypatch):
    """``CrfHead.log_partition``'s backward writes the begin-row gradient
    into the end column and the end-column gradient into the begin row."""
    begin, end = "D[0].sum(axis=0)", "G_end.sum(axis=0)"
    edit_source(monkeypatch, CrfHead.log_partition, {begin: end, end: begin})


def crf_end_gradient_at_last_column(monkeypatch):
    """``CrfHead.log_partition``'s backward seeds every sentence's end
    gradient at the batch's last step, ``n - 1``, not at its own."""
    edit_source(monkeypatch, CrfHead.log_partition,
                {"D[last, every] = G_end": "D[n - 1] = G_end"})


def attention_output_float64(monkeypatch):
    """``multi_head_attention`` returns float64 from float32 inputs, as its
    float64 scale once made it do."""
    edit_source(monkeypatch, interaction.multi_head_attention, {
        "ad._make_node(out, (Q, K, V), backward)":
            "ad._make_node(out.astype(np.float64), (Q, K, V), backward)"})


def train_keeps_last_epoch(monkeypatch):
    """``train`` never winds the model back to its best epoch: it returns
    the last epoch's parameters beside a checkpoint of the best one's."""
    edit_source(monkeypatch, train.train, {"model.load_state_arrays(best_params)": "pass"})


def evaluation_draws_dropout(monkeypatch):
    """``JointModel.forward`` hands the model's generator to the layers in
    evaluation too, so a decode draws dropout masks."""
    edit_source(monkeypatch, JointModel.forward,
                {"rng = self.rng if training else None": "rng = self.rng"})


def gold_transitions_transposed(monkeypatch):
    """``CrfHead.gold_score``'s backward counts each gold transition at
    ``(cur, prev)`` instead of ``(prev, cur)``."""
    edit_source(monkeypatch, CrfHead.gold_score, {"prev * K + cur": "cur * K + prev"})


def cross_entropy_without_onehot(monkeypatch):
    """``cross_entropy_sum``'s backward is the softmax alone: the gold
    class's ``-1`` is left out."""
    edit_source(monkeypatch, decoders.cross_entropy_sum, {"d[rows, gold] -= 1.0": "pass"})


def adam_merges_runs_across_a_gap(monkeypatch):
    """``Adam.step`` merges two runs with a gradless parameter between
    them, so the gap's stale gradient slot is swept too."""
    edit_source(monkeypatch, optim.Adam.step, {"runs[-1][2] == lo and ": ""})


def viterbi_never_prunes(monkeypatch):
    """``CrfHead.viterbi``'s rounding margin is ``8 / eps`` for ``8 * eps``,
    so every row keeps every state and takes the full step: the paths stay
    exact and only the speed is lost."""
    edit_source(monkeypatch, CrfHead.viterbi, {"span + 8 * eps": "span + 8 / eps"})


def accumulate_keeps_float64_buffer(monkeypatch):
    """``_accumulate`` keeps a float64 first contribution uncast as a
    float32 intermediate's buffer, so the backward upstream of the CRF
    runs in float64."""
    edit_source(monkeypatch, ad._accumulate,
                {"v.dtype == node.data.dtype": "v.dtype != node.data.dtype"})


def getitem_matches_add_at():
    for idx in (np.array([4, 1, 1, 6, 0, 4, 4]), (np.array([1, 1, 6]), np.array([4, 4, 0]))):
        test_autodiff.TestRowScatter().test_matches_add_at(np.random.default_rng(0), idx)


def maxpool_tie_routes_to_earliest():
    test_autodiff.TestFiniteDifferences().test_maxpool_tie_routes_to_earliest()


def shared_first_gradients_do_not_alias():
    test_autodiff.TestBackward().test_shared_first_gradients_do_not_alias()


def handed_array_is_never_written():
    test_autodiff.TestBackward().test_an_array_handed_to_two_intermediates_is_never_written()


def model_gradcheck():
    result = test_gradcheck.sampled_check(0)
    assert result.passed, result.failures


def bilstm_matches_oracle():
    test_encoder.TestOracle().test_outputs_and_gradients_match()


def attention_gradients_match_fd():
    test_interaction.TestMultiHeadAttention().test_gradients_match_fd_with_ragged_keys(
        np.random.default_rng(12345))


def rowmap_layout():
    test_data.TestRowMap().test_layout_of_a_ragged_batch()


def adam_matches_oracle():
    test_optim.TestAdam().test_first_step_moves_by_lr()
    test_optim.TestInPlaceAdam().test_three_steps_bit_identical_to_allocating_step(0.0)


def adam_leaves_gradless_params_alone():
    test_optim.TestFlatStorage().test_gradless_parameter_keeps_data_and_moments()


def clipping_scales_gradients():
    test_optim.TestClipping().test_norm_reported_and_grads_scaled()


def viterbi_matches_brute_force():
    test_acceptance.test_c02_crf_oracle_equivalence()


def viterbi_matches_loop_on_a_ragged_batch():
    test_decoders.TestViterbi().test_matches_the_from_to_loop_on_a_ragged_batch(
        np.random.default_rng(12345))


def viterbi_matches_loop_on_a_near_tie():
    test_decoders.TestViterbi().test_matches_the_from_to_loop_on_a_near_tie_at_the_margin(
        np.random.default_rng(12345))


def dropout_scales_survivors():
    test_autodiff.TestForwardValues().test_dropout_train_scales_survivors()


def checkpoint_round_trip():
    with tempfile.TemporaryDirectory() as tmp:
        test_train.TestCheckpoint().test_round_trip_is_bit_exact(Path(tmp))


def fused_log_partition_matches_composed():
    test_decoders.TestFusedLogPartition().test_float64_ragged_batch(np.random.default_rng(12345))


def log_partition_layout_fuzz():
    test_layout_fuzz.test_log_partition_matches_the_composed_oracle()


def train_returns_best_epoch():
    with pytest.MonkeyPatch.context() as mp:
        test_train.TestEarlyStopping().test_returns_the_best_epochs_parameters(mp)


def evaluation_leaves_rng_alone():
    test_train.TestEvaluationDraws().test_evaluation_draws_nothing_and_training_draws()


def gold_score_layout_fuzz():
    test_layout_fuzz.test_gold_score_matches_the_loop()


def cross_entropy_fuzz():
    test_layout_fuzz.test_cross_entropy_matches_the_composed_oracle()


def adam_skips_a_gradless_gap():
    test_optim.TestFlatStorage().test_gradless_parameter_between_two_with_gradients_is_left_alone()


def viterbi_prunes_a_peaked_batch():
    with pytest.MonkeyPatch.context() as mp:
        test_decoders.TestViterbi().test_a_peaked_batch_prunes_almost_every_row(
            np.random.default_rng(12345), mp)


def float32_backward_stays_float32():
    with pytest.MonkeyPatch.context() as mp:
        test_train.TestDtypeContract().test_float32_backward_keeps_every_gradient_in_its_dtype(mp)


def float32_graph_stays_float32():
    test_train.TestDtypeContract().test_float32_training_graph_is_float32(AblationMode.FULL)


CATALOGUE = {
    "getitem_assigns": (getitem_assigns, getitem_matches_add_at),
    "maxpool_routes_every_tie": (maxpool_routes_every_tie, maxpool_tie_routes_to_earliest),
    "accumulate_without_copy": (accumulate_without_copy, shared_first_gradients_do_not_alias),
    "intermediate_adds_in_place": (intermediate_adds_in_place, handed_array_is_never_written),
    "matmul_weight_gradient_scaled": (matmul_weight_gradient_scaled, model_gradcheck),
    "bilstm_drops_dc_next": (bilstm_drops_dc_next, bilstm_matches_oracle),
    "attention_backward_unscaled": (attention_backward_unscaled, attention_gradients_match_fd),
    "rowmap_edges_swapped": (rowmap_edges_swapped, rowmap_layout),
    "adam_without_bias_correction": (adam_without_bias_correction, adam_matches_oracle),
    "adam_sweeps_gradless_params": (adam_sweeps_gradless_params,
                                    adam_leaves_gradless_params_alone),
    "clipping_skipped": (clipping_skipped, clipping_scales_gradients),
    "viterbi_greedy": (viterbi_greedy, viterbi_matches_brute_force),
    "viterbi_prunes_without_span": (viterbi_prunes_without_span,
                                    viterbi_matches_loop_on_a_ragged_batch),
    "viterbi_prunes_without_margin": (viterbi_prunes_without_margin,
                                      viterbi_matches_loop_on_a_near_tie),
    "keep_mask_unscaled": (keep_mask_unscaled, dropout_scales_survivors),
    "checkpoint_load_swaps_arrays": (checkpoint_load_swaps_arrays, checkpoint_round_trip),
    "crf_backward_ends_swapped": (crf_backward_ends_swapped, fused_log_partition_matches_composed),
    "crf_end_gradient_at_last_column": (crf_end_gradient_at_last_column,
                                        log_partition_layout_fuzz),
    "attention_output_float64": (attention_output_float64, float32_graph_stays_float32),
    "train_keeps_last_epoch": (train_keeps_last_epoch, train_returns_best_epoch),
    "evaluation_draws_dropout": (evaluation_draws_dropout, evaluation_leaves_rng_alone),
    "gold_transitions_transposed": (gold_transitions_transposed, gold_score_layout_fuzz),
    "cross_entropy_without_onehot": (cross_entropy_without_onehot, cross_entropy_fuzz),
    "adam_merges_runs_across_a_gap": (adam_merges_runs_across_a_gap, adam_skips_a_gradless_gap),
    "viterbi_never_prunes": (viterbi_never_prunes, viterbi_prunes_a_peaked_batch),
    "accumulate_keeps_float64_buffer": (accumulate_keeps_float64_buffer,
                                        float32_backward_stays_float32),
}


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_check_catches_the_defect(monkeypatch, name):
    plant, check = CATALOGUE[name]
    check()
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check()
