"""Training loop and checkpoint tests: descent sanity, early stopping,
determinism, divergence detection, and bit-exact persistence."""

import contextlib
import os
from pathlib import Path

import numpy as np
import pytest

from slu import autodiff as ad
from slu import checkpoint as checkpoint_module
from slu.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from slu.config import AblationMode, Config, ConfigError, build_config
from slu.data import (Batch, DataError, Utterance, Vocab, build_vocab, load_split,
                      make_batches)
from slu.gradcheck import toy_setup
from slu.metrics import EvalReport, evaluate
from slu.model import JointModel
from slu.optim import Adam, clip_global_norm
from slu.train import DivergenceError, _improved, evaluate_model, predict_dataset, train

from helpers import (CORRUPT_CHECKPOINTS, assert_close, composed_kernels, graph_dtype_census,
                     rewrite_header)


def tiny_config(**overrides):
    base = dict(embed_dim=8, hidden_dim=8, num_layers=1, num_heads=2,
                ffn_dim=16, dropout=0.0, batch_size=4, max_epochs=3,
                patience=15, seed=1)
    base.update(overrides)
    return Config(**base).validate()


def tiny_corpus():
    return [
        Utterance(["show", "flights", "to", "boston"],
                  ["O", "O", "O", "B-city"], "flight"),
        Utterance(["list", "fares"], ["O", "O"], "fare"),
        Utterance(["fly", "to", "denver", "tomorrow"],
                  ["O", "O", "B-city", "B-date"], "flight"),
        Utterance(["show", "fares", "to", "denver"],
                  ["O", "O", "O", "B-city"], "fare"),
        Utterance(["flights", "from", "boston"],
                  ["O", "O", "B-city"], "flight"),
        Utterance(["what", "is", "the", "fare"], ["O", "O", "O", "O"], "fare"),
    ]


def report(overall, f1=0.5):
    return EvalReport(slot_f1=f1, slot_precision=f1, slot_recall=f1,
                      intent_accuracy=overall, overall_accuracy=overall,
                      gold_chunks=4, pred_chunks=4, correct_chunks=2,
                      sentences=4, correct_sentences=2)


class TestDtypeContract:
    """A model computes in its parameter dtype: no op constant may promote
    a float32 graph to float64, and a float64 graph stays float64."""

    @pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
    def test_float32_training_graph_is_float32(self, mode):
        ref, batch = toy_setup(seed=2, ablation=mode.value)
        config = ref.config.replace(dropout=0.1, encoder_dropout=0.1)
        model = JointModel(config, ref.vocab, dtype=np.float32)
        loss = model.loss(batch, training=True)
        census = graph_dtype_census(loss)
        assert set(census) == {"float32"}, census
        loss.backward()
        for p in model.params():
            assert p.tensor.grad is None or p.tensor.grad.dtype == np.float32, p.name

    def test_float32_backward_keeps_every_gradient_in_its_dtype(self, monkeypatch):
        # The fused CRF node hands back float64 gradients; the engine must
        # store them in float32, or the backward upstream runs in float64.
        ref, batch = toy_setup(seed=2)
        model = JointModel(ref.config, ref.vocab, dtype=np.float32)
        loss = model.loss(batch, training=True)
        stored = []
        accumulate = ad._accumulate

        def spy(node, v):
            accumulate(node, v)
            stored.append((node.data.dtype, node.grad.dtype))

        monkeypatch.setattr(ad, "_accumulate", spy)
        loss.backward()
        assert len(stored) > 50
        assert set(stored) == {(np.dtype(np.float32), np.dtype(np.float32))}

    @pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
    def test_gradcheck_graph_is_float64(self, mode):
        model, batch = toy_setup(seed=2, ablation=mode.value)
        census = graph_dtype_census(model.loss(batch, training=False))
        assert set(census) == {"float64"}, census

    def test_float32_predict_forward_is_float32(self, monkeypatch):
        ref, batch = toy_setup(seed=2)
        model = JointModel(ref.config, ref.vocab, dtype=np.float32)
        seen = []
        forward = model.forward

        def spy(*args, **kwargs):
            seen.append(forward(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(model, "forward", spy)
        model.predict(batch.token_ids, batch.mask)
        (logits, emissions), = seen
        assert logits.dtype == np.float32
        assert emissions.dtype == np.float32


class TestFloat32AgainstFloat64:
    """A float32 model's loss and gradients track the same model in float64.

    The float32 gradients land in ``Adam``'s views, cast from the float64
    ones the CRF node computes. Bounds: over seeds 0-79 at toy.cfg width,
    after 30 float32 Adam steps on atis16, the worst relative differences
    were 2.4e-6 for the loss, 7.1e-7 for the global gradient and 1.3e-6
    for a single parameter. The bounds are about 12x, 14x and 15x those.
    """

    SAMPLE = Path(__file__).resolve().parent.parent / "sample_data" / "atis16"

    @staticmethod
    def _loss_and_grads(model, batch):
        for p in model.params():
            p.tensor.grad = None
        loss = model.loss(batch, training=False)
        loss.backward()
        return loss.item(), {p.name: p.tensor.grad.astype(np.float64)
                             for p in model.params() if p.tensor.grad is not None}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_toy_width_gradients_match_float64(self, seed):
        corpus = load_split(self.SAMPLE / "train")
        vocab = build_vocab(corpus)
        config = build_config(self.SAMPLE.parent.parent / "configs" / "toy.cfg").replace(seed=seed)
        m32 = JointModel(config, vocab)
        opt = Adam(m32.params(), lr=config.lr)
        batches = make_batches(corpus, vocab, config.batch_size, shuffle_seed=seed)
        for i in range(30):
            opt.zero_grad()
            m32.loss(batches[i % len(batches)], training=True).backward()
            opt.step()
        m64 = JointModel(config, vocab, dtype=np.float64)
        m64.load_state_arrays(m32.state_arrays())
        batch = make_batches(corpus, vocab, 8, shuffle_seed=seed + 1)[0]
        l32, g32 = self._loss_and_grads(m32, batch)
        l64, g64 = self._loss_and_grads(m64, batch)
        assert g32.keys() == g64.keys()
        assert abs(l32 - l64) <= 3e-5 * abs(l64)
        diff = np.sqrt(sum(((g32[k] - g64[k]) ** 2).sum() for k in g64))
        assert diff <= 1e-5 * np.sqrt(sum((g ** 2).sum() for g in g64.values()))
        for k, g in g64.items():
            assert np.linalg.norm(g32[k] - g) <= 2e-5 * np.linalg.norm(g), k


class TestGraphSize:
    def test_base_shape_training_graph_has_at_most_140_nodes(self):
        # A configs/base.cfg model on a B=32 batch with lengths 6-24 (the
        # benchmark's train_base shape; node count depends on the config and
        # the ablation, not on the lengths).
        config = build_config(Path(__file__).resolve().parent.parent / "configs" / "base.cfg",
                              {"seed": "321"})
        gen = np.random.default_rng(321)
        vocab = Vocab(id2word=["<pad>", "<unk>"] + [f"w{i}" for i in range(898)],
                      id2slot=[f"s{i}" for i in range(120)],
                      id2intent=[f"i{i}" for i in range(21)])
        lengths = gen.integers(6, 25, size=32)
        mask = np.arange(lengths.max()) < lengths[:, None]
        batch = Batch(token_ids=np.where(mask, gen.integers(2, 900, mask.shape), 0),
                      mask=mask, slot_ids=np.where(mask, gen.integers(0, 120, mask.shape), 0),
                      intent_ids=gen.integers(0, 21, 32))
        model = JointModel(config, vocab)
        census = graph_dtype_census(model.loss(batch, training=True))
        assert census["float32"]["nodes"] <= 140, census


class TestMaskLayout:
    @pytest.mark.parametrize("mask,message", [
        ([[True, True, True, True], [True, False, True, False]], "prefix"),
        ([[True, True, True, True], [False, False, False, False]], "no real tokens"),
    ], ids=["non_prefix", "empty_sentence"])
    def test_forward_rejects_a_bad_mask(self, mask, message):
        model, batch = toy_setup(seed=0)
        with pytest.raises(ValueError, match=message):
            model.forward(batch.token_ids, np.array(mask))


class TestComposedKernels:
    @pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
    def test_training_steps_match_composed_oracles(self, mode):
        # Two same-seed float64 models with dropout on, one run with every
        # fused kernel (BiLSTM, CRF log-partition and gold score, intent
        # cross-entropy, packed interaction stack and its attention node)
        # swapped for its composed oracle.
        # Same rng order on both sides, so same dropout masks; at each of
        # three steps the losses agree to 1e-10 relative and every
        # parameter gradient to 1e-8, then each side takes its Adam step.
        ref, batch = toy_setup(seed=6, ablation=mode.value)
        config = ref.config.replace(dropout=0.1, encoder_dropout=0.1)
        fused = JointModel(config, ref.vocab, dtype=np.float64)
        composed = JointModel(config, ref.vocab, dtype=np.float64)
        opts = [Adam(m.params(), lr=1e-2) for m in (fused, composed)]
        for step in range(3):
            losses = []
            for model, opt, oracle in ((fused, opts[0], False), (composed, opts[1], True)):
                opt.zero_grad()
                with composed_kernels() if oracle else contextlib.nullcontext():
                    loss = model.loss(batch, training=True)
                    losses.append(loss.item())
                    loss.backward()
            assert abs(losses[0] - losses[1]) <= 1e-10 * abs(losses[1]), (step, losses)
            for p, q in zip(fused.params(), composed.params(), strict=True):
                assert (p.tensor.grad is None) == (q.tensor.grad is None), p.name
                if p.tensor.grad is not None:
                    assert_close(p.tensor.grad, q.tensor.grad, tol=1e-8)
            for opt in opts:
                opt.step()


class TestEvaluationDraws:
    def test_evaluation_draws_nothing_and_training_draws(self):
        # Both dropouts on: an evaluation loss and a decode leave the
        # model's generator where it was and repeat exactly, and a
        # training forward advances it.
        ref, batch = toy_setup(seed=0)
        model = JointModel(ref.config.replace(dropout=0.3, encoder_dropout=0.3), ref.vocab,
                           dtype=np.float64)
        state = model.rng.bit_generator.state
        losses = [model.loss(batch, training=False).item() for _ in range(2)]
        decodes = [model.predict(batch.token_ids, batch.mask) for _ in range(2)]
        assert model.rng.bit_generator.state == state
        assert losses[0] == losses[1]
        np.testing.assert_array_equal(decodes[0][0], decodes[1][0])
        assert decodes[0][1] == decodes[1][1]
        model.loss(batch, training=True)
        assert model.rng.bit_generator.state != state


class TestDescentSanity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_step_decreases_same_batch_loss(self, seed):
        # Randomized toy configs in float64; lr small enough that one Adam
        # step must reduce the loss it was computed from.
        gen = np.random.default_rng(seed)
        model, batch = toy_setup(seed=seed)
        opt = Adam(model.params(), lr=1e-3)
        before = model.loss(batch, training=False)
        value = before.item()
        opt.zero_grad()
        before.backward()
        clip_global_norm(opt.params, 5.0)
        opt.step()
        with ad.no_grad():
            after = model.loss(batch, training=False).item()
        assert after < value, f"loss went {value:.6f} -> {after:.6f}"


class TestEarlyStopping:
    def test_patience_zero_runs_exactly_one_epoch(self):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=50, patience=0), data, data)
        assert len(result.history) == 1
        assert result.best_epoch == 0

    def test_runs_to_max_epochs_with_large_patience(self):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=3, patience=100), data, data)
        assert len(result.history) == 3

    def test_returns_the_best_epochs_parameters(self, monkeypatch):
        # Scripted dev scores peak at epoch 1 of 4. The fake scorer keeps a
        # copy of the arrays it scored, so the returned model and its
        # checkpoint must hold epoch 1's bytes, not the last epoch's.
        scores = iter([0.2, 0.9, 0.5, 0.4])
        snapshots = []

        def scripted(model, data):
            snapshots.append(model.state_arrays())
            return report(next(scores))

        monkeypatch.setattr("slu.train.evaluate_model", scripted)
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=4, patience=10), data, data)
        assert result.best_epoch == 1 and len(snapshots) == 4
        returned = result.model.state_arrays()
        for name, array in returned.items():
            assert array.tobytes() == result.checkpoint.params[name].tobytes(), name
            assert array.tobytes() == snapshots[1][name].tobytes(), name
        assert any(array.tobytes() != snapshots[3][name].tobytes()
                   for name, array in returned.items())

    def test_improvement_rule(self):
        assert _improved(report(0.5), None)
        assert _improved(report(0.6), report(0.5))
        assert not _improved(report(0.4), report(0.5))
        # Equal overall, better F1 wins; full tie keeps the earlier epoch.
        assert _improved(report(0.5, f1=0.7), report(0.5, f1=0.5))
        assert not _improved(report(0.5, f1=0.5), report(0.5, f1=0.5))

    def test_best_checkpoint_matches_recorded_metrics(self):
        data = tiny_corpus()
        config = tiny_config(max_epochs=4)
        result = train(config, data, data)
        fresh = evaluate_model(result.model, data)
        assert fresh.overall_accuracy == result.best_dev.overall_accuracy
        assert fresh.slot_f1 == result.best_dev.slot_f1
        assert result.checkpoint.best_dev["overall_accuracy"] == \
            result.best_dev.overall_accuracy


class TestDeterminism:
    def test_same_seed_identical_loss_trace(self):
        data = tiny_corpus()
        r1 = train(tiny_config(max_epochs=2), data, data)
        r2 = train(tiny_config(max_epochs=2), data, data)
        assert [h.mean_loss for h in r1.history] == [h.mean_loss for h in r2.history]

    def test_different_seed_different_trace(self):
        data = tiny_corpus()
        r1 = train(tiny_config(max_epochs=2, seed=1), data, data)
        r2 = train(tiny_config(max_epochs=2, seed=2), data, data)
        assert [h.mean_loss for h in r1.history] != [h.mean_loss for h in r2.history]

    def test_dropout_active_run_still_reproducible(self):
        data = tiny_corpus()
        cfg = dict(max_epochs=2, dropout=0.3)
        r1 = train(tiny_config(**cfg), data, data)
        r2 = train(tiny_config(**cfg), data, data)
        assert [h.mean_loss for h in r1.history] == [h.mean_loss for h in r2.history]


class TestGradNormRecord:
    def test_tiny_clip_norm_counts_every_step_as_clipped(self):
        data = tiny_corpus()
        lines = []
        config = tiny_config(max_epochs=2, clip_norm=1e-6)
        result = train(config, data, data, log=lines.append)
        steps = len(make_batches(data, result.model.vocab, config.batch_size))
        for h in result.history:
            assert h.clipped_steps == steps
            # pre-clip norms, far above the ceiling they were clipped to
            assert 1e3 * config.clip_norm < h.grad_norm_mean <= h.grad_norm_max
        assert lines[0].endswith(f"clipped {steps}/{steps}")
        assert "grad norm mean" in lines[0]

    def test_zero_clip_norm_clips_nothing_but_records_norms(self):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=2, clip_norm=0.0), data, data)
        for h in result.history:
            assert h.clipped_steps == 0
            assert 0.0 < h.grad_norm_mean <= h.grad_norm_max
            assert np.isfinite(h.grad_norm_max)


class TestDevLabels:
    @pytest.mark.parametrize("field,value", [("intent", "unseen"),
                                             ("slots", ["O", "O", "O", "B-unseen"])])
    def test_unseen_dev_label_fails_before_the_first_epoch(self, field, value):
        data = tiny_corpus()
        dev = tiny_corpus()
        setattr(dev[-1], field, value)
        kind, label = ("intent", value) if field == "intent" else ("slot", value[-1])
        lines = []
        # The message names the split and the sentence's 1-based line.
        with pytest.raises(DataError,
                           match=f"^dev split line {len(dev)}: unknown {kind} label '{label}'$"):
            train(tiny_config(max_epochs=2), data, dev, log=lines.append)
        assert lines == []


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_names_epoch_and_batch(self):
        data = tiny_corpus()
        # An absurd learning rate overflows float32 within a step or two.
        config = tiny_config(max_epochs=10, lr=1e30, clip_norm=0.0)
        with pytest.raises(DivergenceError, match=r"epoch \d+, batch \d+"):
            train(config, data, data)


class TestEvaluateModel:
    def test_untrained_model_hits_chance_intent_accuracy(self):
        # A label-balanced synthetic set and an untrained model: accuracy
        # should sit near 1/|I|; with 2 intents any single prediction set
        # scores exactly 0.5 on a balanced corpus.
        data = tiny_corpus()  # 3 "flight" + 3 "fare"
        vocab = build_vocab(data)
        model = JointModel(tiny_config(), vocab)
        rep = evaluate_model(model, data)
        assert 0.0 <= rep.intent_accuracy <= 1.0
        assert rep.sentences == 6

    def test_deterministic_across_calls(self):
        data = tiny_corpus()
        vocab = build_vocab(data)
        model = JointModel(tiny_config(), vocab)
        a = evaluate_model(model, data)
        b = evaluate_model(model, data)
        assert a == b


class TestPredictDataset:
    def test_length_sorted_batches_return_file_order(self):
        # 11 sentences (not a multiple of the batch size 4) in shuffled
        # length order, including a one-token and a longest sentence.
        words = ["show", "flights", "to", "boston", "list", "fares", "denver"]
        lengths = [5, 1, 9, 3, 7, 2, 9, 4, 1, 6, 3]
        rng = np.random.default_rng(0)
        data = []
        for n in lengths:
            tokens = [words[k] for k in rng.integers(0, len(words), n)]
            data.append(Utterance(tokens, ["O"] * n, "flight"))
        vocab = build_vocab(data + tiny_corpus())
        model = JointModel(tiny_config(batch_size=4), vocab)
        seen = []
        predict_batch = model.predict_batch

        def spy(batch):
            seen.append(batch.lengths.tolist())
            return predict_batch(batch)

        model.predict_batch = spy
        got = predict_dataset(model, data)
        del model.predict_batch

        assert [len(batch) for batch in seen] == [4, 4, 3]
        flat = [n for batch in seen for n in batch]
        assert flat == sorted(lengths)
        assert len(got) == len(data)
        singles = []
        for utt, pred in zip(data, got):
            alone = model.predict_batch(make_batches([utt], vocab, 1)[0])
            assert [pred] == alone
            assert len(pred[1]) == len(utt.tokens)
            singles += alone
        # evaluate_model scores exactly what each sentence decodes to alone
        assert evaluate_model(model, data) == evaluate(
            singles, [(u.intent, u.slots) for u in data])


class TestPaddingInvariance:
    def test_base_width_float32_decodes_match_one_sentence_at_a_time(self):
        # Row sums are BLAS products whose rounding could depend on where a
        # row sits in the batch; at the base width in float32, padding a
        # sentence into a batch must not change its emissions by more than
        # 1e-5 or its decode at all.
        rng = np.random.default_rng(14)
        vocab = Vocab(id2word=["<pad>", "<unk>"] + [f"w{i}" for i in range(60)],
                      id2slot=[f"s{i}" for i in range(120)],
                      id2intent=[f"i{i}" for i in range(21)])
        model = JointModel(Config(seed=14).validate(), vocab)
        lengths = np.r_[1, 46, rng.integers(1, 47, size=14)]
        mask = np.arange(46)[None, :] < lengths[:, None]
        ids = np.where(mask, rng.integers(2, vocab.n_words, size=mask.shape), 0)
        with ad.no_grad():
            _, em = model.forward(ids, mask)
        intents, paths = model.predict(ids, mask)
        for b, n in enumerate(lengths):
            one_ids, one_mask = ids[b:b + 1, :n], mask[b:b + 1, :n]
            with ad.no_grad():
                _, one_em = model.forward(one_ids, one_mask)
            one_intent, one_path = model.predict(one_ids, one_mask)
            np.testing.assert_allclose(one_em.data[0], em.data[b, :n], rtol=0, atol=1e-5)
            assert one_intent[0] == intents[b]
            assert one_path[0] == paths[b]


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=1), data, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(result.checkpoint.params)
        for name, arr in result.checkpoint.params.items():
            got = loaded.params[name]
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, arr)
        assert loaded.epoch == result.checkpoint.epoch
        assert loaded.best_dev == result.checkpoint.best_dev
        assert loaded.vocab.id2word == result.model.vocab.id2word

    def test_reloaded_model_reproduces_outputs_bitwise(self, tmp_path):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=1), data, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        clone = model_from_checkpoint(load_checkpoint(path))

        batch = make_batches(data, result.model.vocab, 4)[0]
        with ad.no_grad():
            logits_a, em_a = result.model.forward(batch.token_ids, batch.mask)
            logits_b, em_b = clone.forward(batch.token_ids, batch.mask)
        np.testing.assert_array_equal(logits_a.data, logits_b.data)
        np.testing.assert_array_equal(em_a.data, em_b.data)
        assert result.model.predict_batch(batch) == clone.predict_batch(batch)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_version_mismatch_rejected(self, tmp_path):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=1), data, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        raw = bytearray(path.read_bytes())
        # Bump the version digit inside the JSON header.
        idx = raw.find(b'"format_version": 1')
        raw[idx + len(b'"format_version": ')] = ord("9")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        data = tiny_corpus()
        result = train(tiny_config(max_epochs=1), data, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(CheckpointError, match="past end"):
            load_checkpoint(path)

    @staticmethod
    def _small_checkpoint(seed=1):
        vocab = build_vocab(tiny_corpus())
        model = JointModel(tiny_config(seed=seed), vocab)
        return Checkpoint(model.config, vocab, model.state_arrays())

    @pytest.mark.parametrize("case,message", [
        ("header_without_params", "'params' is missing"),
        ("header_is_json_array", "not a JSON object"),
        ("record_without_offset", "record 0: KeyError"),
        ("header_len_past_end", "header length"),
        ("config_num_layers_float", "num_layers must be of type int, got 2.0"),
        ("config_seed_float", "seed must be of type int, got 1.5"),
        ("config_batch_size_float", "batch_size must be of type int, got 2.5"),
    ])
    def test_malformed_header_rejected(self, tmp_path, case, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._small_checkpoint())
        path.write_bytes(CORRUPT_CHECKPOINTS[case](path.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,ok", [
        ("num_layers", 2, True), ("num_layers", 2.0, False), ("seed", True, False),
        ("lr", 1, True), ("lr", 0.5, True), ("lr", False, False), ("lr", "0.5", True),
        ("lowercase", False, True), ("lowercase", 0, False), ("ablation", 5, False),
        ("hidden_dim", None, False),
    ])
    def test_config_values_must_have_their_field_type(self, key, value, ok):
        # A checkpoint header's config is JSON: an int field takes an int
        # (not a bool), a float field an int or a float, a bool field only a
        # bool; strings are parsed as in a config file.
        if ok:
            Config.from_dict({key: value})
        else:
            with pytest.raises(ConfigError, match=f"{key} must be of type"):
                Config.from_dict({key: value})

    @pytest.mark.parametrize("key,value,message", [
        ("format_version", True, "version True"), ("format_version", 1.0, "version 1.0"),
        ("epoch", 2.7, "'epoch' is 2.7"), ("epoch", True, "'epoch' is True"),
        ("epoch", "5", "'epoch' is '5'"),
    ], ids=["version_true", "version_float", "epoch_float", "epoch_true", "epoch_string"])
    def test_header_integers_must_be_json_integers(self, tmp_path, key, value, message):
        # True == 1 and 1.0 == 1 in Python; neither is a JSON integer.
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._small_checkpoint())
        path.write_bytes(rewrite_header(path.read_bytes(), lambda h: {**h, key: value}))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_record_offset_must_be_a_json_integer(self, tmp_path):
        # An offset of true would read the blob from byte 1.
        def edit(header):
            header["params"][0]["offset"] = True
            return header

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._small_checkpoint())
        path.write_bytes(rewrite_header(path.read_bytes(), edit))
        with pytest.raises(CheckpointError, match="record 0 has offset True"):
            load_checkpoint(path)

    def test_missing_epoch_means_zero(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ckpt = self._small_checkpoint()
        ckpt.epoch = 4
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).epoch == 4
        path.write_bytes(rewrite_header(path.read_bytes(),
                                        lambda h: {k: v for k, v in h.items() if k != "epoch"}))
        assert load_checkpoint(path).epoch == 0

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._small_checkpoint(seed=1))
        before = path.read_bytes()
        real_open = open

        class FailsHalfway:
            """A file whose writes fail once half the old size is written."""

            def __init__(self, *args):
                self.fh = real_open(*args)
                self.budget = len(before) // 2

            def write(self, data):
                if len(data) > self.budget:
                    self.fh.write(data[: self.budget])
                    raise OSError("No space left on device")
                self.budget -= len(data)
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(checkpoint_module, "open", FailsHalfway, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, self._small_checkpoint(seed=2))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_state_name_mismatch_rejected(self):
        vocab = build_vocab(tiny_corpus())
        model = JointModel(tiny_config(), vocab)
        state = model.state_arrays()
        state["bogus"] = np.zeros(3)
        with pytest.raises(ValueError, match="bogus"):
            model.load_state_arrays(state)

    def test_state_shape_mismatch_rejected(self):
        vocab = build_vocab(tiny_corpus())
        model = JointModel(tiny_config(), vocab)
        state = model.state_arrays()
        state["crf.T"] = state["crf.T"][:-1]
        with pytest.raises(ValueError, match=r"parameter crf.T: shape \(\d+, \d+\) does not"):
            model.load_state_arrays(state)
