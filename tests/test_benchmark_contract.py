"""What the benchmark harness in ``benchmarks/`` reads from the package.

The harness patches methods by name and indexes model outputs by shape,
so a signature refactor can break it without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from slu import autodiff as ad
from slu.config import AblationMode
from slu.data import Utterance, make_batches
from slu.decoders import CrfHead
from slu.gradcheck import toy_setup
from slu.model import JointModel
from slu.optim import Adam, clip_global_norm
from slu.train import predict_dataset

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark(name: str):
    """``benchmarks/<name>.py`` as the module ``benchmark_<name>``."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_benchmark("spans").TRACED, ids=lambda e: e[2] + "/" + e[1])
def test_traced_attribute_is_defined_on_its_owner(entry):
    # The tracer reads the raw attribute, so an inherited or renamed one
    # would raise KeyError at install time.
    owner, attr, _ = entry
    assert callable(vars(owner)[attr])


def test_traced_training_step_captures_and_replays_every_stage(monkeypatch):
    # The stage split replays the calls the tracer captured in one step. A
    # stage whose calls stop reaching its traced attribute, or whose
    # captured arguments no longer replay, would report zero
    # ``*_fwd_s``/``*_bwd_s`` time while every other test stays green.
    spans = load_benchmark("spans")
    monkeypatch.setitem(sys.modules, "spans", spans)  # stages.py imports it so
    stages = load_benchmark("stages")
    ref, batch = toy_setup(seed=0)
    config = ref.config.replace(dropout=0.2, encoder_dropout=0.2)
    model = JointModel(config, ref.vocab, dtype=np.float64)
    params = model.params()
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    tracer = spans.Tracer()
    tracer.step = tracer.capture_step = 0
    with tracer:
        loss = model.loss(batch, training=True)
        optimizer.zero_grad()
        loss.backward()
        clip_global_norm(params, config.clip_norm)
        optimizer.step()
    captured = {call.name for call in tracer.calls}
    assert set(stages.STAGES) <= captured, set(stages.STAGES) - captured
    split = stages.split(tracer.calls, params, min_repeats=1, min_seconds=0.0)
    assert all(fwd > 0.0 and bwd > 0.0 for fwd, bwd in split.values()), split


def test_one_sentence_forward_gives_one_emission_matrix():
    model, _ = toy_setup(seed=0)
    vocab = model.vocab
    utt = Utterance(["w2", "w5", "w7"], ["O", "B-a", "I-a"], "x")
    batch = make_batches([utt], vocab, 1)[0]
    with ad.no_grad():
        logits, emissions = model.forward(batch.token_ids, batch.mask)
    assert logits.shape == (1, vocab.n_intents)
    assert emissions.shape == (1, 3, vocab.n_slots)
    assert np.isfinite(emissions.data[0]).all()


def test_predict_dataset_calls_the_instance_predict_batch_once_per_batch():
    # The predict workload times each batch by setting ``predict_batch`` on
    # the model instance and reading these batch fields; if decoding went
    # around it, the run would record no operation and fail.
    model, _ = toy_setup(seed=0)
    model.config = model.config.replace(batch_size=2)
    words = model.vocab.id2word[2:]
    data = [Utterance(words[:n], ["O"] * n, "x") for n in (3, 1, 5, 2, 4)]
    calls = []

    def timed(batch):
        calls.append((batch.size, batch.lengths.copy(), batch.token_ids.shape,
                      batch.mask.copy()))
        return JointModel.predict_batch(model, batch)

    model.predict_batch = timed
    preds = predict_dataset(model, data)
    del model.predict_batch
    assert len(calls) == 3
    assert sum(size for size, *_ in calls) == len(data)
    for size, lengths, shape, mask in calls:
        assert shape == mask.shape == (size, lengths.max())
        np.testing.assert_array_equal(mask.sum(axis=1), lengths)
    assert preds == predict_dataset(model, data)


def test_viterbi_returns_lists_of_python_ints_one_per_token():
    rng = np.random.default_rng(0)
    crf = CrfHead(4, 6, rng, dtype=np.float32)
    lengths = [4, 1, 2]
    mask = np.arange(5)[None, :] < np.array(lengths)[:, None]
    paths = crf.viterbi(rng.standard_normal(mask.shape + (6,)).astype(np.float32), mask)
    assert type(paths) is list and [len(path) for path in paths] == lengths
    assert all(type(path) is list for path in paths)
    assert all(type(tag) is int for path in paths for tag in path)


# Suffixes of the parameters Adam does not decay: biases and layer-norm affines.
NO_DECAY = (".b", ".b1", ".b2", ".gamma", ".beta")


@pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
def test_parameter_inventory_read_by_the_reference(mode):
    # The float64 Adam reference takes ``[p.decay for p in params]`` and the
    # Viterbi reference reads ``crf.T`` in the (S+2, S+2) layout; a mistake in
    # either would fail only the benchmark's output check.
    model, _ = toy_setup(seed=0, ablation=mode.value)
    params = model.params()
    names = [p.name for p in params]
    assert len(set(names)) == len(names), names
    for p in params:
        assert p.decay == (not p.name.endswith(NO_DECAY)), p.name
    S = model.vocab.n_slots
    assert model.crf.T.shape == (S + 2, S + 2)
