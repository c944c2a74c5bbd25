"""Acceptance gate: ten checks pinning this package's numeric contract.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. Criteria 1-7 are self-contained and always run.
Criteria 8-10 need the full corpora and pretrained vectors, which are
not bundled; they skip with instructions unless these are provided:

    SLU_DATA_ATIS   dataset root with train/dev/test splits
    SLU_DATA_SNIPS  dataset root with train/dev/test splits
    SLU_GLOVE       300-d word vector text file
    SLU_RUN_FULL=1  opt in to the multi-hour runs

Tolerances and budgets are stated inline and must not be loosened.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import crf_brute_force, reshape, where
from slu import autodiff as ad
from slu import gradcheck
from slu.config import Config
from slu.data import RowMap, build_vocab, load_dataset, load_pretrained_embeddings
from slu.decoders import CrfHead
from slu.interaction import multi_head_attention, window
from slu.metrics import evaluate, extract_chunks
from slu.train import evaluate_model, train

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data" / "atis16"


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n:02d}: PASS  {detail}")


def _needs_full_run(*env_vars: str) -> dict[str, str]:
    missing = [v for v in env_vars if not os.environ.get(v)]
    if not os.environ.get("SLU_RUN_FULL"):
        missing.append("SLU_RUN_FULL")
    if missing:
        pytest.skip(
            "full-corpus run not configured; the datasets are not bundled "
            f"with this repository. Set {', '.join(sorted(set(missing)))} "
            "to run this criterion (multi-hour CPU training)."
        )
    return {v: os.environ[v] for v in env_vars}


# ---------------------------------------------------------------- 1 --

def _fd_probe(f, x0: np.ndarray, step: float = 1e-3, tol: float = 1e-4) -> None:
    """Check d f(x)/dx for scalar-valued f at every coordinate of x0."""
    t = ad.Tensor(x0.copy(), requires_grad=True)
    f(t).backward()
    analytic = t.grad.copy()
    flat = x0.reshape(-1)
    for k in range(flat.size):
        for h in (step, 1e-5):
            plus, minus = flat.copy(), flat.copy()
            plus[k] += h
            minus[k] -= h
            num = (f(ad.Tensor(plus.reshape(x0.shape))).item()
                   - f(ad.Tensor(minus.reshape(x0.shape))).item()) / (2 * h)
            a = analytic.reshape(-1)[k]
            if abs(a - num) <= tol * max(1.0, abs(a), abs(num)):
                break
        else:
            raise AssertionError(f"gradient mismatch at coord {k}: "
                                 f"analytic {a}, numeric {num}")


def test_c01_gradient_suite():
    """Every primitive op and the full toy model match central finite
    differences (float64, step 1e-3) within 1e-4 relative. Under 1 min."""
    start = time.monotonic()
    rng = np.random.default_rng(11)
    proj = ad.Tensor(rng.normal(size=(3, 4)))
    aux = ad.Tensor(rng.normal(size=(3, 4)))
    mat = ad.Tensor(rng.normal(size=(4, 5)))
    gamma = ad.Tensor(np.ones(4))
    beta = ad.Tensor(np.zeros(4))
    mask34 = np.array([[True] * 4, [True, True, True, False],
                       [True, True, False, False]])
    rows3 = RowMap(np.array([[True, True], [True, False]]))  # 3 packed rows
    window_proj = ad.Tensor(np.random.default_rng(12).normal(size=(3, 24)))

    def s(t):
        return ad.tsum(ad.mul(t, ad.Tensor(proj.data)))

    ops = {
        "add": lambda x: s(ad.add(x, aux)),
        "mul": lambda x: s(ad.mul(x, aux)),
        "scale": lambda x: s(ad.mul(x, -1.7)),
        "matmul": lambda x: ad.tsum(ad.matmul(x, mat)),
        "tsum": lambda x: ad.tsum(x),
        "reshape": lambda x: s(reshape(reshape(x, (12,)), (3, 4))),
        "transpose": lambda x: ad.tsum(ad.mul(ad.transpose(x, (1, 0)),
                                              ad.Tensor(proj.data.T))),
        "concat": lambda x: ad.tsum(ad.concat([x, aux], axis=1)),
        "getitem": lambda x: s(ad.concat([x[:, 1:3], x[:, :2]], axis=1)),
        "getitem_array": lambda x: ad.tsum(ad.mul(
            x[np.array([0, 2, 0, 1]), np.array([3, 0, 3, 2])],
            ad.Tensor(np.array([1.0, -2.0, 0.5, 3.0])))),
        "where": lambda x: s(where(mask34, x, aux)),
        "relu": lambda x: s(ad.relu(x)),
        "softmax": lambda x: s(ad.softmax(x)),
        "logsumexp": lambda x: ad.tsum(ad.logsumexp(x, axis=1)),
        "layer_norm": lambda x: s(ad.layer_norm(x, gamma, beta)),
        "dropout": lambda x: s(ad.dropout(x, 0.4, np.random.default_rng(99),
                                          training=True)),
        "multi_head_attention": lambda x: s(multi_head_attention(
            x, ad.mul(x, aux), ad.add(x, aux), rows3, num_heads=2, dropout_p=0.3,
            rng=np.random.default_rng(5), training=True)),
        "window": lambda x: ad.tsum(ad.mul(window(x, ad.mul(x, aux), rows3),
                                           window_proj)),
        "maxpool_over_time": lambda x: ad.tsum(
            ad.maxpool_over_time(x, np.array([2, 1]))),
    }
    x0 = rng.normal(size=(3, 4))
    for name, f in ops.items():
        try:
            _fd_probe(f, x0)
        except AssertionError as exc:
            raise AssertionError(f"op {name}: {exc}") from exc

    result = gradcheck.run(seed=0)
    assert result.passed, f"model gradient failures: {result.failures[:5]}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    _passed(1, f"{len(ops)} ops + {result.checked} model coords, "
               f"max rel err {result.max_rel_err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- 2 --

def test_c02_crf_oracle_equivalence():
    """200 random CRF instances (n <= 4, |S| <= 4): log-partition within
    1e-6 of path enumeration, Viterbi exactly the argmax path. Under 10s."""
    start = time.monotonic()
    rng = np.random.default_rng(22)
    for trial in range(200):
        n = int(rng.integers(1, 5))
        n_tags = int(rng.integers(1, 5))
        crf = CrfHead(4, n_tags, rng)
        crf.T.data[:n_tags, :n_tags] = rng.normal(size=(n_tags, n_tags))
        crf.T.data[crf.begin, :n_tags] = rng.normal(size=n_tags)
        crf.T.data[:n_tags, crf.end] = rng.normal(size=n_tags)
        emissions = rng.normal(size=(1, n, n_tags))
        mask = np.ones((1, n), dtype=bool)

        log_z = crf.log_partition(ad.Tensor(emissions), mask).item()
        brute_z, brute_path, _ = crf_brute_force(emissions[0], crf.T.data)
        assert abs(log_z - brute_z) <= 1e-6, \
            f"trial {trial}: partition {log_z} vs {brute_z}"
        assert crf.viterbi(emissions, mask)[0] == brute_path, f"trial {trial}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"
    _passed(2, f"200 instances, partition within 1e-6, Viterbi exact, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------- 3 --

def test_c03_crf_normalization():
    """Sum over all tag sequences of exp(-NLL) equals 1 within 1e-5."""
    rng = np.random.default_rng(33)
    worst = 0.0
    with ad.no_grad():
        for _ in range(10):
            n = int(rng.integers(1, 5))
            n_tags = int(rng.integers(1, 5))
            crf = CrfHead(4, n_tags, rng)
            crf.T.data[:n_tags, :n_tags] = rng.normal(size=(n_tags, n_tags))
            crf.T.data[crf.begin, :n_tags] = rng.normal(size=n_tags)
            crf.T.data[:n_tags, crf.end] = rng.normal(size=n_tags)
            emissions = rng.normal(size=(1, n, n_tags))
            mask = np.ones((1, n), dtype=bool)
            total = 0.0
            for path in itertools.product(range(n_tags), repeat=n):
                nll = crf.nll(ad.Tensor(emissions),
                              np.array([list(path)]), mask).item()
                total += np.exp(-nll)
            worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-5, f"normalization off by {worst:.2e}"
    _passed(3, f"10 instances, worst |sum - 1| = {worst:.2e}")


# ---------------------------------------------------------------- 4 --

def test_c04_masking_invariance():
    """Appending padding changes no real-position intent logit or slot
    emission by more than 1e-5 and changes no decoded output."""
    model, batch = gradcheck.toy_setup(seed=4)
    logits1, em1 = model.forward(batch.token_ids, batch.mask)
    intents1, tags1 = model.predict(batch.token_ids, batch.mask)

    pad = 3
    ids_p = np.concatenate(
        [batch.token_ids, np.zeros((batch.size, pad), dtype=int)], axis=1)
    mask_p = np.concatenate(
        [batch.mask, np.zeros((batch.size, pad), dtype=bool)], axis=1)
    logits2, em2 = model.forward(ids_p, mask_p)
    intents2, tags2 = model.predict(ids_p, mask_p)

    n = batch.token_ids.shape[1]
    logit_delta = float(np.abs(logits1.data - logits2.data).max())
    em_delta = float(np.abs(em1.data - em2.data[:, :n]).max())
    assert logit_delta <= 1e-5, f"intent logits moved by {logit_delta}"
    assert em_delta <= 1e-5, f"emissions moved by {em_delta}"
    assert np.array_equal(intents1, intents2)
    for length, a, b in zip(batch.lengths, tags1, tags2):
        assert a[:length] == b[:length]
    _passed(4, f"max logit delta {logit_delta:.2e}, "
               f"max emission delta {em_delta:.2e}, decodes identical")


# ---------------------------------------------------------------- 5 --

def test_c05_metrics_goldens():
    """Worked chunking and scoring examples reproduce exactly;
    self-evaluation is perfect for fuzzed inputs."""
    assert extract_chunks(["O", "B-movie-type", "I-movie-type"]) == \
        {("movie-type", 1, 2)}
    assert extract_chunks(["O", "O", "O"]) == set()
    assert extract_chunks(["I-a", "I-a", "O", "I-a"]) == \
        {("a", 0, 1), ("a", 3, 3)}

    # One gold chunk; prediction has two chunks, one matching exactly.
    gold = [("x", ["B-a", "I-a", "O", "O"])]
    pred = [("x", ["B-a", "I-a", "O", "B-b"])]
    report = evaluate(pred, gold)
    assert report.slot_precision == pytest.approx(0.5)
    assert report.slot_recall == pytest.approx(1.0)
    assert report.slot_f1 == pytest.approx(2.0 / 3.0)

    same = [("intent_a", ["B-x", "I-x", "O"]), ("intent_b", ["O", "B-y"])]
    perfect = evaluate(same, same)
    assert perfect.slot_f1 == perfect.intent_accuracy == \
        perfect.overall_accuracy == 1.0

    rng = np.random.default_rng(55)
    types = ["loc", "time", "name"]
    for _ in range(50):
        sents = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 9))
            tags, open_type = [], None
            for _ in range(n):
                r = rng.random()
                if r < 0.35:
                    open_type = types[int(rng.integers(0, 3))]
                    tags.append(f"B-{open_type}")
                elif r < 0.55 and open_type:
                    tags.append(f"I-{open_type}")
                else:
                    tags.append("O")
                    open_type = None
            sents.append((f"intent_{int(rng.integers(0, 3))}", tags))
        if not any(t != "O" for _, tags in sents for t in tags):
            sents[0][1][0] = "B-loc"
        rep = evaluate(sents, sents)
        assert rep.slot_f1 == 1.0 and rep.overall_accuracy == 1.0
    _passed(5, "chunk goldens, hand-scored example, 50 fuzzed self-evals")


# ---------------------------------------------------------------- 6 --

def test_c06_ablation_rewiring():
    """With only the intent-to-slot direction active, perturbing the
    slot-to-intent projections leaves forward outputs bitwise equal."""
    model, batch = gradcheck.toy_setup(seed=6, ablation="intent_to_slot_only")
    logits1, em1 = model.forward(batch.token_ids, batch.mask)

    rng = np.random.default_rng(66)
    touched = 0
    for layer in model.stack.layers:
        for key in ("q_i", "k_s", "v_s"):
            w = layer._weights[key]
            w.data[:] = w.data + rng.normal(size=w.data.shape) * 10.0
            touched += 1
    assert touched == 6
    logits2, em2 = model.forward(batch.token_ids, batch.mask)
    assert np.array_equal(logits1.data, logits2.data)
    assert np.array_equal(em1.data, em2.data)
    _passed(6, f"{touched} projection matrices perturbed, outputs bitwise equal")


# ---------------------------------------------------------------- 7 --

def test_c07_overfit_sanity():
    """The bundled 16-sentence corpus reaches 100% training overall
    accuracy within 300 epochs and under 5 minutes."""
    start = time.monotonic()
    splits = load_dataset(SAMPLE)
    assert len(splits["train"]) == 16
    config = Config(embed_dim=32, hidden_dim=32, num_layers=2, num_heads=8,
                    ffn_dim=64, dropout=0.1, lr=0.005, batch_size=4,
                    max_epochs=300, patience=300, weight_decay=0.0, seed=7)
    # Training accuracy is what is being certified, so the dev stream is
    # the training data itself and best-model selection tracks it.
    result = train(config, splits["train"], splits["train"])
    elapsed = time.monotonic() - start
    acc = result.best_dev.overall_accuracy
    assert acc == 1.0, f"training overall accuracy peaked at {acc}"
    assert result.best_epoch <= 300
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"
    _passed(7, f"100% at epoch {result.best_epoch}, {elapsed:.1f}s")


# ----------------------------------------------------------- 8 - 10 --

def _train_full(data_root: str, glove: str | None, seed: int,
                ablation: str = "full"):
    config = Config(ablation=ablation, seed=seed)
    splits = load_dataset(data_root)
    vocab = build_vocab(splits["train"])
    pretrained = None
    if glove:
        pretrained, _ = load_pretrained_embeddings(
            glove, vocab, config.embed_dim, np.random.default_rng(seed))
    result = train(config, splits["train"], splits["dev"], vocab=vocab,
                   pretrained=pretrained, log=print)
    test_report = evaluate_model(result.model, splits["test"])
    return result, test_report


def test_c08_atis_full_training():
    """Full ATIS training floors: slot F1 >= 94.5, intent accuracy
    >= 96.0, overall accuracy >= 84.0 on the test split."""
    env = _needs_full_run("SLU_DATA_ATIS", "SLU_GLOVE")
    _, report = _train_full(env["SLU_DATA_ATIS"], env["SLU_GLOVE"], seed=42)
    assert report.slot_f1 >= 0.945, f"slot F1 {report.slot_f1:.4f}"
    assert report.intent_accuracy >= 0.960, \
        f"intent accuracy {report.intent_accuracy:.4f}"
    assert report.overall_accuracy >= 0.840, \
        f"overall accuracy {report.overall_accuracy:.4f}"
    _passed(8, f"slot F1 {report.slot_f1:.4f}, intent "
               f"{report.intent_accuracy:.4f}, overall "
               f"{report.overall_accuracy:.4f}")


def test_c09_snips_full_training():
    """Full SNIPS training floors: slot F1 >= 93.0, intent accuracy
    >= 97.0, overall accuracy >= 85.0 on the test split."""
    env = _needs_full_run("SLU_DATA_SNIPS", "SLU_GLOVE")
    _, report = _train_full(env["SLU_DATA_SNIPS"], env["SLU_GLOVE"], seed=42)
    assert report.slot_f1 >= 0.930, f"slot F1 {report.slot_f1:.4f}"
    assert report.intent_accuracy >= 0.970, \
        f"intent accuracy {report.intent_accuracy:.4f}"
    assert report.overall_accuracy >= 0.850, \
        f"overall accuracy {report.overall_accuracy:.4f}"
    _passed(9, f"slot F1 {report.slot_f1:.4f}, intent "
               f"{report.intent_accuracy:.4f}, overall "
               f"{report.overall_accuracy:.4f}")


def test_c10_ablation_ordering():
    """Across >= 3 seeds on ATIS, mean dev overall accuracy of the full
    model is >= the self-attention variant and >= each single-direction
    variant."""
    env = _needs_full_run("SLU_DATA_ATIS", "SLU_GLOVE")
    seeds = [int(s) for s in
             os.environ.get("SLU_ABLATION_SEEDS", "0,1,2").split(",")]
    assert len(seeds) >= 3
    modes = ["full", "self_attention", "intent_to_slot_only",
             "slot_to_intent_only"]
    means = {}
    for mode in modes:
        scores = []
        for seed in seeds:
            result, _ = _train_full(env["SLU_DATA_ATIS"], env["SLU_GLOVE"],
                                    seed=seed, ablation=mode)
            scores.append(result.best_dev.overall_accuracy)
        means[mode] = float(np.mean(scores))
    for mode in modes[1:]:
        assert means["full"] >= means[mode], \
            f"full {means['full']:.4f} < {mode} {means[mode]:.4f}"
    _passed(10, ", ".join(f"{m} {v:.4f}" for m, v in means.items()))
