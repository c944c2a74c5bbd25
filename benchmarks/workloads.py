"""The three benchmark workloads and the metrics they report.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns. The package is driven only through its
public API, in the same call sequence its own training loop and ``predict``
path use.

* ``train_base``: training steps at the ``configs/base.cfg`` shape;
* ``train_toy``: the same steps at the ``configs/toy.cfg`` shape;
* ``predict_base``: ``predict_dataset`` over a held-out split with a
  base-shape model saved and reloaded through the checkpoint format.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slu import autodiff, checkpoint, data, gradcheck, metrics, model, optim, train
from slu.config import build_config

import reference
import stages
import synth
from spans import Tracer

SHAPE = synth.CorpusShape()
SETUP_REPEATS = 7
LOSS_SENTENCES = 256  # loss_end covers the second half of this many sentences
HELDOUT_LOSS_BATCHES = 4
UPDATE_CHECK_STEPS = 2  # first steps of the repeat set-up checked against reference
GRADCHECK_COORDS = 4  # finite-difference coordinates per parameter tensor
DECODE_SAMPLE = 32  # decoded sentences re-checked alone after the timed region
VITERBI_TOL = 1e-4  # decoded path score vs reference best, relative
REQUEST_SENTENCES = 256  # one predict_dataset call; a multiple of the batch size
MIB = 1024 * 1024


class CheckFailed(RuntimeError):
    """An output check failed; the run reports correct=false."""


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


@dataclass
class Op:
    """One timed operation: a train step, a decoded batch or a decode request.

    ``step`` is the span step id of a train step or decoded batch, and
    ``traced`` says whether the tracer was installed while it ran.
    """

    seconds: float
    sentences: int
    tokens: int
    step: int = -1
    traced: bool = False


def per_token(losses: list[tuple[float, int, int]]) -> float:
    """Loss per real token over (mean loss per sentence, sentences, tokens)
    records; per token, so sentence lengths drawn by the seed cancel out."""
    return sum(v * s for v, s, _ in losses) / sum(t for _, _, t in losses)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class TrainSession:
    """Corpus, model and optimizer for one training workload (the set-up)."""

    def __init__(self, config_path: Path, seed: int):
        self.config = build_config(config_path).replace(seed=seed)
        gen = synth.Generator(SHAPE, seed)
        self.corpus = gen.train_split()
        self.vocab = gen.vocab
        self.model = model.JointModel(self.config, self.vocab)
        self.optimizer = optim.Adam(self.model.params(), lr=self.config.lr,
                                    weight_decay=self.config.weight_decay)
        self.epoch = 0
        self.batches = self._epoch_batches()
        self.cursor = 0

    def _epoch_batches(self) -> list[data.Batch]:
        # Same epoch order as slu.train.train: shuffled with seed + epoch.
        return data.make_batches(self.corpus, self.vocab, self.config.batch_size,
                                 shuffle_seed=self.config.seed + self.epoch)

    def next_batch(self) -> data.Batch:
        if self.cursor == len(self.batches):
            self.epoch += 1
            self.batches = self._epoch_batches()
            self.cursor = 0
        batch = self.batches[self.cursor]
        self.cursor += 1
        return batch

    def step(self, batch: data.Batch, probe: dict | None = None) -> float:
        """One step of slu.train.train's inner loop; returns the loss.

        With ``probe`` given, graph size and buffer bytes are recorded in it.
        """
        loss = self.model.loss(batch, training=True)
        value = loss.item()
        if not math.isfinite(value):
            raise CheckFailed(f"non-finite loss {value}")
        if probe is not None:
            graph = graph_nodes(loss)
            probe["graph_nodes"] = len(graph)
            probe["activation_mb"] = sum(n.data.nbytes for n in graph
                                         if n._parents) / MIB
        self.optimizer.zero_grad()
        loss.backward()
        if probe is not None:
            probe["grad_mb"] = sum(n.grad.nbytes for n in graph
                                   if n.grad is not None) / MIB
        if self.config.clip_norm > 0:
            optim.clip_global_norm(self.optimizer.params, self.config.clip_norm)
        self.optimizer.step()
        return value


def graph_nodes(root) -> list:
    """Every tensor ``backward`` visits from ``root``: the root and all
    ancestors reachable through parents that require a gradient."""
    seen = {id(root)}
    order = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                order.append(parent)
                stack.append(parent)
    return order


def pad_fraction(batches: list[data.Batch]) -> float:
    cells = sum(b.mask.size for b in batches)
    real = sum(int(b.mask.sum()) for b in batches)
    return 1.0 - real / cells


def loss_prefix_steps(batch_size: int) -> int:
    return 2 * math.ceil(LOSS_SENTENCES / 2 / batch_size)


def train_phase(session: TrainSession, seconds: float, min_steps: int,
                losses: list[tuple[float, int, int]], tally: Tally,
                tracer: Tracer | None = None, probe: dict | None = None
                ) -> list[Op]:
    """Step until ``seconds`` have passed and at least ``min_steps`` ran.

    Every step appends (loss, sentences, tokens) to ``losses``. With a
    tracer, every second step runs traced, so traced and untraced steps
    interleave and see the same host speed; spans carry the global step
    index. The first traced step is the probe: it fills ``probe`` and its
    calls are captured for the stage split.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < min_steps or time.perf_counter() - start < seconds:
        batch = session.next_batch()
        step_id = len(losses)
        traced = tracer is not None and len(ops) % 2 == 1
        is_probe = traced and tracer.capture_step is None
        if traced:
            tracer.step = step_id
            if is_probe:
                tracer.capture_step = step_id
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            tally.attempted += 1
            value = session.step(batch, probe if is_probe else None)
            t1 = time.perf_counter()
        op = Op(t1 - t0, batch.size, int(batch.lengths.sum()), step_id, traced)
        losses.append((value, op.sentences, op.tokens))
        ops.append(op)
    if tracer is not None:
        tracer.step = None
    return ops


def checked_steps(session: TrainSession, steps: int,
                  losses: list[tuple[float, int, int]], tally: Tally) -> None:
    """Run the first ``steps`` steps of a fresh session by hand, in the order
    of ``TrainSession.step``, and compare the clipped gradients and the
    updated parameters with ``reference.AdamReference`` after each."""
    params = session.optimizer.params
    cfg = session.config
    ref = reference.AdamReference([p.tensor.data for p in params],
                                  [p.decay for p in params],
                                  cfg.lr, cfg.weight_decay, cfg.clip_norm)
    for _ in range(steps):
        batch = session.next_batch()
        loss = session.model.loss(batch, training=True)
        value = loss.item()
        session.optimizer.zero_grad()
        loss.backward()
        clipped = ref.step([p.tensor.grad for p in params])
        if cfg.clip_norm > 0:
            optim.clip_global_norm(params, cfg.clip_norm)
        session.optimizer.step()
        bad = [p.name for p, g, want in zip(params, clipped, ref.params)
               if (g is None) != (p.tensor.grad is None)
               or (g is not None and not np.allclose(p.tensor.grad, g, rtol=1e-5, atol=1e-9))
               or np.any(np.abs(p.tensor.data - want) > 1e-6 * np.abs(want) + 1e-4 * cfg.lr)]
        tally.check(math.isfinite(value) and not bad,
                    f"step {len(losses)}: loss {value}, clip or Adam update differs "
                    f"from the reference for {bad[:3]}")
        losses.append((value, batch.size, int(batch.lengths.sum())))


def check_gradients(seed: int, tally: Tally) -> None:
    """Backward against central differences on gradcheck's small float64
    model, on a few seeded coordinates of every parameter tensor."""
    toy, batch = gradcheck.toy_setup(seed)
    found = gradcheck.check_model(toy, batch, max_coords_per_tensor=GRADCHECK_COORDS,
                                  rng=np.random.default_rng([seed, 5]))
    tally.check(found.passed, f"gradient check: {found.failures[:3]}")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


class PredictSession:
    """Held-out split plus a base model that went through a checkpoint."""

    def __init__(self, config_path: Path, seed: int, scratch: Path):
        self.config = build_config(config_path).replace(seed=seed)
        gen = synth.Generator(SHAPE, seed)
        self.heldout = gen.heldout_split()
        self.vocab = gen.vocab
        fresh = model.JointModel(self.config, self.vocab)
        path = scratch / f"seed{seed}.ckpt"
        checkpoint.save_checkpoint(path, checkpoint.Checkpoint(
            self.config, self.vocab, fresh.state_arrays()))
        self.model = checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(path))
        self.gold = [(u.intent, u.slots) for u in self.heldout]
        self.decoded: dict[int, tuple[str, list[str]]] = {}  # first decode of each index


def check_decodes(session: PredictSession, start: int, preds, tally: Tally) -> None:
    """One decode per input, of the gold length, with labels from the vocab."""
    inputs = session.heldout[start:start + REQUEST_SENTENCES]
    tally.check(len(preds) == len(inputs),
                f"{len(preds)} decodes for {len(inputs)} inputs")
    slots = set(session.vocab.id2slot)
    intents = set(session.vocab.id2intent)
    for i, ((intent, tags), utt) in enumerate(zip(preds, inputs), start):
        tally.check(len(tags) == len(utt.tokens) and intent in intents
                    and all(t in slots for t in tags),
                    f"sentence {i}: bad decode")
        session.decoded.setdefault(i, (intent, tags))


def predict_phase(session: PredictSession, seconds: float, tally: Tally,
                  tracer: Tracer | None = None) -> tuple[list[Op], list[Op]]:
    """Decode consecutive requests of the held-out split, in file order and
    wrapping around, until ``seconds`` have passed.

    Returns per-batch ops and per-request ops; each request is one
    ``predict_dataset`` call and is scored against gold after it returns.
    With a tracer, every second request runs traced (at least one does), so
    traced and untraced batches interleave and see the same host speed; the
    parity flips on each pass over the split, so over whole passes both
    halves decode the same sentences.
    """
    m = session.model
    ops: list[Op] = []
    requests: list[Op] = []
    traced = False

    def timed_predict_batch(batch):
        # Looked up on the class at call time, so a traced method is used.
        if traced:
            tracer.step = len(ops)
        t0 = time.perf_counter()
        out = model.JointModel.predict_batch(m, batch)
        ops.append(Op(time.perf_counter() - t0, batch.size, int(batch.lengths.sum()),
                      len(ops), traced))
        return out

    m.predict_batch = timed_predict_batch
    min_requests = 1 if tracer is None else 2
    try:
        start = time.perf_counter()
        while len(requests) < min_requests or time.perf_counter() - start < seconds:
            passes, first = divmod(len(requests) * REQUEST_SENTENCES, len(session.heldout))
            chunk = session.heldout[first:first + REQUEST_SENTENCES]
            traced = tracer is not None and (len(requests) + passes) % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                preds = train.predict_dataset(m, chunk)
                requests.append(Op(time.perf_counter() - t0, len(chunk),
                                   sum(len(u.tokens) for u in chunk)))
                if traced:
                    tracer.step = None
                check_decodes(session, first, preds, tally)
                report = metrics.evaluate(preds, session.gold[first:first + REQUEST_SENTENCES])
            tally.check(report.sentences == len(chunk),
                        f"request at {first}: scored {report.sentences} of {len(chunk)}")
    finally:
        del m.predict_batch
    return ops, requests


def check_decodes_alone(session: PredictSession, seed: int, tally: Tally) -> None:
    """Re-check a seeded sample of decoded sentences, one at a time.

    Each sentence, decoded alone by the reloaded model (padding invariance)
    and by the model as it was before the checkpoint (save/load round trip),
    must match its batched decode, and its tag path must score as high as
    the best path found by ``reference.best_score``.
    """
    rng = np.random.default_rng([seed, 3])
    done = sorted(session.decoded)
    picks = rng.choice(len(done), size=min(DECODE_SAMPLE, len(done)), replace=False)
    saved = model.JointModel(session.config, session.vocab)  # same seed, same weights
    T = session.model.crf.T.data
    for i in sorted(done[k] for k in picks.tolist()):
        utt = session.heldout[i]
        intent, tags = session.decoded[i]
        tally.check(train.predict_dataset(session.model, [utt]) == [(intent, tags)],
                    f"sentence {i}: decode depends on padding")
        tally.check(train.predict_dataset(saved, [utt]) == [(intent, tags)],
                    f"sentence {i}: decode changed through the checkpoint")
        batch = data.make_batches([utt], session.vocab, 1)[0]
        with autodiff.no_grad():
            _, emissions = session.model.forward(batch.token_ids, batch.mask)
        em = emissions.data[0]
        got = reference.path_score(em, T, [session.vocab.slot2id[t] for t in tags])
        best = reference.best_score(em, T)
        tally.check(abs(best - got) <= VITERBI_TOL * max(1.0, abs(best)),
                    f"sentence {i}: decoded path scores {got:.6g}, best path {best:.6g}")


def heldout_loss(session: PredictSession, batches: list[data.Batch]) -> float:
    """Joint loss per real token over the first held-out batches."""
    with autodiff.no_grad():
        return per_token([(session.model.loss(b, training=False).item(), b.size,
                           int(b.lengths.sum()))
                          for b in batches[:HELDOUT_LOSS_BATCHES]])


# ---------------------------------------------------------------------------
# runs and their metrics
# ---------------------------------------------------------------------------

# Per-layer time metrics taken per operation (train step or decoded batch):
# the median over traced operations of the time spent in the span.
STEP_SPANS = {
    "autodiff.backward_s": "autodiff.backward",
    "encoder.encode_fwd_s": "encoder.encode",
    "interaction.label_attention_fwd_s": "interaction.label_attention",
    "interaction.cross_attention_fwd_s": "interaction.cross_attention",
    "interaction.ffn_fuse_fwd_s": "interaction.ffn_fuse",
    "decoders.log_partition_fwd_s": "decoders.log_partition",
    "decoders.gold_score_fwd_s": "decoders.gold_score",
    "decoders.intent_logits_fwd_s": "decoders.intent_logits",
    "decoders.viterbi_s": "decoders.viterbi",
    "model.forward_s": "model.forward",
    "optim.clip_s": "optim.clip",
    "optim.adam_step_s": "optim.adam_step",
}
# Per-layer time metrics taken per call: the median duration of one call.
CALL_SPANS = {
    "data.make_batches_s": "data.make_batches",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "metrics.evaluate_s": "metrics.evaluate",
}


@dataclass
class Result:
    tally: Tally
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would not even
    reach the median (fewer than twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops: list[Op], units: list[Op], setup_times: list[float],
               loss_end: float, info: dict) -> dict[str, tuple[float, str]]:
    """Latency from ``ops``; throughput over the wall time of ``units``
    (train steps, or whole ``predict_dataset`` requests)."""
    step_s = [op.seconds for op in ops]
    tail_s, tail_pct = tail(step_s)
    busy = sum(u.seconds for u in units)
    sentences_per_s = sum(u.sentences for u in units) / busy
    info.update(ops_timed=len(ops), rate_units=len(units),
                tail_percentile=round(tail_pct, 2),
                setup_times_s=[round(t, 4) for t in setup_times])
    return {
        "tokens_per_s": (sum(u.tokens for u in units) / busy, "1/s"),
        "sentences_per_s": (sentences_per_s, "1/s"),
        "step_s_p50": (statistics.median(step_s), "s"),
        "step_s_tail": (tail_s, "s"),
        "atis_epoch_s": (synth.ATIS_TRAIN_SENTENCES / sentences_per_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "loss_end": (loss_end, "nats/token"),
    }


def per_layer(tracer: Tracer, ops: list[Op], split: dict[str, tuple[float, float]],
              counts: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the interleaved ops of a traced run.

    The probe step (``tracer.capture_step``) is left out: it also walks the
    graph and keeps its arguments. ``trace.overhead_pct`` compares the
    median traced op with the median untraced op.
    """
    traced = [op for op in ops if op.traced and op.step != tracer.capture_step]
    untraced = [op for op in ops if not op.traced]
    steps = [op.step for op in traced]
    own = tracer.self_times()
    wanted = set(steps)
    per_step: dict[tuple[str, int], float] = {}
    forward_self: dict[int, float] = {}
    for s in tracer.spans:
        if s.step in wanted:
            key = (s.name, s.step)
            per_step[key] = per_step.get(key, 0.0) + s.duration
            if s.name == "model.forward":
                forward_self[s.step] = forward_self.get(s.step, 0.0) + own[s.id]
    out: dict[str, tuple[float, str]] = {}
    for metric, name in STEP_SPANS.items():
        out[metric] = (statistics.median(per_step.get((name, st), 0.0) for st in steps), "s")
    out["model.forward_self_s"] = (
        statistics.median(forward_self.get(st, 0.0) for st in steps), "s")
    for metric, name in CALL_SPANS.items():
        calls = [s.duration for s in tracer.spans if s.name == name]
        out[metric] = (statistics.median(calls) if calls else 0.0, "s")
    for name in stages.STAGES:
        out[f"{name}_bwd_s"] = (split[name][1] if split else 0.0, "s")
    out["autodiff.graph_nodes"] = (counts.get("graph_nodes", 0), "count")
    out["autodiff.activation_mb"] = (counts.get("activation_mb", 0.0), "MiB")
    out["autodiff.grad_mb"] = (counts.get("grad_mb", 0.0), "MiB")
    out["data.pad_fraction"] = (counts["pad_fraction"], "ratio")
    base = statistics.median(op.seconds for op in untraced)
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(op.seconds for op in traced) / base - 1.0), "%")
    return out


def timed_setups(make, tracer: Tracer | None):
    """Set up ``SETUP_REPEATS`` times back to back; keep the last session.

    Back to back, every repeat after the first sees the same process state,
    so their median is steady. The previous session is collected, untimed,
    before the next starts, so the peak memory does not depend on when the
    garbage collector happens to run. With a tracer the set-ups are traced
    (their spans carry no step id) and ``setup_s`` is not reported.
    """
    times: list[float] = []
    session = None
    with tracer if tracer is not None else contextlib.nullcontext():
        for _ in range(SETUP_REPEATS):
            session = None
            gc.collect()
            t0 = time.perf_counter()
            session = make()
            times.append(time.perf_counter() - t0)
    return session, times


def run_train(config_path: Path, seed: int, seconds: float, trace: bool) -> Result:
    result = Result(Tally())
    tally = result.tally
    tracer = Tracer() if trace else None
    session, setup_times = timed_setups(lambda: TrainSession(config_path, seed), tracer)
    prefix = loss_prefix_steps(session.config.batch_size)
    result.info.update(config=session.config.to_dict(), loss_prefix_steps=prefix)
    probe: dict = {"pad_fraction": pad_fraction(session.batches)}  # epoch 0
    losses: list[tuple[float, int, int]] = []
    train_phase(session, 0.0, 1, losses, tally)  # warm-up, not reported
    ops = train_phase(session, seconds, prefix - 1, losses, tally, tracer, probe)
    loss_end = per_token(losses[prefix // 2:prefix])

    if trace:
        split = stages.split(tracer.calls, session.model.params())
        tracer.calls.clear()
        result.info["stage_split_fwd_s"] = {k: v[0] for k, v in split.items()}
        result.per_layer = per_layer(tracer, ops, split, probe)
        result.spans = tracer.to_records()
    else:
        result.end_to_end = end_to_end(ops, ops, setup_times, loss_end, result.info)
    del session

    # Same seed, same arithmetic: the loss prefix must repeat bit for bit.
    # Its first steps are also checked against a reference clip and Adam.
    again = TrainSession(config_path, seed)
    repeat: list[tuple[float, int, int]] = []
    checked_steps(again, UPDATE_CHECK_STEPS, repeat, tally)
    train_phase(again, 0.0, prefix - UPDATE_CHECK_STEPS, repeat, Tally())
    tally.check(repeat == losses[:prefix],
                "loss prefix differs between two set-ups of the same seed")
    check_gradients(seed, tally)
    return result


def run_predict(config_path: Path, seed: int, seconds: float, trace: bool,
                out_dir: Path) -> Result:
    result = Result(Tally())
    tally = result.tally
    tracer = Tracer() if trace else None
    scratch = Path(tempfile.mkdtemp(prefix="ckpt-", dir=out_dir))
    try:
        session, setup_times = timed_setups(
            lambda: PredictSession(config_path, seed, scratch), tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.info.update(config=session.config.to_dict(),
                       heldout=synth.length_profile(session.heldout))
    batches = data.make_batches(session.heldout, session.vocab, session.config.batch_size)
    session.model.predict_batch(batches[0])  # warm-up, not reported
    ops, requests = predict_phase(session, seconds, tally, tracer)
    check_decodes_alone(session, seed, tally)

    if trace:
        counts = {"pad_fraction": pad_fraction(batches)}
        result.per_layer = per_layer(tracer, ops, {}, counts)
        result.spans = tracer.to_records()
    else:
        result.end_to_end = end_to_end(ops, requests, setup_times,
                                       heldout_loss(session, batches), result.info)
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    kind: str


WORKLOADS = {
    w.name: w for w in (
        Workload("train_base", "configs/base.cfg", "train"),
        Workload("train_toy", "configs/toy.cfg", "train"),
        Workload("predict_base", "configs/base.cfg", "predict"),
    )
}


def run(workload: Workload, root: Path, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Result:
    config_path = root / workload.config
    if workload.kind == "train":
        return run_train(config_path, seed, seconds, trace)
    return run_predict(config_path, seed, seconds, trace, out_dir)
