"""In-memory span tracing around the package's public calls.

``Tracer.install()`` swaps each traced function or method for a wrapper
that records a span (name, start, end, parent span, step id) and restores
the originals on ``uninstall()``. Nothing under ``src/`` is edited: the
wrappers are set on the modules and classes from here, and a module that
imported a traced function by name (``slu.train.make_batches``) is patched
under that name as well.

While ``capture_step`` equals the current step, every call also keeps its
arguments so the stage split (see ``stages.py``) can replay the stage on
exactly the inputs the workload produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from slu import autodiff, checkpoint, data, decoders, encoder, interaction, metrics
from slu import model, optim, train

# (owner, attribute, span name). Order does not matter; names may repeat
# when one function is reachable under two module attributes.
TRACED = (
    (model.JointModel, "loss", "model.loss"),
    (model.JointModel, "forward", "model.forward"),
    (model.JointModel, "predict", "model.predict"),
    (model.JointModel, "predict_batch", "model.predict_batch"),
    (encoder.Encoder, "encode", "encoder.encode"),
    (interaction, "label_attention", "interaction.label_attention"),
    (interaction.InteractionLayer, "cross_attention", "interaction.cross_attention"),
    (interaction.InteractionLayer, "ffn_fuse", "interaction.ffn_fuse"),
    (decoders.IntentHead, "logits", "decoders.intent_logits"),
    (decoders.CrfHead, "log_partition", "decoders.log_partition"),
    (decoders.CrfHead, "gold_score", "decoders.gold_score"),
    (decoders.CrfHead, "viterbi", "decoders.viterbi"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (optim, "clip_global_norm", "optim.clip"),
    (optim.Adam, "zero_grad", "optim.zero_grad"),
    (optim.Adam, "step", "optim.adam_step"),
    (data, "make_batches", "data.make_batches"),
    (train, "make_batches", "data.make_batches"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (metrics, "evaluate", "metrics.evaluate"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    """One captured call: the original function and its arguments."""

    name: str
    fn: object
    args: tuple
    kwargs: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self.step: int | None = None
        self.capture_step: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.capture_step is not None and tracer.step == tracer.capture_step:
                tracer.calls.append(Call(name, fn, args, kwargs))
            span_id = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            span = Span(span_id, name, 0.0, 0.0, parent, tracer.step)
            tracer.spans.append(span)
            tracer._open.append(span_id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in TRACED:
            # Read the raw attribute so methods are restored as plain functions.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_records(self) -> list[dict]:
        own = self.self_times()
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "step": s.step, "self": own[s.id]}
            for s in self.spans
        ]
