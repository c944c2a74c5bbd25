"""Per-stage forward/backward split.

``Tensor.backward`` is one call over the whole graph, so spans taken from
outside cannot say which stage its time belongs to. Instead each stage is
replayed on its own: the arguments it received in one workload step are
copied into fresh leaf tensors, the stage runs forward, a scalar sum of its
output is differentiated, and both halves are timed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from slu import autodiff as ad
from slu.autodiff import Tensor

from spans import Call

# Span names of the stages whose backward is split out; each is also the
# prefix of its ``_fwd_s``/``_bwd_s`` metrics.
STAGES = (
    "encoder.encode",
    "interaction.label_attention",
    "interaction.cross_attention",
    "interaction.ffn_fuse",
    "decoders.log_partition",
)


def _fresh(x):
    if isinstance(x, Tensor):
        return Tensor(x.data.copy(), requires_grad=True)
    if isinstance(x, np.random.Generator):
        return np.random.default_rng(0)  # dropout masks stay reproducible
    return x


def _scalar(out) -> Tensor:
    parts = out if isinstance(out, tuple) else (out,)
    total = ad.tsum(parts[0])
    for part in parts[1:]:
        total = ad.add(total, ad.tsum(part))
    return total


def _replay(call: Call) -> tuple[float, float]:
    args = tuple(_fresh(a) for a in call.args)
    kwargs = {k: _fresh(v) for k, v in call.kwargs.items()}
    t0 = time.perf_counter()
    out = call.fn(*args, **kwargs)
    t1 = time.perf_counter()
    loss = _scalar(out)
    t2 = time.perf_counter()
    loss.backward()
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2


def split(calls: list[Call], params, min_repeats: int = 3,
          min_seconds: float = 1.0) -> dict[str, tuple[float, float]]:
    """Per-step (forward s, backward s) for each stage, median over repeats.

    ``calls`` are the calls captured during one step; a stage called several
    times per step (one per interaction layer) is summed over its calls.
    """
    staged = [c for c in calls if c.name in STAGES]
    samples: dict[str, list[tuple[float, float]]] = {name: [] for name in STAGES}
    start = time.perf_counter()
    repeats = 0
    while repeats < min_repeats or time.perf_counter() - start < min_seconds:
        totals = {name: [0.0, 0.0] for name in STAGES}
        for call in staged:
            fwd, bwd = _replay(call)
            totals[call.name][0] += fwd
            totals[call.name][1] += bwd
            for p in params:  # grads from the replay must not pile up
                p.tensor.grad = None
        for name, (fwd, bwd) in totals.items():
            samples[name].append((fwd, bwd))
        repeats += 1
    return {
        name: (statistics.median(f for f, _ in s), statistics.median(b for _, b in s))
        for name, s in samples.items()
    }
