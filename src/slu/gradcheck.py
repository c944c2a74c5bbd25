"""Exhaustive finite-difference verification of the full model gradient.

A small float64 model (width 8, two layers, two heads) is driven through
the real joint loss on a ragged two-sentence batch; every parameter
coordinate is then perturbed by a central difference and compared against
the backward pass. Pass rule per coordinate:

    |analytic - numeric| <= tol * max(1, |analytic|, |numeric|)

The tolerance floor of 1 keeps the rule meaningful around zero where
relative error is undefined. Coordinates that fail at the default step are
retried with a 100x smaller step, and those that still fail with a step
100x smaller again: central differences are biased when a relu kink or
max switch falls inside the step window, and shrinking the window isolates
those from genuinely wrong gradients. The last retry (1e-7) catches a kink
within ~1e-5 of the point; in float64 its rounding error is still far
below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import Config
from .data import Batch, Vocab
from .model import JointModel

DEFAULT_STEP = 1e-3
RETRY_STEPS = (1e-5, 1e-7)
TOLERANCE = 1e-4


@dataclass
class GradCheckResult:
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0
    per_tensor: dict[str, float] = field(default_factory=dict)


def toy_setup(seed: int = 0, ablation: str = "full") -> tuple[JointModel, Batch]:
    """Tiny float64 model + ragged batch exercising every code path."""
    config = Config(
        embed_dim=8, hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16,
        dropout=0.0, encoder_dropout=0.0, ablation=ablation, seed=seed,
    ).validate()
    vocab = Vocab(
        id2word=["<pad>", "<unk>", "w2", "w3", "w4", "w5", "w6", "w7", "w8"],
        id2slot=["O", "B-a", "I-a", "B-b"],
        id2intent=["x", "y", "z"],
    )
    model = JointModel(config, vocab, dtype=np.float64)
    batch = Batch(
        token_ids=np.array([[2, 5, 7, 3], [4, 6, 8, 0]]),
        mask=np.array([[True, True, True, True], [True, True, True, False]]),
        slot_ids=np.array([[0, 1, 2, 3], [1, 2, 0, 0]]),
        intent_ids=np.array([1, 2]),
    )
    return model, batch


def check_model(model: JointModel, batch: Batch,
                step: float = DEFAULT_STEP, tol: float = TOLERANCE,
                max_coords_per_tensor: int | None = None,
                rng: np.random.Generator | None = None) -> GradCheckResult:
    """Compare backward() against central differences, coordinate by
    coordinate. ``max_coords_per_tensor`` samples a subset for quick runs;
    the default sweeps everything."""
    params = model.params()
    for p in params:
        p.tensor.grad = None
    loss = model.loss(batch, training=False)
    loss.backward()

    def loss_value() -> float:
        with ad.no_grad():
            return model.loss(batch, training=False).item()

    result = GradCheckResult(passed=True, checked=0)
    for p in params:
        tensor = p.tensor
        analytic = tensor.grad
        if analytic is None:
            analytic = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        aflat = analytic.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(flat.size, size=max_coords_per_tensor, replace=False)
        worst = 0.0
        for i in coords:
            orig = flat[i]

            def fd(h: float) -> float:
                flat[i] = orig + h
                fp = loss_value()
                flat[i] = orig - h
                fm = loss_value()
                flat[i] = orig
                return (fp - fm) / (2.0 * h)

            for h in (step, *RETRY_STEPS):
                numeric = fd(h)
                err = abs(numeric - aflat[i]) / max(1.0, abs(numeric), abs(aflat[i]))
                if err <= tol:
                    break
            worst = max(worst, err)
            result.checked += 1
            if err > tol:
                result.passed = False
                result.failures.append(
                    f"{p.name}[{i}]: analytic {aflat[i]:.6e} vs "
                    f"numeric {numeric:.6e} (rel err {err:.2e})"
                )
        result.per_tensor[p.name] = worst
        result.max_rel_err = max(result.max_rel_err, worst)
    return result


def run(seed: int = 0, quick: bool = False) -> GradCheckResult:
    """Standard gradient suite entry point (used by the command line)."""
    model, batch = toy_setup(seed=seed)
    limit = 16 if quick else None
    return check_model(model, batch, max_coords_per_tensor=limit,
                       rng=np.random.default_rng(seed + 1))
