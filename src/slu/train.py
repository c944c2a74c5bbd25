"""Training loop: epoch shuffling, joint loss, early stopping on dev
overall accuracy, and best-model checkpointing."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .checkpoint import Checkpoint
from .config import Config, ConfigError
from .data import Utterance, Vocab, build_vocab, make_batches
from .metrics import EvalReport, evaluate
from .model import JointModel
from .optim import Adam, clip_global_norm


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class EpochStats:
    """One epoch's record. The gradient norms are global L2 norms taken
    before clipping; a step counts as clipped when its norm exceeded a
    positive ``clip_norm``."""

    epoch: int
    mean_loss: float
    dev: EvalReport
    grad_norm_mean: float
    grad_norm_max: float
    clipped_steps: int


@dataclass
class TrainResult:
    model: JointModel
    checkpoint: Checkpoint
    best_epoch: int
    best_dev: EvalReport
    history: list[EpochStats] = field(default_factory=list)


def evaluate_model(model: JointModel, data: list[Utterance]) -> EvalReport:
    """Evaluation-mode decode of ``data``, scored against its own gold."""
    return evaluate(predict_dataset(model, data),
                    [(u.intent, u.slots) for u in data])


def _improved(report: EvalReport, best: EvalReport | None) -> bool:
    """Strictly better overall accuracy, then strictly better slot F1.

    Strict comparisons make the earliest epoch win exact ties.
    """
    if best is None:
        return True
    if report.overall_accuracy != best.overall_accuracy:
        return report.overall_accuracy > best.overall_accuracy
    return report.slot_f1 > best.slot_f1


def train(
    config: Config,
    train_data: list[Utterance],
    dev_data: list[Utterance],
    vocab: Vocab | None = None,
    pretrained: np.ndarray | None = None,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Fit a model and return it wound back to its best dev epoch."""
    if not train_data or not dev_data:
        raise ConfigError("training and dev splits must both be non-empty")
    if vocab is None:
        vocab = build_vocab(train_data)
    model = JointModel(config, vocab, pretrained=pretrained)
    optimizer = Adam(model.params(), lr=config.lr,
                     weight_decay=config.weight_decay)
    for utt in dev_data:  # an unseen dev label fails now, not after epoch 0
        vocab.encode_slots(utt.slots)
        vocab.encode_intent(utt.intent)

    best_dev: EvalReport | None = None
    best_epoch = -1
    best_params: dict[str, np.ndarray] | None = None
    since_improvement = 0
    history: list[EpochStats] = []

    for epoch in range(config.max_epochs):
        batches = make_batches(train_data, vocab, config.batch_size,
                               shuffle_seed=config.seed + epoch)
        losses = []
        norms = []
        for bi, batch in enumerate(batches):
            loss = model.loss(batch, training=True)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss {value} at epoch {epoch}, batch {bi}"
                )
            optimizer.zero_grad()
            loss.backward()
            norms.append(clip_global_norm(optimizer.params, config.clip_norm))
            optimizer.step()
            losses.append(value)

        dev_report = evaluate_model(model, dev_data)
        stats = EpochStats(
            epoch, float(np.mean(losses)), dev_report,
            grad_norm_mean=float(np.mean(norms)),
            grad_norm_max=float(np.max(norms)),
            clipped_steps=sum(config.clip_norm > 0 and n > config.clip_norm
                              for n in norms),
        )
        history.append(stats)
        if log is not None:
            log(
                f"epoch {epoch}: loss {stats.mean_loss:.4f} "
                f"dev overall {dev_report.overall_accuracy:.4f} "
                f"slot F1 {dev_report.slot_f1:.4f} "
                f"intent acc {dev_report.intent_accuracy:.4f} "
                f"grad norm mean {stats.grad_norm_mean:.3f} "
                f"max {stats.grad_norm_max:.3f} "
                f"clipped {stats.clipped_steps}/{len(norms)}"
            )

        if _improved(dev_report, best_dev):
            best_dev = dev_report
            best_epoch = epoch
            best_params = model.state_arrays()
            since_improvement = 0
        else:
            since_improvement += 1
        if since_improvement >= config.patience:
            break

    model.load_state_arrays(best_params)
    checkpoint = Checkpoint(
        config=config,
        vocab=vocab,
        params=best_params,
        best_dev=asdict(best_dev),
        epoch=best_epoch,
    )
    return TrainResult(model, checkpoint, best_epoch, best_dev, history)


def predict_dataset(model: JointModel, data: list[Utterance]
                    ) -> list[tuple[str, list[str]]]:
    """Decode a dataset; the decodes come back in file order.

    Batches are formed from the sentences sorted by length, so each batch
    pads little; padding does not change a decode.
    """
    order = sorted(range(len(data)), key=lambda i: len(data[i].tokens))
    batches = make_batches([data[i] for i in order], model.vocab,
                           model.config.batch_size)
    out: list[tuple[str, list[str]]] = [None] * len(data)
    decodes = (pred for batch in batches for pred in model.predict_batch(batch))
    for i, pred in zip(order, decodes):
        out[i] = pred
    return out
