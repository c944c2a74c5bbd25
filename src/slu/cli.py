"""Command-line interface.

Subcommands: ``train``, ``eval``, ``predict``, ``score``, ``gradcheck``.
Reports are machine-parseable ``key<TAB>value`` lines and always include
the configuration hash. Prediction files hold one sentence per block:
an intent line prefixed ``# intent:``, then one ``token<TAB>gold<TAB>pred``
row per token, with blank lines between sentences.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .config import ConfigError, build_config, config_hash, parse_overrides
from .data import (DataError, build_vocab, load_dataset, load_pretrained_embeddings,
                   load_split, split_dir, utf8_lines)
from .metrics import AlignmentError, EvalReport, evaluate
from .train import DivergenceError, evaluate_model, predict_dataset, train
from . import gradcheck as gradcheck_mod


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to stdout when ``path`` is None or ``-``, else to a
    UTF-8 file, creating its parent directories."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def _write_report(path: str | None, pairs: list[tuple[str, str]]) -> None:
    _write_text(path, "".join(f"{k}\t{v}\n" for k, v in pairs))


def _report_pairs(prefix: str, report: EvalReport) -> list[tuple[str, str]]:
    return [(f"{prefix}_{k}", v) for k, v in report.to_pairs()]


def _prepare_output(path: str) -> None:
    """Refuse an output path that is an existing directory and create the
    missing parent directories, so a bad path fails before training."""
    if Path(path).is_dir():
        raise IsADirectoryError(f"{path}: is a directory")
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _load_model(checkpoint_path: str):
    ckpt = load_checkpoint(checkpoint_path)
    return model_from_checkpoint(ckpt), ckpt


def cmd_train(args) -> int:
    overrides = parse_overrides(args.set)
    config = build_config(args.config, overrides)
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    for path in (args.checkpoint, args.out):
        if path != "-":
            _prepare_output(path)
    splits = load_dataset(args.data, config.lowercase)
    vocab = build_vocab(splits["train"])

    pretrained = None
    pairs: list[tuple[str, str]] = [("config_hash", config_hash(config))]
    if args.embeddings:
        table, coverage = load_pretrained_embeddings(
            args.embeddings, vocab, config.embed_dim,
            np.random.default_rng(config.seed),
        )
        pretrained = table
        pairs.append(("embedding_coverage", f"{coverage:.4f}"))
        print(f"pretrained vectors cover {coverage:.1%} of the vocabulary")

    result = train(config, splits["train"], splits["dev"], vocab=vocab,
                   pretrained=pretrained, log=print)
    save_checkpoint(args.checkpoint, result.checkpoint)
    print(f"saved best checkpoint (epoch {result.best_epoch}) to {args.checkpoint}")

    test_report = evaluate_model(result.model, splits["test"])
    pairs.extend([
        ("train_sentences", str(len(splits["train"]))),
        ("best_epoch", str(result.best_epoch)),
        ("epochs_run", str(len(result.history))),
    ])
    pairs.extend(_report_pairs("dev", result.best_dev))
    pairs.extend(_report_pairs("test", test_report))
    _write_report(args.out, pairs)
    print(
        f"test: slot F1 {test_report.slot_f1:.4f}, "
        f"intent acc {test_report.intent_accuracy:.4f}, "
        f"overall acc {test_report.overall_accuracy:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    model, ckpt = _load_model(args.checkpoint)
    data = load_split(split_dir(args.data, args.split), ckpt.config.lowercase)
    report = evaluate_model(model, data)
    pairs = [("config_hash", config_hash(ckpt.config)),
             ("split", args.split)]
    pairs.extend(_report_pairs(args.split, report))
    _write_report(args.out, pairs)
    return 0


def cmd_predict(args) -> int:
    model, ckpt = _load_model(args.checkpoint)
    data = load_split(split_dir(args.data, args.split), ckpt.config.lowercase)
    predictions = predict_dataset(model, data)
    lines = []
    for utt, (pred_intent, pred_tags) in zip(data, predictions):
        lines.append(f"# intent:\t{utt.intent}\t{pred_intent}")
        for token, gold_tag, pred_tag in zip(utt.tokens, utt.slots, pred_tags):
            lines.append(f"{token}\t{gold_tag}\t{pred_tag}")
        lines.append("")
    _write_text(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def read_prediction_file(path: str | Path) -> tuple[list, list]:
    """Parse the predict output format back into (pred, gold) sentence lists.

    Each block must hold exactly one intent line and at least one token
    row, as ``predict`` writes it."""
    pred, gold = [], []
    cur_gold_tags: list[str] = []
    cur_pred_tags: list[str] = []
    cur_intents: tuple[str, str] | None = None
    intent_lineno = 0

    def flush(lineno):
        nonlocal cur_intents, cur_gold_tags, cur_pred_tags
        if cur_intents is None and not cur_gold_tags:
            return
        if cur_intents is None:
            raise DataError(f"{path} line {lineno}: sentence block without an intent line")
        if not cur_gold_tags:
            raise DataError(f"{path} line {intent_lineno}: intent line without token rows")
        gold.append((cur_intents[0], cur_gold_tags))
        pred.append((cur_intents[1], cur_pred_tags))
        cur_intents, cur_gold_tags, cur_pred_tags = None, [], []

    path = Path(path)
    if not path.is_file():
        raise DataError(f"prediction file not found: {path}")
    lineno = 0
    for lineno, line in enumerate("".join(utf8_lines(path)).splitlines(), 1):
        if not line.strip():
            flush(lineno)
            continue
        parts = line.split("\t")
        if parts[0] == "# intent:":
            if len(parts) != 3:
                raise DataError(f"{path} line {lineno}: malformed intent line")
            if cur_intents is not None:
                raise DataError(f"{path} line {lineno}: second intent line in one block")
            cur_intents, intent_lineno = (parts[1], parts[2]), lineno
        else:
            if len(parts) != 3:
                raise DataError(
                    f"{path} line {lineno}: expected token<TAB>gold<TAB>pred, got {line!r}"
                )
            cur_gold_tags.append(parts[1])
            cur_pred_tags.append(parts[2])
    flush(lineno)
    return pred, gold


def cmd_score(args) -> int:
    pred, gold = read_prediction_file(args.file)
    report = evaluate(pred, gold)
    _write_report(args.out, report.to_pairs())
    return 0


def cmd_gradcheck(args) -> int:
    result = gradcheck_mod.run(seed=args.seed, quick=args.quick)
    for name, err in sorted(result.per_tensor.items()):
        print(f"{name:40s} max rel err {err:.3e}")
    print(f"checked {result.checked} coordinates; "
          f"worst relative error {result.max_rel_err:.3e}")
    if not result.passed:
        for failure in result.failures[:20]:
            print(f"FAIL {failure}", file=sys.stderr)
        print("gradient check FAILED", file=sys.stderr)
        return 1
    print("gradient check passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slu",
        description="Joint slot filling and intent detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        """The arguments ``eval`` and ``predict`` share."""
        p.add_argument("--data", required=True, help="dataset root directory")
        p.add_argument("--checkpoint", required=True, help="checkpoint path")
        p.add_argument("--split", default="test", choices=["train", "dev", "test"])
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--data", required=True, help="dataset root directory")
    p_train.add_argument("--config", default=None, help="key = value config file")
    p_train.add_argument("--embeddings", default=None,
                         help="pretrained word vector text file")
    p_train.add_argument("--checkpoint", default="model.ckpt",
                         help="where to save the best model")
    p_train.add_argument("--out", default="report.txt",
                         help="metrics report path")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="config override, repeatable")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="write predictions for a split")
    common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_score = sub.add_parser("score", help="score a prediction file")
    p_score.add_argument("file", help="prediction file from the predict command")
    p_score.add_argument("--out", default=None)
    p_score.set_defaults(func=cmd_score)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--quick", action="store_true",
                        help="sample a few coordinates per tensor")
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError, AlignmentError,
            DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
