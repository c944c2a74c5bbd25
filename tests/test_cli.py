"""End-to-end checks for the command-line interface.

Everything runs through ``slu.cli.main`` on the bundled sample corpus so
the tests observe exactly what a shell user would.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from slu import gradcheck
from slu.cli import main, read_prediction_file
from slu.config import Config, config_hash
from slu.data import DataError, build_vocab, load_dataset
from slu.metrics import evaluate

from helpers import CORRUPT_CHECKPOINTS, rewrite_header

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data" / "atis16"
TOY_CFG = SAMPLE.parent.parent / "configs" / "toy.cfg"

FAST_ARGS = [
    "--set", "embed_dim=16", "--set", "hidden_dim=16",
    "--set", "num_layers=1", "--set", "num_heads=2",
    "--set", "ffn_dim=32", "--set", "dropout=0.0",
    "--set", "batch_size=4", "--set", "lr=0.005",
    "--set", "max_epochs=3", "--set", "patience=10",
    "--set", "seed=7",
]


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("\t")
        out[key] = value
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One short training run shared by the round-trip tests."""
    root = tmp_path_factory.mktemp("cli")
    ckpt = root / "model.ckpt"
    report = root / "report.txt"
    rc = main(["train", "--data", str(SAMPLE), "--checkpoint", str(ckpt),
               "--out", str(report), *FAST_ARGS])
    assert rc == 0
    return root, ckpt, report


class TestTrain:
    def test_writes_checkpoint_and_report(self, trained):
        _, ckpt, report = trained
        assert ckpt.is_file() and ckpt.stat().st_size > 0
        assert report.is_file()

    def test_report_keys(self, trained):
        _, _, report = trained
        rep = read_report(report)
        for key in ["config_hash", "train_sentences", "best_epoch",
                    "dev_slot_f1", "dev_overall_accuracy",
                    "test_slot_f1", "test_intent_accuracy",
                    "test_overall_accuracy"]:
            assert key in rep, key
        assert rep["train_sentences"] == "16"
        float(rep["test_slot_f1"])

    def test_config_hash_matches_overrides(self, trained):
        _, _, report = trained
        rep = read_report(report)
        config = Config(embed_dim=16, hidden_dim=16, num_layers=1,
                        num_heads=2, ffn_dim=32, dropout=0.0, batch_size=4,
                        lr=0.005, max_epochs=3, patience=10, seed=7)
        assert rep["config_hash"] == config_hash(config)

    def test_bad_override_exits_nonzero(self, tmp_path, capsys):
        rc = main(["train", "--data", str(SAMPLE),
                   "--checkpoint", str(tmp_path / "x.ckpt"),
                   "--out", str(tmp_path / "r.txt"),
                   "--set", "no_such_field=3"])
        assert rc == 1
        assert "no_such_field" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--checkpoint", "--out"])
    def test_output_naming_a_directory_fails_before_training(self, tmp_path, capsys, flag):
        taken = tmp_path / "taken"
        taken.mkdir()
        paths = {"--checkpoint": str(tmp_path / "x.ckpt"), "--out": str(tmp_path / "r.txt"),
                 flag: str(taken)}
        rc = main(["train", "--data", str(SAMPLE), *FAST_ARGS,
                   *(arg for item in paths.items() for arg in item)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error: {taken}: is a directory" in captured.err
        assert "epoch 0" not in captured.out

    def test_missing_output_parents_are_created(self, tmp_path):
        ckpt, out = tmp_path / "a" / "x.ckpt", tmp_path / "b" / "c" / "r.txt"
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--checkpoint", str(ckpt), "--out", str(out), *FAST_ARGS])
        assert rc == 1  # no data; the parents exist before it is read
        assert ckpt.parent.is_dir() and out.parent.is_dir()

    def test_pretrained_embeddings_end_to_end(self, tmp_path, capsys):
        vocab = build_vocab(load_dataset(SAMPLE)["train"])
        words = vocab.id2word[2:6]
        lines = [f"{w} " + " ".join(["0.25"] * 16) for w in ["<unk>", *words, "zzz_absent"]]
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.txt"
        rc = main(["train", "--data", str(SAMPLE), "--checkpoint", str(tmp_path / "x.ckpt"),
                   "--out", str(report), "--embeddings", str(vectors), *FAST_ARGS,
                   "--set", "max_epochs=1"])
        assert rc == 0
        coverage = len(words) / (vocab.n_words - 2)
        assert read_report(report)["embedding_coverage"] == f"{coverage:.4f}"
        assert f"pretrained vectors cover {coverage:.1%} of the vocabulary" in \
            capsys.readouterr().out

    def test_missing_data_exits_nonzero(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--checkpoint", str(tmp_path / "x.ckpt"),
                   "--out", str(tmp_path / "r.txt"), *FAST_ARGS])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEvalPredictScore:
    def test_eval_report(self, trained, tmp_path):
        _, ckpt, _ = trained
        out = tmp_path / "eval.txt"
        rc = main(["eval", "--data", str(SAMPLE), "--checkpoint", str(ckpt),
                   "--split", "dev", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["split"] == "dev"
        assert rep["dev_sentences"] == "4"
        assert 0.0 <= float(rep["dev_overall_accuracy"]) <= 1.0

    def test_predict_format(self, trained, tmp_path):
        _, ckpt, _ = trained
        out = tmp_path / "preds.txt"
        rc = main(["predict", "--data", str(SAMPLE), "--checkpoint", str(ckpt),
                   "--split", "test", "--out", str(out)])
        assert rc == 0
        blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 4
        first = blocks[0].splitlines()
        assert first[0].startswith("# intent:\t")
        assert len(first[0].split("\t")) == 3
        # test sentence 1 has six tokens, gold column preserved verbatim
        assert len(first) == 1 + 6
        token, gold_tag, pred_tag = first[1].split("\t")
        assert token == "morning"
        assert gold_tag == "B-depart_time.period_of_day"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_dev_split_reads_a_valid_directory(self, trained, tmp_path, command):
        # ``train`` takes ``valid/`` for a missing ``dev/``, and so do the
        # commands that read one split: the output is that of ``dev/``.
        _, ckpt, _ = trained
        data = tmp_path / "atis16"
        shutil.copytree(SAMPLE, data)
        (data / "dev").rename(data / "valid")
        outs = [tmp_path / "dev.txt", tmp_path / "valid.txt"]
        for root, out in zip((SAMPLE, data), outs):
            rc = main([command, "--data", str(root), "--checkpoint", str(ckpt),
                       "--split", "dev", "--out", str(out)])
            assert rc == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_score_agrees_with_eval(self, trained, tmp_path):
        _, ckpt, _ = trained
        preds = tmp_path / "preds.txt"
        eval_out = tmp_path / "eval.txt"
        score_out = tmp_path / "score.txt"
        main(["predict", "--data", str(SAMPLE), "--checkpoint", str(ckpt),
              "--split", "test", "--out", str(preds)])
        main(["eval", "--data", str(SAMPLE), "--checkpoint", str(ckpt),
              "--split", "test", "--out", str(eval_out)])
        rc = main(["score", str(preds), "--out", str(score_out)])
        assert rc == 0
        eval_rep = read_report(eval_out)
        score_rep = read_report(score_out)
        for key in ["slot_f1", "intent_accuracy", "overall_accuracy"]:
            assert score_rep[key] == eval_rep[f"test_{key}"]

    @pytest.mark.parametrize("case", [*sorted(CORRUPT_CHECKPOINTS), "unknown_parameter",
                                      "empty_slot_labels"])
    def test_eval_malformed_checkpoint_exits_1(self, trained, tmp_path, capsys, case):
        _, ckpt, _ = trained
        raw = ckpt.read_bytes()
        if case == "unknown_parameter":
            def rename(header):
                header["params"][0]["name"] = "bogus"
                return header
            raw = rewrite_header(raw, rename)
        elif case == "empty_slot_labels":
            def empty_slots(header):
                header["vocab"]["slots"] = []
                return header
            raw = rewrite_header(raw, empty_slots)
        else:
            raw = CORRUPT_CHECKPOINTS[case](raw)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw)
        rc = main(["eval", "--data", str(SAMPLE), "--checkpoint", str(bad),
                   "--split", "test", "--out", str(tmp_path / "eval.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_score_hand_oracle(self, tmp_path, capsys):
        # Sentence 1 fully correct; sentence 2 wrong intent and wrong chunk
        # type. By hand: P = R = F1 = 0.5, intent acc 0.5, overall 0.5.
        pred_file = tmp_path / "p.txt"
        pred_file.write_text(
            "# intent:\tgreet\tgreet\n"
            "hi\tB-name\tB-name\n"
            "there\tO\tO\n"
            "\n"
            "# intent:\tbook\tgreet\n"
            "rome\tB-dest\tB-name\n"
            "\n"
        )
        rc = main(["score", str(pred_file)])
        assert rc == 0
        rep = dict(line.split("\t") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert rep["slot_f1"] == "0.500000"
        assert rep["intent_accuracy"] == "0.500000"
        assert rep["overall_accuracy"] == "0.500000"
        assert rep["gold_chunks"] == "2"
        assert rep["correct_chunks"] == "1"

    def test_score_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# intent:\ta\tb\nonly-two\tcolumns\n")
        rc = main(["score", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert str(bad) in err

    def test_score_missing_file(self, tmp_path, capsys):
        rc = main(["score", str(tmp_path / "absent.txt")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_score_out_naming_a_directory(self, tmp_path, capsys):
        pred_file = tmp_path / "p.txt"
        pred_file.write_text("# intent:\tgreet\tgreet\nhi\tO\tO\n\n")
        rc = main(["score", str(pred_file), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err


class TestNonUtf8Input:
    """A file that is not UTF-8 exits 1 with a message naming it."""

    BAD = b"\xff\xfe not text\n"

    def train(self, tmp_path, *extra):
        return main(["train", "--checkpoint", str(tmp_path / "x.ckpt"),
                     "--out", str(tmp_path / "r.txt"), *FAST_ARGS, *extra])

    def assert_rejected(self, rc, capsys, path):
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "UTF-8" in err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"lr = 0.01\n" + self.BAD)
        rc = self.train(tmp_path, "--data", str(SAMPLE), "--config", str(cfg))
        self.assert_rejected(rc, capsys, cfg)

    def test_corpus_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(SAMPLE, data)
        seq_in = data / "train" / "seq.in"
        seq_in.write_bytes(seq_in.read_bytes() + self.BAD)
        rc = self.train(tmp_path, "--data", str(data))
        self.assert_rejected(rc, capsys, seq_in)

    def test_embeddings_file(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"flight " + b"0.5 " * 16 + b"\n" + self.BAD)
        rc = self.train(tmp_path, "--data", str(SAMPLE), "--embeddings", str(vectors))
        self.assert_rejected(rc, capsys, vectors)

    def test_prediction_file(self, tmp_path, capsys):
        preds = tmp_path / "preds.txt"
        preds.write_bytes(b"# intent:\ta\ta\n" + self.BAD)
        self.assert_rejected(main(["score", str(preds)]), capsys, preds)


class TestPredictionFileParser:
    def test_round_trip_structure(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text(
            "# intent:\tA\tB\n"
            "x\tO\tO\n"
            "y\tB-t\tB-t\n"
            "\n"
            "# intent:\tC\tC\n"
            "z\tB-u\tO\n"
            "\n"
        )
        pred, gold = read_prediction_file(f)
        assert gold == [("A", ["O", "B-t"]), ("C", ["B-u"])]
        assert pred == [("B", ["O", "B-t"]), ("C", ["O"])]

    def test_missing_intent_line(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("x\tO\tO\n\n")
        with pytest.raises(DataError, match="intent"):
            read_prediction_file(f)

    @pytest.mark.parametrize("text, lineno", [
        ("# intent:\tA\tA\n# intent:\tB\tB\nx\tO\tO\n\n", 2),
        ("# intent:\tA\tA\nx\tO\tO\n# intent:\tB\tB\ny\tO\tO\n\n", 3),
    ], ids=["adjacent", "after_rows"])
    def test_second_intent_line_in_a_block(self, tmp_path, text, lineno):
        # Read leniently, the first sentence would be dropped unseen.
        f = tmp_path / "p.txt"
        f.write_text(text)
        with pytest.raises(DataError, match=rf"p\.txt line {lineno}: second intent line"):
            read_prediction_file(f)

    @pytest.mark.parametrize("text, lineno", [
        ("# intent:\tA\tA\n\n# intent:\tB\tB\nx\tO\tO\n\n", 1),
        ("# intent:\tA\tA\nx\tO\tO\n\n# intent:\tB\tB\n", 4),
    ], ids=["blank_after_intent", "end_of_file"])
    def test_block_without_token_rows(self, tmp_path, text, lineno):
        # Read leniently, a tagless sentence would count toward the scores.
        f = tmp_path / "p.txt"
        f.write_text(text)
        with pytest.raises(DataError, match=rf"p\.txt line {lineno}: intent line without token"):
            read_prediction_file(f)

    def test_no_trailing_blank_line(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# intent:\tA\tA\nx\tO\tO")
        pred, gold = read_prediction_file(f)
        assert len(pred) == len(gold) == 1


class TestUnseenTestLabels:
    """A test split may hold gold labels the training split lacks, as the
    real ATIS test split does. Decoding never looks them up: ``train``,
    ``predict`` and ``eval`` all succeed, and each such label is a miss."""

    @pytest.fixture(params=["intent", "slot"])
    def corpus(self, request, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(SAMPLE, root)
        if request.param == "intent":
            path, old, new = root / "test" / "label", "atis_flight", "atis_day_name"
        else:
            path, old, new = (root / "test" / "seq.out", "B-depart_time.period_of_day",
                              "B-arrive_time.period_of_day")
        lines = path.read_text().splitlines()
        assert lines[0].split()[0] == old
        lines[0] = lines[0].replace(old, new, 1)
        path.write_text("\n".join(lines) + "\n")
        return root, request.param, new

    def test_train_predict_and_eval_count_the_label_wrong(self, corpus, tmp_path):
        root, kind, label = corpus
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "report.txt"
        assert main(["train", "--data", str(root), "--checkpoint", str(ckpt),
                     "--out", str(report), *FAST_ARGS, "--set", "max_epochs=1"]) == 0
        assert read_report(report)["test_sentences"] == "4"

        preds, evaluated = tmp_path / "preds.txt", tmp_path / "eval.txt"
        assert main(["predict", "--data", str(root), "--checkpoint", str(ckpt),
                     "--out", str(preds)]) == 0
        pred, gold = read_prediction_file(preds)
        if kind == "intent":
            assert gold[0][0] == label and pred[0][0] != label
        else:
            assert gold[0][1][0] == label and pred[0][1][0] != label

        assert main(["eval", "--data", str(root), "--checkpoint", str(ckpt),
                     "--out", str(evaluated)]) == 0
        rep = read_report(evaluated)
        expected = evaluate(pred, gold)
        assert int(rep["test_correct_sentences"]) == expected.correct_sentences <= 3
        assert rep["test_intent_accuracy"] == f"{expected.intent_accuracy:.6f}"
        assert int(rep["test_correct_chunks"]) == expected.correct_chunks
        if kind == "intent":
            assert expected.intent_accuracy <= 0.75
        else:
            assert expected.correct_chunks < expected.gold_chunks


class TestUnseenDevLabel:
    def test_train_names_the_dev_split_and_line(self, tmp_path, capsys):
        root = tmp_path / "data"
        shutil.copytree(SAMPLE, root)
        path = root / "dev" / "label"
        lines = path.read_text().splitlines()
        lines[2] = "atis_day_name"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(root), "--config", str(TOY_CFG),
                   "--checkpoint", str(tmp_path / "x.ckpt"),
                   "--out", str(tmp_path / "r.txt"), "--set", "max_epochs=1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: dev split line 3: "
                                "unknown intent label 'atis_day_name'\n")
        assert "epoch 0" not in captured.out


class TestGradcheckCommand:
    def test_quick_passes(self, capsys):
        rc = main(["gradcheck", "--quick", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert "worst relative error" in out

    def test_a_failed_check_is_reported_and_exits_1(self, monkeypatch, capsys):
        # A failing result as gradcheck.run returns one (the check itself
        # is tested in test_gradcheck.py); the listing stops at 20.
        failures = [f"crf.T[{i}]: analytic 1.0 vs numeric 0.9 (rel err 1.00e-01)"
                    for i in range(25)]
        result = gradcheck.GradCheckResult(passed=False, checked=40, failures=failures,
                                           max_rel_err=0.1, per_tensor={"crf.T": 0.1})
        monkeypatch.setattr(gradcheck, "run", lambda seed, quick: result)
        assert main(["gradcheck", "--quick"]) == 1
        captured = capsys.readouterr()
        assert "checked 40 coordinates; worst relative error 1.000e-01" in captured.out
        assert "gradient check passed" not in captured.out
        assert captured.err.splitlines() == [f"FAIL {f}" for f in failures[:20]] + [
            "gradient check FAILED"]

    def test_negative_seed_exits_1(self, capsys):
        assert main(["gradcheck", "--quick", "--seed", "-1"]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err


class TestArgparseBehavior:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
