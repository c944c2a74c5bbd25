"""Data layer tests: split parsing, vocabulary determinism, embedding
loading, and batch round trips."""

import numpy as np
import pytest

from slu.data import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Batch,
    DataError,
    RowMap,
    Utterance,
    Vocab,
    build_vocab,
    load_dataset,
    load_pretrained_embeddings,
    load_split,
    make_batches,
)


def write_split(dir_path, rows):
    """rows: list of (tokens_line, tags_line, intent)."""
    dir_path.mkdir(parents=True, exist_ok=True)
    (dir_path / "seq.in").write_text("".join(r[0] + "\n" for r in rows))
    (dir_path / "seq.out").write_text("".join(r[1] + "\n" for r in rows))
    (dir_path / "label").write_text("".join(r[2] + "\n" for r in rows))


class TestLoadSplit:
    def test_three_token_utterance(self, tmp_path):
        write_split(tmp_path, [("watch action movie",
                                "O B-movie-type I-movie-type", "WatchMovie")])
        utts = load_split(tmp_path)
        assert len(utts) == 1
        assert utts[0].tokens == ["watch", "action", "movie"]
        assert utts[0].slots == ["O", "B-movie-type", "I-movie-type"]
        assert utts[0].intent == "WatchMovie"

    def test_empty_files_give_empty_list(self, tmp_path):
        write_split(tmp_path, [])
        assert load_split(tmp_path) == []

    def test_token_tag_length_mismatch_names_line(self, tmp_path):
        write_split(tmp_path, [
            ("a b", "O O", "X"),
            ("a b c", "O O", "X"),
        ])
        with pytest.raises(DataError, match="line 2"):
            load_split(tmp_path)

    def test_line_count_mismatch(self, tmp_path):
        write_split(tmp_path, [("a", "O", "X")])
        (tmp_path / "label").write_text("X\nY\n")
        with pytest.raises(DataError, match="line counts"):
            load_split(tmp_path)

    def test_missing_file(self, tmp_path):
        write_split(tmp_path, [("a", "O", "X")])
        (tmp_path / "seq.out").unlink()
        with pytest.raises(DataError, match="seq.out"):
            load_split(tmp_path)

    def test_empty_utterance_rejected(self, tmp_path):
        write_split(tmp_path, [("", "", "X")])
        with pytest.raises(DataError, match="empty"):
            load_split(tmp_path)

    @pytest.mark.parametrize("blank", ["", "  \t"])
    def test_blank_intent_line_rejected(self, tmp_path, blank):
        write_split(tmp_path, [("a", "O", "x"), ("b", "O", blank)])
        with pytest.raises(DataError, match=r"line 2: empty intent"):
            load_split(tmp_path)

    def test_tab_inside_intent_rejected(self, tmp_path):
        # `slu predict` writes tab-separated intent lines, so an intent with
        # a tab in it would make a prediction file `slu score` cannot read.
        write_split(tmp_path, [("a", "O", "x"), ("b", "O", "atis\tflight")])
        with pytest.raises(DataError, match=r"line 2: tab inside intent") as exc:
            load_split(tmp_path)
        assert str(tmp_path) in str(exc.value)

    def test_lowercasing_is_optional_and_token_only(self, tmp_path):
        write_split(tmp_path, [("Boston NYC", "B-from B-to", "Flight")])
        lowered = load_split(tmp_path, lowercase=True)[0]
        assert lowered.tokens == ["boston", "nyc"]
        assert lowered.slots == ["B-from", "B-to"]
        assert lowered.intent == "Flight"
        raw = load_split(tmp_path, lowercase=False)[0]
        assert raw.tokens == ["Boston", "NYC"]

    def test_reserialization_round_trip(self, tmp_path):
        rows = [("fly to denver", "O O B-city", "flight"),
                ("list flights", "O O", "flight")]
        write_split(tmp_path, rows)
        utts = load_split(tmp_path, lowercase=False)
        again = [(" ".join(u.tokens), " ".join(u.slots), u.intent) for u in utts]
        assert again == rows

    def test_valid_directory_aliases_dev(self, tmp_path):
        for name in ("train", "valid", "test"):
            write_split(tmp_path / name, [("a", "O", "X")])
        splits = load_dataset(tmp_path)
        assert len(splits["dev"]) == 1


class TestVocab:
    def test_single_utterance_vocab(self):
        vocab = build_vocab([Utterance(["a", "b", "a"], ["O", "O", "O"], "X")])
        assert vocab.id2word == [PAD_TOKEN, UNK_TOKEN, "a", "b"]
        assert vocab.word2id["a"] == 2

    def test_frequency_then_lexicographic_order(self):
        utts = [Utterance(["zz", "mm", "mm"], ["O"] * 3, "X"),
                Utterance(["aa", "zz"], ["O"] * 2, "X")]
        vocab = build_vocab(utts)
        # mm and zz both occur twice; ties sort lexicographically.
        assert vocab.id2word[2:] == ["mm", "zz", "aa"]

    def test_intents_by_falling_frequency_then_name(self):
        intents = ["b", "c", "a", "c", "d", "b", "c", "b"]
        vocab = build_vocab([Utterance(["w"], ["O"], i) for i in intents])
        # b and c occur three times each, a and d once.
        assert vocab.id2intent == ["b", "c", "a", "d"]

    def test_unseen_word_maps_to_unk(self):
        vocab = build_vocab([Utterance(["a"], ["O"], "X")])
        assert vocab.encode_tokens(["never"]) == [UNK_ID]

    def test_label_tables_have_no_reserved_entries(self):
        vocab = build_vocab([Utterance(["a"], ["B-x"], "X")])
        assert vocab.id2slot == ["B-x"]
        assert vocab.id2intent == ["X"]

    def test_unknown_slot_and_intent_are_hard_errors(self):
        vocab = build_vocab([Utterance(["a"], ["O"], "X")])
        with pytest.raises(DataError, match="slot"):
            vocab.encode_slots(["B-new"])
        with pytest.raises(DataError, match="intent"):
            vocab.encode_intent("New")

    def test_identical_corpora_identical_ids(self):
        utts = [Utterance(["c", "a", "b"], ["O", "B-x", "I-x"], "Y"),
                Utterance(["a"], ["B-z"], "X")]
        v1, v2 = build_vocab(list(utts)), build_vocab(list(utts))
        assert v1.id2word == v2.id2word
        assert v1.id2slot == v2.id2slot
        assert v1.id2intent == v2.id2intent

    def test_round_trip_ids(self):
        vocab = build_vocab([Utterance(["a", "b"], ["O", "B-x"], "X")])
        for i, w in enumerate(vocab.id2word):
            assert vocab.word2id[w] == i

    def test_dict_round_trip(self):
        vocab = build_vocab([Utterance(["a", "b"], ["O", "B-x"], "X")])
        clone = Vocab.from_dict(vocab.to_dict())
        assert clone.id2word == vocab.id2word
        assert clone.slot2id == vocab.slot2id

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            build_vocab([])


class TestEmbeddings:
    def test_covered_word_gets_exact_vector(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["hello", "world"], ["O", "O"], "X")])
        vec = " ".join(str(v) for v in range(1, 4))
        (tmp_path / "vec.txt").write_text(f"hello {vec}\n")
        table, coverage = load_pretrained_embeddings(tmp_path / "vec.txt", vocab, 3, rng)
        np.testing.assert_array_equal(table[vocab.word2id["hello"]], [1.0, 2.0, 3.0])
        assert coverage == 0.5

    def test_repeated_word_counts_once(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["hello", "world"], ["O", "O"], "X")])
        (tmp_path / "vec.txt").write_text("hello 1.0 2.0\n" * 3)
        _, coverage = load_pretrained_embeddings(tmp_path / "vec.txt", vocab, 2, rng)
        assert coverage == 0.5

    def test_uncovered_word_within_init_bounds(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["solo"], ["O"], "X")])
        (tmp_path / "vec.txt").write_text("other 1.0 2.0\n")
        table, coverage = load_pretrained_embeddings(tmp_path / "vec.txt", vocab, 2, rng)
        row = table[vocab.word2id["solo"]]
        assert (np.abs(row) <= 0.1).all()
        assert coverage == 0.0

    def test_unk_row_is_drawn_even_when_the_file_lists_unk(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["a"], ["O"], "X")])
        (tmp_path / "vec.txt").write_text(f"{UNK_TOKEN} 1.0 2.0\na 3.0 4.0\n")
        table, coverage = load_pretrained_embeddings(tmp_path / "vec.txt", vocab, 2, rng)
        assert (np.abs(table[UNK_ID]) <= 0.1).all()
        np.testing.assert_array_equal(table[vocab.word2id["a"]], [3.0, 4.0])
        assert coverage == 1.0

    def test_pad_row_is_zero(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["a"], ["O"], "X")])
        (tmp_path / "vec.txt").write_text("a 1.0 1.0\n")
        table, _ = load_pretrained_embeddings(tmp_path / "vec.txt", vocab, 2, rng)
        np.testing.assert_array_equal(table[PAD_ID], 0.0)

    def test_wrong_dimension_names_line(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["a"], ["O"], "X")])
        (tmp_path / "vec.txt").write_text("ok 1.0 2.0\nbad 1.0\n")
        with pytest.raises(DataError, match=":2"):
            load_pretrained_embeddings(tmp_path / "vec.txt", vocab, 2, rng)

    @pytest.mark.parametrize("values", ["nan inf 1", "1 -inf 2", "1e39 0 0"])
    def test_non_finite_component_names_line(self, tmp_path, rng, values):
        vocab = build_vocab([Utterance(["show"], ["O"], "X")])
        path = tmp_path / "vec.txt"
        path.write_text(f"other 1 2 3\nshow {values}\n")
        with pytest.raises(DataError, match=f"{path}:2: non-finite vector component"):
            load_pretrained_embeddings(path, vocab, 3, rng)

    def test_missing_file(self, tmp_path, rng):
        vocab = build_vocab([Utterance(["a"], ["O"], "X")])
        with pytest.raises(DataError, match="not found"):
            load_pretrained_embeddings(tmp_path / "nope.txt", vocab, 2, rng)


class TestBatching:
    def corpus(self):
        return [
            Utterance(["a", "b", "c"], ["O", "B-x", "I-x"], "X"),
            Utterance(["d"], ["O"], "Y"),
            Utterance(["a", "d"], ["B-x", "O"], "X"),
            Utterance(["b"], ["B-x"], "Y"),
            Utterance(["c", "c", "c", "c"], ["O", "O", "O", "O"], "X"),
        ]

    def test_batch_sizes(self):
        data = self.corpus()
        vocab = build_vocab(data)
        batches = make_batches(data, vocab, 2)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_per_batch_max_length(self):
        data = self.corpus()
        vocab = build_vocab(data)
        batches = make_batches(data, vocab, 2)
        assert batches[0].token_ids.shape[1] == 3  # max(3, 1)
        assert batches[1].token_ids.shape[1] == 2  # max(2, 1)
        assert batches[2].token_ids.shape[1] == 4

    def test_mask_matches_lengths(self):
        data = self.corpus()
        vocab = build_vocab(data)
        for batch in make_batches(data, vocab, 2):
            for b in range(batch.size):
                n = batch.lengths[b]
                assert batch.mask[b, :n].all()
                assert not batch.mask[b, n:].any()
                assert (batch.token_ids[b, n:] == PAD_ID).all()
                assert (batch.slot_ids[b, n:] == 0).all()

    def test_same_seed_same_composition(self):
        data = self.corpus()
        vocab = build_vocab(data)
        a = make_batches(data, vocab, 2, shuffle_seed=9)
        b = make_batches(data, vocab, 2, shuffle_seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.token_ids, y.token_ids)
            np.testing.assert_array_equal(x.intent_ids, y.intent_ids)

    def test_different_seed_usually_differs(self):
        data = self.corpus()
        vocab = build_vocab(data)
        a = make_batches(data, vocab, 2, shuffle_seed=1)
        b = make_batches(data, vocab, 2, shuffle_seed=2)
        assert any(
            x.token_ids.shape != y.token_ids.shape
            or not np.array_equal(x.token_ids, y.token_ids)
            for x, y in zip(a, b)
        )

    def test_round_trip_through_vocab(self):
        data = self.corpus()
        vocab = build_vocab(data)
        batches = make_batches(data, vocab, 2)  # no shuffle: file order
        flat = [u for u in data]
        i = 0
        for batch in batches:
            for b in range(batch.size):
                n = batch.lengths[b]
                tokens = [vocab.id2word[t] for t in batch.token_ids[b, :n]]
                slots = [vocab.id2slot[t] for t in batch.slot_ids[b, :n]]
                intent = vocab.id2intent[batch.intent_ids[b]]
                assert tokens == flat[i].tokens
                assert slots == flat[i].slots
                assert intent == flat[i].intent
                i += 1
        assert i == len(flat)

    def test_zero_batch_size_rejected(self):
        data = self.corpus()
        with pytest.raises(DataError):
            make_batches(data, build_vocab(data), 0)


class TestRowMap:
    mask = np.array([[True, True, True], [True, False, False], [True, True, False]])

    def test_layout_of_a_ragged_batch(self):
        rows = RowMap(self.mask)
        assert rows.lengths.tolist() == [3, 1, 2]
        assert rows.starts.tolist() == [0, 3, 4]
        assert rows.rows.tolist() == [0, 1, 2, 3, 6, 7]
        # A row's sentence neighbours exist except at the sentence's edges.
        assert rows.left[:, 0].tolist() == [False, True, True, False, False, True]
        assert rows.right[:, 0].tolist() == [True, True, False, False, True, False]

    def test_scatter_then_gather_round_trips(self, rng):
        rows = RowMap(self.mask)
        x = rng.standard_normal((6, 2))
        padded = rows.scatter(x)
        assert padded.shape == (3, 3, 2)
        assert not padded[~self.mask].any()
        np.testing.assert_array_equal(rows.gather(padded), x)

    # A pad between real tokens and an all-pad row are rejected in
    # test_encoder and test_interaction.
    @pytest.mark.parametrize("mask,message", [
        ([[True, True], [False, True]], "prefix"),
        (np.zeros((2, 0), bool), "no real tokens"),
        ([True, True], "2-D"),
    ], ids=["leading_pad", "no_columns", "not_2d"])
    def test_bad_masks_rejected(self, mask, message):
        with pytest.raises(ValueError, match=message):
            RowMap(np.array(mask))
