"""Corpus ingestion: split loading, vocabularies, embeddings, batching.

Dataset layout on disk: ``<root>/{train,dev,test}/{seq.in,seq.out,label}``,
UTF-8, newline-delimited. ``seq.in`` holds space-separated tokens, ``seq.out``
the parallel BIO tags, ``label`` one intent per line. A ``valid`` directory is
accepted as an alias for ``dev`` since published splits use either name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1


class DataError(ValueError):
    """Malformed corpus, vocabulary, or embedding input."""


@dataclass
class Utterance:
    tokens: list[str]
    slots: list[str]
    intent: str


@dataclass
class Vocab:
    """Dense bidirectional maps for words, slot tags, and intents.

    Word ids 0 and 1 are reserved for padding and unknown tokens; slot and
    intent tables have no reserved entries. Unknown words encode to the
    unknown id; unknown slot or intent labels are a hard error because they
    cannot occur in a well-formed split.
    """

    id2word: list[str]
    id2slot: list[str]
    id2intent: list[str]
    word2id: dict[str, int] = field(init=False, repr=False)
    slot2id: dict[str, int] = field(init=False, repr=False)
    intent2id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.word2id = {w: i for i, w in enumerate(self.id2word)}
        self.slot2id = {s: i for i, s in enumerate(self.id2slot)}
        self.intent2id = {s: i for i, s in enumerate(self.id2intent)}

    @property
    def n_words(self) -> int:
        return len(self.id2word)

    @property
    def n_slots(self) -> int:
        return len(self.id2slot)

    @property
    def n_intents(self) -> int:
        return len(self.id2intent)

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return [self.word2id.get(t, UNK_ID) for t in tokens]

    def encode_slots(self, slots: list[str]) -> list[int]:
        try:
            return [self.slot2id[s] for s in slots]
        except KeyError as exc:
            raise DataError(f"unknown slot label {exc.args[0]!r}") from None

    def encode_intent(self, intent: str) -> int:
        try:
            return self.intent2id[intent]
        except KeyError:
            raise DataError(f"unknown intent label {intent!r}") from None

    def to_dict(self) -> dict:
        return {
            "words": self.id2word,
            "slots": self.id2slot,
            "intents": self.id2intent,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        return cls(list(d["words"]), list(d["slots"]), list(d["intents"]))


@dataclass
class Batch:
    token_ids: np.ndarray   # int (B, n_max)
    mask: np.ndarray        # bool (B, n_max)
    slot_ids: np.ndarray    # int (B, n_max), 0 at padded positions
    intent_ids: np.ndarray  # int (B,)
    lengths: np.ndarray     # int (B,)

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def utf8_lines(path: Path, error: type[Exception] = DataError):
    """The lines of a UTF-8 text file, decoded lazily; bytes that do not
    decode raise ``error`` with the path and the offset."""
    with path.open(encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DataError(f"missing data file: {path}")
    text = "".join(utf8_lines(path))
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def load_split(dir_path: str | Path, lowercase: bool = True) -> list[Utterance]:
    """Read one split directory into validated utterances, in file order."""
    dir_path = Path(dir_path)
    tokens_lines = _read_lines(dir_path / "seq.in")
    tags_lines = _read_lines(dir_path / "seq.out")
    intent_lines = _read_lines(dir_path / "label")
    counts = (len(tokens_lines), len(tags_lines), len(intent_lines))
    if len(set(counts)) != 1:
        raise DataError(
            f"{dir_path}: line counts differ between files: "
            f"seq.in={counts[0]}, seq.out={counts[1]}, label={counts[2]}"
        )
    utterances = []
    for lineno, (tok_line, tag_line, intent) in enumerate(
        zip(tokens_lines, tags_lines, intent_lines), 1
    ):
        tokens = tok_line.split()
        tags = tag_line.split()
        if len(tokens) != len(tags):
            raise DataError(
                f"{dir_path} line {lineno}: {len(tokens)} tokens but "
                f"{len(tags)} tags"
            )
        if not tokens:
            raise DataError(f"{dir_path} line {lineno}: empty utterance")
        intent = intent.strip()
        if not intent:
            raise DataError(f"{dir_path} line {lineno}: empty intent label")
        if "\t" in intent:
            raise DataError(f"{dir_path} line {lineno}: tab inside intent label")
        if lowercase:
            tokens = [t.lower() for t in tokens]
        utterances.append(Utterance(tokens, tags, intent))
    return utterances


def load_dataset(root: str | Path, lowercase: bool = True) -> dict[str, list[Utterance]]:
    """Load train/dev/test splits; ``valid`` works as a dev alias."""
    root = Path(root)
    splits: dict[str, list[Utterance]] = {}
    for name in ("train", "dev", "test"):
        path = root / name
        if name == "dev" and not path.is_dir() and (root / "valid").is_dir():
            path = root / "valid"
        splits[name] = load_split(path, lowercase)
    return splits


def _ordered(counter: Counter) -> list[str]:
    return [w for w, _ in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))]


def build_vocab(train: list[Utterance], min_freq: int = 1) -> Vocab:
    """Vocabulary over the training split only, ordered by frequency then
    lexicographically so identical corpora always produce identical ids."""
    if not train:
        raise DataError("cannot build a vocabulary from an empty training set")
    word_counts: Counter = Counter()
    slot_counts: Counter = Counter()
    intent_counts: Counter = Counter()
    for utt in train:
        word_counts.update(utt.tokens)
        slot_counts.update(utt.slots)
        intent_counts[utt.intent] += 1
    words = [w for w in _ordered(word_counts) if word_counts[w] >= min_freq]
    return Vocab(
        id2word=[PAD_TOKEN, UNK_TOKEN, *words],
        id2slot=_ordered(slot_counts),
        id2intent=_ordered(intent_counts),
    )


def load_pretrained_embeddings(
    path: str | Path, vocab: Vocab, embed_dim: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Build a |V| x e table from a text vector file.

    Covered vocabulary words get their file vectors verbatim; uncovered
    words (and the unknown token) draw from uniform(-0.1, 0.1); the pad row
    is zero. Returns (table, coverage ratio over non-reserved words).
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"embedding file not found: {path}")
    table = rng.uniform(-0.1, 0.1, size=(vocab.n_words, embed_dim)).astype(np.float32)
    table[PAD_ID] = 0.0
    covered = set()
    wanted = vocab.word2id
    for lineno, line in enumerate(utf8_lines(path), 1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        word, values = parts[0], parts[1:]
        if len(values) != embed_dim:
            raise DataError(
                f"{path}:{lineno}: expected {embed_dim} values, "
                f"got {len(values)}"
            )
        idx = wanted.get(word)
        if idx is not None and idx > UNK_ID:
            try:
                with np.errstate(over="ignore"):  # an overflow is caught as inf
                    vector = np.asarray(values, dtype=np.float32)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from None
            if not np.isfinite(vector).all():
                raise DataError(f"{path}:{lineno}: non-finite vector component")
            table[idx] = vector
            covered.add(idx)
    real_words = max(1, vocab.n_words - 2)
    return table, len(covered) / real_words


def make_batches(
    data: list[Utterance], vocab: Vocab, batch_size: int,
    shuffle_seed: int | None = None,
) -> list[Batch]:
    """Encode and pad to per-batch max length, optionally seeded-shuffled."""
    if batch_size < 1:
        raise DataError(f"batch_size must be at least 1, got {batch_size}")
    order = np.arange(len(data))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    batches = []
    for start in range(0, len(data), batch_size):
        idx = order[start : start + batch_size]
        members = [data[i] for i in idx]
        lengths = np.array([len(u.tokens) for u in members])
        n_max = int(lengths.max())
        B = len(members)
        token_ids = np.zeros((B, n_max), dtype=np.int64)
        slot_ids = np.zeros((B, n_max), dtype=np.int64)
        mask = np.zeros((B, n_max), dtype=bool)
        intent_ids = np.zeros(B, dtype=np.int64)
        for b, utt in enumerate(members):
            n = len(utt.tokens)
            token_ids[b, :n] = vocab.encode_tokens(utt.tokens)
            slot_ids[b, :n] = vocab.encode_slots(utt.slots)
            mask[b, :n] = True
            intent_ids[b] = vocab.encode_intent(utt.intent)
        batches.append(Batch(token_ids, mask, slot_ids, intent_ids, lengths))
    return batches
