"""Seeded synthetic corpora shaped like ATIS.

The benchmark never reads a real corpus: every input is drawn here from
the ``--seed`` it was given, so the same seed always yields the same
utterances. Two length profiles are used:

* ``train``: uniform lengths 6-24, the shape of the base-config batches
  the training workloads step through;
* ``heldout``: a long-tailed (log-normal) profile clipped to 1-46 with a
  mean near 11 tokens, like the ATIS test split that decoding runs on.

Words follow a Zipf law over the vocabulary, intents a Zipf law over the
intent set, and slot tags are well-formed BIO chunks of one to three
tokens, so every sequence a decoder sees is one a real tagger could emit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from slu.data import PAD_TOKEN, UNK_TOKEN, Utterance, Vocab

ATIS_TRAIN_SENTENCES = 4478


@dataclass(frozen=True)
class CorpusShape:
    """Size parameters of a synthetic corpus (ATIS-like by default)."""

    n_words: int = 900         # vocabulary size, including pad and unknown
    n_slot_types: int = 60     # chunk types; all but the last have an I- tag
    n_intents: int = 21
    train_sentences: int = ATIS_TRAIN_SENTENCES
    train_min_len: int = 6
    train_max_len: int = 24
    heldout_sentences: int = 4096
    heldout_median_len: float = 10.3
    heldout_sigma: float = 0.42
    heldout_max_len: int = 46
    outside_prob: float = 0.6  # share of positions tagged O

    @property
    def n_slots(self) -> int:
        return 2 * self.n_slot_types  # O + B-x for every type + I-x for all but one

    def describe(self) -> dict:
        return {**asdict(self), "n_slots": self.n_slots}


def make_vocab(shape: CorpusShape) -> Vocab:
    """Fixed-size vocabulary: every word, tag and intent has an id even if a
    given draw never uses it, so model shapes do not depend on the seed."""
    words = [f"w{i:04d}" for i in range(shape.n_words - 2)]
    types = [f"t{i:02d}" for i in range(shape.n_slot_types)]
    slots = ["O", *(f"B-{t}" for t in types), *(f"I-{t}" for t in types[:-1])]
    intents = [f"intent{i:02d}" for i in range(shape.n_intents)]
    return Vocab([PAD_TOKEN, UNK_TOKEN, *words], slots, intents)


def _zipf_cdf(n: int) -> np.ndarray:
    """Cumulative Zipf probabilities; searchsorted maps uniforms to ranks."""
    c = np.cumsum(1.0 / np.arange(1, n + 1))
    c /= c[-1]
    c[-1] = np.inf  # a uniform draw can never fall past the last rank
    return c


class Generator:
    """Draws utterances for one seed; each split uses its own stream."""

    def __init__(self, shape: CorpusShape, seed: int):
        self.shape = shape
        self.seed = seed
        self.vocab = make_vocab(shape)
        self._word_cdf = _zipf_cdf(len(self.vocab.id2word) - 2)
        self._type_cdf = _zipf_cdf(shape.n_slot_types)
        self._intent_cdf = _zipf_cdf(shape.n_intents)

    def _split(self, rng: np.random.Generator, lengths: np.ndarray) -> list[Utterance]:
        s = self.shape
        vocab = self.vocab
        total = int(lengths.sum())
        # Draw every random quantity of the split up front, then cut it into
        # sentences; per-token draws through rng.choice would dominate set-up.
        words = np.searchsorted(self._word_cdf, rng.random(total))
        outside = rng.random(total) < s.outside_prob
        types = np.searchsorted(self._type_cdf, rng.random(total))
        spans = rng.integers(1, 4, size=total)
        intents = np.searchsorted(self._intent_cdf, rng.random(lengths.size))
        last_type = s.n_slot_types - 1
        out: list[Utterance] = []
        start = 0
        for i, n in enumerate(lengths.tolist()):
            tokens = [vocab.id2word[2 + w] for w in words[start:start + n].tolist()]
            tags: list[str] = []
            pos = start
            while len(tags) < n:
                if outside[pos]:
                    tags.append("O")
                else:
                    t = int(types[pos])
                    span = 1 if t == last_type else min(int(spans[pos]), n - len(tags))
                    tags.append(f"B-t{t:02d}")
                    tags.extend([f"I-t{t:02d}"] * (span - 1))
                pos += 1
            out.append(Utterance(tokens, tags, vocab.id2intent[int(intents[i])]))
            start += n
        return out

    def train_split(self) -> list[Utterance]:
        s = self.shape
        rng = np.random.default_rng([self.seed, 1])
        lengths = rng.integers(s.train_min_len, s.train_max_len + 1,
                               size=s.train_sentences)
        return self._split(rng, lengths)

    def heldout_split(self) -> list[Utterance]:
        s = self.shape
        rng = np.random.default_rng([self.seed, 2])
        raw = rng.lognormal(np.log(s.heldout_median_len), s.heldout_sigma,
                            size=s.heldout_sentences)
        lengths = np.clip(np.rint(raw), 1, s.heldout_max_len).astype(int)
        return self._split(rng, lengths)


def length_profile(data: list[Utterance]) -> dict:
    lengths = np.array([len(u.tokens) for u in data])
    return {
        "sentences": int(lengths.size),
        "tokens": int(lengths.sum()),
        "min": int(lengths.min()),
        "mean": round(float(lengths.mean()), 3),
        "max": int(lengths.max()),
    }
