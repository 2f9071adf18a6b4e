"""Caption normalization, dictionary building, and fixed-length encoding.

The text side of the model consumes integer index sequences of a fixed
length L (default 70). Raw captions pass through: lowercasing, removal of
everything but ASCII letters/digits/whitespace, whitespace tokenization,
stopword filtering, and Porter stemming. Tokens whose stem lands on the
pinned stopword list are dropped as well, so normalize() output never
contains a stopword. Index 0 is reserved for padding.

encode() turns token lists into one (N, L) array of index rows;
io.record_rows normalizes and encodes records' captions with the two.
"""

from __future__ import annotations

import re
from collections import Counter
from importlib import resources

import numpy as np

from . import porter

DEFAULT_SEQ_LEN = 70
DEFAULT_MIN_FREQ = 5

_STRIP = re.compile(r"[^a-z0-9\s]+")


class VocabFormatError(ValueError):
    """Malformed vocabulary file."""


def _load_stopwords() -> frozenset[str]:
    text = resources.files("xmodal").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


STOPWORDS = _load_stopwords()


def normalize(text: str) -> list[str]:
    """Raw caption -> clean stemmed tokens, original order preserved."""
    stripped = _STRIP.sub("", text.lower())
    out = []
    for token in stripped.split():
        if token in STOPWORDS:
            continue
        stemmed = porter.stem(token)
        if stemmed in STOPWORDS:
            continue
        out.append(stemmed)
    return out


class Vocabulary:
    """Stemmed token -> index map; indices are contiguous 1..d, 0 is padding."""

    def __init__(self, word_to_index: dict[str, int], frequency: dict[str, int]):
        self.word_to_index = dict(word_to_index)
        self.frequency = dict(frequency)
        indices = sorted(self.word_to_index.values())
        if indices != list(range(1, len(indices) + 1)):
            raise VocabFormatError("vocabulary indices must be contiguous 1..d")

    @property
    def size(self) -> int:
        """d, the number of dictionary tokens (padding excluded)."""
        return len(self.word_to_index)

    def __contains__(self, token: str) -> bool:
        return token in self.word_to_index

    def __getitem__(self, token: str) -> int:
        return self.word_to_index[token]

    def tokens_by_index(self) -> list[str]:
        """Tokens ordered by index 1..d."""
        return [t for t, _ in sorted(self.word_to_index.items(), key=lambda kv: kv[1])]


def build_vocab(corpus, min_freq: int = DEFAULT_MIN_FREQ) -> Vocabulary:
    """Count tokens over an iterable of token lists and index the keepers.

    Tokens with frequency >= min_freq get indices in descending frequency
    order, ties broken lexicographically. An empty result (d = 0) is valid.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    mapping = {t: i for i, t in enumerate(kept, start=1)}
    return Vocabulary(mapping, {t: counts[t] for t in kept})


def encode(token_lists, vocab: Vocabulary, seq_len: int = DEFAULT_SEQ_LEN) -> np.ndarray:
    """(N, L) int64 rows, one per token list: its in-vocabulary indices in
    order, truncated to L and zero-padded."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    rows = np.zeros((len(token_lists), seq_len), dtype=np.int64)
    for row, tokens in zip(rows, token_lists):
        ids = [vocab[t] for t in tokens if t in vocab][:seq_len]
        row[:len(ids)] = ids
    return rows


def save_vocab(vocab: Vocabulary, path) -> None:
    """TSV: header line `#vocab v1 d=<d>`, then `token<TAB>index<TAB>frequency`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#vocab v1 d={vocab.size}\n")
        for token in vocab.tokens_by_index():
            f.write(f"{token}\t{vocab.word_to_index[token]}\t{vocab.frequency[token]}\n")


def load_vocab(path) -> Vocabulary:
    """Read save_vocab's TSV. A bad line, such as a frequency below 1, raises
    VocabFormatError naming path:line."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        m = re.fullmatch(r"#vocab v1 d=(\d+)", header)
        if not m:
            raise VocabFormatError(f"{path}: bad header {header!r}")
        d = int(m.group(1))
        mapping: dict[str, int] = {}
        freq: dict[str, int] = {}
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise VocabFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            token, idx_s, freq_s = parts
            try:
                idx, count = int(idx_s), int(freq_s)
            except ValueError:
                raise VocabFormatError(f"{path}:{lineno}: bad integer") from None
            if count < 1:  # build_vocab keeps only tokens seen min_freq >= 1 times
                raise VocabFormatError(f"{path}:{lineno}: frequency {count} is below 1")
            if token in mapping:
                raise VocabFormatError(f"{path}:{lineno}: duplicate token {token!r}")
            mapping[token] = idx
            freq[token] = count
    if len(mapping) != d:
        raise VocabFormatError(f"{path}: header says d={d}, found {len(mapping)} entries")
    return Vocabulary(mapping, freq)
