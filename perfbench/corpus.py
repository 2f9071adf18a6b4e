"""Deterministic synthetic caption/image corpus, written through xmodal.io.

The program under test only ever sees the two files this module writes: a
JSONL dataset (`save_dataset`) and a binary feature table
(`write_feature_file`). Everything is a function of the seed and the
shape arguments, so the same arguments give byte-identical files.

Captions are drawn so that caption normalisation does real work:

* content words come from a Zipf-distributed vocabulary of invented
  lemmas, each emitted in one of several inflected forms (plural, -ing,
  -ed, -ness, -ation, ...) that the Porter stemmer folds back together;
* roughly a third of the tokens are stopwords, which `normalize` drops;
* captions start with a capital letter and carry commas and a full stop,
  which the punctuation filter strips.

Each image belongs to one topic. A topic has its own ranking of the
lemmas, and its captions mix topic words with global Zipf words. Image
features are the topic's non-negative centroid plus non-negative noise,
L2-normalised, so images and captions of one topic are related.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xmodal.io import DatasetRecord, FeatureTable, save_dataset, write_feature_file

CONSONANTS = "bcdfgklmnprstvz"
VOWELS = "aeiou"
# All of these are on xmodal's stopword list.
STOPWORDS = ("a", "an", "the", "of", "on", "in", "with", "and", "is", "are",
             "at", "by", "from", "its", "their", "some", "over", "under",
             "while", "into")
# (suffix, probability) for inflecting a lemma.
INFLECTIONS = (("", 0.40), ("s", 0.16), ("ing", 0.12), ("ed", 0.10),
               ("er", 0.05), ("ness", 0.04), ("ation", 0.04), ("ly", 0.03),
               ("ings", 0.03), ("ful", 0.03))
N_LEMMAS = 1200
N_TOPICS = 16
ZIPF_EXPONENT = 1.1
TOPIC_SHARE = 0.6       # share of content words drawn from the image's topic
STOPWORD_SHARE = 0.35   # share of caption tokens that are stopwords
CAPTION_TOKENS = (8, 18)  # inclusive range of tokens per caption
SUFFIX_CDF = np.cumsum([p for _, p in INFLECTIONS])


@dataclass(frozen=True)
class CorpusSpec:
    n_images: int
    captions_per_image: int
    feature_dim: int


@dataclass(frozen=True)
class CorpusFiles:
    dataset: Path
    features: Path


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _lemmas(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct pronounceable lemmas (CV syllables plus a final consonant)."""
    out: list[str] = []
    seen = set(STOPWORDS)
    while len(out) < n:
        syllables = int(rng.integers(2, 4))
        cons = rng.integers(0, len(CONSONANTS), syllables + 1)
        vows = rng.integers(0, len(VOWELS), syllables)
        word = "".join(CONSONANTS[c] + VOWELS[v] for c, v in zip(cons, vows))
        word += CONSONANTS[cons[-1]]
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _zipf_probs(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return w / w.sum()


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: indices for uniforms `u`."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _caption(rng: np.random.Generator, lemmas: list[str], global_cdf: np.ndarray,
             topic_cdf: np.ndarray) -> str:
    lo, hi = CAPTION_TOKENS
    n = int(rng.integers(lo, hi + 1))
    is_stop = rng.random(n) < STOPWORD_SHARE
    stop_ids = rng.integers(0, len(STOPWORDS), n)
    from_topic = rng.random(n) < TOPIC_SHARE
    u = rng.random(n)
    lemma_ids = np.where(from_topic, _draw(topic_cdf, u), _draw(global_cdf, u))
    suffix_ids = _draw(SUFFIX_CDF, rng.random(n))
    comma = rng.random(n) < 0.08
    words = []
    for k in range(n):
        if is_stop[k]:
            words.append(STOPWORDS[stop_ids[k]])
        else:
            word = lemmas[lemma_ids[k]] + INFLECTIONS[suffix_ids[k]][0]
            words.append(word + "," if comma[k] else word)
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def build_corpus(spec: CorpusSpec, seed: int,
                 ) -> tuple[list[DatasetRecord], FeatureTable]:
    """Records and features for `spec`, a pure function of (spec, seed)."""
    if spec.n_images < 1 or spec.captions_per_image < 1 or spec.feature_dim < 1:
        raise ValueError(f"corpus shape must be positive: {spec}")
    lemmas = _lemmas(_rng(seed, 0), N_LEMMAS)
    global_p = _zipf_probs(N_LEMMAS)
    global_cdf = np.cumsum(global_p)

    topic_rng = _rng(seed, 1)
    topic_cdf = []
    for _ in range(N_TOPICS):
        p = np.empty(N_LEMMAS)
        p[topic_rng.permutation(N_LEMMAS)] = global_p
        topic_cdf.append(np.cumsum(p))
    # Sparse non-negative centroids: each topic lights up ~1/4 of the dims.
    centroids = topic_rng.gamma(0.5, 1.0, (N_TOPICS, spec.feature_dim))
    centroids *= topic_rng.random((N_TOPICS, spec.feature_dim)) < 0.25

    rng = _rng(seed, 2)
    table = FeatureTable(spec.feature_dim)
    records = []
    for i in range(spec.n_images):
        topic = int(rng.integers(N_TOPICS))
        feat = centroids[topic] + np.abs(rng.normal(0.0, 0.3, spec.feature_dim))
        feat /= np.linalg.norm(feat)
        image_id = f"img{i:06d}"
        table.add(image_id, feat)
        captions = [_caption(rng, lemmas, global_cdf, topic_cdf[topic])
                    for _ in range(spec.captions_per_image)]
        records.append(DatasetRecord(f"rec{i:06d}", image_id, captions))
    return records, table


def write_corpus(spec: CorpusSpec, seed: int, directory) -> CorpusFiles:
    """Write the corpus for (spec, seed) into `directory`; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records, table = build_corpus(spec, seed)
    files = CorpusFiles(directory / "dataset.jsonl", directory / "features.imft")
    save_dataset(records, files.dataset)
    write_feature_file(table, files.features)
    return files
