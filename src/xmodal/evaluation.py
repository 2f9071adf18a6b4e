"""Retrieval evaluation: Recall@K and median rank in both directions.

Directions follow the usual convention: "sentence retrieval" queries with
an image against the caption gallery, "image retrieval" queries with a
caption against the image gallery. The folds_1k protocol splits the first
5000 images into folds of 1000 in record order and reports each fold plus
the mean.

A gallery is ordered by penalty ascending (similarity descending), ties by
ascending gallery index. A query with several relevant items scores the best
of them: the one with the lowest penalty `best`, and the lowest index `first`
among equals. Its 1-based rank is

    1 + #(penalty < best) + #(penalty == best and index < first)

`retrieval_ranks` counts this for both directions without holding the
(captions, images) penalty matrix:

- A relevant pass computes each caption's penalty against its own image with
  autodiff's `paired_order_penalty`, whose bits equal the matrix entry's.
  That is the caption's `best`, and its image is its `first`. Each image's
  `best` is the least of its captions' penalties, its `first` the lowest
  caption index holding that value.
- A streamed pass forms the matrix one (chunk, images) slab at a time with
  autodiff's `pairwise_order_penalty`. Each caption's count runs along its
  slab row; each image's counts down the slab's columns are added to a
  running total. Then the slab is dropped.

A chunk is one round of the order-penalty thread pool, one
PENALTY_BLOCK_BYTES block of captions per pool thread, so no core waits on
an odd last block. Memory is O(chunk x images), and the ranks equal the
full matrix's.

encode_corpus takes its token rows, caption owners and image features from
io.record_rows, the path training takes too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# module globals, so wrapping evaluation's names covers every call ranking makes
from .autodiff import paired_order_penalty, pairwise_order_penalty, penalty_round_rows
from .model import ModelParams, encode_image_batch, encode_text_batch
from .io import record_rows
from .text import Vocabulary

RECALL_KS = (1, 5, 10)
FOLD_SIZE = 1000


@dataclass
class Metrics:
    r_at: dict[int, float]  # K -> percentage in [0, 100]
    med_r: float
    n_queries: int

    def row(self) -> str:
        return (f"{self.r_at[1]:5.1f} {self.r_at[5]:5.1f} {self.r_at[10]:5.1f} "
                f"{self.med_r:7.1f}")


def count_ahead(penalties: np.ndarray, best: np.ndarray, first: np.ndarray,
                start: int = 0) -> np.ndarray:
    """Per query row: the gallery items ranked ahead of its best relevant one.

    Row q of `penalties` scores query q against gallery items start,
    start + 1, ...; best[q] and first[q] are the penalty and gallery index
    of its best relevant item. The counts over the parts of a gallery, plus
    one, give the rank stated in the module docstring.
    """
    best = best[:, None]
    index = np.arange(start, start + penalties.shape[1])
    return (np.sum(penalties < best, axis=1)
            + np.sum((penalties == best) & (index < first[:, None]), axis=1))


def recall_at_k(best_ranks, k: int) -> float:
    ranks = np.asarray(best_ranks)
    if ranks.size == 0:
        raise ValueError("recall_at_k: no outcomes")
    if k < 1:
        raise ValueError("recall_at_k: K must be >= 1")
    return 100.0 * float(np.sum(ranks <= k)) / ranks.size


def median_rank(best_ranks) -> float:
    ranks = np.asarray(best_ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("median_rank: no outcomes")
    return float(np.median(ranks))


def metrics_from_ranks(best_ranks) -> Metrics:
    ranks = np.asarray(best_ranks)
    return Metrics(
        r_at={k: recall_at_k(ranks, k) for k in RECALL_KS},
        med_r=median_rank(ranks),
        n_queries=int(ranks.size),
    )


def _caption_owners(cap_owner, n_caps: int, n_imgs: int) -> np.ndarray:
    """cap_owner as image indices, after checking it names an image per caption
    and a caption per image."""
    owner = np.asarray(cap_owner)
    if owner.shape != (n_caps,):
        raise ValueError(f"cap_owner has shape {owner.shape}; "
                         f"{n_caps} captions need shape ({n_caps},)")
    if owner.dtype.kind not in "iuf":
        raise ValueError(f"cap_owner holds {owner.dtype}, not image indices")
    bad = ~((owner >= 0) & (owner < n_imgs) & (owner == np.floor(owner)))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"caption row {row}: owner {owner[row]} is not an "
                         f"image index in [0, {n_imgs})")
    owner = owner.astype(np.intp)
    unowned = np.flatnonzero(np.bincount(owner, minlength=n_imgs) == 0)
    if unowned.size:
        raise ValueError(f"{unowned.size} of {n_imgs} queries have no relevant item "
                         f"(image {unowned[0]} owns no caption)")
    return owner


def retrieval_ranks(v_txt: np.ndarray, v_img: np.ndarray,
                    cap_owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best ranks for both directions from embedding matrices, streamed over
    caption chunks as the module docstring describes.

    v_txt: (n_caps, j) caption embeddings; v_img: (n_imgs, j); cap_owner maps
    caption row -> owning image row. Returns (sentence_ranks per image,
    image_ranks per caption). Raises ValueError, before any penalty is
    formed, when an embedding is not finite (naming the side and its first
    such row), when an owner is not an image index (naming the first such
    caption row) or when an image owns no caption.
    """
    v_txt = np.asarray(v_txt, dtype=np.float64)
    v_img = np.asarray(v_img, dtype=np.float64)
    for side, v in (("caption", v_txt), ("image", v_img)):
        # every comparison with NaN is false, so NaN rows would rank first
        finite = np.isfinite(v).all(axis=1)
        if not finite.all():
            raise ValueError(f"{side} embedding row {int(np.argmin(finite))} "
                             f"is not finite")
    n_caps, n_imgs = len(v_txt), len(v_img)
    owner = _caption_owners(cap_owner, n_caps, n_imgs)
    rows = penalty_round_rows(v_txt)
    chunks = [slice(lo, lo + rows) for lo in range(0, n_caps, rows)]

    cap_best = np.empty(n_caps)
    for r in chunks:
        cap_best[r] = paired_order_penalty(v_txt[r], v_img[owner[r]])
    img_best = np.full(n_imgs, np.inf)
    np.minimum.at(img_best, owner, cap_best)
    holders = np.flatnonzero(cap_best == img_best[owner])
    img_first = np.full(n_imgs, n_caps)
    np.minimum.at(img_first, owner[holders], holders)

    s_ranks = np.ones(n_imgs, dtype=np.int64)
    i_ranks = np.ones(n_caps, dtype=np.int64)
    for r in chunks:
        slab = pairwise_order_penalty(v_txt[r], v_img)  # (chunk, n_imgs)
        i_ranks[r] += count_ahead(slab, cap_best[r], owner[r])
        s_ranks += count_ahead(slab.T, img_best, img_first, r.start)
        del slab  # before the next one is formed
    return s_ranks, i_ranks


def encode_corpus(records, features, vocab: Vocabulary, params: ModelParams,
                  seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embed every image and caption of `records`.

    Returns (v_img (n_imgs, j), v_txt (n_caps, j), cap_owner).
    This is the caller whose tape-free lstm scan can exceed
    autodiff.LSTM_BLOCK captions, so its blocks run on the thread pool with
    OpenBLAS held to one thread; no other thread may call BLAS meanwhile.
    """
    token_ids, cap_owner, feats = record_rows(records, features, vocab, seq_len)
    p = params.as_tracked(None)
    v_img = encode_image_batch(feats, p).data
    v_txt = encode_text_batch(token_ids, p).data
    return v_img, v_txt, cap_owner


@dataclass
class DirectionReport:
    direction: str
    protocol: str
    overall: Metrics
    folds: list[Metrics] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "direction": self.direction,
            "protocol": self.protocol,
            "r1": self.overall.r_at[1],
            "r5": self.overall.r_at[5],
            "r10": self.overall.r_at[10],
            "medr": self.overall.med_r,
            "n_queries": self.overall.n_queries,
            "folds": [
                {"r1": m.r_at[1], "r5": m.r_at[5], "r10": m.r_at[10],
                 "medr": m.med_r, "n_queries": m.n_queries}
                for m in self.folds
            ],
        }
        return out


def evaluate_embeddings(v_img, v_txt, cap_owner, protocol: str,
                        ) -> dict[str, DirectionReport]:
    """Metrics for both directions under `protocol` ("full_5k" or "folds_1k").

    folds_1k averages metrics across folds of 1000 images (at most 5 folds,
    taken from the front in record order).
    """
    if len(v_img) == 0:
        raise ValueError(f"{protocol}: nothing to evaluate, no images or records")
    if protocol == "full_5k":
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, cap_owner)
        return {
            "sentence_retrieval": DirectionReport(
                "sentence_retrieval", protocol, metrics_from_ranks(s_ranks)),
            "image_retrieval": DirectionReport(
                "image_retrieval", protocol, metrics_from_ranks(i_ranks)),
        }
    if protocol != "folds_1k":
        raise ValueError(f"unknown protocol {protocol!r}")

    n_imgs = len(v_img)
    n_folds = min(5, n_imgs // FOLD_SIZE)
    if n_folds == 0:
        raise ValueError(
            f"folds_1k needs at least {FOLD_SIZE} images, got {n_imgs}"
        )
    cap_owner = np.asarray(cap_owner)
    per_dir: dict[str, list[Metrics]] = {"sentence_retrieval": [], "image_retrieval": []}
    for fold in range(n_folds):
        lo_i, hi_i = fold * FOLD_SIZE, (fold + 1) * FOLD_SIZE
        img_rows = np.arange(lo_i, hi_i)
        cap_mask = (cap_owner >= lo_i) & (cap_owner < hi_i)
        fold_owner = cap_owner[cap_mask] - lo_i
        s_ranks, i_ranks = retrieval_ranks(
            v_txt[cap_mask], v_img[img_rows], fold_owner)
        per_dir["sentence_retrieval"].append(metrics_from_ranks(s_ranks))
        per_dir["image_retrieval"].append(metrics_from_ranks(i_ranks))

    out = {}
    for direction, fold_metrics in per_dir.items():
        mean = Metrics(
            r_at={k: float(np.mean([m.r_at[k] for m in fold_metrics]))
                  for k in RECALL_KS},
            med_r=float(np.mean([m.med_r for m in fold_metrics])),
            n_queries=sum(m.n_queries for m in fold_metrics),
        )
        out[direction] = DirectionReport(direction, protocol, mean, fold_metrics)
    return out


def evaluate_records(records, features, vocab, params, seq_len: int,
                     protocol: str = "full_5k") -> dict[str, DirectionReport]:
    v_img, v_txt, cap_owner = encode_corpus(records, features, vocab, params, seq_len)
    return evaluate_embeddings(v_img, v_txt, cap_owner, protocol)


def format_table(reports: dict[str, DirectionReport]) -> str:
    lines = [
        "Task                  R@1   R@5  R@10   Med r",
        "Sentence Retrieval  " + reports["sentence_retrieval"].overall.row(),
        "Image Retrieval     " + reports["image_retrieval"].overall.row(),
    ]
    sr = reports["sentence_retrieval"]
    if sr.folds:
        lines.append(f"(mean of {len(sr.folds)} folds of {FOLD_SIZE} images; "
                     f"fold 0: {sr.folds[0].row()} / "
                     f"{reports['image_retrieval'].folds[0].row()})")
    return "\n".join(lines)


def reports_to_json(reports: dict[str, DirectionReport]) -> str:
    return json.dumps([reports[d].to_json_dict()
                       for d in ("sentence_retrieval", "image_retrieval")])
