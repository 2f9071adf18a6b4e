"""Retrieval evaluation: Recall@K and median rank in both directions.

Galleries are ranked by similarity descending (penalty increasing); the
tie rule is stated once, on `best_relevant_ranks`. A query with several
relevant items scores the best (minimum) rank among them.

Directions follow the usual convention: "sentence retrieval" queries with
an image against the caption gallery, "image retrieval" queries with a
caption against the image gallery. The folds_1k protocol splits the first
5000 images into folds of 1000 in record order and reports each fold plus
the mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .loss import pairwise_order_penalty
from .model import ModelParams, encode_image_batch, encode_text_batch
from .text import Vocabulary, encode, normalize

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


def best_relevant_ranks(penalties: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """1-based rank of each query's best relevant gallery item.

    Row q of `penalties` scores query q against the whole gallery; the
    boolean `relevant` has the same shape and at least one True per row.
    A gallery is ordered by penalty ascending, ties by ascending gallery
    index, so the best relevant item g is the one with the lowest penalty,
    the lowest index among equals, and its rank is

        1 + #(penalty < penalty[g]) + #(penalty == penalty[g] and index < g)
    """
    best = np.min(np.where(relevant, penalties, np.inf), axis=1, keepdims=True)
    tied = penalties == best
    g_best = np.argmax(relevant & tied, axis=1)[:, None]
    earlier = np.arange(penalties.shape[1]) < g_best
    return 1 + np.sum(penalties < best, axis=1) + np.sum(tied & earlier, axis=1)


def rank_gallery(query: np.ndarray, gallery: np.ndarray, relevant,
                 direction: str) -> int:
    """1-based rank of the best relevant gallery item for one query.

    direction "text_query" scores S(query, item); "image_query" scores
    S(item, query).
    """
    gallery = np.asarray(gallery, dtype=np.float64)
    relevant = np.asarray(relevant, dtype=np.int64)
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ValueError("rank_gallery: gallery must be a non-empty (N, j) array")
    if relevant.size == 0:
        raise ValueError("rank_gallery: relevant set must be non-empty")
    if relevant.min() < 0 or relevant.max() >= gallery.shape[0]:
        raise ValueError("rank_gallery: relevant index out of range")
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    if direction == "text_query":
        pen = pairwise_order_penalty(q, gallery)
    elif direction == "image_query":
        pen = pairwise_order_penalty(gallery, q).T
    else:
        raise ValueError(f"unknown direction {direction!r}")
    mask = np.isin(np.arange(len(gallery)), relevant)[None, :]
    return int(best_relevant_ranks(pen, mask)[0])


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


def retrieval_ranks(v_txt: np.ndarray, v_img: np.ndarray,
                    cap_owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best ranks for both directions from embedding matrices.

    v_txt: (n_caps, j) caption embeddings; v_img: (n_imgs, j); cap_owner maps
    caption row -> owning image row. Returns (sentence_ranks per image,
    image_ranks per caption).
    """
    penalties = pairwise_order_penalty(v_txt, v_img)  # (n_caps, n_imgs)
    owns = np.asarray(cap_owner)[:, None] == np.arange(len(v_img))
    return best_relevant_ranks(penalties.T, owns.T), best_relevant_ranks(penalties, owns)


def encode_corpus(records, features, vocab: Vocabulary, params: ModelParams,
                  seq_len: int, image_activation: str = "relu_zero_floor",
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embed every image and caption of `records`.

    Returns (v_img (n_imgs, j), v_txt (n_caps, j), cap_owner).
    """
    p = params.as_tracked(None)
    feats = features.matrix([r.feature_ref for r in records])
    v_img = encode_image_batch(feats, p, image_activation).data

    ids = []
    owner = []
    for i, rec in enumerate(records):
        for cap in rec.captions:
            ids.append(encode(normalize(cap), vocab, seq_len).indices)
            owner.append(i)
    token_ids = np.stack(ids)
    v_txt = encode_text_batch(token_ids, p).data
    return v_img, v_txt, np.asarray(owner, dtype=np.int64)


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
                     protocol: str = "full_5k",
                     image_activation: str = "relu_zero_floor",
                     ) -> dict[str, DirectionReport]:
    v_img, v_txt, cap_owner = encode_corpus(
        records, features, vocab, params, seq_len, image_activation)
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
