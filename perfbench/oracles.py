"""Brute-force references the benchmark checks xmodal's outputs against.

They share no code with xmodal's loss or evaluation modules: the penalty
is the plain definition ||max(0, img - txt)||^2 by broadcasting, ranks come
from a stable argsort of each penalty row or column (ties go to the lower
gallery index), and the hinge loss is summed from the penalty matrix.
"""

from __future__ import annotations

import numpy as np

RECALL_KS = (1, 5, 10)
FOLD_SIZE = 1000
CHUNK_ROWS = 16  # caption rows per broadcast block, bounds the oracle's memory


def penalty_matrix(v_txt: np.ndarray, v_img: np.ndarray) -> np.ndarray:
    """P[c, i] = sum_d max(0, v_img[i, d] - v_txt[c, d])^2."""
    v_txt = np.asarray(v_txt, dtype=np.float64)
    v_img = np.asarray(v_img, dtype=np.float64)
    out = np.empty((len(v_txt), len(v_img)))
    for lo in range(0, len(v_txt), CHUNK_ROWS):
        diff = v_img[None, :, :] - v_txt[lo:lo + CHUNK_ROWS, None, :]
        out[lo:lo + CHUNK_ROWS] = np.sum(np.maximum(0.0, diff) ** 2, axis=2)
    return out


def hinge_loss(v_txt: np.ndarray, v_img: np.ndarray, alpha: float) -> float:
    """In-batch hinge loss with summed negatives, both directions.

    Row i of both batches is the positive pair. For image i every other
    caption r pays max(0, alpha - P[r, i] + P[i, i]); for caption i every
    other image k pays max(0, alpha - P[i, k] + P[i, i]).
    """
    pen = penalty_matrix(v_txt, v_img)
    n = len(pen)
    total = 0.0
    for i in range(n):
        for r in range(n):
            if r != i:
                total += max(0.0, alpha - pen[r, i] + pen[i, i])
                total += max(0.0, alpha - pen[i, r] + pen[i, i])
    return total


def _best_ranks(pen: np.ndarray, cap_owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(best caption rank per image, image rank per caption), 1-based."""
    n_caps, n_imgs = pen.shape
    # Sentence retrieval: image q ranks all captions by penalty ascending.
    order = np.argsort(pen, axis=0, kind="stable")          # (n_caps, n_imgs)
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(n_caps)[:, None], axis=0)
    sentence = np.array([position[cap_owner == q, q].min() + 1 for q in range(n_imgs)])
    # Image retrieval: caption c ranks all images by penalty ascending.
    order = np.argsort(pen, axis=1, kind="stable")
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(n_imgs)[None, :], axis=1)
    image = position[np.arange(n_caps), cap_owner] + 1
    return sentence, image


def _metrics(ranks: np.ndarray) -> dict:
    return {"r_at": {k: 100.0 * float(np.sum(ranks <= k)) / ranks.size for k in RECALL_KS},
            "med_r": float(np.median(ranks.astype(np.float64)))}


def retrieval_metrics(v_img, v_txt, cap_owner, protocol: str) -> dict[str, dict]:
    """R@1/5/10 and med r per direction, as `evaluate_embeddings` defines them."""
    cap_owner = np.asarray(cap_owner)
    if protocol == "full_5k":
        folds = [(0, len(v_img))]
    elif protocol == "folds_1k":
        folds = [(f * FOLD_SIZE, (f + 1) * FOLD_SIZE)
                 for f in range(min(5, len(v_img) // FOLD_SIZE))]
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    per_fold = {"sentence_retrieval": [], "image_retrieval": []}
    for lo, hi in folds:
        mask = (cap_owner >= lo) & (cap_owner < hi)
        pen = penalty_matrix(v_txt[mask], v_img[lo:hi])
        sentence, image = _best_ranks(pen, cap_owner[mask] - lo)
        per_fold["sentence_retrieval"].append(_metrics(sentence))
        per_fold["image_retrieval"].append(_metrics(image))
    if protocol == "full_5k":
        return {d: m[0] for d, m in per_fold.items()}
    return {d: {"r_at": {k: float(np.mean([f["r_at"][k] for f in m])) for k in RECALL_KS},
                "med_r": float(np.mean([f["med_r"] for f in m]))}
            for d, m in per_fold.items()}
