"""Order-violation penalty, similarity score, and the in-batch triplet loss.

Both embeddings live in the non-negative orthant and a text-image pair is
scored by how badly the image fails to be dominated by the text:

    penalty(x, y) = || max(0, y - x) ||^2        (0 iff y <= x elementwise)
    score(t, i)   = -penalty(t, i)               (always <= 0)

For a batch of B aligned pairs, every other batch member of the opposite
modality is a negative. With P = pairwise_order_penalty(texts, images) and
d = diag(P), caption r is a negative for image i with hinge
max(0, alpha - P[r, i] + d[i]) and image k one for caption i with
max(0, alpha - P[i, k] + d[i]); the loss sums both (B, B) hinge matrices
off the diagonal. `negative_mode="max"` keeps only the largest hinge per
positive and direction, ties going to the lowest batch index. Each negative
so paid for also earns a variance bonus, subtracted with weight
`lambda_var`: the variance of its own components, or with
`variance_scope="batch"` the mean per-component variance of its whole
modality batch. It is off by default because it makes the objective
unbounded below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

NEGATIVE_MODES = ("sum", "max")
VARIANCE_SCOPES = ("components", "batch")


@dataclass(frozen=True)
class LossConfig:
    alpha: float
    lambda_var: float = 0.0
    negative_mode: str = "sum"
    variance_scope: str = "components"

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode must be one of {NEGATIVE_MODES}")
        if self.variance_scope not in VARIANCE_SCOPES:
            raise ValueError(f"variance_scope must be one of {VARIANCE_SCOPES}")


def order_penalty(x, y) -> float:
    """Squared norm of the positive part of y - x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"order_penalty: shapes {x.shape} and {y.shape} differ")
    return float(np.sum(np.maximum(0.0, y - x) ** 2))


def similarity(v_txt, v_img) -> float:
    """-order_penalty(v_txt, v_img); 0 is the best possible score."""
    return -order_penalty(v_txt, v_img)


def variance_term(v) -> float:
    """Population variance of the vector's components."""
    v = np.asarray(v, dtype=np.float64)
    if v.size < 1:
        raise ShapeError("variance_term: empty vector")
    return float(np.mean((v - np.mean(v)) ** 2))


def pairwise_order_penalty(x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Penalty matrix: entry (i, k) = order_penalty(x_rows[i], y_rows[k])."""
    x = np.asarray(x_rows, dtype=np.float64)
    y = np.asarray(y_rows, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(
            f"pairwise_order_penalty: shapes {x.shape} and {y.shape} incompatible"
        )
    return ad.order_penalty(Tensor.const(x), Tensor.const(y)).data


def similarity_matrix(v_txt_rows: np.ndarray, v_img_rows: np.ndarray) -> np.ndarray:
    """Entry (i, k) = similarity(text i, image k); all entries <= 0."""
    return -pairwise_order_penalty(v_txt_rows, v_img_rows)


def _row_variances(rows: Tensor) -> Tensor:
    """(n, 1) population variance of each row's components: E[x^2] - E[x]^2."""
    avg = Tensor.const(np.full((rows.shape[1], 1), 1.0 / rows.shape[1]))
    return ad.sub(ad.matmul(ad.square(rows), avg), ad.square(ad.matmul(rows, avg)))


def _batch_variance(rows: Tensor) -> Tensor:
    """Mean over components of the per-component variance across the batch."""
    avg = Tensor.const(np.full((1, rows.shape[0]), 1.0 / rows.shape[0]))
    col_mean = ad.matmul(avg, rows)                  # (1, j)
    col_mean_sq = ad.matmul(avg, ad.square(rows))    # (1, j)
    return ad.reduce_mean(ad.sub(col_mean_sq, ad.square(col_mean)))


def _hardest(hinges: np.ndarray, axis: int) -> np.ndarray:
    """One-hot weights picking the largest negative's hinge along `axis`."""
    vals = hinges.copy()
    np.fill_diagonal(vals, -1.0)  # never pick the positive itself
    pick = np.argmax(vals, axis=axis)  # ties: lowest index
    weights = np.zeros_like(vals)
    np.put_along_axis(weights, np.expand_dims(pick, axis), 1.0, axis=axis)
    return weights


def batch_loss(v_txt: Tensor, v_img: Tensor, cfg: LossConfig) -> Tensor:
    """Scalar triplet loss over a batch of (B, j) embedding rows.

    Index i of both batches is the aligned positive pair. Requires B >= 2
    (a batch with no negatives has no loss).
    """
    if v_txt.shape != v_img.shape or v_txt.data.ndim != 2:
        raise ShapeError(
            f"batch_loss: batches {v_txt.shape} and {v_img.shape} must be equal (B, j)"
        )
    n = v_txt.shape[0]
    if n < 2:
        raise ValueError("batch_loss: need B >= 2 to form negatives")

    pen = ad.order_penalty(v_txt, v_img)                 # P[r, k]
    ones = Tensor.const(np.ones((n, n)))
    diag = ad.mul(pen, Tensor.const(np.eye(n)))
    margin = ad.sub(Tensor.const(np.full((n, n), cfg.alpha)), pen)
    hinge_txt = ad.relu(ad.add(margin, ad.matmul(ones, diag)))  # + P[i, i] on column i
    hinge_img = ad.relu(ad.add(margin, ad.matmul(diag, ones)))  # + P[i, i] on row i

    if cfg.negative_mode == "sum":
        w_txt = w_img = 1.0 - np.eye(n)
    else:
        w_txt = _hardest(hinge_txt.data, axis=0)
        w_img = _hardest(hinge_img.data, axis=1)
    total = ad.reduce_sum(ad.add(ad.mul(hinge_txt, Tensor.const(w_txt)),
                                 ad.mul(hinge_img, Tensor.const(w_img))))

    if cfg.lambda_var != 0.0:
        for rows, counts in ((v_txt, w_txt.sum(axis=1)), (v_img, w_img.sum(axis=0))):
            if cfg.variance_scope == "components":
                weights = Tensor.const(-cfg.lambda_var * counts[None, :])
                bonus = ad.reduce_sum(ad.matmul(weights, _row_variances(rows)))
            else:
                weight = Tensor.const(-cfg.lambda_var * counts.sum())
                bonus = ad.mul(weight, _batch_variance(rows))
            total = ad.add(total, bonus)
    return total
