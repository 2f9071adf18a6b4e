"""The in-batch triplet loss over order-violation penalties.

Both embeddings live in the non-negative orthant and a text-image pair is
scored by how badly the image fails to be dominated by the text:

    penalty(x, y) = || max(0, y - x) ||^2        (0 iff y <= x elementwise)
    score(t, i)   = -penalty(t, i)               (always <= 0)

The penalty of many rows is autodiff's: the order_penalty op, and its
untracked entry points pairwise_order_penalty (a matrix) and
paired_order_penalty (row against row).

For a batch of B aligned pairs, every other batch member of the opposite
modality is a negative. With P the order_penalty matrix of the texts
against the images and d = diag(P), caption r is a negative for image i with
hinge max(0, alpha - P[r, i] + d[i]) and image k one for caption i with
max(0, alpha - P[i, k] + d[i]); the loss sums both (B, B) hinge matrices
off the diagonal, which autodiff's hinge op forms as one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


@dataclass(frozen=True)
class LossConfig:
    alpha: float

    def __post_init__(self):
        # NaN and +inf pass a bare `alpha < 0`, and the loss would then be nan or inf
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")


def batch_loss(v_txt: Tensor, v_img: Tensor, cfg: LossConfig) -> Tensor:
    """Scalar triplet loss over a batch of (B, j) embedding rows.

    Index i of both batches is the aligned positive pair. Requires B >= 2
    (a batch with no negatives has no loss).
    """
    if v_txt.shape != v_img.shape or v_txt.data.ndim != 2:
        raise ShapeError(
            f"batch_loss: batches {v_txt.shape} and {v_img.shape} must be equal (B, j)"
        )
    if v_txt.shape[0] < 2:
        raise ValueError("batch_loss: need B >= 2 to form negatives")
    return ad.reduce_sum(ad.hinge(ad.order_penalty(v_txt, v_img), cfg.alpha))
