"""Two-branch encoders into the shared non-negative embedding space.

Text: a single-layer LSTM with forget gate over the embedded tokens, then
elementwise absolute value of its last hidden state. Each caption runs over
its own tokens only, up to and including its last non-zero id: trailing
padding does not run, so it changes no bit of a caption's embedding and
does not train the padding row of the embedding, while an interior 0 runs
as a token. A caption with no non-zero id embeds as 0. The lookup and the
recurrence are the one `autodiff.lstm` op, so the branch is two tape nodes
at any batch size and length, and lstm.w, lstm.u and lstm.b are stored as
the op takes them, the gates side by side in GATES order. The LSTM hidden size equals
the joint dimension, so the text branch needs no projection.

Image: two affine layers on a precomputed feature vector with a zero-floor
rectifier between them, then absolute value. The `add` op adds each layer's
(1, j) bias row to every row of the batch, so the branch is six tape nodes.

All functions accept a batch of row vectors and a parameter dict from
ModelParams.as_tracked: as_tracked(None) for inference (constants, no graph
is recorded) or as_tracked(tape) to make the result differentiable.

ModelParams.init draws every weight at random. Pretrained word vectors, as
io.load_word_vectors builds them, go in as the "embedding" tensor of the
ModelParams constructor, which checks every tensor's shape and finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GATES, Tape, Tensor

# Random weights, and word vectors missing from a file, are uniform in ±INIT_SCALE.
INIT_SCALE = 0.08


def check_int_fields(obj, least: dict[str, int]) -> None:
    """Raise ValueError naming the first field of `obj`, in `least`'s order,
    that is not a Python or numpy integer or is below its least value."""
    for name, low in least.items():
        value = getattr(obj, name)
        # a bool is an int to Python, but neither a size nor a seed
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")


@dataclass(frozen=True)
class ModelDims:
    vocab_size: int   # d, padding excluded
    embed_dim: int    # e
    hidden_dim: int   # h, equals the joint dimension j
    feature_dim: int  # f

    def __post_init__(self):
        check_int_fields(self, {"vocab_size": 0, "embed_dim": 1, "hidden_dim": 1,
                                "feature_dim": 1})


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, by name:

    embedding   (d+1, e)   row 0 is the padding token
    lstm.w      (e, 4h)    input weights, gates i f g o side by side
    lstm.u      (h, 4h)    recurrent weights, same column blocks
    lstm.b      (1, 4h)    biases, same column blocks
    image.w1    (f, j)     first affine layer
    image.b1    (1, j)
    image.w2    (j, j)     second affine layer
    image.b2    (1, j)
    """
    d, e, h, f = dims.vocab_size, dims.embed_dim, dims.hidden_dim, dims.feature_dim
    return {
        "embedding": (d + 1, e),
        "lstm.w": (e, 4 * h), "lstm.u": (h, 4 * h), "lstm.b": (1, 4 * h),
        "image.w1": (f, h), "image.b1": (1, h),
        "image.w2": (h, h), "image.b2": (1, h),
    }


class ModelParams:
    """All trainable weights, keyed by name for the optimizer and checkpoints."""

    def __init__(self, dims: ModelDims, tensors: dict[str, np.ndarray]):
        expected = param_shapes(dims)
        if set(tensors) != set(expected):
            missing = set(expected) - set(tensors)
            extra = set(tensors) - set(expected)
            raise ValueError(f"bad parameter set: missing={missing}, extra={extra}")
        for name, shape in expected.items():
            if tensors[name].shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {tensors[name].shape}, want {shape}"
                )
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"parameter {name!r} has non-finite values")
        self.dims = dims
        self.tensors = {n: np.asarray(tensors[n], dtype=np.float64) for n in expected}

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "ModelParams":
        """Uniform [-INIT_SCALE, INIT_SCALE] weights, forget bias 1, zero padding row."""
        tensors = {name: rng.uniform(-INIT_SCALE, INIT_SCALE, s)
                   for name, s in param_shapes(dims).items()}
        tensors["embedding"][0] = 0.0
        np.split(tensors["lstm.b"], 4, axis=1)[GATES.index("f")][:] = 1.0  # forget bias 1
        return cls(dims, tensors)

    def as_tracked(self, tape: Tape | None) -> dict[str, Tensor]:
        """Parameters as leaves of `tape`, or constants when tape is None."""
        if tape is None:
            return {n: Tensor.const(a) for n, a in self.tensors.items()}
        return {n: tape.leaf(a) for n, a in self.tensors.items()}


def encode_text_batch(token_ids: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Encode (B, L) padded index rows to (B, j) non-negative embeddings.

    Each row runs through the LSTM up to its last non-zero id; its final
    hidden state is kept, projected by elementwise absolute value. A
    caption's embedding does not depend on its batch: encoded alone, it
    equals its row of any batch bit for bit.
    """
    return ad.absolute(ad.lstm(p["embedding"], p["lstm.w"], p["lstm.u"], p["lstm.b"],
                               token_ids))


def encode_image_batch(feats: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Encode (B, f) feature rows to (B, j) non-negative embeddings."""
    x = Tensor.const(feats)
    if x.data.ndim != 2 or x.shape[1] != p["image.w1"].shape[0]:
        raise ad.ShapeError(
            f"encode_image_batch: features {x.shape} do not match w1 {p['image.w1'].shape}"
        )
    hidden = ad.relu(ad.add(ad.matmul(x, p["image.w1"]), p["image.b1"]))
    return ad.absolute(ad.add(ad.matmul(hidden, p["image.w2"]), p["image.b2"]))

