"""Test oracles: scalar penalty, per-row loops of the penalty matrix, the
paired penalties and their VJP, central finite differences, a rank-one
probe and a weighted sum that make a scalar loss of any matrix, and all-zero
model parameters.

The pipeline never calls these; the tests compare it against them.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from xmodal.autodiff import ShapeError, Tape, Tensor, add, backward, matmul, reduce_sum
from xmodal.model import ModelDims, ModelParams, param_shapes


def order_penalty(x, y) -> float:
    """Squared norm of the positive part of y - x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"order_penalty: shapes {x.shape} and {y.shape} differ")
    return float(np.sum(np.maximum(0.0, y - x) ** 2))


def penalty_matrix_loop(x, y) -> np.ndarray:
    """(N, M) penalties, column k the np.vecdot of each row of
    v = max(y[k] - x, 0) with itself, in x's dtype."""
    out = np.empty((x.shape[0], y.shape[0]), dtype=x.dtype)
    for k in range(y.shape[0]):
        v = np.maximum(y[k] - x, 0.0)
        out[:, k] = np.vecdot(v, v)
    return out


def paired_penalty_loop(x, y) -> np.ndarray:
    """Entry i the np.vecdot of v_i = max(y[i] - x[i], 0) with itself."""
    v = np.maximum(y - x, 0.0)
    return np.vecdot(v, v)


def penalty_vjp_loop(x, y, g) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) of sum(g * P) for P = order_penalty(x, y), one row k of y
    at a time: with v = max(y[k] - x, 0), gy[k] = 2 g[:, k] @ v, and x
    loses 2 g[:, k] v."""
    g2 = np.ascontiguousarray(2.0 * g.T)
    gx, gy = np.zeros_like(x), np.empty_like(y)
    for k in range(y.shape[0]):
        v = np.maximum(y[k] - x, 0.0)
        gy[k] = g2[k] @ v
        gx -= v * g2[k, :, None]
    return gx, gy


def similarity(v_txt, v_img) -> float:
    """-order_penalty(v_txt, v_img); 0 is the best possible score."""
    return -order_penalty(v_txt, v_img)


def rank_one_probe(out: Tensor, seed: int = 0) -> Tensor:
    """The scalar r @ out @ c of a 2-D `out`, with r and c drawn from `seed`:
    a loss that weighs every entry of `out` differently, built from matmul
    and sum alone."""
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(1, out.shape[0]))
    c = rng.normal(size=(out.shape[1], 1))
    return reduce_sum(matmul(matmul(Tensor.const(r), out), Tensor.const(c)))


def weighted_sum(out: Tensor, w) -> Tensor:
    """sum(out * w) of a 2-D `out`, built from matmul, add and sum alone: the
    sum over rows i of e_i @ out @ w[i], with e_i the one-hot row i."""
    terms = [matmul(matmul(Tensor.const(e[None, :]), out), Tensor.const(row[:, None]))
             for e, row in zip(np.eye(out.shape[0]), np.asarray(w))]
    return reduce_sum(functools.reduce(add, terms))


def zero_params(dims: ModelDims) -> ModelParams:
    """Every parameter all zeros."""
    return ModelParams(dims, {n: np.zeros(s) for n, s in param_shapes(dims).items()})


def finite_diff_check(
    builder: Callable[..., Tensor],
    point: Sequence[np.ndarray],
    step: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    `builder` maps leaf tensors to a scalar output and must be deterministic.
    The numeric side re-evaluates `builder` on untracked constants, so it
    never sees the tape it is checking.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    tape = Tape()
    leaves = [tape.leaf(np.asarray(p, dtype=np.float64)) for p in point]
    loss = builder(*leaves)
    grads = backward(tape, loss)
    analytic = [grads[leaf.node_id] for leaf in leaves]

    def value_at(arrays: list[np.ndarray]) -> float:
        out = builder(*(Tensor.const(a) for a in arrays))
        return float(out.data)

    base = [np.array(p, dtype=np.float64) for p in point]
    worst = 0.0
    for k, arr in enumerate(base):
        flat = arr.reshape(-1)
        ana = analytic[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = value_at(base)
            flat[i] = orig - step
            down = value_at(base)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            err = abs(ana[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    return worst
