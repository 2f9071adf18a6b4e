"""Dense float64 tensors with a reverse-mode autodiff tape.

Everything here is desk-scale by design: values are numpy arrays, ops are
eager, and a Tape records one forward pass that backward() consumes once.
Tensors are treated as immutable; callers must not mutate arrays after
handing them in.

Primitive op kinds:

    matmul, add, elementwise_mul, relu_zero_floor, sigmoid, tanh, abs,
    square, sum, mean, concat_rows, slice_row, gather_rows, order_penalty

gather_rows(m, indices) is equivalent to concat_rows(slice_row(m, i) for i
in indices) collapsed into a single node; it exists because embedding
lookups per time step would otherwise dominate the tape.

order_penalty(X, Y) is the (N, M) matrix ||max(0, Y[k] - X[i])||^2 of (N, j)
and (M, j) rows as one node; both passes loop over the rows of Y, so neither
builds an (N, M, j) intermediate.

Subgradient conventions: relu_zero_floor, abs and order_penalty (where
Y[k, d] == X[i, d]) use 0 at the kink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    """A dense float64 array, optionally tracked as a node on a Tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @staticmethod
    def const(data) -> "Tensor":
        """An untracked constant (receives no gradient)."""
        return Tensor(data)

    def __repr__(self) -> str:
        tag = "leaf" if self.node_id is not None else "const"
        return f"Tensor({tag}, shape={self.shape})"


@dataclass
class TapeNode:
    kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    meta: dict = field(default_factory=dict)


class Tape:
    """Recorded forward pass: nodes in topological order, consumed by backward().

    One tape per forward/backward pass, confined to a single thread.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def leaf(self, data) -> Tensor:
        t = Tensor(data, tape=self, node_id=len(self.nodes))
        self.nodes.append(TapeNode("leaf", (), t))
        return t

    def _record(self, kind, inputs, out_data, meta) -> Tensor:
        out = Tensor(out_data, tape=self, node_id=len(self.nodes))
        self.nodes.append(TapeNode(kind, tuple(inputs), out, meta or {}))
        return out


def _shape_err(kind: str, inputs: Sequence[Tensor], detail: str = "") -> ShapeError:
    shapes = ", ".join(str(t.shape) for t in inputs)
    msg = f"{kind}: incompatible shapes [{shapes}]"
    if detail:
        msg += f" ({detail})"
    return ShapeError(msg)


def _fw_matmul(a, b, meta):
    return a @ b


def _bw_matmul(node, g):
    a, b = node.inputs
    return (g @ b.data.T, a.data.T @ g)


def _fw_add(a, b, meta):
    return a + b


def _bw_add(node, g):
    return (g, g)


def _fw_mul(a, b, meta):
    return a * b


def _bw_mul(node, g):
    a, b = node.inputs
    return (g * b.data, g * a.data)


def _fw_relu(x, meta):
    return np.maximum(0.0, x)


def _bw_relu(node, g):
    return (g * (node.inputs[0].data > 0.0),)


def _fw_sigmoid(x, meta):
    # Split by sign to stay overflow-free for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _bw_sigmoid(node, g):
    y = node.output.data
    return (g * y * (1.0 - y),)


def _fw_tanh(x, meta):
    return np.tanh(x)


def _bw_tanh(node, g):
    y = node.output.data
    return (g * (1.0 - y * y),)


def _fw_abs(x, meta):
    return np.abs(x)


def _bw_abs(node, g):
    return (g * np.sign(node.inputs[0].data),)


def _fw_square(x, meta):
    return x * x


def _bw_square(node, g):
    return (g * 2.0 * node.inputs[0].data,)


def _fw_sum(x, meta):
    return np.sum(x)


def _bw_sum(node, g):
    x = node.inputs[0].data
    return (np.full(x.shape, float(g)),)


def _fw_mean(x, meta):
    return np.mean(x)


def _bw_mean(node, g):
    x = node.inputs[0].data
    return (np.full(x.shape, float(g) / x.size),)


def _fw_concat_rows(*xs, meta):
    return np.concatenate(xs, axis=0)


def _bw_concat_rows(node, g):
    splits = np.cumsum([t.data.shape[0] for t in node.inputs])[:-1]
    return tuple(np.split(g, splits, axis=0))


def _fw_slice_row(x, meta):
    i = meta["row"]
    return x[i : i + 1]


def _bw_slice_row(node, g):
    x = node.inputs[0].data
    out = np.zeros_like(x)
    i = node.meta["row"]
    out[i : i + 1] = g
    return (out,)


def _fw_gather_rows(x, meta):
    return x[meta["rows"]]


def _bw_gather_rows(node, g):
    x = node.inputs[0].data
    out = np.zeros_like(x)
    np.add.at(out, node.meta["rows"], g)
    return (out,)


def _fw_order_penalty(x, y, meta):
    out = np.empty((x.shape[0], y.shape[0]))
    slab = np.empty_like(x)  # reused for every k instead of fresh temporaries
    for k in range(y.shape[0]):
        np.maximum(np.subtract(y[k], x, out=slab), 0.0, out=slab)
        out[:, k] = np.sum(np.square(slab, out=slab), axis=1)
    return out


def _bw_order_penalty(node, g):
    x, y = (t.data for t in node.inputs)
    gx = np.zeros_like(x)
    gy = np.empty_like(y)
    for k in range(y.shape[0]):
        r = np.maximum(0.0, y[k] - x)
        gx -= 2.0 * g[:, k, None] * r
        gy[k] = 2.0 * g[:, k] @ r
    return (gx, gy)


def _check_matmul(kind, inputs, meta):
    a, b = inputs
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_err(kind, inputs, "expected (a,b) @ (b,c)")


def _check_elementwise2(kind, inputs, meta):
    a, b = inputs
    if a.shape != b.shape:
        raise _shape_err(kind, inputs, "equal shapes required")


def _check_order_penalty(kind, inputs, meta):
    x, y = inputs
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != y.shape[1]:
        raise _shape_err(kind, inputs, "expected (N,j) and (M,j)")


def _check_any(kind, inputs, meta):
    pass


def _check_concat_rows(kind, inputs, meta):
    if not inputs:
        raise ShapeError(f"{kind}: needs at least one input")
    cols = {t.data.shape[1] if t.data.ndim == 2 else -1 for t in inputs}
    if -1 in cols or len(cols) != 1:
        raise _shape_err(kind, inputs, "rank-2 inputs with equal column counts")


def _check_slice_row(kind, inputs, meta):
    (x,) = inputs
    i = meta.get("row")
    if x.data.ndim != 2:
        raise _shape_err(kind, inputs, "rank-2 input required")
    if not isinstance(i, (int, np.integer)) or not (0 <= i < x.shape[0]):
        raise ShapeError(f"{kind}: row {i} out of range for shape {x.shape}")


def _check_gather_rows(kind, inputs, meta):
    (x,) = inputs
    if x.data.ndim != 2:
        raise _shape_err(kind, inputs, "rank-2 input required")
    rows = np.asarray(meta.get("rows"))
    if rows.ndim != 1 or rows.size == 0:
        raise ShapeError(f"{kind}: indices must be a non-empty 1-d sequence")
    if rows.min() < 0 or rows.max() >= x.shape[0]:
        raise ShapeError(
            f"{kind}: index out of range [0, {x.shape[0]}) for shape {x.shape}"
        )


# kind -> (arity or None for variadic, shape check, forward, backward)
OP_TABLE: dict[str, tuple] = {
    "matmul": (2, _check_matmul, _fw_matmul, _bw_matmul),
    "add": (2, _check_elementwise2, _fw_add, _bw_add),
    "elementwise_mul": (2, _check_elementwise2, _fw_mul, _bw_mul),
    "relu_zero_floor": (1, _check_any, _fw_relu, _bw_relu),
    "sigmoid": (1, _check_any, _fw_sigmoid, _bw_sigmoid),
    "tanh": (1, _check_any, _fw_tanh, _bw_tanh),
    "abs": (1, _check_any, _fw_abs, _bw_abs),
    "square": (1, _check_any, _fw_square, _bw_square),
    "sum": (1, _check_any, _fw_sum, _bw_sum),
    "mean": (1, _check_any, _fw_mean, _bw_mean),
    "concat_rows": (None, _check_concat_rows, _fw_concat_rows, _bw_concat_rows),
    "slice_row": (1, _check_slice_row, _fw_slice_row, _bw_slice_row),
    "gather_rows": (1, _check_gather_rows, _fw_gather_rows, _bw_gather_rows),
    "order_penalty": (2, _check_order_penalty, _fw_order_penalty, _bw_order_penalty),
}


def forward_op(kind: str, inputs: Sequence[Tensor], **meta) -> Tensor:
    """Apply a primitive op, recording a tape node when any input is tracked."""
    if kind not in OP_TABLE:
        raise ValueError(f"unknown op kind: {kind!r}")
    arity, check, fw, _ = OP_TABLE[kind]
    inputs = tuple(inputs)
    if arity is not None and len(inputs) != arity:
        raise ShapeError(f"{kind}: expected {arity} inputs, got {len(inputs)}")
    check(kind, inputs, meta)

    tapes = {t.tape for t in inputs if t.tape is not None}
    if len(tapes) > 1:
        raise ValueError(f"{kind}: inputs belong to different tapes")

    if kind == "concat_rows":
        out_data = fw(*(t.data for t in inputs), meta=meta)
    elif arity == 1:
        out_data = fw(inputs[0].data, meta=meta)
    else:
        out_data = fw(inputs[0].data, inputs[1].data, meta=meta)

    if tapes:
        return next(iter(tapes))._record(kind, inputs, out_data, meta)
    return Tensor(out_data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return forward_op("matmul", (a, b))


def add(a: Tensor, b: Tensor) -> Tensor:
    return forward_op("add", (a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return forward_op("elementwise_mul", (a, b))


def relu(x: Tensor) -> Tensor:
    return forward_op("relu_zero_floor", (x,))


def sigmoid(x: Tensor) -> Tensor:
    return forward_op("sigmoid", (x,))


def tanh(x: Tensor) -> Tensor:
    return forward_op("tanh", (x,))


def absolute(x: Tensor) -> Tensor:
    return forward_op("abs", (x,))


def square(x: Tensor) -> Tensor:
    return forward_op("square", (x,))


def reduce_sum(x: Tensor) -> Tensor:
    return forward_op("sum", (x,))


def reduce_mean(x: Tensor) -> Tensor:
    return forward_op("mean", (x,))


def concat_rows(xs: Sequence[Tensor]) -> Tensor:
    return forward_op("concat_rows", tuple(xs))


def slice_row(x: Tensor, row: int) -> Tensor:
    return forward_op("slice_row", (x,), row=int(row))


def gather_rows(x: Tensor, rows) -> Tensor:
    return forward_op("gather_rows", (x,), rows=np.asarray(rows, dtype=np.int64))


def order_penalty(x: Tensor, y: Tensor) -> Tensor:
    return forward_op("order_penalty", (x, y))


def neg(x: Tensor) -> Tensor:
    """Composition: x * (-1)."""
    return mul(x, Tensor.const(np.full(x.shape, -1.0)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Composition: a + (-b)."""
    return add(a, neg(b))


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradient of a scalar loss with respect to every node on the tape.

    Unreachable nodes report a zero gradient of matching shape.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ValueError("loss tensor is not a node of this tape")
    if loss.data.size != 1 or loss.data.ndim > 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")

    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[loss.node_id] = np.ones_like(loss.data)

    for node in reversed(tape.nodes[: loss.node_id + 1]):
        out_id = node.output.node_id
        g = grads[out_id]
        if g is None or node.kind == "leaf":
            continue
        vjps = OP_TABLE[node.kind][3](node, g)
        for inp, gi in zip(node.inputs, vjps):
            if inp.node_id is None:
                continue
            if grads[inp.node_id] is None:
                grads[inp.node_id] = np.array(gi, dtype=np.float64, copy=True)
            else:
                grads[inp.node_id] += gi

    return {
        i: (grads[i] if grads[i] is not None else np.zeros_like(n.output.data))
        for i, n in enumerate(tape.nodes)
    }


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
