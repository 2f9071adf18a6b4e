"""Dense float64 tensors with a reverse-mode autodiff tape.

Everything here is desk-scale by design: values are numpy arrays, ops are
eager, and a Tape records one forward pass that backward() consumes once,
emptying it.
Tensors are treated as immutable; callers must not mutate arrays after
handing them in.

Primitive op kinds (a mean is a matmul with a constant column of 1/n):

    matmul, add, elementwise_mul, relu_zero_floor, abs, square, sum,
    order_penalty, lstm

lstm(E, W, U, b, ids) is a whole single-layer LSTM as one node: E is the
embedding, meta["ids"] the (B, L) token rows, and W (e, 4h), U (h, 4h) and
b (1, 4h) hold the gates side by side in GATES order. The input projection
E[t] @ W is formed once per distinct token t in ids, as one GEMM; step t
gathers its rows of it into a (B, 4h) gate buffer through the inverse index,
adds h @ U and b there, and activates each gate's column block in place.
The scan returns the last h. It runs in blocks of at most LSTM_BLOCK
captions, so its per-step buffers stay in cache. A tape-free forward keeps
only the current (h, c) and one gate buffer per block. Recorded on a tape,
each block writes its rows of every step's gates into an (L, B, 4h) array
and of the cells and hiddens into (L+1, B, h) arrays, kept in meta["saved"];
the VJP pops them off the node, so they are freed as it returns, runs
backpropagation through time on them and forms each gradient as one GEMM,
sum or np.add.at over all steps. BPTT writes each step's gate gradients dz
over that step's saved gates, so backward allocates no second (L, B, 4h)
array.

order_penalty(X, Y) is the (N, M) matrix ||max(0, Y[k] - X[i])||^2 of (N, j)
and (M, j) rows as one node, built without an (N, M, j) intermediate;
pairwise_order_penalty is its untracked call on arrays. The forward splits
the rows of X into blocks whose (rows, j) slab fits in L2
(PENALTY_BLOCK_BYTES); each block loops over the rows of Y and writes its
own rows of the result. Several blocks run on a thread pool sized to the
CPUs the process may use, since numpy releases the GIL inside ufuncs; a
training batch is one block and runs on the calling thread. Every entry is
computed the same way whatever the blocking, so the bits do not depend on it;
paired_order_penalty computes the penalty of row i of X against row i of Y
the same way, so it equals the matrix's (i, i) entry bit for bit.
The backward loops over the rows of Y against the whole of X. All three
form max(0, Y[k] - X) with _violations, in one slab reused for every k.

Subgradient conventions: relu_zero_floor, abs and order_penalty (where
Y[k, d] == X[i, d]) use 0 at the kink.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

GATES = ("i", "f", "g", "o")  # column blocks of the lstm op's w, u and b
LSTM_BLOCK = 512  # captions per block of the lstm scan
PENALTY_BLOCK_BYTES = 1 << 20  # size of the slab of X rows one order_penalty block holds
POOL_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)  # CPUs the process may use

# Runs the order_penalty forward's blocks; threads start on first use.
_POOL = ThreadPoolExecutor(POOL_WORKERS)


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


def _blocks(n: int, size: int) -> list[slice]:
    """Slices of near-equal length, at most `size` (and at least 1), covering range(n).

    Equal lengths keep a last block from shrinking to one row, which numpy
    would hand to gemv rather than gemm, with different rounding: for n >= 2
    and size >= 3 no block has one row. Size 2 can still leave one, since
    _blocks(3, 2) gives rows 0:1 and 1:3.
    """
    count = max(1, -(-n // max(1, size)))
    edges = [n * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _penalty_block_rows(x) -> int:
    return max(1, PENALTY_BLOCK_BYTES // (x.itemsize * max(1, x.shape[1])))


def penalty_round_rows(x) -> int:
    """Rows of X that the order_penalty forward splits into one block per pool thread."""
    return POOL_WORKERS * _penalty_block_rows(x)


def _violations(y, x, slab):
    """max(0, y - x) in `slab`, an array shaped like x; y is one row or as many as x."""
    return np.maximum(np.subtract(y, x, out=slab), 0.0, out=slab)


def _order_penalty_rows(x, y, out):
    slab = np.empty_like(x)  # reused for every k instead of fresh temporaries
    for k in range(y.shape[0]):
        out[:, k] = np.sum(np.square(_violations(y[k], x, slab), out=slab), axis=1)


def _fw_order_penalty(x, y, meta):
    out = np.empty((x.shape[0], y.shape[0]))
    blocks = _blocks(x.shape[0], _penalty_block_rows(x))
    if len(blocks) == 1:
        _order_penalty_rows(x, y, out)
    else:
        for job in [_POOL.submit(_order_penalty_rows, x[r], y, out[r]) for r in blocks]:
            job.result()
    return out


def pairwise_order_penalty(x_rows, y_rows) -> np.ndarray:
    """Penalty matrix, entry (i, k) = ||max(0, y_rows[k] - x_rows[i])||^2:
    the order_penalty op on untracked arrays."""
    return order_penalty(Tensor.const(x_rows), Tensor.const(y_rows)).data


def paired_order_penalty(x_rows, y_rows) -> np.ndarray:
    """Entry i = ||max(0, y_rows[i] - x_rows[i])||^2, bit-equal to the entry
    pairwise_order_penalty gives for the same two rows."""
    x, y = Tensor.const(x_rows), Tensor.const(y_rows)
    _check_order_penalty("paired_order_penalty", (x, y), {})
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"paired_order_penalty: {x.shape[0]} rows against {y.shape[0]}")
    slab = np.empty_like(x.data)
    return np.sum(np.square(_violations(y.data, x.data, slab), out=slab), axis=1)


def _bw_order_penalty(node, g):
    x, y = (t.data for t in node.inputs)
    g2 = np.ascontiguousarray(2.0 * g.T)  # row k is 2 g[:, k], contiguous for gemv
    gx = np.zeros_like(x)
    gy = np.empty_like(y)
    slab = np.empty_like(x)
    for k in range(y.shape[0]):
        r = _violations(y[k], x, slab)
        gy[k] = g2[k] @ r
        r *= g2[k, :, None]
        gx -= r
    return (gx, gy)


def _fw_sigmoid(x, out=None):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp never overflows.
    ex = np.abs(x)
    np.exp(np.negative(ex, out=ex), out=ex)
    num = np.maximum(ex, x >= 0)  # 1 where x >= 0, since e^-|x| <= 1 there
    return np.divide(num, np.add(ex, 1.0, out=ex), out=out)


def _lstm_steps(xw, u, b, inv, gates=None):
    """Yield each step's new state (c, h), starting from zero state.

    Step t gathers the rows inv[:, t] of the input projections `xw` into
    its gate buffer, adds h @ u and b there and activates each gate's
    column block in place. The buffer is gates[t] of an (L, B, 4h) `gates`,
    which then holds every step's activated gates i f g o, or else one
    (B, 4h) array reused by every step.
    """
    n, hid = inv.shape[0], u.shape[0]
    buf = np.empty((n, 4 * hid)) if gates is None else None
    h = c = np.zeros((n, hid))
    for t in range(inv.shape[1]):
        # inv is in range; mode="clip" lets take write into z unbuffered
        z = xw.take(inv[:, t], axis=0, out=buf if gates is None else gates[t], mode="clip")
        z += h @ u
        z += b
        i, f, g, o = np.split(z, 4, axis=1)
        _fw_sigmoid(z[:, :2 * hid], out=z[:, :2 * hid])  # i and f, side by side
        np.tanh(g, out=g)
        _fw_sigmoid(o, out=o)
        c = f * c + i * g
        h = o * np.tanh(c)
        yield c, h


def _fw_lstm(emb, w, u, b, meta):
    ids = meta["ids"]
    n, steps = ids.shape
    hid = u.shape[0]
    # the input projection of each distinct token, and each position's row of it
    tokens, inv = np.unique(ids, return_inverse=True)
    xw, inv = emb[tokens] @ w, inv.reshape(ids.shape)
    saved = meta.get("saved")
    if saved is not None:  # recorded: step t starts from cells[t] and hiddens[t]
        saved.update(gates=np.empty((steps, n, 4 * hid)),
                     cells=np.zeros((steps + 1, n, hid)),
                     hiddens=np.zeros((steps + 1, n, hid)))
    out = np.zeros((n, hid))  # the state after zero steps
    for rows in _blocks(n, LSTM_BLOCK):
        gates = None if saved is None else saved["gates"][:, rows]
        h = out[rows]
        for t, (c, h) in enumerate(_lstm_steps(xw, u, b, inv[rows], gates)):
            if saved is not None:
                saved["cells"][t + 1, rows], saved["hiddens"][t + 1, rows] = c, h
        out[rows] = h
    return out


def _bw_lstm(node, g):
    emb, w, u, b = (t.data for t in node.inputs)
    ids = node.meta["ids"]
    n, steps = ids.shape
    hid = u.shape[0]
    # What the forward kept leaves the node here, so it is freed with this call.
    saved = node.meta.pop("saved")
    gates, cells, hiddens = saved["gates"], saved["cells"], saved["hiddens"]
    # Backpropagation through time: dz[t] is the gradient of step t's four
    # gate preactivations, side by side like the columns of w, u and b. It
    # is written over gates[t], which nothing reads once dz[t] is formed.
    dz = gates
    dh, dc = g, np.zeros((n, hid))
    for t in reversed(range(steps)):
        i, f, gg, o = np.split(gates[t], 4, axis=1)
        tc = np.tanh(cells[t + 1])
        dc = dc + dh * o * (1.0 - tc * tc)
        parts = (
            dc * gg * i * (1.0 - i),
            dc * cells[t] * f * (1.0 - f),
            dc * i * (1.0 - gg * gg),
            dh * tc * o * (1.0 - o),
        )
        dc = dc * f  # f is a view of gates[t], so before dz[t] is written
        np.concatenate(parts, axis=1, out=dz[t])
        dh = dz[t] @ u.T
    # Weight gradients sum over all steps at once, as one GEMM each.
    dz = dz.reshape(steps * n, 4 * hid)
    rows = ids.T.reshape(-1)  # time-major, like dz
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, rows, dz @ w.T)
    d_w = emb[rows].T @ dz
    d_u = hiddens[:-1].reshape(steps * n, hid).T @ dz
    d_b = dz.sum(axis=0, keepdims=True)
    return (d_emb, d_w, d_u, d_b)


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


def _check_lstm(kind, inputs, meta):
    emb, w, u, b = inputs
    if emb.data.ndim != 2 or u.data.ndim != 2:
        raise _shape_err(kind, inputs, "rank-2 embedding and weights required")
    e, hid = emb.shape[1], u.shape[0]
    if (w.shape, u.shape, b.shape) != ((e, 4 * hid), (hid, 4 * hid), (1, 4 * hid)):
        raise _shape_err(kind, inputs, "expected embedding (V,e), w (e,4h), u (h,4h) "
                                       "and b (1,4h) with gates i f g o side by side")
    ids = np.asarray(meta.get("ids"))
    if ids.ndim != 2 or not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"{kind}: token ids must be integer (B, L), got {ids.shape}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= emb.shape[0]:
        raise ShapeError(f"{kind}: token index out of range [0, {emb.shape[0]})")


# kind -> (arity, shape check, forward, backward)
OP_TABLE: dict[str, tuple] = {
    "matmul": (2, _check_matmul, _fw_matmul, _bw_matmul),
    "add": (2, _check_elementwise2, _fw_add, _bw_add),
    "elementwise_mul": (2, _check_elementwise2, _fw_mul, _bw_mul),
    "relu_zero_floor": (1, _check_any, _fw_relu, _bw_relu),
    "abs": (1, _check_any, _fw_abs, _bw_abs),
    "square": (1, _check_any, _fw_square, _bw_square),
    "sum": (1, _check_any, _fw_sum, _bw_sum),
    "order_penalty": (2, _check_order_penalty, _fw_order_penalty, _bw_order_penalty),
    "lstm": (4, _check_lstm, _fw_lstm, _bw_lstm),
}


def forward_op(kind: str, inputs: Sequence[Tensor], **meta) -> Tensor:
    """Apply a primitive op, recording a tape node when any input is tracked."""
    if kind not in OP_TABLE:
        raise ValueError(f"unknown op kind: {kind!r}")
    arity, check, fw, _ = OP_TABLE[kind]
    inputs = tuple(inputs)
    if len(inputs) != arity:
        raise ShapeError(f"{kind}: expected {arity} inputs, got {len(inputs)}")
    check(kind, inputs, meta)

    tapes = {t.tape for t in inputs if t.tape is not None}
    if len(tapes) > 1:
        raise ValueError(f"{kind}: inputs belong to different tapes")

    if tapes:  # a recorded op's forward may keep here what its VJP needs
        meta["saved"] = {}
    out_data = fw(*(t.data for t in inputs), meta=meta)

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


def absolute(x: Tensor) -> Tensor:
    return forward_op("abs", (x,))


def square(x: Tensor) -> Tensor:
    return forward_op("square", (x,))


def reduce_sum(x: Tensor) -> Tensor:
    return forward_op("sum", (x,))


def order_penalty(x: Tensor, y: Tensor) -> Tensor:
    return forward_op("order_penalty", (x, y))


def lstm(embedding: Tensor, w: Tensor, u: Tensor, b: Tensor, ids) -> Tensor:
    """Last hidden state of an LSTM over the (B, L) rows `ids` of `embedding`.

    w (e, 4h), u (h, 4h) and b (1, 4h) hold the gates side by side in GATES order.
    """
    return forward_op("lstm", (embedding, w, u, b), ids=np.asarray(ids, dtype=np.int64))


def neg(x: Tensor) -> Tensor:
    """Composition: x * (-1)."""
    return mul(x, Tensor.const(np.full(x.shape, -1.0)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Composition: a + (-b)."""
    return add(a, neg(b))


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradient of a scalar loss with respect to every leaf on the tape.

    A leaf the loss does not reach reports a zero gradient of matching shape.
    Intermediate gradients are not returned: each is dropped once its VJP
    has run. The tape is consumed: backward empties it, so what it recorded
    is freed with the last outside reference instead of waiting for the
    cyclic garbage collector (each tensor refers back to its tape).
    """
    if loss.tape is not tape or loss.node_id is None or loss.node_id >= len(tape.nodes):
        raise ValueError("loss tensor is not a node of this tape, or backward "
                         "already consumed it")
    if loss.data.size != 1 or loss.data.ndim > 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")

    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[loss.node_id] = np.ones_like(loss.data)

    for node in reversed(tape.nodes[: loss.node_id + 1]):
        if node.kind == "leaf":
            continue
        out_id = node.output.node_id
        g, grads[out_id] = grads[out_id], None
        if g is None:
            continue
        vjps = OP_TABLE[node.kind][3](node, g)
        for inp, gi in zip(node.inputs, vjps):
            if inp.node_id is None:
                continue
            prev = grads[inp.node_id]
            # out of place: a VJP may hand one array to several inputs
            grads[inp.node_id] = gi if prev is None else prev + gi

    out = {
        i: (grads[i] if grads[i] is not None else np.zeros_like(n.output.data))
        for i, n in enumerate(tape.nodes) if n.kind == "leaf"
    }
    tape.nodes.clear()
    return out
