"""Dense float64 tensors with a reverse-mode autodiff tape.

Everything here is desk-scale by design: values are numpy arrays, ops are
eager, and a Tape records one forward pass that backward() consumes once,
emptying it.
Tensors are treated as immutable; callers must not mutate arrays after
handing them in. A VJP may return None for an untracked input, which gets
no gradient: matmul forms none for a constant operand, such as the image
features, so its backward runs one GEMM instead of two.

Primitive op kinds (add's second operand may be a (1, n) bias row):

    matmul, add, relu_zero_floor, abs, sum, order_penalty, lstm, hinge

lstm(E, W, U, b, ids) is a whole single-layer LSTM as one node: E is the
embedding, meta["ids"] the (B, L) token rows, and W (e, 4h), U (h, 4h) and
b (1, 4h) hold the gates side by side in GATES order. Each caption runs
over its own tokens only: its length runs up to and including its last
non-zero id, so trailing padding never runs and an interior 0 does, and a
caption with no non-zero id keeps the zero state. The rows are sorted by
length once, longest first and stable, so the captions still running at
step t are a prefix of that order: step t works on the first a_t rows of
each block, and the T = sum of the lengths real (step, row) cells are
packed time-major. The input projection E[t] @ W + b is formed once per
distinct token t of those cells, as one GEMM and one in-place add of b;
step t gathers its rows of it into a gate buffer, adds h @ U there from
step 1 on (step 0 starts from the zero state, so it runs no h @ U) and
activates the buffer with one tanh pass: g directly, and i, f and o as
sigmoid(x) = (1 + tanh(x / 2)) / 2, halved before it and shifted after.
Both GEMMs run on at least two rows, h @ U on max(a_t, 2) of them keeping
the first a_t, because numpy runs a one-row product as gemv, which rounds
differently: a caption's bits do not depend on its batch or its block, so
one caption encoded alone equals its row of any batch. The scan returns
each caption's last h, written straight into the caller's row order. It
runs in blocks of at most LSTM_BLOCK captions, contiguous ranges of the
sorted order, so its per-step buffers stay in cache. A tape-free forward
keeps only each block's (h, c) and one gate buffer. A tape-free scan of
more than LSTM_BLOCK captions (evaluation's encode of a corpus) runs its
blocks on the thread pool, each of LSTM_BLOCK // POOL_WORKERS rows but
never fewer than 3, so the rows in flight stay at LSTM_BLOCK. For that call
numpy's OpenBLAS is held to one thread and its old count restored
afterwards, also when a block raises: left at several threads, OpenBLAS's
workers busy-wait between GEMMs on the cores that the blocks' gate work
needs. The thread count is process-wide, so no other thread may call BLAS
while a pooled scan runs. Recorded scans, scans of at most LSTM_BLOCK
captions, scans called from a pool worker, and every scan when no OpenBLAS
thread control is found or POOL_WORKERS is 1, run their blocks in order on
the calling thread. Recorded on a tape, the scan keeps packed (T, 4h) gates
and (T, h) cells and input hiddens, one row per real cell, each block
writing its own contiguous slice of every step's rows, with the row order,
the step starts and each cell's token, in meta["saved"]; the VJP pops them
off the node, so they are freed as it returns. It walks the same prefixes
back, a caption's gradient entering at its own last step, and writes each
step's gate gradients dz over that step's saved gates, so backward
allocates no second (T, 4h) array. It forms no dh = dz @ U.T at step 0,
whose gradient would flow into the zero state. Each weight gradient is one
GEMM, sum or np.add.at over the T packed rows; dU keeps the step-0 rows,
whose saved hiddens are zero, because dropping them would regroup
OpenBLAS's sums over T and move bits. So E[0], the padding token, trains
only from interior zeros, never from trailing padding.

order_penalty(X, Y) is the (N, M) matrix ||max(0, Y[k] - X[i])||^2 of (N, j)
and (M, j) rows as one node, built without an (N, M, j) intermediate;
pairwise_order_penalty is its untracked call on arrays. The forward splits
the rows of X into blocks of as many rows as a float64 (rows, j) slab of
PENALTY_BLOCK_BYTES holds, so that slab stays in L2; each block loops over
the rows of Y and writes its own rows of the result. Several blocks run on a
thread pool sized to the CPUs the process may use, since numpy releases the
GIL inside ufuncs; a training batch is one block and runs on the calling
thread, as does any call from one of the pool's own workers, which could
otherwise wait on the pool it occupies. Every entry is computed the same way
whatever the blocking, so the bits do not depend on it. The output dtype
follows the inputs: float64, the op's own, or float32, which only
pairwise_order_penalty takes, through the same blocks and pool; a float32
block keeps the float64 row count, so its X rows and slab together take
what one float64 slab does. One kernel, _row_penalties, forms every
penalty of either dtype: max(0, y - X) in a slab, each row of which
np.vecdot(v, v) reduces. paired_order_penalty (row i of X against row i of
Y) calls it on the rows side by side; a row's dot product does not depend
on where the row sits, so it equals the matrix's (i, i) entry bit for bit.
The backward loops over the rows of Y against the whole of X. All three
form max(0, Y[k] - X) with _violations, in one slab reused for every k.

hinge(P, alpha) is the in-batch triplet hinge over a (B, B) penalty matrix
P, as one node. With d = diag(P), entry (r, i) of its (B, B) output is
max(0, alpha - P[r, i] + d[i]) + max(0, alpha - P[r, i] + d[r]): caption r
as a negative for image i (the hinge of column i), plus image i as a
negative for caption r (the hinge of row r). The diagonal, a positive pair
against itself, is 0. The VJP has a closed form: with A_txt = g [first
argument > 0] and A_img = g [second argument > 0], both with a zero
diagonal, dP = -(A_txt + A_img) off the diagonal, and dP[i, i] is the sum
of row i of A_img plus column i of A_txt. Under reduce_sum, g is exactly 1,
so dP holds small integers that any order of summation gives exactly: the
op's bits equal those of the same hinge composed on the tape from matmul,
add, relu_zero_floor and elementwise products.

Subgradient conventions: relu_zero_floor, abs, order_penalty (where
Y[k, d] == X[i, d]) and hinge (an argument of 0) use 0 at the kink.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

GATES = ("i", "f", "g", "o")  # column blocks of the lstm op's w, u and b
LSTM_BLOCK = 512  # captions per block of the lstm scan
PENALTY_BLOCK_BYTES = 1 << 20  # size of the float64 slab of X rows one order_penalty block holds
POOL_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)  # CPUs the process may use


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    if not found. Looked up on first use, so importing opens no library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
    return None


_WORKER = threading.local()  # .in_pool is set on the pool's own threads


def _mark_pool_thread():
    _WORKER.in_pool = True


# Runs the order_penalty forward's and the tape-free lstm scan's blocks;
# threads start on first use.
_POOL = ThreadPoolExecutor(POOL_WORKERS, initializer=_mark_pool_thread)


def _in_pool_thread() -> bool:
    return getattr(_WORKER, "in_pool", False)


def _run_on_pool(fn, jobs) -> None:
    """fn(*args) for each args of `jobs` on _POOL. Every call has ended
    before the first one's error is raised."""
    futures = [_POOL.submit(fn, *args) for args in jobs]
    wait(futures)
    for f in futures:
        f.result()


@contextmanager
def _one_blas_thread(control):
    """Hold OpenBLAS, through its (get, set) `control`, to one thread."""
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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
    a, b = node.inputs  # a constant operand gets no gradient, and no GEMM
    return (None if a.node_id is None else g @ b.data.T,
            None if b.node_id is None else a.data.T @ g)


def _fw_add(a, b, meta):
    return a + b


def _bw_add(node, g):
    b = node.inputs[1]  # a bias row gets the sum of g's rows, as one GEMM
    return (g, g if b.shape == g.shape else np.ones((1, g.shape[0])) @ g)


def _fw_relu(x, meta):
    return np.maximum(0.0, x)


def _bw_relu(node, g):
    return (g * (node.inputs[0].data > 0.0),)


def _fw_abs(x, meta):
    return np.abs(x)


def _bw_abs(node, g):
    return (g * np.sign(node.inputs[0].data),)


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


def penalty_block_rows(x) -> int:
    """Rows of X in one order_penalty block: a float64 slab of them, x's
    columns wide, takes PENALTY_BLOCK_BYTES, whatever x's dtype."""
    return max(1, PENALTY_BLOCK_BYTES // (8 * max(1, x.shape[1])))


def penalty_round_rows(x) -> int:
    """Rows of X that the order_penalty forward splits into one block per pool thread."""
    return POOL_WORKERS * penalty_block_rows(x)


def _violations(y, x, slab):
    """max(0, y - x) in `slab`, an array shaped like x; y is one row or as many as x."""
    return np.maximum(np.subtract(y, x, out=slab), 0.0, out=slab)


def _row_penalties(y, x, slab):
    """||max(0, y - x)||^2 of each row of x: the one order-penalty kernel."""
    v = _violations(y, x, slab)
    return np.vecdot(v, v)


def _order_penalty_rows(x, y, out):
    slab = np.empty_like(x)  # reused for every k instead of fresh temporaries
    for k in range(y.shape[0]):
        out[:, k] = _row_penalties(y[k], x, slab)


def _fw_order_penalty(x, y, meta):
    out = np.empty((x.shape[0], y.shape[0]), dtype=x.dtype)
    blocks = _blocks(x.shape[0], penalty_block_rows(x))
    if len(blocks) == 1 or _in_pool_thread():
        _order_penalty_rows(x, y, out)
    else:
        _run_on_pool(_order_penalty_rows, [(x[r], y, out[r]) for r in blocks])
    return out


def pairwise_order_penalty(x_rows, y_rows) -> np.ndarray:
    """Penalty matrix, entry (i, k) = ||max(0, y_rows[k] - x_rows[i])||^2:
    the order_penalty op on untracked arrays.

    Its dtype follows the inputs': float32 where they promote to float32,
    otherwise float64, the op's own matrix bit for bit.
    """
    x, y = np.asarray(x_rows), np.asarray(y_rows)
    dtype = np.float32 if np.result_type(x, y) == np.float32 else np.float64
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    _check_order_penalty("pairwise_order_penalty", (x, y), {})
    return _fw_order_penalty(x, y, {})


def paired_order_penalty(x_rows, y_rows) -> np.ndarray:
    """Entry i = ||max(0, y_rows[i] - x_rows[i])||^2, bit-equal to the entry
    pairwise_order_penalty gives for the same two rows."""
    x, y = np.asarray(x_rows, dtype=np.float64), np.asarray(y_rows, dtype=np.float64)
    _check_order_penalty("paired_order_penalty", (x, y), {})
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"paired_order_penalty: {x.shape[0]} rows against {y.shape[0]}")
    return _row_penalties(y, x, np.empty_like(x))


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


def _hinge_args(p, alpha):
    """The arguments of both hinges of every (r, i): alpha - P[r, i] + P[i, i]
    (caption r against image i) and alpha - P[r, i] + P[r, r] (image i
    against caption r)."""
    margin = alpha - p
    d = np.diagonal(p)
    return margin + d[None, :], margin + d[:, None]


def _fw_hinge(p, meta):
    h_txt, h_img = _hinge_args(p, meta["alpha"])
    out = np.maximum(0.0, h_txt) + np.maximum(0.0, h_img)
    np.fill_diagonal(out, 0.0)
    return out


def _bw_hinge(node, g):
    h_txt, h_img = _hinge_args(node.inputs[0].data, node.meta["alpha"])
    a_txt, a_img = g * (h_txt > 0.0), g * (h_img > 0.0)
    np.fill_diagonal(a_txt, 0.0)
    np.fill_diagonal(a_img, 0.0)
    dp = -(a_txt + a_img)
    np.fill_diagonal(dp, a_img.sum(axis=1) + a_txt.sum(axis=0))
    return (dp,)


def _packed_cells(ids):
    """(order, starts, tokens): the plan of the scan over the (B, L) rows `ids`.

    A row's length runs up to and including its last non-zero id. `order`
    sorts the rows by length, longest first and stable, so step t runs on
    the first starts[t + 1] - starts[t] rows of it. `tokens` holds the id of
    every real (step, row) cell, time-major: step t's at starts[t]:starts[t + 1].
    """
    n, steps = ids.shape
    lengths = ((ids != 0) * np.arange(1, steps + 1)).max(axis=1, initial=0)
    order = np.argsort(-lengths, kind="stable")
    longest = int(lengths.max(initial=0))
    active = n - np.cumsum(np.bincount(lengths, minlength=longest + 1))[:longest]
    starts = np.concatenate(([0], np.cumsum(active)))
    real = np.arange(longest)[:, None] < lengths[order]  # (step, sorted row)
    return order, starts, ids[order, :longest].T[real]


def _lstm_scan(xw, u, inv, starts, rows, saved=None):
    """Scan the sorted rows `rows` from zero state; return their last h.

    Step t runs on the a rows of the block that are still in their caption:
    it gathers their rows inv[cells] of the input projections `xw`, which
    hold the bias, into a gate buffer, adds h @ u there from step 1 on and
    activates the buffer in place with one tanh. h @ u runs on max(a, 2)
    rows, its h buffer has at least two, and only the first a are kept:
    numpy runs a one-row product as gemv, which rounds differently, so a
    row's bits do not depend on its block. Recorded, the buffer is the
    block's slice of saved["gates"], and each step also writes its cells and
    its input hiddens into saved["cells"] and saved["hiddens"].
    """
    lo, m = rows.start, rows.stop - rows.start
    hid = u.shape[0]
    h, c = np.zeros((max(m, 2), hid)), np.zeros((m, hid))
    buf = np.empty((m, 4 * hid)) if saved is None else None
    for t in range(len(starts) - 1):
        a = min(starts[t + 1] - starts[t] - lo, m)
        if a <= 0:
            break
        cells = slice(starts[t] + lo, starts[t] + lo + a)
        z = buf[:a] if saved is None else saved["gates"][cells]
        # inv is in range; mode="clip" lets take write into z unbuffered
        xw.take(inv[cells], axis=0, out=z, mode="clip")
        if saved is not None:
            saved["hiddens"][cells] = h[:a]
        if t:  # h is the zero state at step 0
            z += (h[:max(a, 2)] @ u)[:a]
        ifo = z[:, :2 * hid], z[:, 3 * hid:]  # i and f side by side, then o
        for s in ifo:
            s *= 0.5
        np.tanh(z, out=z)  # g, and sigmoid(x) = (1 + tanh(x / 2)) / 2 for the rest
        for s in ifo:
            s *= 0.5
            s += 0.5
        i, f, g, o = np.split(z, 4, axis=1)
        ca = c[:a]
        ca *= f
        ca += i * g
        np.tanh(ca, out=h[:a])
        h[:a] *= o
        if saved is not None:
            saved["cells"][cells] = ca
    return h[:m]


def _fw_lstm(emb, w, u, b, meta):
    ids = meta["ids"]
    n, hid = ids.shape[0], u.shape[0]
    order, starts, tokens = _packed_cells(ids)
    # The input projection of each distinct token, and each cell's row of
    # it; on two rows at least, like h @ u.
    distinct, inv = np.unique(tokens, return_inverse=True)
    xw = emb[distinct.repeat(2) if distinct.size == 1 else distinct] @ w
    xw += b  # in place: no second (tokens, 4h) array
    saved = meta.get("saved")
    if saved is not None:  # packed: one row per real cell, like tokens
        saved.update(gates=np.empty((tokens.size, 4 * hid)),
                     cells=np.empty((tokens.size, hid)),
                     hiddens=np.empty((tokens.size, hid)),
                     order=order, starts=starts, tokens=tokens)
    out = np.empty((n, hid))
    starts = starts.tolist()

    def block(rows):
        out[order[rows]] = _lstm_scan(xw, u, inv, starts, rows, saved)

    if (saved is None and n > LSTM_BLOCK and POOL_WORKERS > 1
            and not _in_pool_thread() and _openblas_threads() is not None):
        with _one_blas_thread(_openblas_threads()):
            rows = max(3, LSTM_BLOCK // POOL_WORKERS)  # 3 or more: no gemv
            _run_on_pool(block, [(r,) for r in _blocks(n, rows)])
    else:
        for rows in _blocks(n, LSTM_BLOCK):
            block(rows)
    return out


def _bw_lstm(node, g):
    emb, w, u, b = (t.data for t in node.inputs)
    # What the forward kept leaves the node here, so it is freed with this call.
    saved = node.meta.pop("saved")
    gates, cells, hiddens, tokens = (saved[k] for k in
                                     ("gates", "cells", "hiddens", "tokens"))
    starts = saved["starts"].tolist()
    # Backpropagation through time over the forward's prefixes of the sorted
    # rows: a row's gradient g enters at its own last step. dz is the
    # gradient of the gate preactivations, packed like the gates and side
    # by side like the columns of w, u and b. Step t's is written over its
    # gates, which nothing reads once it is formed.
    dz = gates
    dh = g[saved["order"]]
    dc = np.zeros_like(dh)
    for t in reversed(range(len(starts) - 1)):
        cur = slice(starts[t], starts[t + 1])
        a = cur.stop - cur.start
        i, f, gg, o = np.split(gates[cur], 4, axis=1)
        tc = np.tanh(cells[cur])
        c_in = cells[starts[t - 1]:starts[t - 1] + a] if t else 0.0  # zero state at t = 0
        dh_a = dh[:a]
        dc_a = dc[:a] + dh_a * o * (1.0 - tc * tc)
        parts = (
            dc_a * gg * i * (1.0 - i),
            dc_a * c_in * f * (1.0 - f),
            dc_a * i * (1.0 - gg * gg),
            dh_a * tc * o * (1.0 - o),
        )
        dc[:a] = dc_a * f  # f is a view of the gates, so before dz is written
        np.concatenate(parts, axis=1, out=dz[cur])
        if t:  # at step 0 dh would flow into the zero state, which nothing reads
            dh[:a] = dz[cur] @ u.T
    # Weight gradients sum over every real cell at once, as one GEMM each.
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, tokens, dz @ w.T)
    d_w = emb[tokens].T @ dz
    d_u = hiddens.T @ dz
    d_b = dz.sum(axis=0, keepdims=True)
    return (d_emb, d_w, d_u, d_b)


def _check_matmul(kind, inputs, meta):
    a, b = inputs
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_err(kind, inputs, "expected (a,b) @ (b,c)")


def _check_add(kind, inputs, meta):
    a, b = inputs
    if a.shape != b.shape and not (a.data.ndim == 2 and b.shape == (1, a.shape[1])):
        raise _shape_err(kind, inputs, "equal shapes, or a (1,n) row added to (B,n), required")


def _check_order_penalty(kind, inputs, meta):
    x, y = inputs  # tensors on the op's path; arrays from the two untracked entry points
    if len(x.shape) != 2 or len(y.shape) != 2 or x.shape[1] != y.shape[1]:
        raise _shape_err(kind, inputs, "expected (N,j) and (M,j)")


def _check_hinge(kind, inputs, meta):
    (p,) = inputs
    if p.data.ndim != 2 or p.shape[0] != p.shape[1]:
        raise _shape_err(kind, inputs, "expected a square (B,B) penalty matrix")


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
    "add": (2, _check_add, _fw_add, _bw_add),
    "relu_zero_floor": (1, _check_any, _fw_relu, _bw_relu),
    "abs": (1, _check_any, _fw_abs, _bw_abs),
    "sum": (1, _check_any, _fw_sum, _bw_sum),
    "order_penalty": (2, _check_order_penalty, _fw_order_penalty, _bw_order_penalty),
    "lstm": (4, _check_lstm, _fw_lstm, _bw_lstm),
    "hinge": (1, _check_hinge, _fw_hinge, _bw_hinge),
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


def relu(x: Tensor) -> Tensor:
    return forward_op("relu_zero_floor", (x,))


def absolute(x: Tensor) -> Tensor:
    return forward_op("abs", (x,))


def reduce_sum(x: Tensor) -> Tensor:
    return forward_op("sum", (x,))


def order_penalty(x: Tensor, y: Tensor) -> Tensor:
    return forward_op("order_penalty", (x, y))


def lstm(embedding: Tensor, w: Tensor, u: Tensor, b: Tensor, ids) -> Tensor:
    """Last hidden state of an LSTM over the (B, L) rows `ids` of `embedding`.

    w (e, 4h), u (h, 4h) and b (1, 4h) hold the gates side by side in GATES order.
    """
    return forward_op("lstm", (embedding, w, u, b), ids=np.asarray(ids, dtype=np.int64))


def hinge(p: Tensor, alpha: float) -> Tensor:
    """(B, B) triplet hinges over the penalty matrix `p`, with margin `alpha`;
    entry (r, i) pays for caption r against image i and for image i against
    caption r, and the diagonal is 0."""
    return forward_op("hinge", (p,), alpha=float(alpha))


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
