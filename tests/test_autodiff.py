"""Tensor op and reverse-mode gradient tests.

Gradients are checked against central finite differences; matmul against a
naive triple-loop product. Kinked ops (relu_zero_floor, abs, hinge) are
sampled away from their kinks so the subgradient convention does not
pollute the comparison.
"""

import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (finite_diff_check, paired_penalty_loop, penalty_matrix_loop,
                       penalty_vjp_loop, rank_one_probe)
from xmodal import autodiff as ad
from xmodal.autodiff import ShapeError, Tape, Tensor

FD_TOL = 1e-4
FD_STEP = 1e-5


def _away_from_zero(rng, shape, floor=0.05):
    """Random values with |x| >= floor, for ops with a kink at 0."""
    x = rng.uniform(0.2, 1.5, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return x * sign + 0.0 * floor


class TestForwardValues:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor.const(rng.normal(size=(3, 4)))
        eye = Tensor.const(np.eye(4))
        np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)

    def test_relu_definition(self):
        out = ad.relu(Tensor.const([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_sigmoid_tanh_at_zero(self):
        # zero parameters: i = f = o = sigmoid(0) = 0.5 and g = tanh(0) = 0
        emb, w, u, b = (np.zeros(a.shape) for a in _lstm_params(
            np.random.default_rng(0), vocab=2, e=3, h=4))
        run = lambda: ad.lstm(*(Tensor.const(a) for a in (emb, w, u, b)), [[1]])
        np.testing.assert_array_equal(run().data, np.zeros((1, 4)))
        b[:, 8:12] = 1.0  # the g block of b is 1, so c = 0.5 tanh(1)
        np.testing.assert_allclose(run().data, 0.5 * np.tanh(0.5 * np.tanh(np.ones((1, 4)))),
                                   rtol=1e-15, atol=0)

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            want = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        want[i, j] += a[i, k] * b[k, j]
            got = ad.matmul(Tensor.const(a), Tensor.const(b)).data
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matmul_associativity_and_distribution(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b, c = (Tensor.const(rng.normal(size=(3, 3))) for _ in range(3))
            left = ad.matmul(ad.matmul(a, b), c).data
            right = ad.matmul(a, ad.matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-12)
            dist = ad.matmul(a, ad.add(b, c)).data
            expanded = ad.add(ad.matmul(a, b), ad.matmul(a, c)).data
            np.testing.assert_allclose(dist, expanded, atol=1e-12)

    def test_shape_mismatch_diagnostics(self):
        a = Tensor.const(np.zeros((2, 3)))
        b = Tensor.const(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
            ad.matmul(a, b)
        with pytest.raises(ShapeError, match="add"):
            ad.add(a, b)
        row = Tensor.const(np.zeros((1, 3)))
        with pytest.raises(ShapeError, match=r"add.*\(1, 3\).*\(2, 3\)"):
            ad.add(row, a)  # only the second operand may be a bias row
        with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(1, 4\)"):
            ad.add(a, Tensor.const(np.zeros((1, 4))))
        with pytest.raises(ShapeError, match=r"order_penalty.*\(2, 3\).*\(4, 5\)"):
            ad.order_penalty(a, b)
        with pytest.raises(ShapeError, match=r"hinge.*\(2, 3\).*square"):
            ad.hinge(a, 0.1)
        emb, w, u, b = (Tensor.const(a) for a in _lstm_params(
            np.random.default_rng(0), vocab=3, e=2, h=4))
        with pytest.raises(ShapeError, match=r"lstm.*\(3, 2\).*\(2, 3\)"):
            ad.lstm(emb, Tensor.const(np.zeros((2, 3))), u, b, [[0]])
        with pytest.raises(ShapeError, match=r"lstm.*\(B, L\)"):
            ad.lstm(emb, w, u, b, [0, 1])

    def test_gather_out_of_range(self):
        # the row lookup lives inside the lstm op, which checks the ids
        params = [Tensor.const(a) for a in _lstm_params(
            np.random.default_rng(0), vocab=3, e=2, h=4)]
        for ids in ([[0, 3]], [[-1, 0]]):
            with pytest.raises(ShapeError, match=r"lstm.*out of range \[0, 3\)"):
                ad.lstm(*params, ids)

    @pytest.mark.parametrize("ids", [
        [[1.7, 2.2]],                        # would truncate to [[1, 2]]
        np.array([[1.0, 2.0]]),              # whole, but not integer
        np.array([[True, False]]),           # would read as [[1, 0]]
    ], ids=["float-list", "float-array", "bool"])
    def test_lstm_rejects_ids_that_are_not_integers(self, ids):
        params = [Tensor.const(a) for a in _lstm_params(
            np.random.default_rng(0), vocab=3, e=2, h=4)]
        with pytest.raises(ShapeError, match=r"lstm: token ids must be integer"):
            ad.lstm(*params, ids)

    def test_lstm_ids_of_any_integer_dtype_give_the_same_bits(self):
        rng = np.random.default_rng(3)
        params = _lstm_params(rng, vocab=7, e=4, h=5)
        ids = rng.integers(0, 7, size=(5, 6))
        want = ad.lstm(*(Tensor.const(a) for a in params), ids.astype(np.int64)).data
        for dtype in (np.int32, np.uint8):
            got = ad.lstm(*(Tensor.const(a) for a in params), ids.astype(dtype)).data
            assert got.tobytes() == want.tobytes()

    def test_lstm_matches_per_gate_numpy_loop(self):
        rng = np.random.default_rng(13)
        params = _lstm_params(rng, vocab=7, e=4, h=5)
        ids = rng.integers(0, 7, size=(3, 6))
        # the weights as drawn, and scaled so that preactivations reach about +-40
        for scale in (1.0, 10.0):
            emb, *wub = params[0], *(scale * a for a in params[1:])
            h, largest = _per_gate_loop(emb, *wub, ids)
            assert largest > 4 * scale
            got = ad.lstm(*(Tensor.const(a) for a in (emb, *wub)), ids)
            np.testing.assert_allclose(got.data, h, rtol=0, atol=1e-14)

    def test_ragged_rows_run_their_own_tokens_only(self):
        # each row equals the per-gate loop over its tokens up to its last
        # non-zero id, and the same caption encoded alone, bit for bit
        rng = np.random.default_rng(15)
        params = _lstm_params(rng, vocab=7, e=4, h=5)
        lengths = [8, 3, 1, 0, 5, 3, 1]
        ids = rng.integers(1, 7, size=(len(lengths), 8))
        for row, length in enumerate(lengths):
            ids[row, length:] = 0
        ids[1, 1] = 0     # an interior padding id still runs
        ids[4, :5] = 2    # one token throughout
        ids[6, 0] = 2     # another caption of the one token
        for tape in (None, Tape()):
            leaf = Tensor.const if tape is None else tape.leaf
            leaves = [leaf(a) for a in params]
            got = ad.lstm(*leaves, ids).data
            for row, length in enumerate(lengths):
                own = ids[row:row + 1, :length]
                np.testing.assert_allclose(got[row:row + 1], _per_gate_loop(*params, own)[0],
                                           rtol=0, atol=1e-14)
                for alone in (own, ids[row:row + 1]):
                    assert np.array_equal(ad.lstm(*leaves, alone).data, got[row:row + 1])
            assert np.array_equal(got[3], np.zeros(5))  # no real token: the zero state

    @pytest.mark.parametrize("shape", [(3, 0), (0, 4), (2, 5)])
    def test_captions_without_a_real_token_give_the_zero_state(self, shape):
        params = _lstm_params(np.random.default_rng(16), vocab=4, e=3, h=2)  # nonzero b
        ids = np.zeros(shape, dtype=np.int64)
        got = ad.lstm(*(Tensor.const(a) for a in params), ids).data
        assert got.shape == (shape[0], 2) and not got.any()
        tape = Tape()
        leaves = [tape.leaf(a) for a in params]
        h = ad.lstm(*leaves, ids)
        grads = ad.backward(tape, ad.reduce_sum(h))
        assert not h.data.any() and not any(grads[leaf.node_id].any() for leaf in leaves)

    def test_lstm_gates_match_long_double(self):
        # one step from zero state: the gates are the activated rows of
        # emb @ w + b, with w = I and b = 0 so the preactivations are exact;
        # row 0 of emb is the padding token, which no caption of one step reads
        hid, n = 16, 64
        x = np.linspace(-50.0, 50.0, n * 4 * hid).reshape(n, 4 * hid)
        emb = np.concatenate([np.zeros((1, 4 * hid)), x])
        tape = Tape()
        leaves = [tape.leaf(a) for a in (emb, np.eye(4 * hid), np.zeros((hid, 4 * hid)),
                                         np.zeros((1, 4 * hid)))]
        h = ad.lstm(*leaves, np.arange(1, n + 1)[:, None])
        gates = tape.nodes[h.node_id].meta["saved"]["gates"]  # one real cell per caption
        z = x.astype(np.longdouble)
        want = 1 / (1 + np.exp(-z))
        want[:, 2 * hid:3 * hid] = np.tanh(z[:, 2 * hid:3 * hid])  # g
        assert np.abs(gates - want).max() <= 2.0**-52

    def test_lstm_finite_at_large_preactivations(self):
        # every gate sees x = [1e3, -1e3]; a plain 1 / (1 + exp(-z)) overflows
        w, u, b = np.tile(np.eye(2), 4), np.zeros((2, 8)), np.zeros((1, 8))
        tape = Tape()
        leaves = [tape.leaf(a) for a in (np.array([[0.0, 0.0], [1e3, -1e3]]), w, u, b)]
        with np.errstate(over="raise"):
            h = ad.lstm(*leaves, [[1, 1]])
            grads = ad.backward(tape, ad.reduce_sum(h))
        # i = f = o = [1, 0] and g = [1, -1]: c = [2, 0] after two steps
        np.testing.assert_allclose(h.data, [[np.tanh(2.0), 0.0]], atol=1e-15)
        assert all(np.isfinite(grads[leaf.node_id]).all() for leaf in leaves)


class TestBackward:
    def test_sum_of_squares(self):
        # for x >= 0, the order penalty of x over zero is the sum of its squares
        t = Tape()
        x = t.leaf([[1.0, 2.0, 3.0]])
        loss = ad.reduce_sum(ad.order_penalty(Tensor.const(np.zeros((1, 3))), x))
        g = ad.backward(t, loss)
        np.testing.assert_array_equal(g[x.node_id], [[2.0, 4.0, 6.0]])

    def test_bilinear(self):
        t = Tape()
        x = t.leaf([[1.0, -2.0, 0.5]])
        y = t.leaf([[3.0], [4.0], [-1.0]])
        loss = ad.reduce_sum(ad.matmul(x, y))
        g = ad.backward(t, loss)
        np.testing.assert_array_equal(g[x.node_id], y.data.T)
        np.testing.assert_array_equal(g[y.node_id], x.data.T)

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.leaf([[1.0, 2.0]])
        y = ad.absolute(x)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(t, y)

    def test_unreachable_nodes_report_zero(self):
        t = Tape()
        x = t.leaf([1.0, 2.0])
        y = t.leaf([3.0, 4.0])
        loss = ad.reduce_sum(ad.absolute(x))
        g = ad.backward(t, loss)
        np.testing.assert_array_equal(g[y.node_id], np.zeros(2))

    def test_returns_leaf_gradients_only(self):
        # intermediate gradients are dropped; a leaf after the loss still gets zeros
        t = Tape()
        x = t.leaf([[1.0], [2.0]])
        y = t.leaf([[3.0]])
        # sum(x^2 |x|): the penalty of x over zero is the row of squares
        squares = ad.order_penalty(Tensor.const(np.zeros((1, 1))), x)
        loss = ad.reduce_sum(ad.matmul(squares, ad.absolute(x)))
        z = t.leaf([4.0])
        g = ad.backward(t, loss)
        assert sorted(g) == [x.node_id, y.node_id, z.node_id]
        np.testing.assert_array_equal(g[x.node_id], [[3.0], [12.0]])
        np.testing.assert_array_equal(g[z.node_id], [0.0])

    def test_shared_node_sums_contributions(self):
        # f(x) = sum(x*x) + sum(x*c): x is used by two disjoint subgraphs.
        # sum(x*x) is the order penalty of |x| over zero.
        rng = np.random.default_rng(7)
        c = rng.normal(size=(5, 1))

        def build(x):
            squares = ad.order_penalty(Tensor.const(np.zeros((1, 5))), ad.absolute(x))
            return ad.add(ad.reduce_sum(squares),
                          ad.reduce_sum(ad.matmul(x, Tensor.const(c))))

        x0 = rng.normal(size=(1, 5))
        t = Tape()
        x = t.leaf(x0)
        g = ad.backward(t, build(x))[x.node_id]
        np.testing.assert_allclose(g, 2.0 * x0 + c.T, atol=1e-12)
        # perturbation oracle
        assert finite_diff_check(build, [x0], FD_STEP) < 1e-6

    def test_one_array_handed_to_two_leaves_is_not_summed_into(self):
        # add's VJP gives a and b the same array; a's later contribution from
        # `scaled` (recorded first, so its VJP runs last) must leave b's alone
        t = Tape()
        a, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3)))
        scaled = ad.matmul(a, Tensor.const(3.0 * np.eye(3)))
        shared = ad.add(a, b)
        g = ad.backward(t, ad.reduce_sum(ad.add(shared, scaled)))
        np.testing.assert_array_equal(g[a.node_id], np.full((2, 3), 4.0))
        np.testing.assert_array_equal(g[b.node_id], np.ones((2, 3)))

    def test_hinge_gradient_is_zero_at_the_kink(self):
        # alpha 0 over a zero penalty matrix puts every hinge argument at 0
        t = Tape()
        p = t.leaf(np.zeros((3, 3)))
        g = ad.backward(t, ad.reduce_sum(ad.hinge(p, 0.0)))
        np.testing.assert_array_equal(g[p.node_id], np.zeros((3, 3)))

    def test_backward_consumes_the_tape(self):
        # emptied, the tape is freed by reference counting alone
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = Tape()
            x = t.leaf([1.0, 2.0])
            loss = ad.reduce_sum(ad.absolute(x))
            ad.backward(t, loss)
            assert t.nodes == []
            with pytest.raises(ValueError, match="already consumed"):
                ad.backward(t, loss)
            ref = weakref.ref(t)
            del t, x, loss
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_gradients_flow_through_gather_with_repeats(self):
        # one step, batch rows independent: row 1 looked up twice gets twice the gradient
        params = _lstm_params(np.random.default_rng(5), vocab=4, e=2, h=3)

        def emb_grad(ids):
            t = Tape()
            leaves = [t.leaf(a) for a in params]
            loss = ad.reduce_sum(ad.lstm(*leaves, ids))
            return ad.backward(t, loss)[leaves[0].node_id]

        once, g = emb_grad([[1]]), emb_grad([[1], [1], [3]])
        np.testing.assert_array_equal(g[[0, 2]], 0.0)
        # the embedding gradient comes out of a GEMM, so the sum may round differently
        np.testing.assert_allclose(g[1], 2.0 * once[1], rtol=1e-14, atol=0)
        assert np.abs(g[3]).min() > 0


class TestLstmKeepsItsForward:
    """A recorded lstm keeps its gates and states for the VJP, which frees them."""

    IDS = [[1, 5, 2], [0, 5, 5]]

    def _grads(self, params, after_forward=lambda node: None):
        tape = Tape()
        leaves = [tape.leaf(a) for a in params]
        h = ad.lstm(*leaves, self.IDS)
        node = tape.nodes[h.node_id]
        after_forward(node)
        grads = ad.backward(tape, rank_one_probe(h))
        return node, [grads[leaf.node_id] for leaf in leaves]

    def test_backward_does_not_rerun_the_scan(self, monkeypatch):
        params = _lstm_params(np.random.default_rng(11), vocab=6, e=3, h=4)
        _, want = self._grads(params)

        def rerun(*args, **kwargs):
            raise AssertionError("the lstm VJP reran the scan")

        _, got = self._grads(params, lambda node: monkeypatch.setattr(ad, "_lstm_scan", rerun))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_backward_frees_the_saved_arrays(self):
        params = _lstm_params(np.random.default_rng(12), vocab=6, e=3, h=4)
        shapes = {}

        def record(node):
            shapes.update({k: a.shape for k, a in node.meta["saved"].items()})

        node, _ = self._grads(params, record)
        # captions of 3 and 3 tokens (an interior 0 runs) are 6 real cells,
        # packed: gates (6, 4h), cells and input hiddens (6, h), and the plan,
        # which is the row order, the 4 starts of the 3 steps and each cell's token
        assert shapes == {"gates": (6, 16), "cells": (6, 4), "hiddens": (6, 4),
                          "order": (2,), "starts": (4,), "tokens": (6,)}
        assert set(node.meta) == {"ids"}

    def test_backward_writes_dz_over_the_saved_gates(self):
        # BPTT's gate gradients go over the saved gates, so backward allocates
        # far less than another (L, B, 4h) array
        rng = np.random.default_rng(14)
        params = _lstm_params(rng, vocab=50, e=8, h=16)
        ids = rng.integers(0, 50, size=(64, 40))
        tape = Tape()
        h = ad.lstm(*(tape.leaf(a) for a in params), ids)
        gates_bytes = tape.nodes[h.node_id].meta["saved"]["gates"].nbytes
        loss = rank_one_probe(h)
        tracemalloc.start()
        try:
            ad.backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gates_bytes / 2

    def test_tape_free_forward_keeps_nothing(self, monkeypatch):
        arity, check, fw, bw = ad.OP_TABLE["lstm"]
        metas = []

        def spy(*data, meta):
            out = fw(*data, meta=meta)
            metas.append(meta)
            return out

        monkeypatch.setitem(ad.OP_TABLE, "lstm", (arity, check, spy, bw))
        params = _lstm_params(np.random.default_rng(13), vocab=6, e=3, h=4)
        ad.lstm(*(Tensor.const(a) for a in params), self.IDS)
        assert [set(m) for m in metas] == [{"ids"}]


class FakeBlasThreads:
    """A stand-in for the OpenBLAS thread control that remembers every count set."""

    def __init__(self, count):
        self.counts = [count]

    def get(self):
        return self.counts[-1]

    def put(self, count):
        self.counts.append(count)


def _kernel_rows(rng, n, m, j):
    """(x, y) rows, n >= m, with every case the penalty kernel must keep:
    every other row rounded to one decimal, so many entries tie exactly; a
    row of y equal to a row of x; zero rows on both sides; and a row of y
    below every entry of x."""
    x, y = np.abs(rng.normal(size=(n, j))), np.abs(rng.normal(size=(m, j)))
    x[::2], y[::2] = np.round(x[::2], 1), np.round(y[::2], 1)
    y[1] = x[n - m + 1]
    x[-1] = y[-1] = 0.0
    y[0] = -0.5
    return x, y


class TestPenaltyKernelBits:
    """Every penalty and its VJP keep the bits of the loops over
    v = max(y[k] - x, 0) in tests/reference.py, whatever form the kernel
    computes v in."""

    CASES = {"j1": (9, 6, 1, None), "one-block": (40, 12, 16, None),
             "pooled": (50, 9, 24, 8)}  # (n, m, j, rows per block, if not the default)

    @pytest.fixture(params=sorted(CASES))
    def rows(self, request, monkeypatch):
        n, m, j, block = self.CASES[request.param]
        if block is not None:
            monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", block * j * 8)
        return _kernel_rows(np.random.default_rng(n), n, m, j)

    @staticmethod
    def same_bits(got, want):
        return got.dtype == want.dtype and got.shape == want.shape \
            and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pairwise_matches_the_loop(self, rows, dtype):
        x, y = (a.astype(dtype) for a in rows)
        assert self.same_bits(ad.pairwise_order_penalty(x, y), penalty_matrix_loop(x, y))

    def test_op_matches_the_loop(self, rows):
        x, y = rows
        want = penalty_matrix_loop(x, y)
        assert self.same_bits(ad.order_penalty(Tensor.const(x), Tensor.const(y)).data, want)
        tape = Tape()
        assert self.same_bits(ad.order_penalty(tape.leaf(x), tape.leaf(y)).data, want)

    def test_paired_matches_the_loop(self, rows):
        x, y = rows
        x = x[-len(y):]  # zero rows against each other, y[0] below x[0]
        assert self.same_bits(ad.paired_order_penalty(x, y), paired_penalty_loop(x, y))

    def test_vjp_matches_the_loop(self, rows):
        x, y = rows
        g = np.random.default_rng(5).normal(size=(len(x), len(y)))
        node = ad.TapeNode("order_penalty", (Tensor(x), Tensor(y)),
                           Tensor(np.zeros(g.shape)))
        for got, want in zip(ad._bw_order_penalty(node, g), penalty_vjp_loop(x, y, g)):
            assert self.same_bits(got, want)

    def test_violations_keep_the_bits_of_every_finite_pair(self):
        # signed zeros, a subnormal, exact and inexact differences, big and small
        vals = np.array([-2.5, -0.0, 0.0, 5e-324, 1e-300, 0.1, 0.3, 1.0, 1e300])
        x = np.repeat(vals, vals.size)[None, :]
        y = np.tile(vals, vals.size)
        want = np.maximum(y - x, 0.0)
        assert self.same_bits(ad._violations(y, x, np.empty_like(x)), want)

    def test_plus_inf_in_x_is_outside_the_finite_precondition(self):
        # max(y, x) - x is inf - inf there: NaN, where max(0, y - x) is 0,
        # so a non-finite caption row never reads as a perfect penalty
        x, y = np.array([[np.inf, 0.0]]), np.array([[1.0, 2.0]])
        with np.errstate(invalid="ignore"):
            assert np.isnan(ad.pairwise_order_penalty(x, y)).all()
            assert np.isnan(ad.paired_order_penalty(x, y)).all()


class TestBlockedKernels:
    """The blocked order_penalty and lstm forwards give the same bits as one
    block: every entry is computed the same way whatever the blocking. A
    tape-free scan of more than LSTM_BLOCK captions runs its blocks on the
    pool with OpenBLAS held to one thread."""

    @pytest.mark.parametrize("n, size", [(0, 4), (1, 4), (4, 4), (5, 4), (11, 4), (9, 2),
                                         (2, 512), (513, 512), (1025, 512), (11, 3)])
    def test_blocks_cover_rows_in_near_equal_slices(self, n, size):
        blocks = ad._blocks(n, size)
        lengths = [r.stop - r.start for r in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(lengths) <= size and max(lengths) - min(lengths) <= 1
        assert len(blocks) == max(1, -(-n // size))
        if n >= 2 and size >= 3:
            assert min(lengths) >= 2  # no one-row block, which numpy runs as gemv

    @pytest.mark.parametrize("n, m, j, rows", [
        (11, 7, 5, 4),   # blocks of 3, 4 and 4 rows
        (3, 6, 4, 8),    # fewer rows than one block
        (9, 5, 1, 2),    # j = 1
    ], ids=["ragged", "under-one-block", "j1"])
    def test_order_penalty_blocks_on_the_pool_match_one_block(self, monkeypatch, n, m, j, rows):
        rng = np.random.default_rng(21)
        x, y = np.abs(rng.normal(size=(n, j))), np.abs(rng.normal(size=(m, j)))
        want = ad.order_penalty(Tensor.const(x), Tensor.const(y)).data

        submitted = []
        pool = ad._POOL

        class CountingPool:
            def submit(self, fn, *args):
                submitted.append(args[0].shape[0])
                return pool.submit(fn, *args)

        monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", rows * j * 8)
        monkeypatch.setattr(ad, "_POOL", CountingPool())
        got = ad.order_penalty(Tensor.const(x), Tensor.const(y)).data
        assert np.array_equal(got, want)
        blocks = [r.stop - r.start for r in ad._blocks(n, rows)]
        assert submitted == (blocks if len(blocks) > 1 else [])
        # from one of the pool's own workers, the blocks run on that worker
        submitted.clear()
        run = lambda: ad.order_penalty(Tensor.const(x), Tensor.const(y)).data
        assert np.array_equal(pool.submit(run).result(), want) and submitted == []

    def test_float32_penalty_runs_the_same_blocks_on_the_pool(self, monkeypatch):
        # a float32 block holds the rows of a float64 one, and its bits do
        # not depend on the blocking either
        rng = np.random.default_rng(22)
        x = rng.uniform(0, 1, (11, 5)).astype(np.float32)
        y = rng.uniform(0, 1, (7, 5)).astype(np.float32)
        want = ad.pairwise_order_penalty(x, y)
        submitted = []
        pool = ad._POOL

        class CountingPool:
            def submit(self, fn, *args):
                submitted.append(args[0].shape[0])
                return pool.submit(fn, *args)

        monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", 4 * 5 * 8)
        monkeypatch.setattr(ad, "_POOL", CountingPool())
        got = ad.pairwise_order_penalty(x, y)
        assert got.dtype == np.float32 and np.array_equal(got, want)
        assert submitted == [3, 4, 4]

    def test_penalty_dtype_follows_the_inputs(self):
        rng = np.random.default_rng(23)
        x, y = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (5, 3))
        want = ad.order_penalty(Tensor.const(x), Tensor.const(y)).data
        x32, y32 = x.astype(np.float32), y.astype(np.float32)
        # float64 anywhere gives the op's float64 matrix, bit for bit
        for a, b in ((x, y), (x32, y), (x, y32), (x.tolist(), y.tolist())):
            got = ad.pairwise_order_penalty(a, b)
            op = ad.order_penalty(Tensor.const(a), Tensor.const(b)).data
            assert got.dtype == np.float64 and np.array_equal(got, op)
        got = ad.pairwise_order_penalty(x32, y32)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-6)
        with pytest.raises(ad.ShapeError, match="expected \\(N,j\\) and \\(M,j\\)"):
            ad.pairwise_order_penalty(x32, y32[:, :2])

    @pytest.mark.parametrize("block", [3, 4, 100])  # a 1-row block runs h @ u as gemv
    def test_blocked_tape_free_lstm_matches_taped(self, monkeypatch, block):
        rng = np.random.default_rng(22)
        params = _lstm_params(rng, vocab=9, e=5, h=3)
        ids = rng.integers(1, 9, size=(11, 6))
        ids[:, 4:] = 0          # trailing padding
        ids[3:6] = ids[0]       # repeated captions
        ids[7, :] = 2           # one token throughout
        tape = Tape()
        want = ad.lstm(*(tape.leaf(a) for a in params), ids).data

        monkeypatch.setattr(ad, "LSTM_BLOCK", block)
        got = ad.lstm(*(Tensor.const(a) for a in params), ids).data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [3, 4, 6])  # blocks of 2-3, 3-4 and 5-6 rows
    def test_blocked_recorded_lstm_matches_one_block(self, monkeypatch, block):
        rng = np.random.default_rng(23)
        params = _lstm_params(rng, vocab=9, e=5, h=3)
        ids = rng.integers(0, 9, size=(11, 6))

        def run():
            tape = Tape()
            leaves = [tape.leaf(a) for a in params]
            h = ad.lstm(*leaves, ids)
            # copied: backward writes the gate gradients over the saved gates
            saved = {k: a.copy() for k, a in tape.nodes[h.node_id].meta["saved"].items()}
            grads = ad.backward(tape, rank_one_probe(h))
            return [h.data, saved["gates"], saved["cells"], saved["hiddens"],
                    *(grads[leaf.node_id] for leaf in leaves)]

        want = run()  # 11 captions are one block of the default size
        scans, scan = [], ad._lstm_scan

        def counted(xw, u, inv, starts, rows, saved=None):
            scans.append(rows.stop - rows.start)
            return scan(xw, u, inv, starts, rows, saved)

        monkeypatch.setattr(ad, "_lstm_scan", counted)
        monkeypatch.setattr(ad, "LSTM_BLOCK", block)
        got = run()
        assert scans == [r.stop - r.start for r in ad._blocks(11, block)]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @staticmethod
    def _ragged_scan(n=11):
        rng = np.random.default_rng(24)
        params = _lstm_params(rng, vocab=9, e=5, h=3)
        ids = rng.integers(1, 9, size=(n, 6))
        for row, length in enumerate(rng.integers(1, 7, size=n)):
            ids[row, length:] = 0  # trailing padding after 1 to 6 tokens
        tape = Tape()
        one_taped_block = ad.lstm(*(tape.leaf(a) for a in params), ids).data
        return params, ids, one_taped_block

    @staticmethod
    def _spy(monkeypatch, block, workers):
        """Set LSTM_BLOCK and POOL_WORKERS, install a fake BLAS control and a
        pool that records each submitted block's rows and the BLAS thread
        count then; returns (submitted, control). The control starts at 4."""
        control = FakeBlasThreads(4)
        submitted = []
        pool = ad._POOL

        class CountingPool:
            def submit(self, fn, *args):
                submitted.append((args[0].stop - args[0].start, control.get()))
                return pool.submit(fn, *args)

        monkeypatch.setattr(ad, "LSTM_BLOCK", block)
        monkeypatch.setattr(ad, "POOL_WORKERS", workers)
        monkeypatch.setattr(ad, "_openblas_threads", lambda: (control.get, control.put))
        monkeypatch.setattr(ad, "_POOL", CountingPool())
        return submitted, control

    @pytest.mark.parametrize("block, workers", [
        (4, 2),    # 3-row blocks: 2, 3, 3 and 3 rows
        (8, 2),    # 4-row blocks: 3, 4 and 4 rows
        (10, 3),   # 3-row blocks again, from 10 // 3
    ])
    def test_blocks_on_the_pool_match_one_taped_block(self, monkeypatch, block, workers):
        params, ids, want = self._ragged_scan()
        submitted, control = self._spy(monkeypatch, block, workers)
        got = ad.lstm(*(Tensor.const(a) for a in params), ids).data
        assert np.array_equal(got, want) and got.dtype == want.dtype
        rows = [r.stop - r.start for r in ad._blocks(11, max(3, block // workers))]
        assert submitted == [(n, 1) for n in rows]  # each block sees one BLAS thread
        assert control.counts == [4, 1, 4]

    @pytest.mark.parametrize("case", ["recorded", "one block", "no blas control",
                                      "one worker", "from a pool worker"])
    def test_scans_that_stay_on_the_calling_thread(self, monkeypatch, case):
        params, ids, want = self._ragged_scan()
        pool = ad._POOL
        submitted, control = self._spy(monkeypatch, 11 if case == "one block" else 4,
                                       1 if case == "one worker" else 2)
        if case == "no blas control":
            monkeypatch.setattr(ad, "_openblas_threads", lambda: None)
        if case == "recorded":
            tape = Tape()
            got = ad.lstm(*(tape.leaf(a) for a in params), ids).data
        else:
            scan = lambda: ad.lstm(*(Tensor.const(a) for a in params), ids).data
            got = pool.submit(scan).result() if case == "from a pool worker" else scan()
        assert np.array_equal(got, want)
        assert submitted == [] and control.counts == [4]

    @pytest.mark.parametrize("block, workers, n", [(4, 64, 11), (8, 1000, 11),
                                                   (512, 1000, 515)])
    def test_no_one_row_block_with_many_workers(self, monkeypatch, block, workers, n):
        params, ids, want = self._ragged_scan(n)
        submitted, _ = self._spy(monkeypatch, block, workers)
        got = ad.lstm(*(Tensor.const(a) for a in params), ids).data
        assert np.array_equal(got, want)
        assert len(submitted) > 1 and min(rows for rows, _ in submitted) >= 2

    LENGTHS = np.array([6, 0, 1, 3, 6, 2, 1, 5, 0, 4, 1])

    def _rows_of_lengths(self, rng):
        ids = rng.integers(1, 9, size=(len(self.LENGTHS), 6))
        for row, length in enumerate(self.LENGTHS):
            ids[row, length:] = 0
        return ids

    def test_work_runs_on_real_cells_only(self, monkeypatch):
        # the saved gates have one row per real cell, and each step of a
        # block after the first runs h @ u on its a rows still in their
        # caption, or on two; step 0 runs none, as h is the zero state there
        rng = np.random.default_rng(25)
        params = _lstm_params(rng, vocab=9, e=5, h=3)
        lengths, ids = self.LENGTHS, self._rows_of_lengths(rng)
        gemm_rows = []
        counted = _gemm_counter(gemm_rows)
        scan = ad._lstm_scan
        monkeypatch.setattr(ad, "_lstm_scan",
                            lambda xw, u, *rest: scan(xw, u.view(counted), *rest))
        monkeypatch.setattr(ad, "LSTM_BLOCK", 4)
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)  # the tape-free blocks in order too
        want = []
        by_length = np.sort(lengths)[::-1]
        for rows in ad._blocks(len(lengths), 4):
            block = by_length[rows]
            want += [max(2, int((block > t).sum())) for t in range(1, block.max())]
        tape = Tape()
        h = ad.lstm(*(tape.leaf(a) for a in params), ids)
        assert tape.nodes[h.node_id].meta["saved"]["gates"].shape == (lengths.sum(), 12)
        assert gemm_rows == want
        gemm_rows.clear()
        ad.lstm(*(Tensor.const(a) for a in params), ids)
        assert gemm_rows == want

    def test_backward_forms_no_dh_for_the_zero_state(self, monkeypatch):
        # BPTT runs dh = dz @ u.T at steps t >= 1 on the a_t rows still in
        # their caption, latest step first; at step 0 dh would flow into
        # the zero state, which nothing reads
        rng = np.random.default_rng(26)
        params = _lstm_params(rng, vocab=9, e=5, h=3)
        lengths, ids = self.LENGTHS, self._rows_of_lengths(rng)
        gemm_rows = []
        counted = _gemm_counter(gemm_rows)
        arity, check, fw, bw = ad.OP_TABLE["lstm"]

        def counted_bw(node, g):
            node.inputs[2].data = node.inputs[2].data.view(counted)  # u
            return bw(node, g)

        monkeypatch.setitem(ad.OP_TABLE, "lstm", (arity, check, fw, counted_bw))
        tape = Tape()
        ad.backward(tape, rank_one_probe(ad.lstm(*(tape.leaf(a) for a in params), ids)))
        assert gemm_rows == [int((lengths > t).sum())
                             for t in reversed(range(1, lengths.max()))]

    @pytest.mark.parametrize("fail", [False, True], ids=["scan", "block raises"])
    def test_openblas_thread_count_is_restored(self, monkeypatch, fail):
        if ad._openblas_threads() is None:
            pytest.skip("no OpenBLAS thread control in this numpy")
        get, put = ad._openblas_threads()
        params, ids, want = self._ragged_scan()
        monkeypatch.setattr(ad, "LSTM_BLOCK", 4)
        monkeypatch.setattr(ad, "POOL_WORKERS", 2)
        seen, scan = [], ad._lstm_scan

        def counted(xw, u, inv, starts, rows, saved=None):
            if fail and rows.stop - rows.start == 2:  # the first block, of 2 rows, fails at once
                raise RuntimeError("block failed")
            time.sleep(0.02)  # while the other blocks still run
            seen.append(get())
            return scan(xw, u, inv, starts, rows, saved)

        monkeypatch.setattr(ad, "_lstm_scan", counted)
        before = get()
        put(2)  # a count other than the one the scan sets
        try:
            if fail:
                with pytest.raises(RuntimeError, match="block failed"):
                    ad.lstm(*(Tensor.const(a) for a in params), ids)
            else:
                got = ad.lstm(*(Tensor.const(a) for a in params), ids).data
                assert np.array_equal(got, want)
            assert get() == 2
        finally:
            put(before)
        # blocks of 2, 3, 3 and 3 rows, each run with OpenBLAS held to one thread
        assert seen == [1] * (3 if fail else 4)


def test_openblas_thread_control_is_found():
    # a numpy wheel that renames the OpenBLAS symbols fails here, instead of
    # silently running every scan on one thread
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" in f"{blas.get('name')} {blas.get('openblas configuration')}".lower():
        assert ad._openblas_threads() is not None


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(0, 6), min_size=1, max_size=14),
       block=st.integers(1, 8), workers=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_pooled_scan_of_any_lengths_matches_one_taped_block(lengths, block, workers, seed):
    rng = np.random.default_rng(seed)
    params = _lstm_params(rng, vocab=9, e=5, h=3)
    ids = rng.integers(0, 9, size=(len(lengths), 6))  # interior padding ids too
    for row, length in enumerate(lengths):
        ids[row, length:] = 0
        if length:
            ids[row, length - 1] = rng.integers(1, 9)  # the last real token
    tape = Tape()
    want = ad.lstm(*(tape.leaf(a) for a in params), ids).data
    control = FakeBlasThreads(4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "LSTM_BLOCK", block)
        mp.setattr(ad, "POOL_WORKERS", workers)
        mp.setattr(ad, "_openblas_threads", lambda: (control.get, control.put))
        got = ad.lstm(*(Tensor.const(a) for a in params), ids).data
    assert np.array_equal(got, want)
    assert control.counts == ([4, 1, 4] if len(lengths) > block and workers > 1 else [4])


def _per_gate_loop(emb, w, u, b, ids):
    """(h, largest): the last h of an LSTM over every position of each row
    of `ids`, one gate at a time in plain numpy, and the largest |gate
    preactivation| it met."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    # gate k is the column block k of w, u and b
    w, u, b = (dict(zip("ifgo", np.split(a, 4, axis=1))) for a in (w, u, b))
    h = c = np.zeros((len(ids), u["i"].shape[0]))
    largest = 0.0
    for t in range(ids.shape[1]):
        x = emb[ids[:, t]]
        z = {g: x @ w[g] + h @ u[g] + b[g] for g in "ifgo"}
        largest = max(largest, *(np.abs(v).max() for v in z.values()))
        c = sig(z["f"]) * c + sig(z["i"]) * np.tanh(z["g"])
        h = sig(z["o"]) * np.tanh(c)
    return h, largest


def _gemm_counter(rows):
    """An ndarray subclass whose views append to `rows` the row count of
    the first operand of every matmul they take part in."""
    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                rows.append(inputs[0].shape[0])
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    return Counted


def _lstm_params(rng, vocab, e, h):
    """An embedding and the fused weights w (e, 4h), u (h, 4h) and b (1, 4h)."""
    shapes = [(e, 4 * h), (h, 4 * h), (1, 4 * h)]
    return (rng.normal(size=(vocab, e)), *(rng.uniform(-0.8, 0.8, s) for s in shapes))


HINGE_ALPHA = 0.25  # the margin of the hinge op's gradient check


def _op_point(kind, rng):
    """A random input list suitable for `kind`, avoiding kinks where needed."""
    if kind == "matmul":
        return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
    if kind == "add":
        return [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
    if kind in ("relu_zero_floor", "abs"):
        return [_away_from_zero(rng, (2, 3))]
    if kind == "order_penalty":
        while True:  # every y[k] - x[i] component away from the kink at 0
            x, y = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
            if np.abs(y[None, :, :] - x[:, None, :]).min() > 0.05:
                return [x, y]
    if kind == "lstm":
        return list(_lstm_params(rng, vocab=4, e=3, h=2))
    if kind == "hinge":
        off = ~np.eye(4, dtype=bool)
        while True:  # alpha - P[r, i] + P[i, i] and + P[r, r] away from the kink at 0
            p = rng.normal(size=(4, 4))
            d = np.diagonal(p)
            args = np.stack([HINGE_ALPHA - p + d[None, :], HINGE_ALPHA - p + d[:, None]])
            if np.abs(args[:, off]).min() > 0.05:
                return [p]
    return [rng.normal(size=(2, 3))]


def _op_builder(kind):
    meta = {}
    if kind == "lstm":  # rows repeated within and across steps, and ragged lengths:
        # three steps with an interior padding id, one step, and no step at all
        meta = {"ids": np.array([[1, 3, 1], [1, 0, 3], [2, 0, 0], [0, 0, 0]])}
    if kind == "hinge":
        meta = {"alpha": HINGE_ALPHA}

    def build(*leaves):
        out = ad.forward_op(kind, leaves, **meta)
        if kind == "sum":  # 2 * sum: the sum's VJP sees an upstream gradient other than 1
            return ad.add(out, out)
        return rank_one_probe(out)

    return build


@pytest.mark.parametrize("kind", sorted(k for k in ad.OP_TABLE if k != "leaf"))
def test_primitive_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(42)
    builder = _op_builder(kind)
    for _ in range(10):
        point = _op_point(kind, rng)
        assert finite_diff_check(builder, point, FD_STEP) < FD_TOL


@pytest.mark.parametrize("const", [0, 1, None], ids=["left", "right", "neither"])
def test_matmul_forms_no_gradient_for_a_constant_operand(const):
    # the image branch's features: one GEMM for the tracked operand, none
    # for the constant, whose VJP entry is None
    rng = np.random.default_rng(44)
    point = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
    tape = Tape()
    operands = [Tensor.const(a) if k == const else tape.leaf(a) for k, a in enumerate(point)]
    out = ad.matmul(*operands)
    gemm_rows = []
    for t in operands:  # every VJP GEMM has an operand's data in it
        t.data = t.data.view(_gemm_counter(gemm_rows))
    g = rng.normal(size=out.shape)
    vjps = ad.OP_TABLE["matmul"][3](tape.nodes[out.node_id], g)
    assert len(gemm_rows) == (2 if const is None else 1)
    want = (g @ point[1].T, point[0].T @ g)
    for k, got in enumerate(vjps):
        if k == const:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want[k])
    if const is None:
        return

    def build(leaf):  # the tracked operand's gradient through backward
        pair = [Tensor.const(point[const]), leaf]
        return rank_one_probe(ad.matmul(*(pair if const == 0 else pair[::-1])))

    assert finite_diff_check(build, [point[1 - const]], FD_STEP) < FD_TOL


def test_add_of_a_bias_row_matches_finite_differences():
    rng = np.random.default_rng(43)
    build = lambda a, b: rank_one_probe(ad.add(a, b))
    for _ in range(10):
        point = [rng.normal(size=(4, 3)), rng.normal(size=(1, 3))]
        assert finite_diff_check(build, point, FD_STEP) < FD_TOL


def test_random_graphs_match_finite_differences():
    """Random compositions of primitives, five ops deep, against central FD."""
    unary = ["matmul", "relu_zero_floor", "abs", "order_penalty"]
    mix = np.array([[1.0, -0.5, 0.25], [0.5, 1.0, -0.75], [-0.25, 0.5, 1.0]])
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        kinds = [unary[rng.integers(len(unary))] for _ in range(5)]

        def build(x, kinds=kinds):
            out = x
            for k in kinds:
                if k == "matmul":  # mixes the columns
                    cols = out.shape[1]
                    out = ad.matmul(out, Tensor.const(mix[:cols, :cols]))
                elif k == "order_penalty":  # every row against every row: quadratic
                    out = ad.order_penalty(out, out)
                else:
                    out = ad.forward_op(k, (out,))
            return ad.reduce_sum(out)

        point = [_away_from_zero(rng, (3, 2))]
        assert finite_diff_check(build, point, FD_STEP) < FD_TOL


def test_finite_diff_exact_for_linear():
    c = np.array([[1.0], [-2.0], [3.0]])

    def build(x):
        return ad.reduce_sum(ad.matmul(x, Tensor.const(c)))

    err = finite_diff_check(build, [np.array([[0.4, 0.1, -0.9]])], FD_STEP)
    assert err < 1e-9


def test_finite_diff_quadratic_tight():
    rng = np.random.default_rng(11)

    def build(x):  # sum(x*x), as the order penalty of |x| over zero
        return ad.reduce_sum(ad.order_penalty(Tensor.const(np.zeros((1, 6))),
                                              ad.absolute(x)))

    assert finite_diff_check(build, [rng.normal(size=(1, 6))], FD_STEP) < 1e-6


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: ad.reduce_sum(x), [np.ones(2)], 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_relu_and_abs_outputs_nonnegative(vals):
    x = Tensor.const(np.array(vals))
    assert np.all(ad.relu(x).data >= 0)
    assert np.all(ad.absolute(x).data >= 0)


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf([1.0])
    b = t2.leaf([2.0])
    with pytest.raises(ValueError, match="different tapes"):
        ad.add(a, b)


def test_ops_on_constants_stay_untracked():
    out = ad.add(Tensor.const([1.0]), Tensor.const([2.0]))
    assert out.tape is None and out.node_id is None
