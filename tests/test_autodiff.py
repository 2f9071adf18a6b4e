"""Tensor op and reverse-mode gradient tests.

Gradients are checked against central finite differences; matmul against a
naive triple-loop product. Kinked ops (relu_zero_floor, abs, hinges built
from them) are sampled away from the origin so the subgradient convention
does not pollute the comparison.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import finite_diff_check
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
        with pytest.raises(ShapeError, match=r"order_penalty.*\(2, 3\).*\(4, 5\)"):
            ad.order_penalty(a, b)
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

    def test_lstm_matches_per_gate_numpy_loop(self):
        rng = np.random.default_rng(13)
        params = _lstm_params(rng, vocab=7, e=4, h=5)
        emb = params[0]
        ids = rng.integers(0, 7, size=(3, 6))
        # gate k is the column block k of w, u and b
        w, u, b = (dict(zip("ifgo", np.split(a, 4, axis=1))) for a in params[1:])
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        h = c = np.zeros((3, 5))
        for t in range(6):
            x = emb[ids[:, t]]
            z = {g: x @ w[g] + h @ u[g] + b[g] for g in "ifgo"}
            c = sig(z["f"]) * c + sig(z["i"]) * np.tanh(z["g"])
            h = sig(z["o"]) * np.tanh(c)
        got = ad.lstm(*(Tensor.const(a) for a in params), ids)
        np.testing.assert_allclose(got.data, h, rtol=0, atol=1e-14)

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
        t = Tape()
        x = t.leaf([1.0, 2.0, 3.0])
        loss = ad.reduce_sum(ad.square(x))
        g = ad.backward(t, loss)
        np.testing.assert_array_equal(g[x.node_id], [2.0, 4.0, 6.0])

    def test_bilinear(self):
        t = Tape()
        x = t.leaf([1.0, -2.0, 0.5])
        y = t.leaf([3.0, 4.0, -1.0])
        loss = ad.reduce_sum(ad.mul(x, y))
        g = ad.backward(t, loss)
        np.testing.assert_array_equal(g[x.node_id], y.data)
        np.testing.assert_array_equal(g[y.node_id], x.data)

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.leaf([[1.0, 2.0]])
        y = ad.square(x)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(t, y)

    def test_unreachable_nodes_report_zero(self):
        t = Tape()
        x = t.leaf([1.0, 2.0])
        y = t.leaf([3.0, 4.0])
        loss = ad.reduce_sum(ad.square(x))
        g = ad.backward(t, loss)
        np.testing.assert_array_equal(g[y.node_id], np.zeros(2))

    def test_returns_leaf_gradients_only(self):
        # intermediate gradients are dropped; a leaf after the loss still gets zeros
        t = Tape()
        x = t.leaf([1.0, 2.0])
        y = t.leaf([[3.0]])
        loss = ad.reduce_sum(ad.mul(ad.square(x), ad.absolute(x)))
        z = t.leaf([4.0])
        g = ad.backward(t, loss)
        assert sorted(g) == [x.node_id, y.node_id, z.node_id]
        np.testing.assert_array_equal(g[x.node_id], [3.0, 12.0])
        np.testing.assert_array_equal(g[z.node_id], [0.0])

    def test_shared_node_sums_contributions(self):
        # f(x) = sum(x*x) + sum(x*c): x is used by two disjoint subgraphs.
        rng = np.random.default_rng(7)
        c = rng.normal(size=5)

        def build(x):
            return ad.add(ad.reduce_sum(ad.mul(x, x)),
                          ad.reduce_sum(ad.mul(x, Tensor.const(c))))

        x0 = rng.normal(size=5)
        t = Tape()
        x = t.leaf(x0)
        g = ad.backward(t, build(x))[x.node_id]
        np.testing.assert_allclose(g, 2.0 * x0 + c, atol=1e-12)
        # perturbation oracle
        assert finite_diff_check(build, [x0], FD_STEP) < 1e-6

    def test_one_array_handed_to_two_leaves_is_not_summed_into(self):
        # add's VJP gives a and b the same array; a's later contribution from
        # `scaled` (recorded first, so its VJP runs last) must leave b's alone
        t = Tape()
        a, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3)))
        scaled = ad.mul(a, Tensor.const(np.full((2, 3), 3.0)))
        shared = ad.add(a, b)
        g = ad.backward(t, ad.reduce_sum(ad.add(shared, scaled)))
        np.testing.assert_array_equal(g[a.node_id], np.full((2, 3), 4.0))
        np.testing.assert_array_equal(g[b.node_id], np.ones((2, 3)))

    def test_backward_consumes_the_tape(self):
        # emptied, the tape is freed by reference counting alone
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = Tape()
            x = t.leaf([1.0, 2.0])
            loss = ad.reduce_sum(ad.square(x))
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
        grads = ad.backward(tape, ad.reduce_sum(ad.square(h)))
        return node, [grads[leaf.node_id] for leaf in leaves]

    def test_backward_does_not_rerun_the_scan(self, monkeypatch):
        params = _lstm_params(np.random.default_rng(11), vocab=6, e=3, h=4)
        _, want = self._grads(params)

        def rerun(*args, **kwargs):
            raise AssertionError("the lstm VJP reran the scan")

        _, got = self._grads(params, lambda node: monkeypatch.setattr(ad, "_lstm_steps", rerun))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_backward_frees_the_saved_arrays(self):
        params = _lstm_params(np.random.default_rng(12), vocab=6, e=3, h=4)
        shapes = {}

        def record(node):
            shapes.update({k: a.shape for k, a in node.meta["saved"].items()})

        node, _ = self._grads(params, record)
        # L = 3 steps of B = 2 rows: gates (L, B, 4h), states from zero (L+1, B, h)
        assert shapes == {"gates": (3, 2, 16), "cells": (4, 2, 4), "hiddens": (4, 2, 4)}
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
        loss = ad.reduce_sum(ad.square(h))
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


class TestBlockedKernels:
    """The blocked order_penalty and lstm forwards give the same bits as one
    block: every entry is computed the same way whatever the blocking."""

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
            grads = ad.backward(tape, ad.reduce_sum(ad.square(h)))
            return [h.data, saved["gates"], saved["cells"], saved["hiddens"],
                    *(grads[leaf.node_id] for leaf in leaves)]

        want = run()  # 11 captions are one block of the default size
        scans, steps = [], ad._lstm_steps

        def counted(xw, u, b, inv, gates=None):
            scans.append(inv.shape[0])
            return steps(xw, u, b, inv, gates)

        monkeypatch.setattr(ad, "_lstm_steps", counted)
        monkeypatch.setattr(ad, "LSTM_BLOCK", block)
        got = run()
        assert scans == [r.stop - r.start for r in ad._blocks(11, block)]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _lstm_params(rng, vocab, e, h):
    """An embedding and the fused weights w (e, 4h), u (h, 4h) and b (1, 4h)."""
    shapes = [(e, 4 * h), (h, 4 * h), (1, 4 * h)]
    return (rng.normal(size=(vocab, e)), *(rng.uniform(-0.8, 0.8, s) for s in shapes))


def _op_point(kind, rng):
    """A random input list suitable for `kind`, avoiding kinks where needed."""
    if kind == "matmul":
        return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
    if kind in ("add", "elementwise_mul"):
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
    return [rng.normal(size=(2, 3))]


def _op_builder(kind):
    meta = {}
    if kind == "lstm":  # three steps, with rows repeated within and across steps
        meta = {"ids": np.array([[1, 3, 1], [1, 0, 3]])}

    def build(*leaves):
        out = ad.forward_op(kind, leaves, **meta)
        return ad.reduce_sum(ad.square(out))

    return build


@pytest.mark.parametrize("kind", sorted(k for k in ad.OP_TABLE if k != "leaf"))
def test_primitive_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(42)
    builder = _op_builder(kind)
    for _ in range(10):
        point = _op_point(kind, rng)
        assert finite_diff_check(builder, point, FD_STEP) < FD_TOL


def test_random_graphs_match_finite_differences():
    """Random compositions of primitives, five ops deep, against central FD."""
    unary = ["square", "relu_zero_floor", "abs", "elementwise_mul"]
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        kinds = [unary[rng.integers(len(unary))] for _ in range(5)]

        def build(x, kinds=kinds):
            out = x
            for k in kinds:
                if k == "elementwise_mul":
                    out = ad.mul(out, out)
                else:
                    out = ad.forward_op(k, (out,))
            return ad.reduce_sum(out)

        point = [_away_from_zero(rng, (3, 2))]
        assert finite_diff_check(build, point, FD_STEP) < FD_TOL


def test_finite_diff_exact_for_linear():
    c = np.array([1.0, -2.0, 3.0])

    def build(x):
        return ad.reduce_sum(ad.mul(x, Tensor.const(c)))

    err = finite_diff_check(build, [np.array([0.4, 0.1, -0.9])], FD_STEP)
    assert err < 1e-9


def test_finite_diff_quadratic_tight():
    rng = np.random.default_rng(11)

    def build(x):
        return ad.reduce_sum(ad.square(x))

    assert finite_diff_check(build, [rng.normal(size=6)], FD_STEP) < 1e-6


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
