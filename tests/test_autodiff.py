"""Tensor op and reverse-mode gradient tests.

Gradients are checked against central finite differences; matmul against a
naive triple-loop product. Kinked ops (relu_zero_floor, abs, hinges built
from them) are sampled away from the origin so the subgradient convention
does not pollute the comparison.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert float(ad.sigmoid(Tensor.const(0.0)).data) == 0.5
        assert float(ad.tanh(Tensor.const(0.0)).data) == 0.0

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

    def test_concat_and_slice(self):
        a = Tensor.const([[1.0, 2.0]])
        b = Tensor.const([[3.0, 4.0], [5.0, 6.0]])
        cat = ad.concat_rows([a, b])
        np.testing.assert_array_equal(cat.data, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(ad.slice_row(cat, 2).data, [[5, 6]])
        with pytest.raises(ShapeError):
            ad.slice_row(cat, 3)

    def test_gather_matches_slice_concat_composition(self):
        rng = np.random.default_rng(3)
        m = Tensor.const(rng.normal(size=(6, 4)))
        rows = [5, 0, 0, 3]
        gathered = ad.gather_rows(m, rows)
        composed = ad.concat_rows([ad.slice_row(m, i) for i in rows])
        np.testing.assert_array_equal(gathered.data, composed.data)

    def test_gather_out_of_range(self):
        m = Tensor.const(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="gather_rows"):
            ad.gather_rows(m, [0, 2])


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
        assert ad.finite_diff_check(build, [x0], FD_STEP) < 1e-6

    def test_gradients_flow_through_gather_with_repeats(self):
        t = Tape()
        m = t.leaf(np.arange(8.0).reshape(4, 2))
        out = ad.gather_rows(m, [1, 1, 3])
        loss = ad.reduce_sum(out)
        g = ad.backward(t, loss)[m.node_id]
        np.testing.assert_array_equal(g, [[0, 0], [2, 2], [0, 0], [1, 1]])


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
    return [rng.normal(size=(2, 3))]


def _op_builder(kind):
    meta = {}
    if kind == "slice_row":
        meta = {"row": 1}
    elif kind == "gather_rows":
        meta = {"rows": np.array([1, 0, 1])}

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
        assert ad.finite_diff_check(builder, point, FD_STEP) < FD_TOL


def test_random_graphs_match_finite_differences():
    """Random compositions of primitives, five ops deep, against central FD."""
    unary = ["sigmoid", "tanh", "square", "relu_zero_floor", "abs", "elementwise_mul"]
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
        assert ad.finite_diff_check(build, point, FD_STEP) < FD_TOL


def test_finite_diff_exact_for_linear():
    c = np.array([1.0, -2.0, 3.0])

    def build(x):
        return ad.reduce_sum(ad.mul(x, Tensor.const(c)))

    err = ad.finite_diff_check(build, [np.array([0.4, 0.1, -0.9])], FD_STEP)
    assert err < 1e-9


def test_finite_diff_quadratic_tight():
    rng = np.random.default_rng(11)

    def build(x):
        return ad.reduce_sum(ad.square(x))

    assert ad.finite_diff_check(build, [rng.normal(size=6)], FD_STEP) < 1e-6


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: ad.reduce_sum(x), [np.ones(2)], 0.0)


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
