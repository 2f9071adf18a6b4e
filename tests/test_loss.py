"""Objective tests: hand values, brute-force oracle, gradients, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import finite_diff_check, order_penalty, similarity
from xmodal.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    paired_order_penalty,
    pairwise_order_penalty,
)
from xmodal.loss import LossConfig, batch_loss


def brute_force_loss(v_txt, v_img, alpha):
    """Independent triplet enumeration using scalar penalties only."""
    n = len(v_txt)
    total = 0.0
    for i in range(n):
        s_ii = similarity(v_txt[i], v_img[i])
        txt_hinges = [max(0.0, alpha - s_ii + similarity(v_txt[r], v_img[i]))
                      for r in range(n) if r != i]
        img_hinges = [max(0.0, alpha - s_ii + similarity(v_txt[i], v_img[k]))
                      for k in range(n) if k != i]
        for h in txt_hinges + img_hinges:
            total += h
    return total


class TestOrderPenalty:
    def test_identical_vectors(self):
        assert order_penalty([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_dominated_pair_is_zero(self):
        assert order_penalty([3.0, 3.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert order_penalty([1.0, 2.0], [2.0, 1.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            order_penalty([1.0], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
           st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    def test_nonnegative(self, x, y):
        n = min(len(x), len(y))
        assert order_penalty(x[:n], y[:n]) >= 0.0


class TestSimilarity:
    def test_dominated_gives_max_score_zero(self):
        assert similarity([2.0, 3.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert similarity([1.0, 2.0], [2.0, 1.0]) == -1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    def test_never_positive(self, v):
        rng = np.random.default_rng(0)
        other = rng.uniform(-5, 5, len(v))
        assert similarity(v, other) <= 0.0

    def test_zero_iff_dominated(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.uniform(0, 2, 5)
            i = rng.uniform(0, 2, 5)
            s = similarity(t, i)
            assert (s == 0.0) == bool(np.all(i <= t))


class TestPairwise:
    def test_matches_scalar_op(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 2, (4, 6))
        Y = rng.uniform(0, 2, (3, 6))
        E = pairwise_order_penalty(X, Y)
        for i in range(4):
            for k in range(3):
                assert E[i, k] == pytest.approx(order_penalty(X[i], Y[k]), abs=1e-14)

    def test_negated_penalty_matrix_nonpositive(self):
        rng = np.random.default_rng(4)
        S = -pairwise_order_penalty(rng.uniform(0, 1, (5, 4)), rng.uniform(0, 1, (5, 4)))
        assert np.all(S <= 0)

    @pytest.mark.parametrize("j", [1, 3, 7, 256, 1024])
    def test_paired_equals_matrix_entries_bitwise(self, j):
        # row chunks gathered the way retrieval_ranks' relevant pass does; at
        # j=256 and 1024 the 600-row matrix spans several pooled blocks. Both
        # reduce rows with np.vecdot, which may call BLAS ddot: its bits must
        # not depend on a row's address, block or pool thread, so chunks also
        # start at odd offsets and are passed as slices of the whole arrays
        rng = np.random.default_rng(j)
        X = rng.uniform(0, 2, (600, j))
        Y = rng.uniform(0, 2, (11, j))
        owner = rng.integers(0, 11, 600)
        want = pairwise_order_penalty(X, Y)[np.arange(600), owner]
        Yo = Y[owner]
        for start in (0, 1, 3):
            for size in (1, 7, 512, 600):
                got = np.concatenate([paired_order_penalty(X[lo:lo + size], Yo[lo:lo + size])
                                      for lo in range(start, 600, size)])
                assert np.array_equal(got, want[start:])

    def test_paired_rejects_unmatched_rows(self):
        with pytest.raises(ShapeError, match="3 rows against 2"):
            paired_order_penalty(np.ones((3, 4)), np.ones((2, 4)))
        with pytest.raises(ShapeError, match="incompatible"):
            paired_order_penalty(np.ones((3, 4)), np.ones((3, 5)))


def make_batch(rng, n, j):
    t = Tape()
    v_txt = t.leaf(rng.uniform(0.0, 2.0, (n, j)))
    v_img = t.leaf(rng.uniform(0.0, 2.0, (n, j)))
    return t, v_txt, v_img


class TestBatchLoss:
    def test_all_equal_embeddings_gives_4_alpha(self):
        # B=2, identical vectors: S is all zeros, every hinge equals alpha
        alpha = 0.2
        t = Tape()
        v = np.ones((2, 3))
        out = batch_loss(t.leaf(v), t.leaf(v), LossConfig(alpha=alpha))
        assert float(out.data) == pytest.approx(4 * alpha, abs=1e-15)

    def test_perfectly_ordered_batch_has_zero_loss(self):
        # each text dominates its own image (S_ii = 0) while every foreign
        # image pokes far above it on the other pair's active dimension
        t = Tape()
        v_txt = t.leaf(np.array([[2.0, 0.1], [0.1, 2.0]]))
        v_img = t.leaf(np.array([[2.0, 0.0], [0.0, 2.0]]))
        out = batch_loss(v_txt, v_img, LossConfig(alpha=0.1))
        assert float(out.data) == 0.0

    def test_matches_brute_force_b3(self):
        rng = np.random.default_rng(5)
        t, v_txt, v_img = make_batch(rng, 3, 4)
        out = batch_loss(v_txt, v_img, LossConfig(alpha=0.3))
        want = brute_force_loss(v_txt.data, v_img.data, 0.3)
        assert float(out.data) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("j", [2, 8])
    def test_matches_brute_force_grid(self, n, j):
        rng = np.random.default_rng(100 * n + j)
        for _ in range(5):
            t, v_txt, v_img = make_batch(rng, n, j)
            out = batch_loss(v_txt, v_img, LossConfig(alpha=0.25))
            want = brute_force_loss(v_txt.data, v_img.data, 0.25)
            assert float(out.data) == pytest.approx(want, abs=1e-12)

    def test_b1_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="B >= 2"):
            batch_loss(t.leaf(np.ones((1, 3))), t.leaf(np.ones((1, 3))),
                       LossConfig(alpha=0.1))

    def test_nonnegative_and_zero_iff_no_violation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t, v_txt, v_img = make_batch(rng, 4, 3)
            cfg = LossConfig(alpha=0.1)
            val = float(batch_loss(v_txt, v_img, cfg).data)
            assert val >= 0.0
            want = brute_force_loss(v_txt.data, v_img.data, 0.1)
            assert (val == 0.0) == (want == 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        txt = rng.uniform(0, 2, (5, 4))
        img = rng.uniform(0, 2, (5, 4))
        perm = rng.permutation(5)
        cfg = LossConfig(alpha=0.15)
        t1 = Tape()
        a = float(batch_loss(t1.leaf(txt), t1.leaf(img), cfg).data)
        t2 = Tape()
        b = float(batch_loss(t2.leaf(txt[perm]), t2.leaf(img[perm]), cfg).data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_alpha_monotone(self):
        rng = np.random.default_rng(8)
        txt = rng.uniform(0, 2, (4, 3))
        img = rng.uniform(0, 2, (4, 3))
        prev = -1.0
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0):
            t = Tape()
            val = float(batch_loss(t.leaf(txt), t.leaf(img), LossConfig(alpha=alpha)).data)
            assert val >= prev
            prev = val

    def _kink_free_batch(self, rng, n, j, alpha):
        """Resample until every hinge argument is at least 1e-3 from zero."""
        for _ in range(100):
            txt = rng.uniform(0.0, 2.0, (n, j))
            img = rng.uniform(0.0, 2.0, (n, j))
            S = -pairwise_order_penalty(txt, img)
            ok = True
            for i in range(n):
                for r in range(n):
                    if r == i:
                        continue
                    if abs(alpha - S[i, i] + S[r, i]) < 1e-3:
                        ok = False
                    if abs(alpha - S[i, i] + S[i, r]) < 1e-3:
                        ok = False
            # keep relu/abs inputs inside the loss away from kinks too
            if ok and np.abs(img[None, :, :] - txt[:, None, :]).min() > 1e-3:
                return txt, img
        raise AssertionError("could not sample a kink-free batch")

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(9)
        alpha = 0.25
        txt, img = self._kink_free_batch(rng, 4, 8, alpha)
        cfg = LossConfig(alpha=alpha)

        def build(a, b):
            return batch_loss(a, b, cfg)

        assert finite_diff_check(build, [txt, img], 1e-5) < 1e-4

    def test_tape_size_does_not_grow_with_batch(self):
        # the order_penalty matrix, its hinges and their sum, at any B
        cfg = LossConfig(alpha=0.2)
        for n in (2, 4, 64):
            t, v_txt, v_img = make_batch(np.random.default_rng(n), n, 6)
            before = len(t.nodes)
            batch_loss(v_txt, v_img, cfg)
            assert [node.kind for node in t.nodes[before:]] == ["order_penalty", "hinge", "sum"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_config_rejects_non_finite_alpha(self, alpha):
        # a nan or inf margin would make the first step's loss non-finite
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            LossConfig(alpha=alpha)
