"""Objective tests: hand values, brute-force oracle, gradients, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal import loss as lo
from xmodal.autodiff import ShapeError, Tape, Tensor
from xmodal.loss import (
    LossConfig,
    batch_loss,
    order_penalty,
    pairwise_order_penalty,
    similarity,
    similarity_matrix,
    variance_term,
)


def _hardest(hinges):
    """(index, value) of the largest hinge; ties go to the lowest index."""
    best = max(h for _, h in hinges)
    return next((r, h) for r, h in hinges if h == best)


def _batch_variance_oracle(rows):
    """Mean over components of each component's population variance."""
    rows = np.asarray(rows)
    return sum(variance_term(rows[:, d]) for d in range(rows.shape[1])) / rows.shape[1]


def brute_force_loss(v_txt, v_img, alpha, negative_mode="sum", lambda_var=0.0,
                     variance_scope="components"):
    """Independent triplet enumeration using scalar penalties only.

    Every negative a positive pays for also earns the variance bonus of its
    embedding (`components`) or of its whole modality batch (`batch`).
    """
    n = len(v_txt)

    def bonus(rows, r):
        if variance_scope == "components":
            return lambda_var * variance_term(rows[r])
        return lambda_var * _batch_variance_oracle(rows)

    total = 0.0
    for i in range(n):
        s_ii = similarity(v_txt[i], v_img[i])
        txt_hinges = [(r, max(0.0, alpha - s_ii + similarity(v_txt[r], v_img[i])))
                      for r in range(n) if r != i]
        img_hinges = [(k, max(0.0, alpha - s_ii + similarity(v_txt[i], v_img[k])))
                      for k in range(n) if k != i]
        if negative_mode == "max":
            txt_hinges = [_hardest(txt_hinges)]
            img_hinges = [_hardest(img_hinges)]
        for r, h in txt_hinges:
            total += h - bonus(v_txt, r)
        for k, h in img_hinges:
            total += h - bonus(v_img, k)
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


class TestVarianceTerm:
    def test_constant_vector(self):
        assert variance_term([3.0, 3.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert variance_term([0.0, 2.0]) == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=rng.integers(1, 12))
            mean = sum(v) / len(v)
            want = sum((x - mean) ** 2 for x in v) / len(v)
            assert abs(variance_term(v) - want) < 1e-12


class TestPairwise:
    def test_matches_scalar_op(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 2, (4, 6))
        Y = rng.uniform(0, 2, (3, 6))
        E = pairwise_order_penalty(X, Y)
        for i in range(4):
            for k in range(3):
                assert E[i, k] == pytest.approx(order_penalty(X[i], Y[k]), abs=1e-14)

    def test_similarity_matrix_nonpositive(self):
        rng = np.random.default_rng(4)
        S = similarity_matrix(rng.uniform(0, 1, (5, 4)), rng.uniform(0, 1, (5, 4)))
        assert np.all(S <= 0)


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
    @pytest.mark.parametrize("mode", ["sum", "max"])
    def test_matches_brute_force_grid(self, n, j, mode):
        rng = np.random.default_rng(100 * n + j)
        for _ in range(5):
            t, v_txt, v_img = make_batch(rng, n, j)
            cfg = LossConfig(alpha=0.25, negative_mode=mode)
            out = batch_loss(v_txt, v_img, cfg)
            want = brute_force_loss(v_txt.data, v_img.data, 0.25, mode)
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
            S = similarity_matrix(txt, img)
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

    @pytest.mark.parametrize("mode", ["sum", "max"])
    def test_gradients_match_fd(self, mode):
        rng = np.random.default_rng(9)
        alpha = 0.25
        txt, img = self._kink_free_batch(rng, 4, 8, alpha)
        cfg = LossConfig(alpha=alpha, negative_mode=mode)

        def build(a, b):
            return batch_loss(a, b, cfg)

        assert ad.finite_diff_check(build, [txt, img], 1e-5) < 1e-4

    def test_variance_term_subtracted_sum_mode(self):
        rng = np.random.default_rng(10)
        txt = rng.uniform(0, 2, (3, 4))
        img = rng.uniform(0, 2, (3, 4))
        lam = 0.01
        t1 = Tape()
        base = float(batch_loss(t1.leaf(txt), t1.leaf(img), LossConfig(alpha=0.2)).data)
        t2 = Tape()
        cfg = LossConfig(alpha=0.2, lambda_var=lam)
        with_var = float(batch_loss(t2.leaf(txt), t2.leaf(img), cfg).data)
        # each positive subtracts lam * sum of the other rows' variances
        want = base
        for i in range(3):
            for r in range(3):
                if r != i:
                    want -= lam * (variance_term(txt[r]) + variance_term(img[r]))
        assert with_var == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("scope", ["components", "batch"])
    @pytest.mark.parametrize("mode", ["sum", "max"])
    def test_variance_gradients_match_fd(self, mode, scope):
        rng = np.random.default_rng(11)
        alpha = 0.25
        txt, img = TestBatchLoss._kink_free_batch(self, rng, 3, 5, alpha)
        cfg = LossConfig(alpha=alpha, lambda_var=0.05, negative_mode=mode,
                         variance_scope=scope)

        def build(a, b):
            return batch_loss(a, b, cfg)

        assert ad.finite_diff_check(build, [txt, img], 1e-5) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("scope", ["components", "batch"])
    @pytest.mark.parametrize("mode", ["sum", "max"])
    def test_variance_bonus_matches_brute_force(self, n, scope, mode):
        rng = np.random.default_rng(200 + 10 * n)
        for _ in range(3):
            t, v_txt, v_img = make_batch(rng, n, 4)
            cfg = LossConfig(alpha=0.25, lambda_var=0.05, negative_mode=mode,
                             variance_scope=scope)
            out = batch_loss(v_txt, v_img, cfg)
            want = brute_force_loss(v_txt.data, v_img.data, 0.25, mode, 0.05, scope)
            assert float(out.data) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("lambda_var,scope", [(0.0, "components"),
                                                  (0.05, "components"),
                                                  (0.05, "batch")])
    @pytest.mark.parametrize("mode", ["sum", "max"])
    def test_tape_size_does_not_grow_with_batch(self, mode, lambda_var, scope):
        cfg = LossConfig(alpha=0.2, lambda_var=lambda_var, negative_mode=mode,
                         variance_scope=scope)
        sizes = []
        for n in (4, 64):
            t, v_txt, v_img = make_batch(np.random.default_rng(n), n, 6)
            before = len(t.nodes)
            batch_loss(v_txt, v_img, cfg)
            sizes.append(len(t.nodes) - before)
        assert sizes[0] == sizes[1]

    def test_batch_variance_scope_runs_and_differs(self):
        rng = np.random.default_rng(12)
        txt = rng.uniform(0, 2, (3, 4))
        img = rng.uniform(0, 2, (3, 4))
        t1 = Tape()
        comp = float(batch_loss(t1.leaf(txt), t1.leaf(img),
                                LossConfig(alpha=0.2, lambda_var=0.1)).data)
        t2 = Tape()
        batch = float(batch_loss(t2.leaf(txt), t2.leaf(img),
                                 LossConfig(alpha=0.2, lambda_var=0.1,
                                            variance_scope="batch")).data)
        assert comp != batch

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            LossConfig(alpha=0.1, negative_mode="hardest")
