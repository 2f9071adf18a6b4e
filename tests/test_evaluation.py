"""Ranking and metric tests against sort-based brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from xmodal.evaluation import (
    Metrics,
    best_relevant_ranks,
    evaluate_embeddings,
    format_table,
    median_rank,
    metrics_from_ranks,
    rank_gallery,
    recall_at_k,
    reports_to_json,
    retrieval_ranks,
)
from xmodal.loss import order_penalty


def brute_force_rank(scores, relevant):
    """Sort (score desc, index asc) and scan for the first relevant item."""
    order = sorted(range(len(scores)), key=lambda g: (-scores[g], g))
    for pos, g in enumerate(order, start=1):
        if g in relevant:
            return pos
    raise AssertionError


class TestRankGallery:
    def test_strictly_best_item_ranks_first(self):
        gallery = np.array([[5.0, 5.0], [0.1, 0.1], [9.0, 9.0]])
        query = np.array([0.2, 0.2])
        # text_query: S(query, item); item 1 is dominated by the query
        assert rank_gallery(query, gallery, [1], "text_query") == 1

    def test_all_tied_scores_fall_back_to_index(self):
        gallery = np.zeros((6, 3))
        query = np.ones(3)  # dominates every gallery item: all scores 0
        assert rank_gallery(query, gallery, [4], "text_query") == 5
        assert rank_gallery(query, gallery, [0, 4], "text_query") == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            gallery = rng.uniform(0, 1.5, (100, 4))
            query = rng.uniform(0, 1.5, 4)
            relevant = rng.choice(100, size=5, replace=False)
            for direction in ("text_query", "image_query"):
                if direction == "text_query":
                    scores = [-order_penalty(query, g) for g in gallery]
                else:
                    scores = [-order_penalty(g, query) for g in gallery]
                want = brute_force_rank(scores, set(relevant.tolist()))
                got = rank_gallery(query, gallery, relevant, direction)
                assert got == want

    def test_infinite_penalties_still_rank_by_index(self):
        # the relevant item ties an irrelevant one at an infinite penalty
        pen = np.array([[1.0, np.inf, np.inf]])
        relevant = np.array([[False, False, True]])
        assert best_relevant_ranks(pen, relevant)[0] == brute_force_rank(-pen[0], {2})

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="relevant"):
            rank_gallery(np.ones(2), np.ones((3, 2)), [], "text_query")

    def test_direction_matters(self):
        gallery = np.array([[2.0, 2.0], [0.1, 0.1]])
        query = np.array([1.0, 1.0])
        # as a text query, item 1 (small) is dominated: rank 1
        assert rank_gallery(query, gallery, [1], "text_query") == 1
        # as an image query, item 0 (big text) dominates the query: rank 1
        assert rank_gallery(query, gallery, [0], "image_query") == 1


class TestRecallAndMedian:
    def test_all_rank_one(self):
        assert recall_at_k([1, 1, 1], 1) == 100.0

    def test_hand_counts(self):
        ranks = [1, 6, 11]
        assert recall_at_k(ranks, 1) == pytest.approx(100 / 3)
        assert recall_at_k(ranks, 5) == pytest.approx(100 / 3)
        assert recall_at_k(ranks, 10) == pytest.approx(200 / 3)

    def test_k_at_least_gallery_size_gives_100(self):
        ranks = np.array([3, 7, 2])  # gallery of 7
        assert recall_at_k(ranks, 7) == 100.0

    def test_median_odd_even(self):
        assert median_rank([1, 2, 3]) == 2.0
        assert median_rank([1, 2, 3, 4]) == 2.5

    def test_against_brute_force_multisets(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ranks = rng.integers(1, 50, size=rng.integers(1, 30))
            srt = sorted(ranks.tolist())
            n = len(srt)
            med = srt[n // 2] if n % 2 else (srt[n // 2 - 1] + srt[n // 2]) / 2
            assert median_rank(ranks) == med
            for k in (1, 5, 10):
                want = 100.0 * sum(1 for r in srt if r <= k) / n
                assert recall_at_k(ranks, k) == pytest.approx(want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
    def test_recall_monotone_in_k(self, ranks):
        values = [recall_at_k(ranks, k) for k in (1, 5, 10, 100)]
        assert values == sorted(values)
        assert values[-1] == 100.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=2, max_size=30), st.randoms())
    def test_metrics_permutation_invariant(self, ranks, rnd):
        shuffled = list(ranks)
        rnd.shuffle(shuffled)
        a, b = metrics_from_ranks(ranks), metrics_from_ranks(shuffled)
        assert a.r_at == b.r_at and a.med_r == b.med_r


class TestRankInvariants:
    def test_appending_irrelevant_items_never_improves_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gallery = rng.uniform(0, 1, (30, 3))
            query = rng.uniform(0, 1, 3)
            rel = [int(rng.integers(0, 30))]
            base = rank_gallery(query, gallery, rel, "text_query")
            extra = rng.uniform(0, 1, (10, 3))
            grown = rank_gallery(query, np.vstack([gallery, extra]), rel, "text_query")
            assert grown >= base

    def test_random_scores_give_uniform_best_rank(self):
        # 1 relevant among 100 with iid scores: chi-square at the 5% level
        rng = np.random.default_rng(12345)
        n, trials = 100, 10000
        counts = np.zeros(n)
        for _ in range(trials):
            scores = rng.normal(size=n)
            order = np.argsort(-scores, kind="stable")
            positions = np.empty(n, dtype=int)
            positions[order] = np.arange(n)
            counts[positions[0]] += 1  # item 0 is the relevant one
        chi2 = float(np.sum((counts - trials / n) ** 2 / (trials / n)))
        assert chi2 < stats.chi2.ppf(0.95, df=n - 1)


class TestProtocols:
    def _perfect_corpus(self, n_imgs, caps_per):
        # embeddings built so each image's captions dominate exactly it
        j = n_imgs
        v_img = np.eye(n_imgs) * 2.0
        v_txt = np.repeat(v_img, caps_per, axis=0) + 0.5
        owner = np.repeat(np.arange(n_imgs), caps_per)
        return v_img, v_txt, owner

    def test_perfect_model_scores_100(self):
        v_img, v_txt, owner = self._perfect_corpus(8, 3)
        reports = evaluate_embeddings(v_img, v_txt, owner, "full_5k")
        for direction in ("sentence_retrieval", "image_retrieval"):
            assert reports[direction].overall.r_at[1] == 100.0
            assert reports[direction].overall.med_r == 1.0

    def test_perfect_corpus_needs_distinct_dims(self):
        # sanity: every caption dominates only its own image
        v_img, v_txt, owner = self._perfect_corpus(4, 2)
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
        assert np.all(s_ranks == 1) and np.all(i_ranks == 1)

    def test_tie_heavy_ranks_match_brute_force(self):
        # coarse embeddings put many captions and images at equal penalties
        rng = np.random.default_rng(4)
        n_imgs, caps_per = 12, 5
        v_img = np.round(rng.uniform(0, 0.5, (n_imgs, 3)), 1)
        v_txt = np.round(rng.uniform(0, 0.5, (n_imgs * caps_per, 3)), 1)
        owner = np.repeat(np.arange(n_imgs), caps_per)
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
        for q in range(n_imgs):
            scores = [-order_penalty(t, v_img[q]) for t in v_txt]
            relevant = set(np.flatnonzero(owner == q).tolist())
            assert s_ranks[q] == brute_force_rank(scores, relevant)
        for c in range(len(v_txt)):
            scores = [-order_penalty(v_txt[c], im) for im in v_img]
            assert i_ranks[c] == brute_force_rank(scores, {int(owner[c])})
        assert len(set(s_ranks.tolist())) > 1 and len(set(i_ranks.tolist())) > 1

    def test_folds_partition_and_mean(self):
        rng = np.random.default_rng(3)
        n_imgs, caps_per = 2000, 2
        v_img = rng.uniform(0, 1, (n_imgs, 4))
        v_txt = rng.uniform(0, 1, (n_imgs * caps_per, 4))
        owner = np.repeat(np.arange(n_imgs), caps_per)
        reports = evaluate_embeddings(v_img, v_txt, owner, "folds_1k")
        sr = reports["sentence_retrieval"]
        assert len(sr.folds) == 2
        assert sr.overall.r_at[1] == pytest.approx(
            np.mean([m.r_at[1] for m in sr.folds]))
        assert sr.folds[0].n_queries == 1000
        ir = reports["image_retrieval"]
        assert ir.folds[0].n_queries == 2000  # 1000 images x 2 captions

    def test_folds_reject_small_sets(self):
        with pytest.raises(ValueError, match="folds_1k"):
            evaluate_embeddings(np.ones((50, 2)), np.ones((100, 2)),
                                np.repeat(np.arange(50), 2), "folds_1k")

    def test_report_json_keys(self):
        v_img, v_txt, owner = self._perfect_corpus(4, 2)
        reports = evaluate_embeddings(v_img, v_txt, owner, "full_5k")
        import json
        parsed = json.loads(reports_to_json(reports))
        assert {d["direction"] for d in parsed} == {
            "sentence_retrieval", "image_retrieval"}
        for d in parsed:
            assert set(d) == {"direction", "protocol", "r1", "r5", "r10",
                              "medr", "n_queries", "folds"}
        table = format_table(reports)
        assert "Sentence Retrieval" in table and "Image Retrieval" in table
