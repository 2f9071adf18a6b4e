"""Ranking and metric tests against sort-based brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reference import order_penalty
from xmodal import autodiff as ad
from xmodal import evaluation as ev
from xmodal.evaluation import (
    Metrics,
    count_ahead,
    evaluate_embeddings,
    format_table,
    median_rank,
    metrics_from_ranks,
    recall_at_k,
    reports_to_json,
    retrieval_ranks,
)
from xmodal.autodiff import pairwise_order_penalty


def brute_force_rank(scores, relevant):
    """Sort (score desc, index asc) and scan for the first relevant item."""
    order = sorted(range(len(scores)), key=lambda g: (-scores[g], g))
    for pos, g in enumerate(order, start=1):
        if g in relevant:
            return pos
    raise AssertionError


def best_relevant_ranks(penalties, relevant):
    """Ranks from a whole (queries, gallery) penalty matrix.

    The best relevant item of each row is found by masking the matrix, and
    the rank is counted by `count_ahead`: the full-matrix reference that the
    streamed `retrieval_ranks` must equal.
    """
    assert relevant.any(axis=1).all()
    best = np.min(np.where(relevant, penalties, np.inf), axis=1)
    first = np.argmax(relevant & (penalties == best[:, None]), axis=1)
    return 1 + count_ahead(penalties, best, first)


def text_query_rank(query, gallery, relevant):
    """Rank of a caption query's best relevant image: penalty(query, item)."""
    mask = np.isin(np.arange(len(gallery)), relevant)[None, :]
    return best_relevant_ranks(pairwise_order_penalty(query[None, :], gallery), mask)[0]


def image_query_rank(query, gallery, relevant):
    """Rank of an image query's best relevant caption: penalty(item, query)."""
    mask = np.isin(np.arange(len(gallery)), relevant)[None, :]
    return best_relevant_ranks(pairwise_order_penalty(gallery, query[None, :]).T, mask)[0]


class TestRankGallery:
    def test_strictly_best_item_ranks_first(self):
        gallery = np.array([[5.0, 5.0], [0.1, 0.1], [9.0, 9.0]])
        query = np.array([0.2, 0.2])
        # text query: S(query, item); item 1 is dominated by the query
        assert text_query_rank(query, gallery, [1]) == 1

    def test_all_tied_scores_fall_back_to_index(self):
        gallery = np.zeros((6, 3))
        query = np.ones(3)  # dominates every gallery item: all scores 0
        assert text_query_rank(query, gallery, [4]) == 5
        assert text_query_rank(query, gallery, [0, 4]) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            gallery = rng.uniform(0, 1.5, (100, 4))
            query = rng.uniform(0, 1.5, 4)
            relevant = rng.choice(100, size=5, replace=False)
            for rank, penalty in ((text_query_rank, lambda g: order_penalty(query, g)),
                                  (image_query_rank, lambda g: order_penalty(g, query))):
                scores = [-penalty(g) for g in gallery]
                want = brute_force_rank(scores, set(relevant.tolist()))
                assert rank(query, gallery, relevant) == want

    def test_infinite_penalties_still_rank_by_index(self):
        # the relevant item ties an irrelevant one at an infinite penalty
        pen = np.array([[1.0, np.inf, np.inf]])
        relevant = np.array([[False, False, True]])
        assert best_relevant_ranks(pen, relevant)[0] == brute_force_rank(-pen[0], {2})

    def test_query_without_relevant_item_is_rejected(self):
        # images 1 and 2 own no caption, so as queries they have no rank
        with pytest.raises(ValueError, match="2 of 3 queries"):
            retrieval_ranks(np.zeros((2, 2)), np.zeros((3, 2)), np.array([0, 0]))

    def test_direction_matters(self):
        gallery = np.array([[2.0, 2.0], [0.1, 0.1]])
        query = np.array([1.0, 1.0])
        # as a text query, item 1 (small) is dominated: rank 1
        assert text_query_rank(query, gallery, [1]) == 1
        # as an image query, item 0 (big text) dominates the query: rank 1
        assert image_query_rank(query, gallery, [0]) == 1


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
            base = text_query_rank(query, gallery, rel)
            extra = rng.uniform(0, 1, (10, 3))
            grown = text_query_rank(query, np.vstack([gallery, extra]), rel)
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
        # full_5k reports the metrics of these ranks, as one fold, and no folds
        reports = evaluate_embeddings(v_img, v_txt, owner, "full_5k")
        assert [(reports[d].overall, reports[d].folds) for d in
                ("sentence_retrieval", "image_retrieval")] == [
            (metrics_from_ranks(s_ranks), []), (metrics_from_ranks(i_ranks), [])]

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

    def test_each_fold_is_full_5k_on_its_images_and_their_captions(self):
        # 6500 images: at most 5 folds are taken and the ragged tail is
        # ignored; shuffled owners mean a fold's captions are not contiguous
        rng = np.random.default_rng(5)
        n_imgs, caps_per = 6500, 2
        v_img = np.round(rng.uniform(0, 1, (n_imgs, 3)), 1)
        v_txt = np.round(rng.uniform(0, 1, (n_imgs * caps_per, 3)), 1)
        owner = rng.permutation(np.repeat(np.arange(n_imgs), caps_per))
        reports = evaluate_embeddings(v_img, v_txt, owner, "folds_1k")
        for direction in ("sentence_retrieval", "image_retrieval"):
            assert len(reports[direction].folds) == 5
        for fold in range(5):
            lo, hi = fold * 1000, (fold + 1) * 1000
            caps = (owner >= lo) & (owner < hi)
            want = evaluate_embeddings(v_img[lo:hi], v_txt[caps], owner[caps] - lo,
                                       "full_5k")
            for direction, report in want.items():
                assert reports[direction].folds[fold] == report.overall

    def test_image_without_caption_is_rejected(self):
        # image 1 owns no caption, so it has no rank to report
        v_img = np.eye(3)
        v_txt = np.eye(3)[[0, 2]] + 0.5
        with pytest.raises(ValueError, match="1 of 3 queries have no relevant item"):
            evaluate_embeddings(v_img, v_txt, np.array([0, 2]), "full_5k")

    @pytest.mark.parametrize("protocol", ["full_5k", "folds_1k"])
    def test_no_images_is_nothing_to_evaluate(self, protocol):
        with pytest.raises(ValueError, match=f"{protocol}: nothing to evaluate"):
            evaluate_embeddings(np.ones((0, 3)), np.ones((0, 3)),
                                np.zeros(0, dtype=np.int64), protocol)

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


def full_matrix_ranks(v_txt, v_img, owner):
    pen = pairwise_order_penalty(v_txt, v_img)
    owns = np.asarray(owner)[:, None] == np.arange(len(v_img))
    return best_relevant_ranks(pen.T, owns.T), best_relevant_ranks(pen, owns)


def slab_rows_spy(monkeypatch, dtype=np.float32):
    """Record the row count of every slab of `dtype` retrieval_ranks forms:
    float32 for the chunks it screens, float64 for those it falls back on."""
    rows = []
    kernel = ev.pairwise_order_penalty

    def spy(x, y):
        if x.dtype == dtype:
            rows.append(len(x))
        return kernel(x, y)
    monkeypatch.setattr(ev, "pairwise_order_penalty", spy)
    return rows


def rank_cases():
    rng = np.random.default_rng(8)
    owner = rng.permutation(np.repeat(np.arange(6), [1, 2, 3, 1, 4, 2]))
    yield "random", rng.uniform(0, 1, (len(owner), 4)), rng.uniform(0, 1, (6, 4)), owner
    owner = rng.permutation(np.repeat(np.arange(5), 3))
    yield ("tie-heavy", rng.integers(0, 3, (15, 3)).astype(float),
           rng.integers(0, 3, (5, 3)).astype(float), owner)
    yield "one-image", rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (1, 3)), np.zeros(5, int)
    yield ("one-caption-per-image", rng.integers(0, 2, (8, 2)).astype(float),
           rng.integers(0, 2, (8, 2)).astype(float), rng.permutation(8))


class TestStreamedRanks:
    @pytest.mark.parametrize("case", list(rank_cases()), ids=lambda c: c[0])
    def test_every_chunk_size_matches_full_matrix(self, case, monkeypatch):
        _, v_txt, v_img, owner = case
        want_s, want_i = full_matrix_ranks(v_txt, v_img, owner)
        # a one-thread round of one block, so the block size alone sets the chunk
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        rows = slab_rows_spy(monkeypatch)
        for chunk in range(1, len(v_txt) + 1):
            monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", 8 * v_txt.shape[1] * chunk)
            rows.clear()
            s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
            assert rows[0] == chunk and sum(rows) == len(v_txt)
            np.testing.assert_array_equal(s_ranks, want_s)
            np.testing.assert_array_equal(i_ranks, want_i)

    def test_chunks_are_whole_pool_rounds(self, monkeypatch):
        rng = np.random.default_rng(9)
        n_imgs, j = 20, 4
        owner = np.repeat(np.arange(n_imgs), 10)
        v_txt = rng.integers(0, 3, (len(owner), j)).astype(float)
        v_img = rng.integers(0, 3, (n_imgs, j)).astype(float)
        want_s, want_i = full_matrix_ranks(v_txt, v_img, owner)
        monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", 8 * j * 3)  # 3 rows per block
        rows = slab_rows_spy(monkeypatch)
        for workers in (1, 2, 7, 67):  # one round of 67 blocks covers all 200 captions
            monkeypatch.setattr(ad, "POOL_WORKERS", workers)
            whole = workers * 3
            rows.clear()
            s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
            assert rows[0] == min(whole, len(owner)) and sum(rows) == len(owner)
            assert all(r == whole for r in rows[:-1])
            np.testing.assert_array_equal(s_ranks, want_s)
            np.testing.assert_array_equal(i_ranks, want_i)

    def test_peak_memory_is_about_one_slab(self, monkeypatch):
        rng = np.random.default_rng(10)
        n_imgs, j = 2000, 4
        v_img = rng.uniform(0, 1, (n_imgs, j))
        v_txt = rng.uniform(0, 1, (n_imgs, j))
        owner = rng.permutation(n_imgs)
        # two 64-row blocks per round: 128-row slabs
        monkeypatch.setattr(ad, "POOL_WORKERS", 2)
        monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", 8 * j * 64)
        rows = slab_rows_spy(monkeypatch)
        retrieval_ranks(v_txt, v_img, owner)  # start the pool's threads
        assert max(rows) == 128
        slab_bytes = 8 * 128 * n_imgs
        tracemalloc.start()
        try:
            retrieval_ranks(v_txt, v_img, owner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one slab, its boolean masks (1/8 of it each) and per-caption vectors;
        # a second slab alive, or the (2000, 2000) matrix, is far above this
        assert peak < 1.75 * slab_bytes < 8 * len(v_txt) * n_imgs

    def test_owner_rows_are_checked_first(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("penalty formed before cap_owner was checked")
        monkeypatch.setattr(ev, "paired_order_penalty", untouched)
        monkeypatch.setattr(ev, "pairwise_order_penalty", untouched)
        v_txt, v_img = np.ones((4, 2)), np.ones((3, 2))
        for owner, match in (([0, 1, 2], r"shape \(3,\); 4 captions"),
                             ([0, 1, 2, 3], "caption row 3: owner 3 "),
                             ([0, -1, 2, 9], "caption row 1: owner -1 "),
                             ([0.0, 1.0, 2.5, 1.0], "caption row 2: owner 2.5 "),
                             ([0.0, 1.0, np.nan, 1.0], "caption row 2: owner nan "),
                             (np.array(["0", "1", "2", "1"]), "not image indices")):
            with pytest.raises(ValueError, match=match):
                retrieval_ranks(v_txt, v_img, np.asarray(owner))

    def test_integral_float_owners_are_accepted(self):
        v_img, v_txt = np.eye(3) * 2.0, np.eye(3) * 2.0 + 0.5
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, np.array([0.0, 1.0, 2.0]))
        assert np.all(s_ranks == 1) and np.all(i_ranks == 1)

    @pytest.mark.parametrize("side", ["caption", "image"])
    def test_non_finite_embedding_rejected_before_any_penalty(self, monkeypatch, side):
        # every comparison with NaN is false, so a NaN model would rank first
        def untouched(*args):
            raise AssertionError("penalty formed before the embeddings were checked")
        monkeypatch.setattr(ev, "paired_order_penalty", untouched)
        monkeypatch.setattr(ev, "pairwise_order_penalty", untouched)
        v_img, v_txt = np.eye(3) * 2.0, np.eye(3) * 2.0 + 0.5
        bad = v_txt if side == "caption" else v_img
        bad[1, 2], bad[2] = np.nan, np.inf
        with pytest.raises(ValueError, match=f"^{side} embedding row 1 is not finite$"):
            evaluate_embeddings(v_img, v_txt, np.arange(3), "full_5k")


def bound_rows(kind, j, rng):
    """(captions, images) of float64 rows for the screen bound's checks."""
    x, y = rng.uniform(0, 1, (40, j)), rng.uniform(0, 1, (30, j))
    if kind == "rounded":  # 2 dp: many exact ties and zero differences
        x, y = np.round(x, 2), np.round(y, 2)
    elif kind == "duplicated":  # repeated rows, and images equal to captions
        x[20:30], y[:10], y[10:15] = x[:10], x[:10], y[15:20]
    elif kind == "absorbing":  # leading ones absorb the tiny squares after them
        x, y = np.zeros_like(x), np.full_like(y, 2.0 ** -12)
        y[np.arange(j) < 1 + np.arange(len(y))[:, None] % 16] = 1.0
    elif kind == "tiny":  # below float32's normal range
        x, y = x * 2.0 ** -130, y * 2.0 ** -130
    elif kind == "huge":
        x, y = x * 2.0 ** 60, y * 2.0 ** 60
    return x, y


class TestScreenBound:
    @pytest.mark.parametrize("j", [1, 3, 7, 256, 1024])
    @pytest.mark.parametrize("kind", ["random", "rounded", "duplicated", "absorbing",
                                      "tiny", "huge"])
    def test_bound_holds_entry_by_entry(self, kind, j):
        x, y = bound_rows(kind, j, np.random.default_rng(j))
        p64 = pairwise_order_penalty(x, y)
        p32 = pairwise_order_penalty(x.astype(np.float32), y.astype(np.float32))
        assert p64.dtype == np.float64 and p32.dtype == np.float32
        norms = np.linalg.norm(x, axis=1)[:, None] + np.linalg.norm(y, axis=1)[None, :]
        k, f = ev.screen_bound(j, norms)
        p32 = p32.astype(np.float64)
        assert np.all(np.abs(p32 - p64) <= k * p32 + f)

    def test_thresholds_round_outward(self):
        best = np.array([0.0, 1e-45, 0.3, 1.0 / 3.0, 2.0 ** 100, 7.0])
        lo, hi = ev._thresholds(best, 1e-5, np.full(best.shape, 1e-7))
        assert lo.dtype == hi.dtype == np.float32
        assert np.all(lo.astype(np.float64) < (best - 1e-7) / (1 + 1e-5))
        assert np.all(hi.astype(np.float64) > (best + 1e-7) / (1 - 1e-5))


class TestScreenedRanks:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ranks_equal_full_matrix_on_tie_heavy_galleries(self, data):
        # mostly a coarse grid of values, scaled so that some galleries
        # underflow or overflow in float32 (and then are ranked in float64)
        n_imgs = data.draw(st.integers(1, 8))
        per = data.draw(st.lists(st.integers(1, 3), min_size=n_imgs, max_size=n_imgs))
        j = data.draw(st.integers(1, 4))
        scale = 2.0 ** data.draw(st.sampled_from([0, -130, -149, -160, 56, 60, 140]))
        grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]) | st.floats(0, 3)
        draw_rows = lambda n: np.array(data.draw(st.lists(
            st.lists(grid, min_size=j, max_size=j), min_size=n, max_size=n))) * scale
        v_img, v_txt = draw_rows(n_imgs), draw_rows(sum(per))
        owner = np.random.default_rng(sum(per)).permutation(np.repeat(np.arange(n_imgs), per))
        want_s, want_i = full_matrix_ranks(v_txt, v_img, owner)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "PENALTY_BLOCK_BYTES", 8 * j * data.draw(st.integers(1, 4)))
            # a gallery this small is dense in undecided pairs; DENSE 1 screens it anyway
            mp.setattr(ev, "DENSE", data.draw(st.sampled_from([ev.DENSE, 1.0])))
            s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
        np.testing.assert_array_equal(s_ranks, want_s)
        np.testing.assert_array_equal(i_ranks, want_i)

    def test_screen_decides_random_gallery_without_float64_slabs(self, monkeypatch):
        rng = np.random.default_rng(12)
        n_imgs, j = 300, 16
        v_img = rng.uniform(0, 1, (n_imgs, j))
        v_txt = rng.uniform(0, 1, (3 * n_imgs, j))
        owner = np.repeat(np.arange(n_imgs), 3)
        want_s, want_i = full_matrix_ranks(v_txt, v_img, owner)
        float64_rows = slab_rows_spy(monkeypatch, np.float64)
        rechecked = []
        paired = ev.paired_order_penalty
        monkeypatch.setattr(ev, "paired_order_penalty",
                            lambda x, y: rechecked.append(len(x)) or paired(x, y))
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
        np.testing.assert_array_equal(s_ranks, want_s)
        np.testing.assert_array_equal(i_ranks, want_i)
        assert float64_rows == []
        # the relevant pass pairs every caption once; the rest is rechecks
        assert 0 < sum(rechecked) - len(v_txt) < 0.01 * len(v_txt) * n_imgs

    def test_collapsed_gallery_falls_back_to_float64(self, monkeypatch):
        # every image row equal, as after a collapse: each caption's row of
        # penalties is one value, so every pair lies between its thresholds
        rng = np.random.default_rng(13)
        n_imgs, j = 40, 8
        v_img = np.tile(rng.uniform(0, 1, j), (n_imgs, 1))
        v_txt = rng.uniform(0, 1, (3 * n_imgs, j))
        owner = rng.permutation(np.repeat(np.arange(n_imgs), 3))
        want_s, want_i = full_matrix_ranks(v_txt, v_img, owner)
        float32_rows = slab_rows_spy(monkeypatch)
        float64_rows = slab_rows_spy(monkeypatch, np.float64)
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
        np.testing.assert_array_equal(s_ranks, want_s)
        np.testing.assert_array_equal(i_ranks, want_i)
        assert sum(float32_rows) == sum(float64_rows) == len(v_txt)

    def test_half_collapsed_gallery_is_screened_or_counted_by_whole_chunk(self, monkeypatch):
        # the first half of the image rows are equal: the chunks of their
        # captions are dense in undecided pairs and fall back to float64,
        # the chunks of the other captions are screened
        rng = np.random.default_rng(14)
        n_imgs, j = 40, 8
        v_img = rng.uniform(0, 1, (n_imgs, j))
        v_img[:n_imgs // 2] = v_img[0]
        v_txt = rng.uniform(0, 1, (3 * n_imgs, j))
        owner = np.repeat(np.arange(n_imgs), 3)
        want_s, want_i = full_matrix_ranks(v_txt, v_img, owner)
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        monkeypatch.setattr(ad, "PENALTY_BLOCK_BYTES", 8 * j * 12)  # 12-caption chunks
        slabs = []
        kernel = ev.pairwise_order_penalty
        monkeypatch.setattr(ev, "pairwise_order_penalty",
                            lambda x, y: slabs.append((x.dtype, len(x))) or kernel(x, y))
        s_ranks, i_ranks = retrieval_ranks(v_txt, v_img, owner)
        np.testing.assert_array_equal(s_ranks, want_s)
        np.testing.assert_array_equal(i_ranks, want_i)
        float64_at = [k for k, (dtype, _) in enumerate(slabs) if dtype == np.float64]
        assert 0 < len(float64_at) < len(slabs) - len(float64_at)
        for k in float64_at:  # the whole float32 chunk before it, not a part
            assert k > 0 and slabs[k - 1] == (np.float32, slabs[k][1])
