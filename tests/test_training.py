"""Optimizer, schedule, and training-loop tests."""

import numpy as np
import pytest

from xmodal.io import DataFormatError, FeatureTable, load_checkpoint
from xmodal.loss import LossConfig
from xmodal.model import ModelDims, ModelParams
from xmodal.io import DatasetRecord
from xmodal.text import build_vocab, normalize
from xmodal.training import (
    AdamState,
    NumericsError,
    ScheduleState,
    TrainConfig,
    TrainingData,
    adam_step,
    grid_search,
    prepare_pairs,
    restore_training_state,
    resume_train,
    save_training_checkpoint,
    schedule_update,
    train,
)
from xmodal.io import Checkpoint


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        tensors = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.zeros_like(tensors)
        out = adam_step(tensors, {"w": np.zeros(3)}, state, lr=0.1)
        np.testing.assert_array_equal(out["w"], tensors["w"])
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        g = np.array([0.3, -0.7, 2.0])
        tensors = {"w": np.zeros(3)}
        state = AdamState.zeros_like(tensors)
        out = adam_step(tensors, {"w": g}, state, lr=0.05)
        # m_hat = g, v_hat = g^2: update = -lr * g / (|g| + eps)
        np.testing.assert_allclose(out["w"], -0.05 * np.sign(g), rtol=1e-6)

    def test_two_steps_match_hand_rolled_recurrence(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=3)
        g1, g2 = rng.normal(size=3), rng.normal(size=3)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01

        # independent recurrence
        m = np.zeros(3); v = np.zeros(3); want = theta.copy()
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want = want - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

        tensors = {"w": theta}
        state = AdamState.zeros_like(tensors, b1, b2, eps)
        out = adam_step(tensors, {"w": g1}, state, lr)
        out = adam_step(out, {"w": g2}, state, lr)
        np.testing.assert_allclose(out["w"], want, atol=1e-12)

    def test_nan_gradient_aborts_naming_parameter(self):
        tensors = {"lstm.w_i": np.zeros(2)}
        state = AdamState.zeros_like(tensors)
        with pytest.raises(NumericsError, match="lstm.w_i"):
            adam_step(tensors, {"lstm.w_i": np.array([1.0, np.nan])}, state, 0.1)

    def test_shapes_preserved(self):
        rng = np.random.default_rng(1)
        tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 7))}
        state = AdamState.zeros_like(tensors)
        out = adam_step(tensors, {n: rng.normal(size=a.shape) for n, a in tensors.items()},
                        state, 0.1)
        assert {n: a.shape for n, a in out.items()} == \
               {n: a.shape for n, a in tensors.items()}


class TestSchedule:
    def test_improving_forever_never_acts(self):
        s = ScheduleState()
        for i in range(50):
            assert schedule_update(s, 100.0 - i) == "none"
        assert s.lr == 0.1 and s.batch_size == 16

    def test_halving_sequence_and_growth_crossing(self):
        # closed form: lr after k halvings is 0.1 / 2^k; the first k with
        # 0.1 / 2^k < 1e-7 is k = 20, so plateaus 1..19 halve and the 20th grows
        ks = np.arange(0, 25)
        first_below = int(np.argmax(0.1 / 2.0 ** ks < 1e-7))
        assert first_below == 20

        s = ScheduleState(patience=1)
        assert schedule_update(s, 1.0) == "none"  # first epoch sets the baseline
        actions = []
        for _ in range(first_below):
            actions.append(schedule_update(s, 1.0))  # constant loss: plateau
        assert actions[:-1] == ["halve_lr"] * (first_below - 1)
        assert actions[-1] == "grow_batch_reset_lr"
        assert s.batch_size == 32
        assert s.lr == 0.1
        assert s.grow_cycles == 1
        # lr trajectory checked against the closed form at the crossing
        s2 = ScheduleState(patience=1)
        schedule_update(s2, 1.0)
        for k in range(1, first_below):
            schedule_update(s2, 1.0)
            assert s2.lr == pytest.approx(0.1 / 2.0 ** k, rel=0, abs=0)
        assert s2.lr >= 1e-7

    def test_patience_counts_epochs(self):
        s = ScheduleState(patience=3)
        assert schedule_update(s, 1.0) == "none"   # first call sets best
        assert schedule_update(s, 1.0) == "none"
        assert schedule_update(s, 1.0) == "none"
        assert schedule_update(s, 1.0) == "halve_lr"

    def test_improvement_resets_counter(self):
        s = ScheduleState(patience=2)
        schedule_update(s, 1.0)
        assert schedule_update(s, 1.0) == "none"
        assert schedule_update(s, 0.5) == "none"      # improvement
        assert schedule_update(s, 0.5) == "none"
        assert schedule_update(s, 0.5) == "halve_lr"  # plateau again

    def test_relative_tolerance(self):
        s = ScheduleState(patience=1, tol=1e-4)
        schedule_update(s, 1.0)
        # 0.99995 is within 1e-4 relative: not an improvement
        assert schedule_update(s, 0.99995) == "halve_lr"
        assert s.best_loss == 1.0

    def test_grow_preserves_doubling_ladder(self):
        s = ScheduleState(patience=1, lr=2e-7, batch_size=64)
        assert schedule_update(s, 1.0) == "none"
        assert schedule_update(s, 1.0) == "halve_lr"
        assert s.lr == pytest.approx(1e-7)
        assert schedule_update(s, 1.0) == "grow_batch_reset_lr"
        assert s.batch_size == 128 and s.lr == 0.1


def tiny_dataset(rng, n_records, f_dim, vocab_tokens, caption_len=4):
    """Synthetic records with distinct single captions and random features."""
    table = FeatureTable(f_dim)
    records = []
    seen = set()
    for i in range(n_records):
        rid = f"r{i:03d}"
        table.add(rid, rng.normal(size=f_dim).astype(np.float32))
        while True:
            caption = " ".join(rng.choice(vocab_tokens, size=caption_len))
            if caption not in seen:
                seen.add(caption)
                break
        records.append(DatasetRecord(rid, rid, [caption]))
    return records, table


def stable_tokens(rng, count):
    """Lowercase tokens that normalize to themselves (stemmer fixed points)."""
    out = []
    while len(out) < count:
        word = "".join(rng.choice(list("bcdfghjklmnpqrtvwz")) for _ in range(2)) \
            + rng.choice(list("aeiou")) + rng.choice(list("bcdfghjklmn"))
        toks = normalize(word)
        if toks == [word] and word not in out:
            out.append(word)
    return out


@pytest.fixture(scope="module")
def small_training_setup():
    rng = np.random.default_rng(7)
    tokens = stable_tokens(rng, 20)
    records, table = tiny_dataset(rng, 12, 6, tokens)
    vocab = build_vocab([normalize(c) for r in records for c in r.captions], min_freq=1)
    dims = ModelDims(vocab_size=vocab.size, embed_dim=5, hidden_dim=8,
                     feature_dim=6)
    cfg = TrainConfig(
        dims=dims, loss=LossConfig(alpha=0.05), seq_len=6, seed=3,
        batch_size=4, max_epochs=8, max_grow_cycles=2)
    data = TrainingData(records, table, vocab)
    return data, cfg


class TestTrainLoop:
    def test_single_record_rejected(self):
        rng = np.random.default_rng(2)
        tokens = stable_tokens(rng, 5)
        records, table = tiny_dataset(rng, 1, 4, tokens)
        vocab = build_vocab([normalize(c) for r in records for c in r.captions], 1)
        dims = ModelDims(vocab.size, 3, 4, 4)
        cfg = TrainConfig(dims=dims, loss=LossConfig(alpha=0.1), seq_len=4, max_epochs=1)
        params = ModelParams.init(dims, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2"):
            train(TrainingData(records, table, vocab), params, cfg)

    def test_fixed_seed_reproducible(self, small_training_setup):
        data, cfg = small_training_setup
        runs = []
        for _ in range(2):
            params = ModelParams.init(
                cfg.dims, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
            runs.append(train(data, params, cfg))
        a, b = runs
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
        strip = lambda log: [{k: v for k, v in e.items() if k != "wall_ms"} for e in log]
        assert strip(a.log) == strip(b.log)

    def test_epoch_loss_nonnegative_and_logged(self, small_training_setup):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        result = train(data, params, cfg)
        assert len(result.log) >= 1
        for entry in result.log:
            assert entry["loss"] >= 0.0
            assert entry["batch_size"] in (4, 8, 16)
            assert 0 < entry["lr"] <= 0.1
            assert set(entry) == {"epoch", "loss", "lr", "batch_size",
                                  "val_r1_sent", "val_r1_img", "wall_ms"}

    def test_non_finite_loss_aborts(self, small_training_setup):
        # overflowing image embeddings give a nan loss before any gradient
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        tensors = dict(params.tensors)
        tensors["image.w2"] = tensors["image.w2"] * 1e160
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="loss"):
            train(data, params.with_tensors(tensors), cfg)

    def test_tail_batch_of_one_dropped(self):
        # 5 pairs with batch 2 leaves a tail of 1, which must be skipped
        rng = np.random.default_rng(3)
        tokens = stable_tokens(rng, 10)
        records, table = tiny_dataset(rng, 5, 4, tokens)
        vocab = build_vocab([normalize(c) for r in records for c in r.captions], 1)
        dims = ModelDims(vocab.size, 3, 4, 4)
        cfg = TrainConfig(dims=dims, loss=LossConfig(alpha=0.05), seq_len=4,
                          batch_size=2, max_epochs=2, seed=1)
        params = ModelParams.init(dims, np.random.default_rng(0))
        result = train(TrainingData(records, table, vocab), params, cfg)
        assert len(result.log) >= 1  # just has to survive the ragged tail


class TestCheckpointResume:
    def test_round_trip_and_zero_step_resume(self, small_training_setup, tmp_path):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, cfg)
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)
        ck = load_checkpoint(p)
        params2, adam2, schedule2 = restore_training_state(ck, cfg.dims, cfg)
        for name in result.params.tensors:
            np.testing.assert_array_equal(
                params2.tensors[name], result.params.tensors[name])
            np.testing.assert_array_equal(adam2.m[name], result.adam.m[name])
            np.testing.assert_array_equal(adam2.v[name], result.adam.v[name])
        assert adam2.t == result.adam.t
        assert schedule2.lr == result.schedule.lr
        assert schedule2.batch_size == result.schedule.batch_size
        assert schedule2.best_loss == result.schedule.best_loss
        assert schedule2.grow_cycles == result.schedule.grow_cycles

        # resume for 0 epochs: metrics identical to the final logged ones
        from xmodal.evaluation import evaluate_records
        reports = evaluate_records(data.records, data.features, data.vocab,
                                   params2, cfg.seq_len)
        assert reports["sentence_retrieval"].overall.r_at[1] == \
            result.log[-1]["val_r1_sent"]
        assert reports["image_retrieval"].overall.r_at[1] == \
            result.log[-1]["val_r1_img"]

    def test_dim_mismatch_rejected(self, small_training_setup, tmp_path):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, cfg)
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)
        ck = load_checkpoint(p)
        bigger = ModelDims(cfg.dims.vocab_size, cfg.dims.embed_dim,
                           cfg.dims.hidden_dim * 2, cfg.dims.feature_dim)
        from dataclasses import replace
        with pytest.raises(DataFormatError, match="shape"):
            restore_training_state(ck, bigger, replace(cfg, dims=bigger))

    def test_resume_continues(self, small_training_setup, tmp_path):
        data, cfg = small_training_setup
        from dataclasses import replace
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, replace(cfg, max_epochs=2, stop_when_perfect=False))
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)
        ck = load_checkpoint(p)
        more = resume_train(data, ck, replace(cfg, max_epochs=2, stop_when_perfect=False))
        assert len(more.log) == 2
        assert more.adam.t > result.adam.t


class TestPreparePairs:
    def test_individual_vs_concat(self, small_training_setup):
        data, cfg = small_training_setup
        recs = [DatasetRecord("a", data.records[0].feature_ref, ["one cap", "two cap"]),
                DatasetRecord("b", data.records[1].feature_ref, ["three cap"])]
        ids_ind, feats_ind = prepare_pairs(recs, data.features, data.vocab, 6,
                                           "individual")
        assert len(ids_ind) == 3
        ids_cat, feats_cat = prepare_pairs(recs, data.features, data.vocab, 6, "concat")
        assert len(ids_cat) == 2

    def test_unknown_mode(self, small_training_setup):
        data, _ = small_training_setup
        with pytest.raises(ValueError, match="caption_mode"):
            prepare_pairs(data.records, data.features, data.vocab, 6, "both")


class TestGridSearch:
    def test_single_point_returned(self, small_training_setup):
        data, cfg = small_training_setup
        from dataclasses import replace
        quick = replace(cfg, max_epochs=2)
        best, results = grid_search({"alpha": [0.05]}, data, quick)
        assert len(results) == 1
        assert best.loss.alpha == 0.05

    def test_dead_lr_config_loses(self, small_training_setup):
        data, cfg = small_training_setup
        from dataclasses import replace
        quick = replace(cfg, max_epochs=6, max_grow_cycles=1)
        best, results = grid_search({"lr_init": [0.0, 0.02]}, data, quick)
        assert best.lr_init == 0.02
        scores = {r["lr_init"]: r["score"] for r in results}
        assert scores[0.02] > scores[0.0]

    def test_adding_strictly_worse_point_never_changes_winner(self, small_training_setup):
        data, cfg = small_training_setup
        from dataclasses import replace
        quick = replace(cfg, max_epochs=3)
        best_small, _ = grid_search({"lr_init": [0.02]}, data, quick)
        best_grown, results = grid_search({"lr_init": [0.02, 0.0]}, data, quick)
        assert best_grown.lr_init == best_small.lr_init

    def test_empty_grid_rejected(self, small_training_setup):
        data, cfg = small_training_setup
        with pytest.raises(ValueError):
            grid_search({}, data, cfg)
