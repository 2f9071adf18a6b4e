"""Optimizer, schedule, and training-loop tests."""

import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal import evaluation as ev
from xmodal import training
from xmodal.io import DataFormatError, FeatureTable, load_checkpoint, save_checkpoint
from xmodal.loss import LossConfig, batch_loss
from xmodal.model import ModelDims, ModelParams, encode_image_batch, encode_text_batch
from xmodal.io import DatasetRecord
from xmodal.text import build_vocab, normalize
from xmodal.training import (
    ADAM_BLOCK,
    AdamState,
    NumericsError,
    ScheduleState,
    TrainConfig,
    TrainingData,
    adam_step,
    prepare_pairs,
    restore_training_state,
    resume_train,
    save_training_checkpoint,
    schedule_update,
    train,
)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        tensors = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {"w": np.zeros(3)}, state, lr=0.1)
        np.testing.assert_array_equal(tensors["w"], [1.0, -2.0, 3.0])
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        g = np.array([0.3, -0.7, 2.0])
        tensors = {"w": np.zeros(3)}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {"w": g}, state, lr=0.05)
        # m_hat = g, v_hat = g^2: update = -lr * g / (|g| + eps)
        np.testing.assert_allclose(tensors["w"], -0.05 * np.sign(g), rtol=1e-6)

    @pytest.mark.parametrize("shape, order", [
        ((3,), "C"),
        ((ADAM_BLOCK,), "C"),
        ((2 * ADAM_BLOCK + 5,), "C"),  # two full blocks and a partial one
        # flattening an array not in C order makes a copy, which must not
        # swallow the update
        ((129, 131), "F"),
    ], ids=["3", "one-block", "two-blocks-and-5", "fortran-2d"])
    def test_two_steps_match_hand_rolled_recurrence(self, shape, order):
        rng = np.random.default_rng(0)
        theta = np.asarray(rng.normal(size=shape), order=order)
        g1, g2 = rng.normal(size=shape), rng.normal(size=shape)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01

        # independent whole-array recurrence, in the same order of operations:
        # Kingma & Ba's efficient order, with the bias corrections in the
        # step size and in eps_hat
        m = np.zeros(shape); v = np.zeros(shape); want = theta.copy()
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            step = lr * np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
            want = want - step * m / (np.sqrt(v) + eps * np.sqrt(1 - b2 ** t))

        tensors = {"w": theta}
        state = AdamState.zeros_like(tensors)
        moments = state.m["w"], state.v["w"]
        assert adam_step(tensors, {"w": g1}, state, lr) is None
        adam_step(tensors, {"w": g2}, state, lr)
        # blocking changes no bit
        np.testing.assert_array_equal(tensors["w"], want)
        # the parameters and the moments are updated in place
        assert tensors["w"] is theta
        assert state.m["w"] is moments[0] and state.v["w"] is moments[1]
        np.testing.assert_array_equal(state.m["w"], m)
        np.testing.assert_array_equal(state.v["w"], v)

    def test_tracks_the_textbook_update_within_a_stated_bound(self):
        # Textbook Adam: theta -= lr * m_hat / (sqrt(v_hat) + eps). The moments
        # are the same recurrence, so they keep every bit. The efficient
        # order is the same update in real arithmetic. Per step and entry, the
        # two updates each round about a dozen times, so they differ by at
        # most 16 eps |update|, and each side rounds theta - update once,
        # half an ulp of theta. A run of n steps stays within
        # n * (spacing(max |theta|) + 16 eps max |update|) of the textbook.
        rng = np.random.default_rng(7)
        shape, n, lr = (2 * ADAM_BLOCK + 5,), 50, 0.01
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        theta = rng.normal(size=shape)
        m = np.zeros(shape); v = np.zeros(shape); want = theta.copy()
        tensors = {"w": theta}
        state = AdamState.zeros_like(tensors)
        bound = 0.0
        for t in range(1, n + 1):
            # gradients from 1e-12 to 10 in size, so that sqrt(v_hat) runs
            # from far below eps to far above it
            g = rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 1, size=shape)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            update = lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            want = want - update
            adam_step(tensors, {"w": g}, state, lr)
            top = max(np.abs(want).max(), np.abs(theta).max())
            bound += np.spacing(top) + 16 * np.finfo(float).eps * np.abs(update).max()
        np.testing.assert_array_equal(state.m["w"], m)
        np.testing.assert_array_equal(state.v["w"], v)
        assert np.abs(theta - want).max() <= bound

    def test_gradient_check_allocates_one_block(self):
        # the check reduces each gradient to one sum of squares, so on a
        # 2^20-entry gradient it allocates nothing of the gradient's size,
        # and a step adds only the two float64 scratch blocks of the update
        size, slack = (1 << 20) + 7, 16 << 10
        tensors = {"w": np.zeros(size)}
        state = AdamState.zeros_like(tensors)
        g = np.ones(size)
        g[-1] = np.inf  # the check reads the whole gradient, then raises
        tracemalloc.start()
        try:
            with pytest.raises(NumericsError):
                adam_step(tensors, {"w": g}, state, 0.1)
            check_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            g[-1] = 1.0
            adam_step(tensors, {"w": g}, state, 0.1)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check_peak <= slack
        assert step_peak <= 2 * 8 * ADAM_BLOCK + slack

    @staticmethod
    def _two_tensors_after_one_step(shape):
        """Tensors 'lstm.u' and 'lstm.w', the Adam state after one step, and
        a copy of theta, m and v to compare with after a rejected step."""
        tensors = {"lstm.u": np.ones(3), "lstm.w": np.zeros(shape)}
        state = AdamState.zeros_like(tensors)
        adam_step(tensors, {"lstm.u": np.ones(3), "lstm.w": np.ones(shape)}, state, 0.1)
        before = [{n: a.copy() for n, a in d.items()} for d in (tensors, state.m, state.v)]
        return tensors, state, before

    @staticmethod
    def _assert_untouched(tensors, state, before):
        assert state.t == 1
        for arrays, was in zip((tensors, state.m, state.v), before):
            assert arrays.keys() == was.keys()
            for name, a in was.items():
                np.testing.assert_array_equal(arrays[name], a)

    def test_nan_gradient_aborts_naming_parameter(self):
        # the check reads every entry: a NaN in the last entry of the second
        # tensor, of 2 entries or of several update blocks, stops the step
        # before anything is written
        for size in (2, 2 * ADAM_BLOCK + 5):
            tensors, state, before = self._two_tensors_after_one_step(size)
            bad = np.ones(size)
            bad[-1] = np.nan
            with pytest.raises(NumericsError, match="'lstm.w'"):
                adam_step(tensors, {"lstm.u": np.ones(3), "lstm.w": bad}, state, 0.1)
            # the first tensor's update did not start either
            self._assert_untouched(tensors, state, before)

    @pytest.mark.parametrize("big", [1e200, -1e200, 1e154 * np.ones(2)])
    def test_overflowing_gradient_aborts_naming_parameter(self, big):
        # finite entries whose sum of squares overflows. At 1e200, v would
        # take (1 - beta2) * 1e400 = +inf and stay there. Two entries of
        # 1e154 have finite squares but a norm of 1.41e154: the check
        # rejects them before v could overflow.
        tensors, state, before = self._two_tensors_after_one_step(2)
        bad = np.zeros(2)
        bad[-np.size(big):] = big
        assert np.isfinite(bad).all()
        with pytest.raises(NumericsError, match="'lstm.w'"):
            adam_step(tensors, {"lstm.u": np.ones(3), "lstm.w": bad}, state, 0.1)
        self._assert_untouched(tensors, state, before)

    def test_largest_accepted_gradient_keeps_v_finite(self):
        # a norm of 1.3e154 still passes, and v stays finite
        tensors, state, _ = self._two_tensors_after_one_step(2)
        adam_step(tensors, {"lstm.u": np.ones(3), "lstm.w": np.array([0.0, 1.3e154])},
                  state, 0.1)
        assert state.t == 2 and np.isfinite(state.v["lstm.w"]).all()

    @pytest.mark.parametrize("grads, match", [
        ({"lstm.u": np.ones(3)}, r"names differ in \['lstm.w'\]"),
        ({"lstm.u": np.ones(3), "lstm.w": np.ones((2, 3)), "lstm.b": np.ones(2)},
         r"names differ in \['lstm.b'\]"),
        # as many entries as the parameter, but not its layout: applied, it
        # would move the wrong entries
        ({"lstm.u": np.ones(3), "lstm.w": np.ones((3, 2))},
         r"'lstm.w' has shape \(3, 2\), the parameter \(2, 3\)"),
    ], ids=["missing", "extra", "other-shape"])
    def test_gradients_must_match_the_parameters(self, grads, match):
        # checked before any write: the first tensor's update does not start
        tensors, state, before = self._two_tensors_after_one_step((2, 3))
        with pytest.raises(ValueError, match=match):
            adam_step(tensors, grads, state, 0.1)
        self._assert_untouched(tensors, state, before)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1e-3])
    def test_non_finite_or_negative_lr_rejected(self, lr):
        tensors = {"w": np.ones(3)}
        state = AdamState.zeros_like(tensors)
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            adam_step(tensors, {"w": np.ones(3)}, state, lr)
        assert state.t == 0

    def test_shapes_preserved(self):
        rng = np.random.default_rng(1)
        tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 7))}
        state = AdamState.zeros_like(tensors)
        before = dict(tensors)
        adam_step(tensors, {n: rng.normal(size=a.shape) for n, a in tensors.items()},
                  state, 0.1)
        assert all(tensors[n] is a for n, a in before.items())
        assert {n: a.shape for n, a in tensors.items()} == {"a": (3, 4), "b": (1, 7)}


class TestSchedule:
    def test_improving_forever_never_acts(self):
        s = ScheduleState(lr=0.1)
        for i in range(50):
            assert schedule_update(s, 100.0 - i, 0.1) == "none"
        assert s.lr == 0.1 and s.batch_size == 16

    def test_halving_sequence_and_growth_crossing(self, monkeypatch):
        # closed form: lr after k halvings is 0.1 / 2^k; the first k with
        # 0.1 / 2^k < 1e-7 is k = 20, so plateaus 1..19 halve and the 20th grows
        ks = np.arange(0, 25)
        first_below = int(np.argmax(0.1 / 2.0 ** ks < 1e-7))
        assert first_below == 20

        monkeypatch.setattr(training, "PATIENCE", 1)
        s = ScheduleState(lr=0.1)
        assert schedule_update(s, 1.0, 0.1) == "none"  # first epoch sets the baseline
        actions = []
        for _ in range(first_below):
            actions.append(schedule_update(s, 1.0, 0.1))  # constant loss: plateau
        assert actions[:-1] == ["halve_lr"] * (first_below - 1)
        assert actions[-1] == "grow_batch_reset_lr"
        assert s.batch_size == 32
        assert s.lr == 0.1
        assert s.grow_cycles == 1
        # lr trajectory checked against the closed form at the crossing
        s2 = ScheduleState(lr=0.1)
        schedule_update(s2, 1.0, 0.1)
        for k in range(1, first_below):
            schedule_update(s2, 1.0, 0.1)
            assert s2.lr == pytest.approx(0.1 / 2.0 ** k, rel=0, abs=0)
        assert s2.lr >= 1e-7

    def test_patience_counts_epochs(self):
        assert training.PATIENCE == 3
        s = ScheduleState()
        assert schedule_update(s, 1.0, 0.1) == "none"   # first call sets best
        assert schedule_update(s, 1.0, 0.1) == "none"
        assert schedule_update(s, 1.0, 0.1) == "none"
        assert schedule_update(s, 1.0, 0.1) == "halve_lr"

    def test_improvement_resets_counter(self, monkeypatch):
        monkeypatch.setattr(training, "PATIENCE", 2)
        s = ScheduleState()
        schedule_update(s, 1.0, 0.1)
        assert schedule_update(s, 1.0, 0.1) == "none"
        assert schedule_update(s, 0.5, 0.1) == "none"      # improvement
        assert schedule_update(s, 0.5, 0.1) == "none"
        assert schedule_update(s, 0.5, 0.1) == "halve_lr"  # plateau again

    def test_relative_tolerance(self, monkeypatch):
        monkeypatch.setattr(training, "PATIENCE", 1)
        assert training.IMPROVE_TOL == 1e-4
        s = ScheduleState()
        schedule_update(s, 1.0, 0.1)
        # 0.99995 is within 1e-4 relative: not an improvement
        assert schedule_update(s, 0.99995, 0.1) == "halve_lr"
        assert s.best_loss == 1.0

    def test_grow_preserves_doubling_ladder(self, monkeypatch):
        monkeypatch.setattr(training, "PATIENCE", 1)
        s = ScheduleState(lr=2e-7, batch_size=64)
        assert schedule_update(s, 1.0, 0.1) == "none"
        assert schedule_update(s, 1.0, 0.1) == "halve_lr"
        assert s.lr == pytest.approx(1e-7)
        assert schedule_update(s, 1.0, 0.1) == "grow_batch_reset_lr"
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
        batch_size=4, max_epochs=8)
    data = TrainingData(records, table, vocab, records)
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
            train(TrainingData(records, table, vocab, records), params, cfg)

    def test_fixed_seed_reproducible(self, small_training_setup):
        # both runs start from one parameter object, which train leaves as it was
        data, cfg = small_training_setup
        params = ModelParams.init(
            cfg.dims, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
        before = {n: a.copy() for n, a in params.tensors.items()}
        a, b = train(data, params, cfg), train(data, params, cfg)
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
            np.testing.assert_array_equal(params.tensors[name], before[name])
            assert params.tensors[name].dtype == before[name].dtype
        strip = lambda log: [{k: v for k, v in e.items() if k != "wall_ms"} for e in log]
        assert strip(a.log) == strip(b.log)

    def test_epoch_loss_nonnegative_and_logged(self, small_training_setup, monkeypatch):
        data, cfg = small_training_setup
        evals, evaluate = [], training.evaluate_records
        monkeypatch.setattr(training, "evaluate_records",
                            lambda *a, **k: evals.append(1) or evaluate(*a, **k))
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        result = train(data, params, cfg)
        assert len(result.log) >= 1
        assert len(evals) == len(result.log)  # one evaluation per logged epoch
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
            train(data, ModelParams(cfg.dims, tensors), cfg)

    def test_non_finite_image_embedding_is_named(self, small_training_setup):
        # finite but huge weights overflow the image MLP before a loss is formed
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        tensors = dict(params.tensors)
        tensors["image.w1"] = tensors["image.w1"] * 1e200
        tensors["image.w2"] = tensors["image.w2"] * 1e200
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="image"):
            train(data, ModelParams(cfg.dims, tensors), cfg)

    def test_infinite_text_embedding_stops_before_the_penalty(self, small_training_setup,
                                                             monkeypatch):
        # the order-penalty kernel takes finite rows only: +inf in a caption
        # row against a finite image row gives NaN, not max(0, y - x) = 0
        data, cfg = small_training_setup
        encode = training.encode_text_batch

        def infinite(token_ids, params):
            v = encode(token_ids, params)
            v.data[0, 0] = np.inf
            return v

        def no_penalty(*args):
            raise AssertionError("a penalty was formed from a non-finite embedding")

        monkeypatch.setattr(training, "encode_text_batch", infinite)
        monkeypatch.setattr(training, "batch_loss", no_penalty)
        with pytest.raises(NumericsError, match="^non-finite text embedding batch$"):
            train(data, ModelParams.init(cfg.dims, np.random.default_rng(1)), cfg)

    def test_empty_val_records_rejected_before_a_step(self, small_training_setup,
                                                      monkeypatch):
        data, cfg = small_training_setup

        def no_step(*args):
            raise AssertionError("a step ran before val_records was checked")

        monkeypatch.setattr(training, "_batch_step", no_step)
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        with pytest.raises(ValueError, match="val_records is empty"):
            train(replace(data, val_records=[]), params, cfg)

    def test_unknown_val_feature_rejected_before_a_step(self, small_training_setup,
                                                        monkeypatch):
        data, cfg = small_training_setup

        def no_step(*args):
            raise AssertionError("a step ran before val_records' features were checked")

        monkeypatch.setattr(training, "_batch_step", no_step)
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        stray = DatasetRecord("v0", "missing", ["a caption"])
        with pytest.raises(DataFormatError,
                           match="record 'v0' references unknown feature 'missing'"):
            train(replace(data, val_records=[*data.val_records, stray]), params, cfg)

    @pytest.mark.parametrize("field, value", [
        ("lr_init", np.nan), ("lr_init", np.inf), ("lr_init", -1e-3),
        ("batch_size", 1), ("seq_len", 0),
        ("seed", -1), ("seed", 1.5), ("seed", True), ("batch_size", 16.0),
        ("seq_len", 8.0), ("max_epochs", 2.5),
    ], ids=["nan-lr", "infinite-lr", "negative-lr", "batch-of-one", "zero-seq-len",
            "negative-seed", "fractional-seed", "bool-seed", "float-batch-size",
            "float-seq-len", "fractional-max-epochs"])
    def test_bad_config_rejected_by_name(self, small_training_setup, field, value):
        _, cfg = small_training_setup
        with pytest.raises(ValueError, match=f"^{field} must be"):
            replace(cfg, **{field: value})

    def test_numpy_integer_sizes_accepted(self, small_training_setup):
        _, cfg = small_training_setup
        cfg = replace(cfg, seed=np.int64(3), batch_size=np.int32(4), max_epochs=np.uint8(2))
        assert (cfg.seed, cfg.batch_size, cfg.max_epochs) == (3, 4, 2)

    def test_zero_epochs_rejected(self, small_training_setup):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        with pytest.raises(ValueError, match="max_epochs"):
            train(data, params, replace(cfg, max_epochs=0))

    def test_step_forward_records_every_op_kind(self, small_training_setup):
        # an op kind that no training forward records has no caller
        data, cfg = small_training_setup
        token_ids, feats = prepare_pairs(data.records, data.features, data.vocab,
                                         cfg.seq_len)
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        tape = ad.Tape()
        p = params.as_tracked(tape)
        batch_loss(encode_text_batch(token_ids[:4], p), encode_image_batch(feats[:4], p),
                   cfg.loss)
        kinds = {node.kind for node in tape.nodes}
        assert kinds - {"leaf"} == set(ad.OP_TABLE)

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
        result = train(TrainingData(records, table, vocab, records), params, cfg)
        assert len(result.log) >= 1  # just has to survive the ragged tail


class TestCheckpointResume:
    def test_round_trip_and_zero_step_resume(self, small_training_setup, tmp_path):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, cfg)
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)
        ck = load_checkpoint(p)
        params2, adam2, schedule2 = restore_training_state(ck, cfg)
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

    def test_every_schedule_field_survives_a_checkpoint(self, small_training_setup,
                                                        tmp_path):
        # a field the checkpoint leaves out would come back at its default
        _, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        schedule = ScheduleState(**{f.name: f.default + 1 if np.isfinite(f.default) else 2.5
                                    for f in fields(ScheduleState)})
        p = tmp_path / "ckpt.bin"
        adam = AdamState.zeros_like(params.tensors)
        save_training_checkpoint(p, params, adam, schedule)
        _, _, restored = restore_training_state(load_checkpoint(p), cfg)
        assert restored == schedule

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
            restore_training_state(ck, replace(cfg, dims=bigger))

    def test_resume_twice_from_one_checkpoint_object(self, small_training_setup):
        # adam_step updates the moments in place, so restore must not alias them
        data, cfg = small_training_setup
        quick = replace(cfg, max_epochs=2)
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, quick)
        ck = training.checkpoint_tensors(result.params, result.adam, result.schedule)
        before = {n: a.copy() for n, a in ck.items()}
        # max_epochs counts the whole run, so each resume runs epochs 3 and 4
        more = replace(quick, max_epochs=4)
        a, b = resume_train(data, ck, more), resume_train(data, ck, more)
        assert [e["epoch"] for e in a.log] == [3, 4]
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
        for name in before:
            np.testing.assert_array_equal(ck[name], before[name])

    @staticmethod
    def _checkpoint(small_training_setup):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        adam = AdamState.zeros_like(params.tensors)
        return cfg, training.checkpoint_tensors(params, adam,
                                                ScheduleState(lr=0.1, batch_size=4))

    def test_missing_schedule_tensor_rejected(self, small_training_setup):
        cfg, ck = self._checkpoint(small_training_setup)
        del ck["schedule.best_loss"]
        with pytest.raises(DataFormatError, match="missing tensor 'schedule.best_loss'"):
            restore_training_state(ck, cfg)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_moment_shape_mismatch_rejected(self, small_training_setup, moment):
        # a (1, j) moment for the (f, j) image.w1 would broadcast in adam_step
        cfg, ck = self._checkpoint(small_training_setup)
        key = f"adam.{moment}.image.w1"
        ck[key] = ck[key][:1]
        with pytest.raises(DataFormatError, match=f"'{key}' has shape"):
            restore_training_state(ck, cfg)

    def test_per_gate_checkpoint_rejected(self, small_training_setup):
        # the layout with one w, u and b per gate has no reader
        cfg, ck = self._checkpoint(small_training_setup)
        for kind in "wub":
            for prefix in ("", "adam.m.", "adam.v."):
                fused = ck.pop(f"{prefix}lstm.{kind}")
                for gate, block in zip("ifgo", np.split(fused, 4, axis=1)):
                    ck[f"{prefix}lstm.{kind}_{gate}"] = block
        with pytest.raises(DataFormatError, match="missing tensor 'lstm.w'"):
            restore_training_state(ck, cfg)

    def test_resume_continues(self, small_training_setup, tmp_path):
        data, cfg = small_training_setup
        from dataclasses import replace
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, replace(cfg, max_epochs=2))
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)
        ck = load_checkpoint(p)
        more = resume_train(data, ck, replace(cfg, max_epochs=4))
        assert len(more.log) == 2
        assert more.adam.t > result.adam.t

    def test_resume_with_batch_of_one_rejected(self, small_training_setup, tmp_path):
        # a batch of one has no negatives, so every batch would be skipped
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        adam = AdamState.zeros_like(params.tensors)
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, params, adam, ScheduleState(batch_size=1))
        with pytest.raises(ValueError, match="batch_size must be >= 2, got 1"):
            resume_train(data, load_checkpoint(p), cfg)

    @pytest.mark.parametrize("key, value", [
        ("schedule.grow_cycles", -1.0), ("schedule.epoch", 2.5), ("adam.t", np.nan),
        ("schedule.batch_size", 2.0**53), ("schedule.lr", np.nan), ("schedule.lr", -0.1),
        ("schedule.best_loss", np.nan), ("schedule.best_loss", -np.inf),
        ("schedule.best_loss", -1.0), ("schedule.perfect_fit", 2.0),
    ], ids=["negative-count", "fractional-count", "nan-count", "count-at-2**53",
            "nan-lr", "negative-lr", "nan-best-loss", "minus-infinite-best-loss",
            "negative-best-loss", "perfect-fit-not-0-or-1"])
    def test_bad_scalar_rejected_by_name(self, small_training_setup, key, value):
        # the counts are read back from float64 tensors, so restore checks them
        cfg, ck = self._checkpoint(small_training_setup)
        ck[key] = np.array([value])
        with pytest.raises(DataFormatError, match=f"'{key}' holds"):
            restore_training_state(ck, cfg)

    @pytest.mark.parametrize("moment, value", [("m", np.nan), ("v", -1.0), ("v", np.inf)],
                             ids=["nan-m", "negative-v", "infinite-v"])
    def test_corrupt_adam_moment_rejected(self, small_training_setup, tmp_path,
                                          moment, value):
        data, cfg = small_training_setup
        one_batch = replace(cfg, max_epochs=1, batch_size=len(data.records))
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, one_batch)
        ck = training.checkpoint_tensors(result.params, result.adam, result.schedule)
        key = f"adam.{moment}.image.w2"
        ck[key] = ck[key].copy()
        ck[key][0, 0] = value
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, ck)
        with pytest.raises(DataFormatError, match=f"'{key}' holds"):
            resume_train(data, load_checkpoint(p), replace(one_batch, max_epochs=2))

    @staticmethod
    def _assert_same_run(a, b, b_log):
        for name in a.params.tensors:
            for x, y in ((a.params.tensors, b.params.tensors), (a.adam.m, b.adam.m),
                         (a.adam.v, b.adam.v)):
                assert x[name].dtype == y[name].dtype
                assert np.array_equal(x[name], y[name]), name
        assert a.adam.t == b.adam.t
        assert a.schedule == b.schedule
        strip = lambda log: [{k: v for k, v in e.items() if k != "wall_ms"} for e in log]
        assert strip(a.log) == strip(b_log)
        assert a.stop_reason == b.stop_reason

    def _split_run(self, data, cfg, first, tmp_path):
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        straight = train(data, params, cfg)
        head = train(data, params, replace(cfg, max_epochs=first))
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, head.params, head.adam, head.schedule)
        tail = resume_train(data, load_checkpoint(p), cfg)
        self._assert_same_run(straight, tail, head.log + tail.log)
        return straight

    def test_log_file_holds_every_epoch_and_a_resume_appends(self, small_training_setup,
                                                              tmp_path):
        data, cfg = small_training_setup
        cfg = replace(cfg, max_epochs=4)
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        log_path = tmp_path / "log.jsonl"
        logged = lambda: [json.loads(line) for line in log_path.read_text().splitlines()]
        head = train(data, params, replace(cfg, max_epochs=2), log_path=log_path)
        assert logged() == head.log
        ck = training.checkpoint_tensors(head.params, head.adam, head.schedule)
        tail = resume_train(data, ck, cfg, log_path=log_path)
        assert logged() == head.log + tail.log
        self._assert_same_run(train(data, params, cfg), tail, logged())

    @pytest.mark.parametrize("batch_size", [4, 2])
    def test_resume_is_the_uninterrupted_run(self, small_training_setup, tmp_path,
                                             batch_size):
        data, cfg = small_training_setup
        cfg = replace(cfg, max_epochs=4, batch_size=batch_size)
        straight = self._split_run(data, cfg, 2, tmp_path)
        assert [e["epoch"] for e in straight.log] == [1, 2, 3, 4]

    def test_resume_across_a_batch_doubling(self, small_training_setup, tmp_path,
                                            monkeypatch):
        # at this rate halving would cross LR_FLOOR, so every plateau grows the batch
        monkeypatch.setattr(training, "PATIENCE", 1)
        monkeypatch.setattr(training, "MAX_GROW_CYCLES", 9)
        data, cfg = small_training_setup
        cfg = replace(cfg, max_epochs=6, batch_size=2, lr_init=1.5e-7)
        straight = self._split_run(data, cfg, 3, tmp_path)
        assert [e["batch_size"] for e in straight.log] == [2, 2, 4, 8, 16, 32]

    def test_resuming_a_finished_run_runs_no_epoch(self, small_training_setup, tmp_path,
                                                   monkeypatch):
        data, cfg = small_training_setup
        cfg = replace(cfg, max_epochs=2)
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, cfg)
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)

        def no_step(*args):
            raise AssertionError("a step ran after max_epochs")

        monkeypatch.setattr(training, "_batch_step", no_step)
        again = resume_train(data, load_checkpoint(p), cfg)
        assert again.log == [] and again.stop_reason == "max_epochs"
        assert again.adam.t == result.adam.t and again.schedule == result.schedule
        for name in result.params.tensors:
            assert np.array_equal(again.params.tensors[name], result.params.tensors[name])

    def test_resuming_after_a_perfect_fit_runs_no_epoch(self, small_training_setup,
                                                        tmp_path):
        # one batch of all 12 records fits them at this rate, then the run
        # stops; split after that stop, the resume must stop too
        data, cfg = small_training_setup
        cfg = replace(cfg, lr_init=0.01, batch_size=len(data.records), max_epochs=100)
        straight = self._split_run(data, cfg, 90, tmp_path)
        assert straight.stop_reason == "perfect_fit" and straight.schedule.perfect_fit == 1
        assert straight.log[-1]["epoch"] < 90

    @staticmethod
    def _growing(cfg, monkeypatch, max_grow_cycles):
        # at this rate halving would cross LR_FLOOR, so every plateau grows the batch
        monkeypatch.setattr(training, "PATIENCE", 1)
        monkeypatch.setattr(training, "MAX_GROW_CYCLES", max_grow_cycles)
        return replace(cfg, batch_size=2, lr_init=1.5e-7)

    def test_resuming_after_max_grow_cycles_runs_no_epoch(self, small_training_setup,
                                                          tmp_path, monkeypatch):
        data, cfg = small_training_setup
        cfg = self._growing(cfg, monkeypatch, 2)
        params = ModelParams.init(cfg.dims, np.random.default_rng(11))
        result = train(data, params, cfg)
        assert result.stop_reason == "max_grow_cycles"
        assert [e["epoch"] for e in result.log] == [1, 2, 3]
        assert result.schedule.grow_cycles == 2 and result.adam.t == 15
        p = tmp_path / "ckpt.bin"
        save_training_checkpoint(p, result.params, result.adam, result.schedule)

        def no_step(*args):
            raise AssertionError("a step ran after max_grow_cycles")

        monkeypatch.setattr(training, "_batch_step", no_step)
        again = resume_train(data, load_checkpoint(p), cfg)
        assert again.log == [] and again.stop_reason == "max_grow_cycles"
        assert again.adam.t == result.adam.t and again.schedule == result.schedule
        for name in result.params.tensors:
            assert np.array_equal(again.params.tensors[name], result.params.tensors[name])

    def test_fresh_run_with_no_grow_cycles_runs_its_first_epoch(self, small_training_setup,
                                                               monkeypatch):
        data, cfg = small_training_setup
        cfg = self._growing(cfg, monkeypatch, 0)
        result = train(data, ModelParams.init(cfg.dims, np.random.default_rng(11)), cfg)
        assert [e["epoch"] for e in result.log] == [1]
        assert result.stop_reason == "max_grow_cycles" and result.adam.t > 0


class TestPreparePairs:
    def test_one_pair_per_caption(self, small_training_setup):
        data, cfg = small_training_setup
        recs = [DatasetRecord("a", data.records[0].feature_ref, ["one cap", "two cap"]),
                DatasetRecord("b", data.records[1].feature_ref, ["three cap"])]
        ids, _ = prepare_pairs(recs, data.features, data.vocab, 6)
        assert len(ids) == 3

    def test_missing_feature_names_the_record(self, small_training_setup):
        data, _ = small_training_setup
        recs = [data.records[0], DatasetRecord("rec-7", "missing", ["one cap"])]
        with pytest.raises(DataFormatError,
                           match="record 'rec-7' references unknown feature 'missing'"):
            prepare_pairs(recs, data.features, data.vocab, 6)


class TestSharedRecordPath:
    def test_eval_rows_match_training_pairs(self, small_training_setup, monkeypatch):
        data, cfg = small_training_setup
        recs = [DatasetRecord(r.id, r.feature_ref, r.captions * (1 + i % 3))
                for i, r in enumerate(data.records)]
        seen = {}
        for name in ("encode_text_batch", "encode_image_batch"):
            def spy(rows, *args, _fn=getattr(ev, name), _name=name):
                seen[_name] = rows
                return _fn(rows, *args)
            monkeypatch.setattr(ev, name, spy)
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        _, _, owner = ev.encode_corpus(recs, data.features, data.vocab, params, cfg.seq_len)
        token_ids, feats = prepare_pairs(recs, data.features, data.vocab, cfg.seq_len)
        np.testing.assert_array_equal(
            owner, np.repeat(np.arange(len(recs)), [len(r.captions) for r in recs]))
        np.testing.assert_array_equal(seen["encode_text_batch"], token_ids)
        np.testing.assert_array_equal(seen["encode_image_batch"][owner], feats)

    def test_evaluation_names_a_missing_feature(self, small_training_setup):
        data, cfg = small_training_setup
        recs = [data.records[0], DatasetRecord("rec-7", "missing", ["one cap"])]
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        with pytest.raises(DataFormatError,
                           match="record 'rec-7' references unknown feature 'missing'"):
            ev.evaluate_records(recs, data.features, data.vocab, params, cfg.seq_len)

    def test_evaluating_no_records_says_so(self, small_training_setup):
        data, cfg = small_training_setup
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        with pytest.raises(ValueError, match="nothing to evaluate"):
            ev.evaluate_records([], data.features, data.vocab, params, cfg.seq_len)

    def test_steps_get_each_pairs_rows(self, small_training_setup, monkeypatch):
        # training keeps one feature row per record and gathers a batch's rows
        # through the caption owners; the steps must see prepare_pairs' pairs
        data, cfg = small_training_setup
        caps = [c for r in data.records for c in r.captions]
        recs = [DatasetRecord(r.id, r.feature_ref,
                              [caps[(i + k) % len(caps)] for k in range(1 + i % 3)])
                for i, r in enumerate(data.records)]
        cfg = replace(cfg, max_epochs=1, batch_size=5)
        seen, step = [], training._batch_step

        def spy(token_ids, feats, *args):
            seen.append((token_ids, feats))
            return step(token_ids, feats, *args)

        monkeypatch.setattr(training, "_batch_step", spy)
        params = ModelParams.init(cfg.dims, np.random.default_rng(1))
        train(replace(data, records=recs), params, cfg)

        token_ids, feats = prepare_pairs(recs, data.features, data.vocab, cfg.seq_len)
        order = np.random.default_rng([cfg.seed, 1, 1]).permutation(len(token_ids))
        batches = [order[lo:lo + cfg.batch_size]
                   for lo in range(0, len(order), cfg.batch_size)]
        assert len(token_ids) == 24 and len(seen) == len(batches) == 5
        for (got_ids, got_feats), batch in zip(seen, batches):
            np.testing.assert_array_equal(got_ids, token_ids[batch])
            np.testing.assert_array_equal(got_feats, feats[batch])
