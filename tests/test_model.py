"""Encoder tests: values on hand-built parameters, gradients against FD."""

import numpy as np
import pytest

from reference import finite_diff_check, weighted_sum, zero_params
from xmodal import autodiff as ad
from xmodal import model
from xmodal.autodiff import ShapeError, Tape, Tensor
from xmodal.model import ModelDims, ModelParams

TEST_DIMS = ModelDims(vocab_size=10, embed_dim=8, hidden_dim=16, feature_dim=12)
FD_TOL = 1e-4
FD_STEP = 1e-5


def tracked_zeros(dims):
    return zero_params(dims).as_tracked(None)


def run_lstm(p, ids, embedding=None):
    """The lstm op on the LSTM parameters of `p` (and its or the given embedding)."""
    emb = p["embedding"] if embedding is None else Tensor.const(embedding)
    return ad.lstm(emb, p["lstm.w"], p["lstm.u"], p["lstm.b"], ids)


class TestLstmStep:
    """The recurrence of one or a few steps, through the lstm op.

    The op returns only the last h. Where these tests check the cell, they
    do so through h = o * tanh(c) with o = sigmoid(0) = 0.5, which is zero
    exactly when c is.
    """

    def test_zero_params_give_zero_state(self):
        p = tracked_zeros(TEST_DIMS)
        x = np.random.default_rng(0).normal(size=(3, 8))
        emb = np.concatenate([np.zeros((1, 8)), x, np.zeros((7, 8))])
        h = run_lstm(p, [[1], [2], [3]], emb)
        np.testing.assert_array_equal(h.data, np.zeros((3, 16)))

    def test_forget_bias_alone_keeps_zero_cell(self):
        params = zero_params(TEST_DIMS)
        params.tensors["lstm.b"][:, 16:32] = 1.0  # the f block
        p = ModelParams(TEST_DIMS, params.tensors).as_tracked(None)
        h = run_lstm(p, [[0]])
        np.testing.assert_array_equal(h.data, np.zeros((1, 16)))

    def test_hand_computed_single_unit(self):
        # e = h = 1, every weight 1, biases 0, x = 0.5, h0 = c0 = 0:
        # all gate preactivations are 0.5
        dims = ModelDims(vocab_size=1, embed_dim=1, hidden_dim=1, feature_dim=1)
        tensors = {n: np.ones(s) for n, s in model.param_shapes(dims).items()}
        tensors["lstm.b"] = np.zeros((1, 4))
        tensors["embedding"] = np.array([[0.0], [0.5]])
        p = ModelParams(dims, tensors).as_tracked(None)
        h = run_lstm(p, [[1]])
        sig = 1 / (1 + np.exp(-0.5))
        c_want = sig * np.tanh(0.5)
        h_want = sig * np.tanh(c_want)
        np.testing.assert_allclose(h.data, [[h_want]], atol=1e-15)

    def test_three_step_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        dims = ModelDims(vocab_size=3, embed_dim=4, hidden_dim=5, feature_dim=3)
        shapes = model.param_shapes(dims)
        names = [n for n in shapes if n.startswith("lstm.")]
        xs = [rng.normal(size=(2, 4)) for _ in range(3)]
        # row 1 + 2t + b of the embedding is xs[t][b]
        emb = np.concatenate([np.zeros((1, 4))] + xs)
        ids = [[1, 3, 5], [2, 4, 6]]

        def build(*leaves):
            return ad.reduce_sum(run_lstm(dict(zip(names, leaves)), ids, emb))

        point = [rng.uniform(-0.5, 0.5, shapes[n]) for n in names]
        assert finite_diff_check(build, point, FD_STEP) < FD_TOL

    def test_dimension_mismatch_rejected(self):
        p = tracked_zeros(TEST_DIMS)
        emb = np.zeros((11, 5))  # wrong embed dim
        with pytest.raises(ShapeError):
            run_lstm(p, [[1], [2]], emb)


class TestEncodeText:
    def test_all_padding_zero_params_gives_zero_vector(self):
        params = zero_params(TEST_DIMS)
        ids = np.zeros((1, 5), dtype=np.int64)
        out = model.encode_text_batch(ids, params.as_tracked(None))
        np.testing.assert_array_equal(out.data, np.zeros((1, 16)))

    def test_output_nonnegative(self):
        rng = np.random.default_rng(1)
        params = ModelParams.init(TEST_DIMS, rng)
        ids = rng.integers(0, 11, size=(4, 7))
        out = model.encode_text_batch(ids, params.as_tracked(None))
        assert np.all(out.data >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        params = ModelParams.init(TEST_DIMS, rng)
        ids = rng.integers(0, 11, size=(3, 6))
        a = model.encode_text_batch(ids, params.as_tracked(None)).data
        b = model.encode_text_batch(ids, params.as_tracked(None)).data
        np.testing.assert_array_equal(a, b)

    def test_padding_region_irrelevant_when_padding_row_and_biases_zero(self):
        # trailing padding does not run, so both sequences stop after [1, 2]
        rng = np.random.default_rng(3)
        dims = ModelDims(vocab_size=4, embed_dim=3, hidden_dim=4, feature_dim=2)
        params = ModelParams.init(dims, rng)
        params.tensors["lstm.b"][:] = 0.0
        params.tensors["embedding"][0] = 0.0
        p = params.as_tracked(None)
        a = model.encode_text_batch(np.array([[1, 2, 0, 0, 0]]), p).data
        b = model.encode_text_batch(np.array([[1, 2, 0, 0, 0]]), p).data
        np.testing.assert_array_equal(a, b)
        # two-step toy, hand-walked: state after [1, 2] is the same tensor
        # the 5-step run sees at t=2, then both see identical zero inputs
        h2 = model.encode_text_batch(np.array([[1, 2]]), p).data
        assert h2.shape == (1, 4)

    def test_trailing_padding_leaves_a_caption_unchanged(self):
        # the scan stops at a caption's last real token, so no nonzero bias
        # reaches it through trailing zeros; an interior zero still runs
        rng = np.random.default_rng(4)
        dims = ModelDims(vocab_size=4, embed_dim=3, hidden_dim=4, feature_dim=2)
        params = ModelParams.init(dims, rng)  # forget bias is 1
        p = params.as_tracked(None)
        encode = lambda ids: model.encode_text_batch(np.array(ids), p).data
        short = encode([[1, 2]])
        for padded in ([[1, 2, 0]], [[1, 2, 0, 0, 0]]):
            assert np.array_equal(encode(padded), short)
        assert not np.allclose(encode([[1, 0, 2]]), short)

    @pytest.mark.parametrize("tracked", [False, True])
    def test_caption_alone_equals_its_row_of_any_batch(self, tracked):
        rng = np.random.default_rng(8)
        params = ModelParams.init(TEST_DIMS, rng)
        lengths = [7, 1, 0, 3, 7, 2, 5, 1, 4]
        ids = rng.integers(1, 11, size=(len(lengths), 7))
        for row, length in enumerate(lengths):
            ids[row, length:] = 0
        ids[4] = 3  # one token throughout: a projection of one distinct token
        p = params.as_tracked(Tape() if tracked else None)
        batch = model.encode_text_batch(ids, p).data
        shuffled = rng.permutation(len(ids))
        assert np.array_equal(model.encode_text_batch(ids[shuffled], p).data, batch[shuffled])
        for row in range(len(ids)):
            alone = model.encode_text_batch(ids[row:row + 1], p).data
            assert np.array_equal(alone, batch[row:row + 1])

    @pytest.mark.parametrize("batch", [2, 16])
    @pytest.mark.parametrize("seq_len", [3, 40])
    def test_records_two_tape_nodes(self, batch, seq_len):
        rng = np.random.default_rng(9)
        tape = Tape()
        p = ModelParams.init(TEST_DIMS, rng).as_tracked(tape)
        before = len(tape.nodes)
        model.encode_text_batch(rng.integers(0, 11, size=(batch, seq_len)), p)
        assert [n.kind for n in tape.nodes[before:]] == ["lstm", "abs"]
        lstm_inputs = [t.node_id for t in tape.nodes[before].inputs]
        assert lstm_inputs == [p[n].node_id for n in ("embedding", "lstm.w", "lstm.u",
                                                     "lstm.b")]

    def test_out_of_range_index_rejected(self):
        params = zero_params(TEST_DIMS)
        with pytest.raises(ShapeError, match="out of range"):
            model.encode_text_batch(np.array([[99]]), params.as_tracked(None))

    def test_gradients_wrt_all_params_match_fd(self):
        rng = np.random.default_rng(6)
        dims = ModelDims(vocab_size=6, embed_dim=4, hidden_dim=5, feature_dim=3)
        shapes = model.param_shapes(dims)
        names = [n for n in shapes if not n.startswith("image.")]
        ids = rng.integers(0, 7, size=(2, 4))
        w = rng.normal(size=(2, 5))  # fixed mixing weights make the loss scalar

        def build(*leaves):
            p = dict(zip(names, leaves))
            return weighted_sum(model.encode_text_batch(ids, p), w)

        point = [rng.uniform(-0.4, 0.4, shapes[n]) for n in names]
        assert finite_diff_check(build, point, FD_STEP) < FD_TOL


class TestEncodeImage:
    def test_zero_everything_gives_zero(self):
        params = zero_params(TEST_DIMS)
        out = model.encode_image_batch(np.zeros((2, 12)), params.as_tracked(None))
        np.testing.assert_array_equal(out.data, np.zeros((2, 16)))

    def test_output_nonnegative(self):
        rng = np.random.default_rng(7)
        params = ModelParams.init(TEST_DIMS, rng)
        out = model.encode_image_batch(rng.normal(size=(5, 12)), params.as_tracked(None))
        assert np.all(out.data >= 0)

    def test_hand_computed_two_by_two(self):
        dims = ModelDims(vocab_size=1, embed_dim=1, hidden_dim=2, feature_dim=2)
        tensors = {n: np.zeros(s) for n, s in model.param_shapes(dims).items()}
        tensors["image.w1"] = np.array([[1.0, -1.0], [2.0, 0.5]])
        tensors["image.b1"] = np.array([[0.5, -0.25]])
        tensors["image.w2"] = np.array([[1.0, 2.0], [3.0, -1.0]])
        tensors["image.b2"] = np.array([[-10.0, 0.5]])
        params = ModelParams(dims, tensors)
        f = np.array([1.0, 2.0])
        # layer 1: f @ w1 + b1 = [5.5, -0.25] -> relu -> [5.5, 0]
        # layer 2: [5.5, 0] @ w2 + b2 = [-4.5, 11.5] -> abs -> [4.5, 11.5]
        out = model.encode_image_batch(f[None], params.as_tracked(None)).data[0]
        np.testing.assert_allclose(out, [4.5, 11.5], atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_records_six_tape_nodes(self, batch):
        # each bias row goes into add as it is: no ones column, no matmul for it
        rng = np.random.default_rng(10)
        tape = Tape()
        p = ModelParams.init(TEST_DIMS, rng).as_tracked(tape)
        before = len(tape.nodes)
        model.encode_image_batch(rng.normal(size=(batch, 12)), p)
        nodes = tape.nodes[before:]
        assert [n.kind for n in nodes] == ["matmul", "add", "relu_zero_floor",
                                           "matmul", "add", "abs"]
        assert [nodes[k].inputs[1].node_id for k in (1, 4)] == [
            p["image.b1"].node_id, p["image.b2"].node_id]

    def test_feature_dim_mismatch_rejected(self):
        params = zero_params(TEST_DIMS)
        with pytest.raises(ShapeError):
            model.encode_image_batch(np.zeros((2, 5)), params.as_tracked(None))

    def test_gradients_wrt_image_params_match_fd(self):
        rng = np.random.default_rng(8)
        dims = ModelDims(vocab_size=2, embed_dim=3, hidden_dim=6, feature_dim=4)
        shapes = model.param_shapes(dims)
        names = [n for n in shapes if n.startswith("image.")]
        feats = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 6))

        def build(*leaves):
            p = dict(zip(names, leaves))
            return weighted_sum(model.encode_image_batch(feats, p), w)

        point = [rng.uniform(-0.5, 0.5, shapes[n]) for n in names]
        assert finite_diff_check(build, point, FD_STEP) < FD_TOL


class TestModelDims:
    @pytest.mark.parametrize("dims, field", [
        ((5, 16.0, 32, 64), "embed_dim"), ((5, True, 32, 64), "embed_dim"),
        ((5.0, 16, 32, 64), "vocab_size"), ((5, 16, np.float64(32), 64), "hidden_dim"),
        ((5, 16, 32, "64"), "feature_dim"), ((-1, 16, 32, 64), "vocab_size"),
        ((5, 16, 0, 64), "hidden_dim"),
    ], ids=["float-embed-dim", "bool-embed-dim", "float-vocab-size",
            "numpy-float-hidden-dim", "str-feature-dim", "negative-vocab-size",
            "zero-hidden-dim"])
    def test_bad_size_rejected_by_name(self, dims, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelDims(*dims)

    def test_numpy_integer_sizes_accepted(self):
        dims = ModelDims(np.int64(0), np.int32(16), np.uint8(32), 64)
        assert dims == ModelDims(0, 16, 32, 64)


class TestModelParams:
    def test_init_seeded_and_in_range(self):
        a = ModelParams.init(TEST_DIMS, np.random.default_rng(9))
        b = ModelParams.init(TEST_DIMS, np.random.default_rng(9))
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
        assert np.all(np.abs(a.tensors["image.w1"]) <= 0.08)
        # forget bias 1: exactly the f block, columns h:2h, of lstm.b
        np.testing.assert_array_equal(np.flatnonzero(a.tensors["lstm.b"] == 1.0),
                                      np.arange(16, 32))
        np.testing.assert_array_equal(a.tensors["embedding"][0], np.zeros(8))

    def test_param_shapes_hold_the_gates_side_by_side(self):
        assert model.param_shapes(TEST_DIMS) == {
            "embedding": (11, 8), "lstm.w": (8, 64), "lstm.u": (16, 64), "lstm.b": (1, 64),
            "image.w1": (12, 16), "image.b1": (1, 16),
            "image.w2": (16, 16), "image.b2": (1, 16),
        }

    def test_shape_validation(self):
        tensors = {n: np.zeros(s) for n, s in model.param_shapes(TEST_DIMS).items()}
        tensors["image.w1"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="image.w1"):
            ModelParams(TEST_DIMS, tensors)
