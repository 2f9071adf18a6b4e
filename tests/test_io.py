"""Loader and serialization round-trip tests."""

import re
import struct

import numpy as np
import pytest

from xmodal import io as xio
from xmodal.io import (
    DataFormatError,
    DatasetRecord,
    FeatureTable,
    load_checkpoint,
    load_dataset,
    load_word_vectors,
    read_feature_file,
    save_checkpoint,
    save_dataset,
    write_feature_file,
)
from xmodal.text import Vocabulary


def random_table(rng, count=5, dim=7):
    table = FeatureTable(dim)
    for i in range(count):
        table.add(f"img{i:03d}", rng.normal(size=dim).astype(np.float32))
    return table


class TestFeatureFile:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        table = random_table(rng)
        p = tmp_path / "feats.bin"
        write_feature_file(table, p)
        assert read_feature_file(p) == table

    def test_write_read_write_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        table = random_table(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_feature_file(table, p1)
        write_feature_file(read_feature_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table_is_header_only(self, tmp_path):
        p = tmp_path / "empty.bin"
        write_feature_file(FeatureTable(4), p)
        assert p.read_bytes() == b"IMFT" + (1).to_bytes(4, "little") + \
            (0).to_bytes(4, "little") + (4).to_bytes(4, "little")
        assert len(read_feature_file(p)) == 0

    def test_known_byte_layout(self, tmp_path):
        table = FeatureTable(2)
        table.add("ab", np.array([1.0, -2.0], dtype=np.float32))
        p = tmp_path / "one.bin"
        write_feature_file(table, p)
        want = (b"IMFT"
                + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
                + (2).to_bytes(4, "little")
                + (2).to_bytes(2, "little") + b"ab"
                + np.array([1.0, -2.0], dtype="<f4").tobytes())
        assert p.read_bytes() == want

    def test_failed_write_leaves_old_file(self, tmp_path):
        p = tmp_path / "feats.bin"
        table = FeatureTable(2)
        table.add("ab", np.array([1.0, -2.0], dtype=np.float32))
        write_feature_file(table, p)
        good = p.read_bytes()
        table.add("x" * 70000, np.zeros(2, dtype=np.float32))  # over the u16 length
        with pytest.raises(DataFormatError, match="image id too long: 'xxx"):
            write_feature_file(table, p)
        assert p.read_bytes() == good
        assert read_feature_file(p).entries.keys() == {"ab"}

    def test_truncation_rejected_with_offset(self, tmp_path):
        rng = np.random.default_rng(2)
        p = tmp_path / "feats.bin"
        write_feature_file(random_table(rng), p)
        whole = p.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(whole[: len(whole) - 9])
        with pytest.raises(DataFormatError, match="truncated.*offset"):
            read_feature_file(cut)

    def test_invalid_utf8_id_names_file_and_offset(self, tmp_path):
        p = tmp_path / "feats.bin"
        p.write_bytes(b"IMFT" + struct.pack("<IIIH", 1, 1, 1, 2) + b"\xff\xfe"
                      + bytes(4))
        with pytest.raises(DataFormatError) as err:
            read_feature_file(p)
        assert str(err.value) == f"{p}: id is not valid utf-8 at offset 18"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(DataFormatError, match="magic"):
            read_feature_file(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "feats.bin"
        write_feature_file(random_table(rng), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            read_feature_file(p)

    def test_duplicate_id_rejected(self):
        table = FeatureTable(3)
        table.add("x", np.zeros(3, dtype=np.float32))
        with pytest.raises(DataFormatError, match="duplicate"):
            table.add("x", np.ones(3, dtype=np.float32))

    def test_non_finite_rejected(self):
        table = FeatureTable(2)
        with pytest.raises(DataFormatError, match="finite"):
            table.add("x", np.array([1.0, np.nan], dtype=np.float32))


class TestDataset:
    def write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_single_record(self, tmp_path):
        p = self.write(tmp_path, ['{"id": "r1", "feature_ref": "f1", "captions": ["a cat"]}'])
        recs = load_dataset(p)
        assert recs == [DatasetRecord("r1", "f1", ["a cat"])]

    def test_caption_order_preserved(self, tmp_path):
        caps = ["one", "two", "three", "four", "five"]
        p = self.write(tmp_path, [
            '{"id": "r1", "feature_ref": "f1", "captions": ' + str(caps).replace("'", '"') + "}"
        ])
        assert load_dataset(p)[0].captions == caps

    def test_dangling_feature_ref(self, tmp_path):
        table = FeatureTable(2)
        table.add("f1", np.zeros(2, dtype=np.float32))
        p = self.write(tmp_path, ['{"id": "rX", "feature_ref": "nope", "captions": ["c"]}'])
        with pytest.raises(DataFormatError, match="rX"):
            load_dataset(p, table)

    def test_missing_field_line_number(self, tmp_path):
        p = self.write(tmp_path, [
            '{"id": "r1", "feature_ref": "f1", "captions": ["c"]}',
            '{"id": "r2", "captions": ["c"]}',
        ])
        with pytest.raises(DataFormatError, match=":2:"):
            load_dataset(p)

    @pytest.mark.parametrize("line", [
        "5", "null", '"text"', '["a"]',
        '{"id": 5, "feature_ref": "f1", "captions": ["c"]}',
        '{"id": "r2", "feature_ref": 7, "captions": ["c"]}',
    ], ids=["number", "null", "string", "list", "numeric-id", "numeric-feature-ref"])
    def test_non_object_or_non_string_key_rejected(self, tmp_path, line):
        p = self.write(tmp_path, ['{"id": "r1", "feature_ref": "f1", "captions": ["c"]}', line])
        with pytest.raises(DataFormatError, match="^" + re.escape(f"{p}:2: ")):
            load_dataset(p)

    def test_empty_captions_rejected(self, tmp_path):
        p = self.write(tmp_path, ['{"id": "r1", "feature_ref": "f1", "captions": []}'])
        with pytest.raises(DataFormatError, match="non-empty"):
            load_dataset(p)

    def test_save_load_round_trip(self, tmp_path):
        recs = [DatasetRecord("a", "fa", ["x y", "z"]), DatasetRecord("b", "fb", ["w"])]
        p = tmp_path / "out.jsonl"
        save_dataset(recs, p)
        assert load_dataset(p) == recs


class TestWordVectors:
    @pytest.fixture
    def vocab(self):
        return Vocabulary({"cat": 1, "dog": 2, "sun": 3}, {"cat": 3, "dog": 2, "sun": 2})

    def test_present_token_copied_exactly(self, tmp_path, vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("cat 0.25 -1.5\nsun 3.125 0.0625\n")
        rng = np.random.default_rng(0)
        emb, coverage = load_word_vectors(p, vocab, rng)
        assert emb.shape == (4, 2)
        np.testing.assert_array_equal(emb[1], [0.25, -1.5])
        np.testing.assert_array_equal(emb[3], [3.125, 0.0625])
        assert coverage == pytest.approx(2 / 3)

    def test_padding_row_zero(self, tmp_path, vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("cat 1 2\n")
        emb, _ = load_word_vectors(p, vocab, np.random.default_rng(0))
        np.testing.assert_array_equal(emb[0], [0.0, 0.0])

    def test_absent_token_fallback_in_range_and_seeded(self, tmp_path, vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("cat 1 2\n")
        emb1, _ = load_word_vectors(p, vocab, np.random.default_rng(42))
        emb2, _ = load_word_vectors(p, vocab, np.random.default_rng(42))
        np.testing.assert_array_equal(emb1, emb2)
        for row in (emb1[2], emb1[3]):
            assert np.all(np.abs(row) <= 0.08)
            assert np.any(row != 0)

    def test_inconsistent_dim_rejected(self, tmp_path, vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("cat 1 2\ndog 1 2 3\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_word_vectors(p, vocab, np.random.default_rng(0))

    def test_unparseable_float_rejected(self, tmp_path, vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("cat 1 2\ndog 1 oops\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_word_vectors(p, vocab, np.random.default_rng(0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_naming_line(self, tmp_path, vocab, value):
        p = tmp_path / "vecs.txt"
        p.write_text(f"cat 1.0 2.0\ndog {value} 2.0\n")
        with pytest.raises(DataFormatError, match="vecs.txt:2: non-finite value for 'dog'"):
            load_word_vectors(p, vocab, np.random.default_rng(0))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "embedding": rng.normal(size=(5, 3)),
            "lstm.w_i": rng.normal(size=(3, 4)),
            "schedule.best_loss": np.array([0.125]),
        }
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, tensors)
        loaded = load_checkpoint(p)
        assert list(loaded) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float64

    @pytest.mark.parametrize("bad, match", [
        ({"x" * 70000: np.zeros(1)}, "tensor name too long: 'xxx"),  # a name over u16
        ({"big": np.zeros((1 << 32, 0))}, r"'big' has shape .* over u32"),
    ], ids=["long-name", "extent-over-u32"])
    def test_failed_save_leaves_old_file_and_no_temporary(self, tmp_path, monkeypatch,
                                                          bad, match):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, {"w": np.ones((2, 2))})
        good = p.read_bytes()

        def no_temporary(*args, **kwargs):
            raise AssertionError("a temporary file was made before the check")

        # rejected before anything is written
        monkeypatch.setattr(xio.tempfile, "mkstemp", no_temporary)
        with pytest.raises(ValueError, match=match):
            save_checkpoint(p, {"w": np.zeros((2, 2)), **bad})
        assert p.read_bytes() == good
        assert [q.name for q in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_version_mismatch_rejected(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, {})
        raw = bytearray(p.read_bytes())
        raw[0] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(p)

    def test_version_1_file_rejected_by_name(self, tmp_path):
        # the v1 layout: one (1,) tensor, then the u64/f64/u32/u8 counter trailer
        p = tmp_path / "ckpt.bin"
        p.write_bytes(struct.pack("<IIH1sBI", 1, 1, 1, b"w", 1, 1) + bytes(8)
                      + struct.pack("<QdIB", 0, 0.1, 16, 0))
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(p)
        assert str(err.value) == f"{p}: unsupported checkpoint version 1"

    @pytest.mark.parametrize("shape", [(65536,) * 4, (2**21,) * 3],
                             ids=["product-wraps-to-0", "product-wraps-negative"])
    def test_huge_extents_rejected_as_truncated(self, tmp_path, shape):
        # the element count overflows int64; it must not wrap to a small number
        p = tmp_path / "ckpt.bin"
        header = struct.pack(f"<IIH1sB{len(shape)}I", 2, 1, 1, b"w", len(shape), *shape)
        p.write_bytes(header + bytes(64))
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(p)
        assert type(err.value) is DataFormatError
        assert str(err.value) == f"{p}: truncated data of 'w' at offset {len(header)}"

    def test_truncation_rejected(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, {"w": np.ones((2, 2))})
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(p)

    def test_invalid_utf8_name_names_file_and_offset(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        p.write_bytes(struct.pack("<IIH", 2, 1, 1) + b"\xff" + struct.pack("<BI", 1, 1)
                      + bytes(8))
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(p)
        assert str(err.value) == f"{p}: tensor name is not valid utf-8 at offset 10"
