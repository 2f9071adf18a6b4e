"""Normalization, vocabulary, and fixed-length encoding tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import text
from xmodal.text import (
    STOPWORDS,
    Vocabulary,
    build_vocab,
    encode,
    load_vocab,
    normalize,
    save_vocab,
)


class TestNormalize:
    def test_stemming_and_case(self):
        assert normalize("Running dogs!") == ["run", "dog"]

    def test_empty(self):
        assert normalize("") == []

    def test_all_stopwords(self):
        assert normalize("the a an") == []

    def test_special_characters_deleted_not_spaced(self):
        # hashtags and urls degrade to their alphanumeric residue
        assert normalize("#cats") == ["cat"]
        assert normalize("http://x.io/a?q=1") == ["httpxioaq1"]

    def test_token_whose_stem_is_a_stopword_is_dropped(self):
        # "sos" stems to "so", which is pinned
        assert "so" in STOPWORDS
        assert normalize("sos sos") == []

    def test_deterministic(self):
        s = "A man RIDES; his horse, quickly! #sunset"
        assert normalize(s) == normalize(s)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_output_always_clean(self, raw):
        for tok in normalize(raw):
            assert tok == tok.lower()
            assert tok not in STOPWORDS
            assert all(c.isascii() and (c.isalnum()) for c in tok)


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        v = build_vocab([["a", "b", "b"]], min_freq=1)
        assert v.word_to_index == {"b": 1, "a": 2}
        assert v.frequency == {"b": 2, "a": 1}

    def test_min_freq_filters(self):
        v = build_vocab([["a", "b", "b"]], min_freq=2)
        assert v.word_to_index == {"b": 1}

    def test_empty_corpus(self):
        v = build_vocab([], min_freq=1)
        assert v.size == 0

    def test_bad_min_freq(self):
        with pytest.raises(ValueError):
            build_vocab([], min_freq=0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["cat", "dog", "sun", "sea"]), max_size=6), max_size=8))
    def test_indices_are_bijection_onto_1_to_d(self, corpus):
        v = build_vocab(corpus, min_freq=1)
        assert sorted(v.word_to_index.values()) == list(range(1, v.size + 1))


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return Vocabulary({"cat": 1, "dog": 2, "sun": 3}, {"cat": 9, "dog": 5, "sun": 5})

    def test_empty_tokens(self, vocab):
        (enc,) = encode([[]], vocab, 70)
        assert enc.shape == (70,)
        assert np.count_nonzero(enc) == 0
        assert np.all(enc == 0)

    def test_padding_after_content(self, vocab):
        (enc,) = encode([["dog", "cat", "dog"]], vocab, 70)
        assert np.count_nonzero(enc) == 3
        assert list(enc[:3]) == [2, 1, 2]
        assert np.all(enc[3:] == 0)

    def test_truncation(self, vocab):
        (enc,) = encode([["cat"] * 75], vocab, 70)
        assert np.count_nonzero(enc) == 70
        assert np.all(enc == 1)

    def test_oov_dropped_before_truncation(self, vocab):
        (enc,) = encode([["zebra", "cat", "qux", "dog"]], vocab, 3)
        assert list(enc) == [1, 2, 0]
        assert np.count_nonzero(enc) == 2

    def test_bad_length(self, vocab):
        with pytest.raises(ValueError):
            encode([[]], vocab, 0)

    def test_rows_are_one_int64_array(self, vocab):
        rows = encode([["sun"], [], ["dog", "oov", "cat"]], vocab, 4)
        assert rows.dtype == np.int64 and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, [[3, 0, 0, 0], [0, 0, 0, 0], [2, 1, 0, 0]])
        assert encode([], vocab, 4).shape == (0, 4)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["cat", "dog", "sun", "oov"]), max_size=90),
           st.integers(1, 80))
    def test_length_always_exact(self, tokens, L):
        vocab = Vocabulary({"cat": 1, "dog": 2, "sun": 3}, {"cat": 1, "dog": 1, "sun": 1})
        (enc,) = encode([tokens], vocab, L)
        assert enc.shape == (L,)
        n_ids = min(L, sum(t != "oov" for t in tokens))
        assert np.count_nonzero(enc) == n_ids
        assert np.all(enc[n_ids:] == 0)


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        v = build_vocab([["cat", "cat", "dog"], ["dog", "cat", "sun"]], min_freq=1)
        p = tmp_path / "vocab.tsv"
        save_vocab(v, p)
        lines = p.read_text().splitlines()
        assert lines[0] == f"#vocab v1 d={v.size}"
        again = load_vocab(p)
        assert again.word_to_index == v.word_to_index
        assert again.frequency == v.frequency

    def test_rerun_is_byte_identical(self, tmp_path):
        v = build_vocab([["b", "a", "a"]], min_freq=1)
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        save_vocab(v, p1)
        save_vocab(v, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("nope\n")
        with pytest.raises(text.VocabFormatError, match="header"):
            load_vocab(p)

    def test_bad_line_reported_with_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#vocab v1 d=1\ncat\t1\n")
        with pytest.raises(text.VocabFormatError, match=":2:"):
            load_vocab(p)

    @pytest.mark.parametrize("count", ["-7", "0"])
    def test_frequency_below_one_rejected_with_its_line(self, tmp_path, count):
        p = tmp_path / "freq.tsv"
        p.write_text(f"#vocab v1 d=2\ncat\t1\t5\nfoo\t2\t{count}\n")
        with pytest.raises(text.VocabFormatError,
                           match=f"^{re.escape(str(p))}:3: frequency {count} is below 1$"):
            load_vocab(p)

    def test_gap_in_indices_rejected(self, tmp_path):
        p = tmp_path / "gap.tsv"
        p.write_text("#vocab v1 d=2\ncat\t1\t5\ndog\t3\t4\n")
        with pytest.raises(text.VocabFormatError, match="contiguous"):
            load_vocab(p)
