"""Vocabulary, tokenizer, one-hot/embedding lookup, positions, tied logits."""

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.embeddings import add_positions, embed, one_hot, tied_logits
from nlmkit.errors import (
    ConfigError,
    OutOfVocabularyError,
    SequenceLengthError,
    ShapeError,
)
from nlmkit.vocab import (
    TokenSequence,
    Vocabulary,
    detokenize,
    infer_segments,
    load_vocab,
    parse_vocab,
    save_vocab,
    tokenize,
)


class TestVocabulary:
    def test_ids_follow_line_order(self):
        v = Vocabulary(["a", "b", "c"])
        assert [v.id_of(t) for t in "abc"] == [0, 1, 2]
        assert v.token_of(1) == "b"

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary(["a", "a"])

    def test_literal_specials_autodetected(self):
        v = Vocabulary(["[CLS]", "x", "[SEP]", "[MASK]"])
        assert v.cls_id == 0 and v.sep_id == 2 and v.mask_id == 3

    def test_header_declares_specials(self):
        v = parse_vocab("#special UNK=1\nfoo\nbar\n")
        assert v.id_of("nonsense") == 1

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigError):
            parse_vocab("#special WAT=0\nfoo\n")

    @pytest.mark.parametrize("value", ["\u00b2", "\u0661", "\uff11", "1\u00b2", "", "-1", "x"])
    def test_header_id_must_be_ascii_digits(self, value):
        # str.isdigit accepts superscripts, Arabic-Indic and full-width digits
        with pytest.raises(ConfigError, match="bad special-token header"):
            parse_vocab(f"#special UNK={value}\nfoo\nbar\n")

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"foo\n\xff\xfebar\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_vocab(path)

    def test_file_round_trip(self, tmp_path):
        v = Vocabulary(["[CLS]", "hello", "world", "[SEP]"])
        path = tmp_path / "v.txt"
        save_vocab(v, path)
        loaded = load_vocab(path)
        assert loaded.tokens == v.tokens
        assert loaded.specials == v.specials


class TestTokenize:
    def test_basic(self):
        v = Vocabulary(["a", "b"])
        assert tokenize("a b a", v).ids == [0, 1, 0]

    def test_empty_text_rejected(self):
        with pytest.raises(SequenceLengthError):
            tokenize("   ", Vocabulary(["a"]))

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["a", "b", "[UNK]"])
        assert tokenize("a c", v).ids == [0, 2]

    def test_unknown_without_unk_names_token(self):
        with pytest.raises(OutOfVocabularyError, match="'c'"):
            tokenize("a c", Vocabulary(["a", "b"]))

    def test_round_trip_in_vocabulary_text(self):
        v = Vocabulary(["the", "cat", "sat"])
        text = "the cat sat sat the"
        assert detokenize(tokenize(text, v), v) == text

    def test_infer_segments_splits_at_first_sep(self):
        v = Vocabulary(["[CLS]", "a", "[SEP]", "b"])
        ids = [0, 1, 2, 3, 2]
        assert infer_segments(ids, v) == ["A", "A", "A", "B", "B"]

    def test_parallel_list_lengths_checked(self):
        with pytest.raises(SequenceLengthError):
            TokenSequence([1, 2], segments=["A"])


class TestOneHot:
    def test_first_and_last_positions(self):
        npt.assert_array_equal(one_hot(0, 3), [1, 0, 0])
        npt.assert_array_equal(one_hot(2, 3), [0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(OutOfVocabularyError):
            one_hot(3, 3)

    def test_binary_entries_sum_to_one(self, rng):
        for _ in range(20):
            size = int(rng.integers(1, 50))
            v = one_hot(int(rng.integers(0, size)), size)
            assert set(np.unique(v)) <= {0.0, 1.0}
            assert v.sum() == 1.0

    def test_matmul_extracts_column(self, rng):
        e = rng.normal(size=(4, 6))
        for j in range(6):
            npt.assert_array_equal(e @ one_hot(j, 6), e[:, j])


class TestEmbed:
    def test_single_token_is_one_column(self, rng):
        e = rng.normal(size=(3, 5))
        npt.assert_array_equal(embed([2], e)[:, 0], e[:, 2])

    def test_repeated_ids_share_columns(self, rng):
        # one token type, one embedding: duplicates are bit-identical
        e = rng.normal(size=(4, 12))
        ids = [3, 1, 7, 1, 0, 5, 9, 2, 7]
        x = embed(ids, e)
        npt.assert_array_equal(x[:, 2], x[:, 8])

    def test_equals_one_hot_matrix_product(self, rng):
        e = rng.normal(size=(4, 9))
        ids = [0, 8, 3, 3, 5]
        omega = np.column_stack([one_hot(i, 9) for i in ids])
        npt.assert_allclose(embed(ids, e), e @ omega, rtol=1e-15)

    def test_unused_columns_never_read(self, rng):
        e = rng.normal(size=(4, 9))
        ids = [1, 2, 3]
        before = embed(ids, e)
        e2 = e.copy()
        e2[:, 7] += 100.0
        npt.assert_array_equal(embed(ids, e2), before)

    def test_out_of_range_id(self, rng):
        with pytest.raises(OutOfVocabularyError):
            embed([9], rng.normal(size=(4, 9)))


class TestAddPositions:
    def test_zero_positions_leave_input(self, rng):
        x = rng.normal(size=(4, 3))
        npt.assert_array_equal(add_positions(x, np.zeros((4, 6))), x)

    def test_zero_input_yields_position_prefix(self, rng):
        pos = rng.normal(size=(4, 6))
        npt.assert_array_equal(add_positions(np.zeros((4, 3)), pos), pos[:, :3])

    def test_three_way_sum(self, rng):
        x = rng.normal(size=(4, 5))
        pos = rng.normal(size=(4, 8))
        seg = rng.normal(size=(4, 5))
        out = add_positions(x, pos, seg)
        expected = np.empty((4, 5))
        for i in range(4):
            for j in range(5):
                expected[i, j] = x[i, j] + pos[i, j] + seg[i, j]
        npt.assert_allclose(out, expected, rtol=1e-15)

    def test_over_length_rejected(self, rng):
        with pytest.raises(SequenceLengthError):
            add_positions(rng.normal(size=(4, 7)), rng.normal(size=(4, 6)))


class TestTiedLogits:
    def test_orthonormal_columns_self_similarity(self):
        e = np.eye(4)[:, :3]  # 3 orthonormal embeddings in R^4
        z = tied_logits(e[:, 2], e)
        assert int(np.argmax(z)) == 2

    def test_zero_hidden_gives_zero_logits(self, rng):
        e = rng.normal(size=(4, 6))
        npt.assert_array_equal(tied_logits(np.zeros(4), e), np.zeros(6))

    def test_matches_per_column_dot_products(self, rng):
        e = rng.normal(size=(5, 7))
        h = rng.normal(size=5)
        b = rng.normal(size=7)
        z = tied_logits(h, e, b)
        for j in range(7):
            assert abs(z[j] - (sum(e[i, j] * h[i] for i in range(5)) + b[j])) < 1e-12

    def test_matrix_matches_vector_form_per_column(self, rng):
        e = rng.normal(size=(5, 7))
        h = rng.normal(size=(5, 4))
        b = rng.normal(size=7)
        z = tied_logits(h, e, b)
        assert z.shape == (7, 4)
        for j in range(4):
            npt.assert_allclose(z[:, j], tied_logits(h[:, j], e, b), rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            tied_logits(np.zeros(3), rng.normal(size=(4, 6)))
        with pytest.raises(ShapeError):
            tied_logits(np.zeros((3, 2)), rng.normal(size=(4, 6)))
        with pytest.raises(ShapeError):
            tied_logits(np.zeros(4), rng.normal(size=(4, 6)), np.zeros(5))
