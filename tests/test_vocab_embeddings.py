"""Vocabulary, tokenizer, embedding lookup, positions, tied logits."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.embeddings import add_positions, checked_ids, embed, tied_logits
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
    tokenize,
)


class TestVocabulary:
    def test_ids_follow_line_order(self):
        v = Vocabulary(["a", "b", "c"], {})
        assert [v.id_of(t) for t in "abc"] == [0, 1, 2]
        assert v.token_of(1) == "b"

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ConfigError):
            Vocabulary(["a", "a"], {})

    def test_literal_specials_autodetected(self):
        v = Vocabulary(["[CLS]", "x", "[SEP]", "[MASK]"], {})
        assert v.cls_id == 0 and v.sep_id == 2 and v.mask_id == 3

    def test_detected_specials_stay_out_of_the_callers_dict(self):
        shared = {}
        first = Vocabulary(["[CLS]", "a", "[SEP]"], shared)
        second = Vocabulary(["b", "[SEP]", "[CLS]"], shared)
        assert shared == {}
        assert first.specials is not shared and second.specials is not shared
        assert (first.cls_id, first.sep_id) == (0, 2)
        assert (second.cls_id, second.sep_id) == (2, 1)

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

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"\xef\xbb\xbf[CLS]\nfoo\n")
        assert load_vocab(path).tokens == ["[CLS]", "foo"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("#special CLS=0\n#special SEP=3\n#special UNK=1\n"
                        "[CLS]\nhello\nworld\n[SEP]\n", encoding="utf-8")
        loaded = load_vocab(path)
        assert loaded.tokens == ["[CLS]", "hello", "world", "[SEP]"]
        assert loaded.specials == {"[CLS]": 0, "[SEP]": 3, "[UNK]": 1}


class TestTokenize:
    def test_basic(self):
        v = Vocabulary(["a", "b"], {})
        assert tokenize("a b a", v).ids == [0, 1, 0]

    def test_empty_text_rejected(self):
        with pytest.raises(SequenceLengthError):
            tokenize("   ", Vocabulary(["a"], {}))

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["a", "b", "[UNK]"], {})
        assert tokenize("a c", v).ids == [0, 2]

    def test_unknown_without_unk_names_token(self):
        with pytest.raises(OutOfVocabularyError, match="'c'"):
            tokenize("a c", Vocabulary(["a", "b"], {}))

    def test_round_trip_in_vocabulary_text(self):
        v = Vocabulary(["the", "cat", "sat"], {})
        text = "the cat sat sat the"
        assert detokenize(tokenize(text, v).ids, v) == text

    def test_infer_segments_splits_at_first_sep(self):
        v = Vocabulary(["[CLS]", "a", "[SEP]", "b"], {})
        ids = [0, 1, 2, 3, 2]
        assert infer_segments(ids, v) == ["A", "A", "A", "B", "B"]

    def test_parallel_list_lengths_checked(self):
        with pytest.raises(SequenceLengthError):
            TokenSequence([1, 2], segments=["A"])


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
        omega = np.eye(9)[:, ids]
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

    @pytest.mark.parametrize("bad", [-1, -2**63])
    def test_negative_id(self, rng, bad):
        with pytest.raises(OutOfVocabularyError):
            embed([0, bad, 1], rng.normal(size=(4, 9)))

    @pytest.mark.parametrize("bad", [2**63, 2**64, 2**70, -2**63 - 1])
    def test_id_beyond_intp(self, rng, bad):
        with pytest.raises(OutOfVocabularyError):
            embed([0, bad], rng.normal(size=(4, 9)))

    @pytest.mark.parametrize("ids", [[2**63, -1], [0, 2**70], [5, 2**63]])
    def test_ids_beyond_intp_are_reported_out_of_range(self, rng, ids):
        # numpy reads such lists as float64 or object, but they hold integers
        with pytest.raises(OutOfVocabularyError, match="out of range for embedding table of 9"):
            embed(ids, rng.normal(size=(4, 9)))

    @pytest.mark.parametrize("ids,dtype", [([1.5], "float64"), ([2.0, 3.0], "float64"),
                                           ([1, 2.5], "float64"), ([True], "bool"),
                                           (np.array([0, 1]) == 1, "bool"), (["3"], "<U1"),
                                           ([1, "2"], "<U21"), ([None], "object"),
                                           ([1, True, 3], "bool"), ((1, np.True_), "bool"),
                                           ([[0, 1], (2, np.False_)], "bool"),
                                           ([np.array([1, 2]), np.array([True, False])], "bool")])
    def test_non_integer_ids_are_refused_naming_their_dtype(self, rng, ids, dtype):
        with pytest.raises(OutOfVocabularyError, match=f"must be integers, got dtype {dtype}$"):
            embed(ids, rng.normal(size=(4, 9)))

    def test_the_caller_chooses_the_error_class(self):
        with pytest.raises(ShapeError, match="ids for 3 classes must be integers"):
            checked_ids([1.5], 3, ShapeError, "3 classes")

    @pytest.mark.parametrize("ids", [[], np.array([]), np.array([], dtype=str), [[]]])
    def test_empty_ids_of_any_dtype_are_an_empty_intp_array(self, ids):
        checked = checked_ids(ids, 9)
        assert checked.dtype == np.intp and checked.size == 0

    @pytest.mark.parametrize("ids", [[4, 0, 8], np.array([4, 0, 8]), []])
    def test_returns_a_new_row_major_matrix(self, rng, ids):
        e = rng.normal(size=(4, 9))
        x = embed(ids, e)
        assert x.shape == (4, len(ids)) and x.flags.c_contiguous
        assert not np.shares_memory(x, e)
        npt.assert_array_equal(x, e[:, list(ids)])


class TestAddPositions:
    def test_zero_positions_leave_input(self, rng):
        x = rng.normal(size=(4, 3))
        npt.assert_array_equal(add_positions(x, np.zeros((4, 6)), np.zeros((4, 3))), x)

    def test_zero_input_yields_position_prefix(self, rng):
        pos = rng.normal(size=(4, 6))
        npt.assert_array_equal(add_positions(np.zeros((4, 3)), pos, np.zeros((4, 3))), pos[:, :3])

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
            add_positions(rng.normal(size=(4, 7)), rng.normal(size=(4, 6)), np.zeros((4, 7)))


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

    @pytest.mark.parametrize("bias", [False, True])
    def test_matrix_columns_are_contiguous_per_position(self, rng, bias):
        # the loss reduces each position's column; the fast layout keeps it contiguous
        e = rng.normal(size=(5, 9))
        h = rng.normal(size=(5, 4))
        z = tied_logits(h, e, rng.normal(size=9) if bias else None)
        assert z.shape == (9, 4)
        assert z.flags.f_contiguous and all(z[:, j].flags.c_contiguous for j in range(4))

    @pytest.mark.parametrize("bias", [False, True])
    def test_matrix_matches_per_column_dot_products(self, rng, bias):
        e = rng.normal(size=(6, 11))
        h = rng.normal(size=(6, 5))
        b = rng.normal(size=11) if bias else np.zeros(11)
        z = tied_logits(h, e, b if bias else None)
        want = [[math.fsum(e[:, i] * h[:, j]) + b[i] for j in range(5)] for i in range(11)]
        npt.assert_allclose(z, want, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            tied_logits(np.zeros(3), rng.normal(size=(4, 6)))
        with pytest.raises(ShapeError):
            tied_logits(np.zeros((3, 2)), rng.normal(size=(4, 6)))
        with pytest.raises(ShapeError):
            tied_logits(np.zeros(4), rng.normal(size=(4, 6)), np.zeros(5))
