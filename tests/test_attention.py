"""Masks, single attention heads, and multi-head attention."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.attention import (
    HeadCache,
    attention_scores,
    build_mask,
    multi_head_attention,
    self_attention_head,
)
from nlmkit.errors import SequenceLengthError, ShapeError
from nlmkit.kernels import softmax
from nlmkit.weights import HeadWeights, MultiHeadWeights

import oracles


def random_head(rng, d_e, d_k, d_v, biases=False) -> HeadWeights:
    return HeadWeights(
        w_q=rng.normal(size=(d_e, d_k)),
        w_k=rng.normal(size=(d_e, d_k)),
        w_v=rng.normal(size=(d_e, d_v)),
        b_q=rng.normal(size=d_k) if biases else None,
        b_k=rng.normal(size=d_k) if biases else None,
        b_v=rng.normal(size=d_v) if biases else None,
    )


class TestBuildMask:
    def test_ar_pattern_len3(self):
        inf = -np.inf
        npt.assert_array_equal(build_mask(3, "AR"),
                               [[0, inf, inf], [0, 0, inf], [0, 0, 0]])

    def test_ae_is_all_zero(self):
        npt.assert_array_equal(build_mask(3, "AE"), np.zeros((3, 3)))

    def test_len1_ar(self):
        npt.assert_array_equal(build_mask(1, "AR"), [[0.0]])

    def test_invalid_length(self):
        with pytest.raises(SequenceLengthError):
            build_mask(0, "AR")

    @pytest.mark.parametrize("mode", ["AR", "AE"])
    def test_rows_from_first_equal_the_sliced_mask(self, mode):
        for end in range(1, 70):
            full = build_mask(end, mode)
            for start in range(end):
                npt.assert_array_equal(build_mask(end, mode, start), full[start:])

    @pytest.mark.parametrize("first", [-1, 3])
    def test_first_row_outside_the_mask_refused(self, first):
        with pytest.raises(SequenceLengthError):
            build_mask(3, "AR", first)


class TestSelfAttentionHead:
    def test_singleton_sequence_passes_value_through(self, rng):
        head = random_head(rng, d_e=5, d_k=3, d_v=2)
        x = rng.normal(size=(5, 1))
        out = self_attention_head(x, head, build_mask(1, "AR"), None, None)
        npt.assert_allclose(out, (x.T @ head.w_v), rtol=1e-12)

    def test_first_row_attends_only_to_itself_under_ar(self, rng):
        head = random_head(rng, d_e=4, d_k=3, d_v=3)
        x = rng.normal(size=(4, 2))
        weights = softmax(attention_scores(x, head, build_mask(2, "AR"), None), axis=1)
        npt.assert_array_equal(weights[0], [1.0, 0.0])

    @pytest.mark.parametrize("biases", [False, True])
    def test_matches_per_query_loop_oracle(self, rng, biases):
        head = random_head(rng, d_e=6, d_k=4, d_v=3, biases=biases)
        x = rng.normal(size=(6, 4))
        out = self_attention_head(x, head, build_mask(4, "AR"), None, None)
        expected = oracles.head_attention(
            oracles.cols(x),
            oracles.rows(head.w_q), oracles.rows(head.w_k), oracles.rows(head.w_v),
            None if head.b_q is None else oracles.vec(head.b_q),
            None if head.b_k is None else oracles.vec(head.b_k),
            None if head.b_v is None else oracles.vec(head.b_v),
            oracles.ar_mask(4),
        )
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_weight_rows_are_distributions_with_exact_mask_zeros(self, rng):
        head = random_head(rng, d_e=5, d_k=4, d_v=4, biases=True)
        x = rng.normal(size=(5, 6))
        weights = softmax(attention_scores(x, head, build_mask(6, "AR"), None), axis=1)
        npt.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        for i in range(6):
            npt.assert_array_equal(weights[i, i + 1:], 0.0)

    def test_ar_causality_rows_fixed_under_future_changes(self, rng):
        head = random_head(rng, d_e=5, d_k=3, d_v=4)
        x = rng.normal(size=(5, 5))
        base = self_attention_head(x, head, build_mask(5, "AR"), None, None)
        x2 = x.copy()
        x2[:, 3:] = rng.normal(size=(5, 2))
        changed = self_attention_head(x2, head, build_mask(5, "AR"), None, None)
        npt.assert_array_equal(changed[:3], base[:3])

    def test_ae_permutation_equivariance(self, rng):
        head = random_head(rng, d_e=5, d_k=3, d_v=4)
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(6)
        base = self_attention_head(x, head, build_mask(6, "AE"), None, None)
        permuted = self_attention_head(x[:, perm], head, build_mask(6, "AE"), None, None)
        npt.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_score_scaling_follows_sqrt_dk(self, rng):
        # duplicating q/k columns doubles the raw dot product while the
        # denominator grows by sqrt(2): net factor sqrt(2) on every score
        head = random_head(rng, d_e=5, d_k=3, d_v=2)
        x = rng.normal(size=(5, 4))
        doubled = HeadWeights(
            w_q=np.hstack([head.w_q, head.w_q]),
            w_k=np.hstack([head.w_k, head.w_k]),
            w_v=head.w_v,
            b_q=None, b_k=None, b_v=None,
        )
        mask = build_mask(4, "AE")
        npt.assert_allclose(attention_scores(x, doubled, mask, None),
                            math.sqrt(2.0) * attention_scores(x, head, mask, None),
                            rtol=1e-12)


class TestQueryRule:
    """The mask's rows score the last columns of each sequence in x."""

    @pytest.mark.parametrize("biases", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_sequences_side_by_side_match_separate_calls(self, rng, biases, rows):
        head = random_head(rng, d_e=5, d_k=3, d_v=2, biases=biases)
        seqs = [rng.normal(size=(5, 4)) for _ in range(3)]
        mask = build_mask(4, "AR")[4 - rows:]
        out = self_attention_head(np.hstack(seqs), head, mask, None, None)
        assert out.shape == (3 * rows, 2)
        for b, x in enumerate(seqs):
            want = self_attention_head(x, head, build_mask(4, "AR"), None, None)[4 - rows:]
            npt.assert_allclose(out[b * rows:(b + 1) * rows], want, rtol=1e-13, atol=1e-15)

    def test_mask_with_no_rows_refused(self, rng):
        head = random_head(rng, d_e=4, d_k=3, d_v=3)
        with pytest.raises(ShapeError):
            attention_scores(rng.normal(size=(4, 3)), head, np.zeros((0, 3)), None)

    def test_more_rows_than_sequence_columns_refused(self, rng):
        head = random_head(rng, d_e=4, d_k=3, d_v=3)
        with pytest.raises(ShapeError):
            attention_scores(rng.normal(size=(4, 6)), head, np.zeros((4, 3)), None)

    @pytest.mark.parametrize("columns", [5, 0])
    def test_key_count_must_divide_the_columns(self, rng, columns):
        head = random_head(rng, d_e=4, d_k=3, d_v=3)
        with pytest.raises(ShapeError):
            attention_scores(rng.normal(size=(4, columns)), head, build_mask(2, "AR"), None)


class TestHeadCache:
    def _cache(self, head, n_max):
        return HeadCache(np.empty((n_max, head.w_k.shape[1])), np.empty((n_max, head.w_v.shape[1])))

    @pytest.mark.parametrize("biases", [False, True])
    @pytest.mark.parametrize("split", [[5], [1, 1, 1, 1, 1], [2, 3], [3, 1, 1]])
    def test_chunks_through_cache_match_one_pass(self, rng, biases, split):
        head = random_head(rng, d_e=6, d_k=4, d_v=3, biases=biases)
        x = rng.normal(size=(6, 5))
        full = self_attention_head(x, head, build_mask(5, "AR"), None, None)
        cache = self._cache(head, 7)
        start = 0
        for n in split:
            end = start + n
            out = self_attention_head(x[:, start:end], head, build_mask(end, "AR")[start:], cache,
                                      None)
            npt.assert_allclose(out, full[start:end], rtol=1e-13, atol=1e-15)
            start = end

    def test_mask_must_fit_the_cache(self, rng):
        head = random_head(rng, d_e=4, d_k=3, d_v=3)
        cache = self._cache(head, 3)
        x = rng.normal(size=(4, 2))
        with pytest.raises(ShapeError):   # more keys than the cache holds
            attention_scores(x, head, build_mask(4, "AR")[2:], cache)
        with pytest.raises(ShapeError):   # fewer keys than new columns
            attention_scores(x, head, np.zeros((2, 1)), cache)
        with pytest.raises(ShapeError):   # a row per new column
            attention_scores(x, head, np.zeros((1, 3)), cache)


class TestMultiHeadAttention:
    def test_single_head_identity_projection(self, rng):
        head = random_head(rng, d_e=3, d_k=2, d_v=3)
        x = rng.normal(size=(3, 4))
        mha = MultiHeadWeights(heads=[head], w_o=np.eye(3), b_o=None)
        out = multi_head_attention(x, mha, build_mask(4, "AE"), None, None)
        npt.assert_allclose(out, self_attention_head(x, head, build_mask(4, "AE"), None, None).T,
                            rtol=1e-12)

    def test_zeroed_value_weights_zero_one_block(self, rng):
        heads = [random_head(rng, 4, 3, 2) for _ in range(3)]
        heads[1].w_v = np.zeros((4, 2))
        x = rng.normal(size=(4, 5))
        mask = build_mask(5, "AE")
        concat = np.hstack([self_attention_head(x, h, mask, None, None) for h in heads])
        npt.assert_array_equal(concat[:, 2:4], 0.0)

    @pytest.mark.parametrize("biases", [False, True])
    def test_matches_concat_then_project_composition(self, rng, biases):
        heads = [random_head(rng, 4, 3, 2, biases=biases) for _ in range(2)]
        w_o = rng.normal(size=(4, 4))
        b_o = rng.normal(size=4) if biases else None
        mha = MultiHeadWeights(heads=heads, w_o=w_o, b_o=b_o)
        x = rng.normal(size=(4, 5))
        mask = build_mask(5, "AR")
        concat = np.hstack([self_attention_head(x, h, mask, None, None) for h in heads])
        expected = (concat @ w_o + (b_o if biases else 0.0)).T
        npt.assert_allclose(multi_head_attention(x, mha, mask, None, None), expected, rtol=1e-12)

    def test_matches_loop_oracle(self, rng):
        heads = [random_head(rng, 4, 3, 2, biases=True) for _ in range(2)]
        mha = MultiHeadWeights(heads=heads, w_o=rng.normal(size=(4, 4)),
                               b_o=rng.normal(size=4))
        x = rng.normal(size=(4, 3))
        out = multi_head_attention(x, mha, build_mask(3, "AE"), None, None)
        expected_rows = oracles.multi_head(
            oracles.cols(x),
            [oracles._head_tuple(h) for h in heads],
            oracles.rows(mha.w_o), oracles.vec(mha.b_o),
            oracles.ae_mask(3),
        )
        npt.assert_allclose(out, np.array(expected_rows).T, atol=1e-12)
