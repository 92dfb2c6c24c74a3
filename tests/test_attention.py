"""Masks and multi-head attention over stacked heads.

A layer whose output projection is the identity returns its heads'
concatenated rows (``head_rows``), and a head whose values are the one-hot
position vectors returns its attention weights (``attention_weights``):
both are exact, since they multiply by ones and zeros only.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit import kernels
from nlmkit.attention import AttentionCache, build_mask, multi_head_attention
from nlmkit.errors import SequenceLengthError, ShapeError, UndefinedDistributionError
from nlmkit.kernels import softmax
from nlmkit.weights import MultiHeadWeights

import oracles


def random_heads(rng, d_e, d_k, d_v, heads=1, biases=False) -> MultiHeadWeights:
    """`heads` random heads behind an identity output projection."""
    return MultiHeadWeights(
        w_q=rng.normal(size=(heads, d_e, d_k)),
        w_k=rng.normal(size=(heads, d_e, d_k)),
        w_v=rng.normal(size=(heads, d_e, d_v)),
        b_q=rng.normal(size=(heads, d_k)) if biases else None,
        b_k=rng.normal(size=(heads, d_k)) if biases else None,
        b_v=rng.normal(size=(heads, d_v)) if biases else None,
        w_o=np.eye(heads * d_v),
        b_o=None,
    )


def head_rows(x, w, mask, cache=None):
    """The heads' outputs side by side, (B*r) x (M*d_v), of a layer whose
    output projection is the identity."""
    return multi_head_attention(x, w, mask, cache).T


def head(w, m):
    """Head m of a layer as a one-head layer with an identity output projection."""
    pick = lambda a: None if a is None else a[m:m + 1]
    return MultiHeadWeights(pick(w.w_q), pick(w.w_k), pick(w.w_v), pick(w.b_q), pick(w.b_k),
                            pick(w.b_v), np.eye(w.w_v.shape[2]), None)


def attention_weights(x, w, mask):
    """Attention weights (n x n) of one-head layer w over the n columns of x.

    x gains n one-hot rows that the queries and keys ignore and that are
    the values, so each output row is the head's weights over the keys."""
    (d_e, n), d_k = x.shape, w.w_q.shape[2]
    ignored = np.zeros((1, n, d_k))
    one_hot = MultiHeadWeights(np.concatenate([w.w_q, ignored], axis=1),
                               np.concatenate([w.w_k, ignored], axis=1),
                               np.vstack([np.zeros((d_e, n)), np.eye(n)])[None],
                               w.b_q, w.b_k, None, np.eye(n), None)
    return head_rows(np.vstack([x, np.eye(n)]), one_hot, mask)


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
    """One head: a one-head layer behind an identity output projection."""

    def test_singleton_sequence_passes_value_through(self, rng):
        w = random_heads(rng, d_e=5, d_k=3, d_v=2)
        x = rng.normal(size=(5, 1))
        out = head_rows(x, w, build_mask(1, "AR"))
        npt.assert_allclose(out, (x.T @ w.w_v[0]), rtol=1e-12)

    def test_first_row_attends_only_to_itself_under_ar(self, rng):
        w = random_heads(rng, d_e=4, d_k=3, d_v=3)
        x = rng.normal(size=(4, 2))
        weights = attention_weights(x, w, build_mask(2, "AR"))
        npt.assert_array_equal(weights[0], [1.0, 0.0])

    @pytest.mark.parametrize("biases", [False, True])
    def test_matches_per_query_loop_oracle(self, rng, biases):
        w = random_heads(rng, d_e=6, d_k=4, d_v=3, biases=biases)
        x = rng.normal(size=(6, 4))
        out = head_rows(x, w, build_mask(4, "AR"))
        expected = oracles.head_attention(oracles.cols(x), *oracles.attention_head(w, 0),
                                          oracles.ar_mask(4))
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_weight_rows_are_distributions_with_exact_mask_zeros(self, rng):
        w = random_heads(rng, d_e=5, d_k=4, d_v=4, biases=True)
        x = rng.normal(size=(5, 6))
        weights = attention_weights(x, w, build_mask(6, "AR"))
        npt.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        for i in range(6):
            npt.assert_array_equal(weights[i, i + 1:], 0.0)

    def test_ar_causality_rows_fixed_under_future_changes(self, rng):
        w = random_heads(rng, d_e=5, d_k=3, d_v=4)
        x = rng.normal(size=(5, 5))
        base = head_rows(x, w, build_mask(5, "AR"))
        x2 = x.copy()
        x2[:, 3:] = rng.normal(size=(5, 2))
        changed = head_rows(x2, w, build_mask(5, "AR"))
        npt.assert_array_equal(changed[:3], base[:3])

    def test_ae_permutation_equivariance(self, rng):
        w = random_heads(rng, d_e=5, d_k=3, d_v=4)
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(6)
        base = head_rows(x, w, build_mask(6, "AE"))
        permuted = head_rows(x[:, perm], w, build_mask(6, "AE"))
        npt.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_score_scaling_follows_sqrt_dk(self, rng):
        # duplicating q/k columns doubles the raw dot product while the
        # denominator grows by sqrt(2): net factor sqrt(2) on every score,
        # and log-weights are the scores up to a per-row constant
        w = random_heads(rng, d_e=5, d_k=3, d_v=2)
        x = rng.normal(size=(5, 4))
        doubled = MultiHeadWeights(np.concatenate([w.w_q, w.w_q], axis=2),
                                   np.concatenate([w.w_k, w.w_k], axis=2),
                                   w.w_v, None, None, None, w.w_o, None)
        mask = build_mask(4, "AE")
        npt.assert_allclose(attention_weights(x, doubled, mask),
                            softmax(math.sqrt(2.0) * np.log(attention_weights(x, w, mask)),
                                    axis=1),
                            rtol=1e-12)


class TestQueryRule:
    """The mask's rows score the last columns of each sequence in x."""

    @pytest.mark.parametrize("biases", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_sequences_side_by_side_match_separate_calls(self, rng, biases, rows):
        w = random_heads(rng, d_e=5, d_k=3, d_v=2, heads=2, biases=biases)
        seqs = [rng.normal(size=(5, 4)) for _ in range(3)]
        mask = build_mask(4, "AR")[4 - rows:]
        out = head_rows(np.hstack(seqs), w, mask)
        assert out.shape == (3 * rows, 4)
        for b, x in enumerate(seqs):
            want = head_rows(x, w, build_mask(4, "AR"))[4 - rows:]
            npt.assert_allclose(out[b * rows:(b + 1) * rows], want, rtol=1e-13, atol=1e-15)

    def test_mask_with_no_rows_refused(self, rng):
        w = random_heads(rng, d_e=4, d_k=3, d_v=3)
        with pytest.raises(ShapeError):
            head_rows(rng.normal(size=(4, 3)), w, np.zeros((0, 3)))

    def test_more_rows_than_sequence_columns_refused(self, rng):
        w = random_heads(rng, d_e=4, d_k=3, d_v=3)
        with pytest.raises(ShapeError):
            head_rows(rng.normal(size=(4, 6)), w, np.zeros((4, 3)))

    @pytest.mark.parametrize("columns", [5, 0])
    def test_key_count_must_divide_the_columns(self, rng, columns):
        w = random_heads(rng, d_e=4, d_k=3, d_v=3)
        with pytest.raises(ShapeError):
            head_rows(rng.normal(size=(4, columns)), w, build_mask(2, "AR"))


class TestHeadCache:
    """Every head's keys and values in one AttentionCache per layer."""

    def _cache(self, w, n_max):
        heads, _, d_k = w.w_k.shape
        return AttentionCache(np.empty((heads, n_max, d_k)),
                              np.empty((heads, n_max, w.w_v.shape[2])))

    @pytest.mark.parametrize("biases", [False, True])
    @pytest.mark.parametrize("split", [[5], [1, 1, 1, 1, 1], [2, 3], [3, 1, 1]])
    def test_chunks_through_cache_match_one_pass(self, rng, biases, split):
        w = random_heads(rng, d_e=6, d_k=4, d_v=3, heads=2, biases=biases)
        x = rng.normal(size=(6, 5))
        full = head_rows(x, w, build_mask(5, "AR"))
        cache = self._cache(w, 7)
        start = 0
        for n in split:
            end = start + n
            out = head_rows(x[:, start:end], w, build_mask(end, "AR")[start:], cache)
            npt.assert_allclose(out, full[start:end], rtol=1e-13, atol=1e-15)
            start = end

    def test_mask_must_fit_the_cache(self, rng):
        w = random_heads(rng, d_e=4, d_k=3, d_v=3)
        cache = self._cache(w, 3)
        x = rng.normal(size=(4, 2))
        with pytest.raises(ShapeError):   # more keys than the cache holds
            head_rows(x, w, build_mask(4, "AR")[2:], cache)
        with pytest.raises(ShapeError):   # fewer keys than new columns
            head_rows(x, w, np.zeros((2, 1)), cache)
        with pytest.raises(ShapeError):   # a row per new column
            head_rows(x, w, np.zeros((1, 3)), cache)


class TestMultiHeadAttention:
    def test_single_head_identity_projection(self, rng):
        w = random_heads(rng, d_e=3, d_k=2, d_v=3)
        x = rng.normal(size=(3, 4))
        out = multi_head_attention(x, w, build_mask(4, "AE"), None)
        q, k, v = x.T @ w.w_q[0], x.T @ w.w_k[0], x.T @ w.w_v[0]
        npt.assert_allclose(out, (softmax(q @ k.T / math.sqrt(2.0), axis=1) @ v).T, rtol=1e-12)

    def test_zeroed_value_weights_zero_one_block(self, rng):
        w = random_heads(rng, 4, 3, 2, heads=3)
        w.w_v[1] = 0.0
        x = rng.normal(size=(4, 5))
        concat = head_rows(x, w, build_mask(5, "AE"))
        npt.assert_array_equal(concat[:, 2:4], 0.0)

    @pytest.mark.parametrize("biases", [False, True])
    def test_matches_concat_then_project_composition(self, rng, biases):
        w = random_heads(rng, 4, 3, 2, heads=2, biases=biases)
        w.w_o = rng.normal(size=(4, 4))
        w.b_o = rng.normal(size=4) if biases else None
        x = rng.normal(size=(4, 5))
        mask = build_mask(5, "AR")
        concat = np.hstack([head_rows(x, head(w, m), mask) for m in range(2)])
        expected = (concat @ w.w_o + (w.b_o if biases else 0.0)).T
        npt.assert_allclose(multi_head_attention(x, w, mask, None), expected, rtol=1e-12)

    def test_matches_loop_oracle(self, rng):
        w = random_heads(rng, 4, 3, 2, heads=2, biases=True)
        w.w_o, w.b_o = rng.normal(size=(4, 4)), rng.normal(size=4)
        x = rng.normal(size=(4, 3))
        out = multi_head_attention(x, w, build_mask(3, "AE"), None)
        expected_rows = oracles.multi_head(
            oracles.cols(x),
            [oracles.attention_head(w, m) for m in range(2)],
            oracles.rows(w.w_o), oracles.vec(w.b_o),
            oracles.ae_mask(3),
        )
        npt.assert_allclose(out, np.array(expected_rows).T, atol=1e-12)

    def test_output_projection_must_take_every_head(self, rng):
        w = random_heads(rng, 4, 3, 2, heads=2)
        w.w_o = np.eye(3)
        with pytest.raises(ShapeError, match="concatenated head width 4"):
            multi_head_attention(rng.normal(size=(4, 3)), w, build_mask(3, "AE"), None)

    def test_sequence_rows_must_match_the_projections(self, rng):
        w = random_heads(rng, 4, 3, 2, heads=2)
        with pytest.raises(ShapeError, match="sequence rows 5"):
            multi_head_attention(rng.normal(size=(5, 3)), w, build_mask(3, "AE"), None)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_score_overflowing_at_a_masked_key_is_an_undefined_distribution(self, rng):
        # positive queries and keys at 1e160 make every score +inf, and +inf
        # plus the mask's -inf is NaN; no other warning may come first
        w = random_heads(rng, 4, 3, 2, heads=2)
        w.w_q, w.w_k = np.abs(w.w_q) * 1e160, np.abs(w.w_k) * 1e160
        x = np.abs(rng.normal(size=(4, 3)))
        with pytest.raises(UndefinedDistributionError, match="softmax input contains NaN"):
            multi_head_attention(x, w, build_mask(3, "AR"), None)

    @pytest.mark.parametrize("n", [31, 32, 64])
    def test_masked_exponentials_equal_the_plain_softmax_bitwise(self, rng, monkeypatch, n):
        # from kernels.MASKED_EXP_MIN_KEYS keys the causal softmax exponentiates
        # only allowed entries; one call covers every head and sequence
        w = random_heads(rng, 6, 3, 2, heads=3, biases=True)
        w.w_o = rng.normal(size=(6, 6))
        x = rng.normal(size=(6, 2 * n))
        mask = build_mask(n, "AR")
        outputs = []
        for min_keys in (1, 10**9):  # every mask takes the masked path, then none does
            monkeypatch.setattr(kernels, "MASKED_EXP_MIN_KEYS", min_keys)
            assert (kernels.exp_allowed(mask) is None) == (min_keys > n)
            outputs.append(multi_head_attention(x, w, mask, None))
        npt.assert_array_equal(*outputs)
