"""Transformer blocks, the decoder LM, the encoder backbone, and its heads."""

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.attention import build_mask
from nlmkit.errors import SequenceFormatError, SequenceLengthError
from nlmkit.kernels import layer_norm, softmax
from nlmkit.transformer import (
    bert_forward,
    gpt2_forward,
    gpt2_hidden,
    KVCache,
    greedy_decode,
    mlm_head,
    nsp_head,
    transformer_block,
    transformer_stack,
)
from nlmkit.vocab import TokenSequence, Vocabulary
from nlmkit.weights import init_weights, zeros_weights

import oracles
from conftest import tiny_bert_config, tiny_gpt2_config


def bert_vocab():
    return Vocabulary(["[CLS]", "[SEP]", "[MASK]", "a", "b", "c", "d", "e", "f", "g", "h"])


class TestTransformerBlock:
    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_preserves_shape(self, rng, variant):
        w = init_weights(tiny_gpt2_config(variant=variant), 1).blocks[0]
        h = rng.normal(size=(8, 5))
        out = transformer_block(h, w, build_mask(5, "AR"), variant)
        assert out.shape == (8, 5)

    def test_zero_weights_post_norm_against_oracle(self):
        cfg = tiny_gpt2_config(variant="post")
        w = zeros_weights(cfg).blocks[0]
        h = np.arange(40.0).reshape(8, 5)
        out = transformer_block(h, w, build_mask(5, "AR"), "post")
        expected = oracles.block_forward(oracles.cols(h), w, oracles.ar_mask(5),
                                         "post", "tanh")
        npt.assert_allclose(out, np.array(expected).T, atol=1e-12)

    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_random_weights_against_oracle(self, rng, variant):
        cfg = tiny_gpt2_config(variant=variant)
        w = init_weights(cfg, 7).blocks[1]
        h = rng.normal(size=(8, 4))
        out = transformer_block(h, w, build_mask(4, "AR"), variant)
        expected = oracles.block_forward(oracles.cols(h), w, oracles.ar_mask(4),
                                         variant, "tanh")
        npt.assert_allclose(out, np.array(expected).T, atol=1e-10)

    def test_ar_causality_per_column(self, rng):
        cfg = tiny_gpt2_config()
        w = init_weights(cfg, 3).blocks[0]
        h = rng.normal(size=(8, 5))
        base = transformer_block(h, w, build_mask(5, "AR"), "pre")
        h2 = h.copy()
        h2[:, 4] += 1.0
        out = transformer_block(h2, w, build_mask(5, "AR"), "pre")
        npt.assert_array_equal(out[:, :4], base[:, :4])


class TestTransformerStack:
    def test_single_block_equals_block_call(self, rng):
        cfg = tiny_gpt2_config()
        blocks = init_weights(cfg, 11).blocks[:1]
        h = rng.normal(size=(8, 3))
        mask = build_mask(3, "AR")
        npt.assert_array_equal(transformer_stack(h, blocks, mask, "pre"),
                               transformer_block(h, blocks[0], mask, "pre"))

    def test_two_blocks_compose(self, rng):
        cfg = tiny_gpt2_config()
        blocks = init_weights(cfg, 11).blocks
        h = rng.normal(size=(8, 3))
        mask = build_mask(3, "AR")
        manual = transformer_block(transformer_block(h, blocks[0], mask, "pre"),
                                   blocks[1], mask, "pre")
        npt.assert_array_equal(transformer_stack(h, blocks, mask, "pre"), manual)

    def test_three_blocks_against_fold(self, rng):
        cfg = tiny_gpt2_config()
        blocks = [init_weights(cfg, seed).blocks[0] for seed in (1, 2, 3)]
        h = rng.normal(size=(8, 4))
        mask = build_mask(4, "AE")
        expected = h
        for b in blocks:
            expected = transformer_block(expected, b, mask, "post")
        npt.assert_array_equal(transformer_stack(h, blocks, mask, "post"), expected)


class TestGpt2Forward:
    @pytest.mark.parametrize("variant,zeta", [("pre", 1), ("post", 1), ("pre", 0), ("post", 0)])
    def test_matches_straight_line_oracle(self, variant, zeta):
        cfg = tiny_gpt2_config(zeta=zeta, variant=variant)
        w = init_weights(cfg, 123)
        ids = [3, 1, 4, 1, 5]
        out = softmax(gpt2_forward(ids, w), axis=0)
        expected = np.array(oracles.gpt2_forward(ids, w)).T
        npt.assert_allclose(out, expected, atol=1e-10)

    def test_distributions_are_normalized(self, rng):
        w = init_weights(tiny_gpt2_config(), 5)
        out = softmax(gpt2_forward([1, 2, 3, 4], w), axis=0)
        assert np.all(out >= 0)
        npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)

    def test_last_token_change_only_moves_last_column(self, rng):
        w = init_weights(tiny_gpt2_config(), 9)
        base = gpt2_forward([1, 2, 3, 4], w)
        changed = gpt2_forward([1, 2, 3, 7], w)
        npt.assert_array_equal(changed[:, :3], base[:, :3])
        assert not np.array_equal(changed[:, 3], base[:, 3])

    def test_over_length_rejected(self):
        w = init_weights(tiny_gpt2_config(max_len=4), 0)
        with pytest.raises(SequenceLengthError):
            gpt2_forward([0, 1, 2, 3, 4], w)

    def test_pre_and_post_agree_in_degenerate_case(self, rng):
        # zero attention/ffn weights, unit gains, zero biases: both variants
        # collapse to layer_norm chains over an already z-scored input
        raw = rng.normal(size=(8, 3))
        zscored = layer_norm(raw, np.ones(8), np.zeros(8), eps=0.0)
        variant_outputs = []
        for variant in ("post", "pre"):
            cfg = tiny_gpt2_config(variant=variant, zeta=0)
            w = zeros_weights(cfg)
            w.emb_norm_gain[:] = 1.0
            for block in w.blocks:
                block.ln1_gain[:] = 1.0
                block.ln2_gain[:] = 1.0
            w.embedding[:, :3] = zscored
            w.positions[:] = 0.0
            variant_outputs.append(gpt2_forward([0, 1, 2], w))
        npt.assert_allclose(variant_outputs[0], variant_outputs[1], atol=1e-9)


class TestKvCache:
    @pytest.mark.parametrize("variant,zeta", [("pre", 1), ("post", 1), ("post", 0)])
    @pytest.mark.parametrize("split", [[6], [1] * 6, [2, 4], [4, 1, 1]])
    def test_chunks_through_cache_match_full_pass(self, variant, zeta, split):
        w = init_weights(tiny_gpt2_config(zeta=zeta, variant=variant), 17)
        ids = [3, 1, 4, 1, 5, 9]
        full = gpt2_hidden(ids, w)
        cache = KVCache(w)
        start = 0
        for n in split:
            h = gpt2_hidden(ids[start:start + n], w, cache)
            npt.assert_allclose(h, full[:, start:start + n], rtol=1e-12, atol=1e-14)
            start += n
            assert cache.length == start

    def test_cache_capacity_is_max_len(self):
        w = init_weights(tiny_gpt2_config(max_len=4), 0)
        cache = KVCache(w)
        gpt2_hidden([1, 2, 3], w, cache)
        with pytest.raises(SequenceLengthError):
            gpt2_hidden([4, 5], w, cache)
        assert cache.length == 3
        assert gpt2_hidden([4], w, cache).shape == (8, 1)


class TestBertForward:
    def test_matches_straight_line_oracle(self):
        for zeta in (0, 1):
            cfg = tiny_bert_config(zeta=zeta)
            w = init_weights(cfg, 77)
            seq = TokenSequence([0, 3, 4, 5, 1], segments=["A"] * 5)
            h = bert_forward(seq, w)
            expected = np.array(oracles.bert_hidden(seq.ids, seq.segments, w)).T
            npt.assert_allclose(h, expected, atol=1e-10)

    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_equals_the_hand_written_positional_sum_bitwise(self, variant):
        cfg = tiny_bert_config()
        cfg.norm_variant = variant
        w = init_weights(cfg, 31)
        seq = TokenSequence([0, 3, 4, 1, 5, 1], segments=["A"] * 4 + ["B"] * 2)
        x = w.embedding[:, seq.ids] + w.positions[:, :6] + np.column_stack(
            [w.seg_a] * 4 + [w.seg_b] * 2)
        h0 = layer_norm(x, w.emb_norm_gain, w.emb_norm_bias)
        want = transformer_stack(h0, w.blocks, build_mask(6, "AE"), variant, w.gelu_mode)
        npt.assert_array_equal(bert_forward(seq, w), want)

    def test_length_checked_against_max_len(self):
        w = init_weights(tiny_bert_config(max_len=4), 2)
        with pytest.raises(SequenceLengthError, match="sequence length 5 exceeds maximum 4"):
            bert_forward(TokenSequence([0, 3, 4, 5, 1]), w)

    def test_requires_cls_and_sep_with_vocab(self):
        vocab = bert_vocab()
        w = init_weights(tiny_bert_config(), 2)
        with pytest.raises(SequenceFormatError):
            bert_forward(TokenSequence([3, 4, 1]), w, vocab)
        with pytest.raises(SequenceFormatError):
            bert_forward(TokenSequence([0, 3, 4]), w, vocab)

    def test_single_segment_uses_only_vector_a(self, rng):
        cfg = tiny_bert_config()
        w = init_weights(cfg, 4)
        seq_plain = TokenSequence([0, 3, 4, 1])
        seq_a = TokenSequence([0, 3, 4, 1], segments=["A"] * 4)
        npt.assert_array_equal(bert_forward(seq_plain, w), bert_forward(seq_a, w))
        w.seg_b[:] += 99.0  # untouched segment vector is irrelevant
        npt.assert_array_equal(bert_forward(seq_plain, w), bert_forward(seq_a, w))

    def test_swap_equivariance_without_positions(self, rng):
        # zero positional/segment encodings + all-zero mask: swapping two
        # tokens swaps the corresponding output columns
        cfg = tiny_bert_config()
        w = init_weights(cfg, 8)
        w.positions[:] = 0.0
        w.seg_a[:] = 0.0
        w.seg_b[:] = 0.0
        a = bert_forward(TokenSequence([0, 3, 4, 1]), w)
        b = bert_forward(TokenSequence([0, 4, 3, 1]), w)
        npt.assert_allclose(b[:, [0, 2, 1, 3]], a, atol=1e-12)


class TestMlmHead:
    def test_zeroed_head_gives_uniform(self):
        cfg = tiny_bert_config()
        w = zeros_weights(cfg)
        h = np.ones((8, 4))
        out = softmax(mlm_head(h, w), axis=0)
        npt.assert_allclose(out, 1.0 / cfg.vocab_size, atol=1e-12)

    def test_one_distribution_per_position(self, rng):
        w = init_weights(tiny_bert_config(), 6)
        h = rng.normal(size=(8, 5))
        out = softmax(mlm_head(h, w), axis=0)
        assert out.shape == (11, 5)
        npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)

    def test_matches_straight_line_oracle(self, rng):
        w = init_weights(tiny_bert_config(), 13)
        h = rng.normal(size=(8, 3))
        expected = np.array(oracles.bert_mlm(oracles.cols(h), w)).T
        npt.assert_allclose(softmax(mlm_head(h, w), axis=0), expected, atol=1e-10)


class TestNspHead:
    def test_zero_weights_give_even_split(self):
        w = zeros_weights(tiny_bert_config())
        npt.assert_allclose(nsp_head(np.ones((8, 4)), w), [0.5, 0.5], atol=1e-15)

    def test_depends_only_on_cls_column(self, rng):
        w = init_weights(tiny_bert_config(), 3)
        h = rng.normal(size=(8, 5))
        base = nsp_head(h, w)
        h2 = h.copy()
        h2[:, 1:] = rng.normal(size=(8, 4))
        npt.assert_array_equal(nsp_head(h2, w), base)

    def test_matches_straight_line_oracle(self, rng):
        w = init_weights(tiny_bert_config(), 21)
        h = rng.normal(size=(8, 4))
        expected = oracles.bert_nsp(oracles.cols(h), w)
        npt.assert_allclose(nsp_head(h, w), expected, atol=1e-12)


class TestGreedyDecode:
    def test_zero_steps_echo_prompt(self):
        w = init_weights(tiny_gpt2_config(), 1)
        assert greedy_decode([1, 2], w, 0) == [1, 2]

    def test_deterministic(self):
        w = init_weights(tiny_gpt2_config(), 1)
        assert greedy_decode([1, 2], w, 3) == greedy_decode([1, 2], w, 3)

    def test_budget_checked_against_max_len(self):
        w = init_weights(tiny_gpt2_config(max_len=4), 1)
        with pytest.raises(SequenceLengthError):
            greedy_decode([1, 2], w, 3)

    def test_tie_breaks_to_lowest_id(self):
        # all-zero weights make every distribution uniform
        w = zeros_weights(tiny_gpt2_config())
        assert greedy_decode([1], w, 1)[-1] == 0
