"""Transformer blocks, the decoder LM, the encoder backbone, and its heads."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit import attention, inference, kernels, transformer
from nlmkit.attention import build_mask
from nlmkit.config import ModelConfig
from nlmkit.errors import SequenceFormatError, SequenceLengthError
from nlmkit.inference import generate_tokens, make_predict_next
from nlmkit.kernels import layer_norm, softmax
from nlmkit.transformer import (
    WINDOW_COLUMNS,
    bert_forward,
    gpt2_decoder,
    gpt2_forward,
    gpt2_hidden,
    gpt2_windows,
    KVCache,
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
    return Vocabulary(["[CLS]", "[SEP]", "[MASK]", "a", "b", "c", "d", "e", "f", "g", "h"], {})


class TestTransformerBlock:
    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_preserves_shape(self, rng, variant):
        w = init_weights(tiny_gpt2_config(variant=variant), 1).blocks[0]
        h = rng.normal(size=(8, 5))
        out = transformer_block(h, w, build_mask(5, "AR"), variant, "tanh", None)
        assert out.shape == (8, 5)

    def test_zero_weights_post_norm_against_oracle(self):
        cfg = tiny_gpt2_config(variant="post")
        w = zeros_weights(cfg).blocks[0]
        h = np.arange(40.0).reshape(8, 5)
        out = transformer_block(h, w, build_mask(5, "AR"), "post", "tanh", None)
        expected = oracles.block_forward(oracles.cols(h), w, oracles.ar_mask(5),
                                         "post", "tanh")
        npt.assert_allclose(out, np.array(expected).T, atol=1e-12)

    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_random_weights_against_oracle(self, rng, variant):
        cfg = tiny_gpt2_config(variant=variant)
        w = init_weights(cfg, 7).blocks[1]
        h = rng.normal(size=(8, 4))
        out = transformer_block(h, w, build_mask(4, "AR"), variant, "tanh", None)
        expected = oracles.block_forward(oracles.cols(h), w, oracles.ar_mask(4),
                                         variant, "tanh")
        npt.assert_allclose(out, np.array(expected).T, atol=1e-10)

    def test_ar_causality_per_column(self, rng):
        cfg = tiny_gpt2_config()
        w = init_weights(cfg, 3).blocks[0]
        h = rng.normal(size=(8, 5))
        base = transformer_block(h, w, build_mask(5, "AR"), "pre", "tanh", None)
        h2 = h.copy()
        h2[:, 4] += 1.0
        out = transformer_block(h2, w, build_mask(5, "AR"), "pre", "tanh", None)
        npt.assert_array_equal(out[:, :4], base[:, :4])

    @pytest.mark.parametrize("variant,gelu_mode", [("post", "tanh"), ("pre", "exact")])
    def test_one_row_mask_gives_the_last_column(self, rng, variant, gelu_mode):
        w = init_weights(tiny_gpt2_config(variant=variant), 5).blocks[1]
        h = rng.normal(size=(8, 5))
        mask = build_mask(5, "AR")
        full = transformer_block(h, w, mask, variant, gelu_mode, None)
        last = transformer_block(h, w, mask[-1:], variant, gelu_mode, None)
        assert last.shape == (8, 1)
        npt.assert_allclose(last, full[:, -1:], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_sequences_side_by_side_match_separate_calls(self, rng, variant):
        w = init_weights(tiny_gpt2_config(variant=variant), 5).blocks[0]
        seqs = [rng.normal(size=(8, 4)) for _ in range(3)]
        mask = build_mask(4, "AR")
        for rows in (1, 4):
            out = transformer_block(np.hstack(seqs), w, mask[4 - rows:], variant, "tanh", None)
            for b, h in enumerate(seqs):
                whole = transformer_block(h, w, mask, variant, "tanh", None)
                npt.assert_allclose(out[:, b * rows:(b + 1) * rows], whole[:, 4 - rows:],
                                    rtol=1e-12, atol=1e-14)


class TestTransformerStack:
    def test_single_block_equals_block_call(self, rng):
        cfg = tiny_gpt2_config()
        w = init_weights(cfg, 11)
        blocks = w.blocks[:1]
        h = rng.normal(size=(8, 3))
        mask = build_mask(3, "AR")
        npt.assert_array_equal(
            transformer_stack(h, replace(w, blocks=blocks, norm_variant="pre"), mask),
            transformer_block(h, blocks[0], mask, "pre", "tanh", None))

    def test_two_blocks_compose(self, rng):
        cfg = tiny_gpt2_config()
        w = init_weights(cfg, 11)
        blocks = w.blocks
        h = rng.normal(size=(8, 3))
        mask = build_mask(3, "AR")
        manual = transformer_block(transformer_block(h, blocks[0], mask, "pre", "tanh", None),
                                   blocks[1], mask, "pre", "tanh", None)
        npt.assert_array_equal(
            transformer_stack(h, replace(w, blocks=blocks, norm_variant="pre"), mask), manual)

    def test_three_blocks_against_fold(self, rng):
        cfg = tiny_gpt2_config()
        blocks = [init_weights(cfg, seed).blocks[0] for seed in (1, 2, 3)]
        h = rng.normal(size=(8, 4))
        mask = build_mask(4, "AE")
        expected = h
        for b in blocks:
            expected = transformer_block(expected, b, mask, "post", "tanh", None)
        npt.assert_array_equal(
            transformer_stack(h, replace(init_weights(cfg, 1), blocks=blocks, norm_variant="post"),
                              mask), expected)


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
        with pytest.raises(SequenceLengthError):
            gpt2_forward(np.zeros((5, 2), dtype=int), w)

    @pytest.mark.parametrize("variant,zeta", [("pre", 1), ("post", 0)])
    def test_id_matrix_columns_are_sequences_in_position_major_order(self, variant, zeta):
        w = init_weights(tiny_gpt2_config(zeta=zeta, variant=variant), 21)
        ids = np.array([[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]])  # 4 positions x 3 sequences
        out = gpt2_forward(ids, w)
        assert out.shape == (11, 12)
        for b in range(3):  # logit column t * 3 + b follows ids[t, b]
            npt.assert_allclose(out[:, b::3], gpt2_forward(ids[:, b].tolist(), w),
                                rtol=1e-12, atol=1e-14)

    def test_pre_and_post_agree_in_degenerate_case(self, rng):
        # zero attention/ffn weights, unit gains, zero biases: both variants
        # collapse to layer_norm chains over an already z-scored input
        raw = rng.normal(size=(8, 3))
        zscored = (raw - raw.mean(axis=0)) / raw.std(axis=0)
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


def test_every_gpt2_stack_pass_enters_through_gpt2_hidden(monkeypatch):
    """The forward pass, a window scorer of several passes, decoder steps and
    the trainer's batch logits all run the one pass, ``gpt2_hidden``."""
    cfg = tiny_gpt2_config(max_len=8)
    w = init_weights(cfg, 4)
    hidden, stack = transformer.gpt2_hidden, transformer.transformer_stack
    entered, inside = [], []  # per stack pass: whether gpt2_hidden is running

    def counted_hidden(*args, **kwargs):
        inside.append(True)
        try:
            return hidden(*args, **kwargs)
        finally:
            inside.pop()

    def counted_stack(*args, **kwargs):
        entered.append(bool(inside))
        return stack(*args, **kwargs)

    monkeypatch.setattr(transformer, "gpt2_hidden", counted_hidden)
    monkeypatch.setattr(transformer, "transformer_stack", counted_stack)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, 47).tolist()
    gpt2_forward(ids[:8], w)
    assert WINDOW_COLUMNS // 8 < 40  # the 40 windows take two passes
    make_predict_next(cfg, w).windows(ids, 8)
    decode = inference.CAUSAL["gpt2"].decoder(w, 8)
    decode(ids[:5])
    decode(ids[:6])
    inference.CAUSAL["gpt2"].grad(np.array(ids[:24]).reshape(8, 3), w)[0]
    assert entered == [True] * 6


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

    def test_one_key_and_one_value_array_per_block(self):
        cfg = ModelConfig(arch="gpt2", d_e=6, d_k=3, d_v=2, d_f=5, M=4, L=3, vocab_size=7,
                          max_len=5)
        w = init_weights(cfg, 0)
        cache = KVCache(w)
        assert cache.length == 0 and len(cache.blocks) == 3
        for block in cache.blocks:
            assert block.k.shape == (4, 5, 3) and block.v.shape == (4, 5, 2)
        gpt2_hidden([1, 2], w, cache)
        assert cache.blocks[0].k is not cache.blocks[1].k

    def test_cache_capacity_is_max_len(self):
        w = init_weights(tiny_gpt2_config(max_len=4), 0)
        cache = KVCache(w)
        gpt2_hidden([1, 2, 3], w, cache)
        with pytest.raises(SequenceLengthError):
            gpt2_hidden([4, 5], w, cache)
        assert cache.length == 3
        assert gpt2_hidden([4], w, cache).shape == (8, 1)


class TestBertForward:
    @pytest.mark.parametrize("variant", ["post", "pre"])
    def test_equals_the_hand_written_positional_sum_bitwise(self, variant):
        cfg = tiny_bert_config()
        cfg.norm_variant = variant
        w = init_weights(cfg, 31)
        seq = TokenSequence([0, 3, 4, 1, 5, 1], segments=["A"] * 4 + ["B"] * 2)
        x = w.embedding[:, seq.ids] + w.positions[:, :6] + np.column_stack(
            [w.seg_a] * 4 + [w.seg_b] * 2)
        h0 = layer_norm(x, w.emb_norm_gain, w.emb_norm_bias)
        want = transformer_stack(h0, w, build_mask(6, "AE"))
        npt.assert_array_equal(bert_forward(seq, w, bert_vocab()), want)

    def test_length_checked_against_max_len(self):
        w = init_weights(tiny_bert_config(max_len=4), 2)
        with pytest.raises(SequenceLengthError, match="sequence length 5 exceeds maximum 4"):
            bert_forward(TokenSequence([0, 3, 4, 5, 1]), w, bert_vocab())

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
        vocab = bert_vocab()
        npt.assert_array_equal(bert_forward(seq_plain, w, vocab), bert_forward(seq_a, w, vocab))
        w.seg_b[:] += 99.0  # untouched segment vector is irrelevant
        npt.assert_array_equal(bert_forward(seq_plain, w, vocab), bert_forward(seq_a, w, vocab))

    def test_swap_equivariance_without_positions(self, rng):
        # zero positional/segment encodings + all-zero mask: swapping two
        # tokens swaps the corresponding output columns
        cfg = tiny_bert_config()
        w = init_weights(cfg, 8)
        w.positions[:] = 0.0
        w.seg_a[:] = 0.0
        w.seg_b[:] = 0.0
        a = bert_forward(TokenSequence([0, 3, 4, 1]), w, bert_vocab())
        b = bert_forward(TokenSequence([0, 4, 3, 1]), w, bert_vocab())
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
        npt.assert_allclose(softmax(nsp_head(np.ones((8, 4)), w)), [0.5, 0.5], atol=1e-15)

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
        npt.assert_allclose(softmax(nsp_head(h, w)), expected, atol=1e-12)


class TestGreedyDecode:
    def test_zero_steps_echo_prompt(self):
        cfg = tiny_gpt2_config()
        assert generate_tokens(cfg, init_weights(cfg, 1), [1, 2], 0) == [1, 2]

    def test_deterministic(self):
        cfg = tiny_gpt2_config()
        w = init_weights(cfg, 1)
        assert generate_tokens(cfg, w, [1, 2], 3) == generate_tokens(cfg, w, [1, 2], 3)

    def test_budget_checked_against_max_len(self):
        cfg = tiny_gpt2_config(max_len=4)
        with pytest.raises(SequenceLengthError):
            generate_tokens(cfg, init_weights(cfg, 1), [1, 2], 3)

    def test_tie_breaks_to_lowest_id(self):
        # all-zero weights make every distribution uniform
        cfg = tiny_gpt2_config()
        assert generate_tokens(cfg, zeros_weights(cfg), [1], 1)[-1] == 0


class TestMaskedExponential:
    @pytest.mark.parametrize("variant,gelu_mode", [("pre", "tanh"), ("post", "exact")])
    def test_outputs_bitwise_equal_on_either_softmax_path(self, monkeypatch, variant, gelu_mode):
        cfg = ModelConfig(arch="gpt2", d_e=8, M=2, L=2, vocab_size=20, max_len=40, d_k=4, d_v=4,
                          d_f=16, norm_variant=variant, gelu_mode=gelu_mode)
        w = init_weights(cfg, 3)
        ids = np.random.default_rng(0).integers(0, 20, 40).tolist()
        masked_calls = []

        def spy(v, axis, allowed, overwrite):
            masked_calls.append(allowed is not None)
            return softmax(v, axis, allowed, overwrite)

        def run():
            decode = gpt2_decoder(w, 40)  # a prompt, one step, then 34 columns at once
            return [gpt2_forward(ids, w), gpt2_windows(ids, 33, w)] + [
                decode(ids[:k]) for k in (5, 6, 40)]

        monkeypatch.setattr(attention, "softmax", spy)
        monkeypatch.setattr(kernels, "MASKED_EXP_MIN_KEYS", 1)
        masked = run()
        assert sum(masked_calls) > 0
        masked_calls.clear()
        monkeypatch.setattr(kernels, "MASKED_EXP_MIN_KEYS", 10**9)
        plain = run()
        assert not any(masked_calls)
        for got, want in zip(masked, plain):
            npt.assert_array_equal(got, want)
