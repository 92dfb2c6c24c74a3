"""Cross-entropy reductions, next-token and masked-token losses, corpus NLL."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmkit.errors import (
    ConfigError,
    OutOfVocabularyError,
    SequenceFormatError,
    SequenceLengthError,
    ShapeError,
    UndefinedDistributionError,
)
from nlmkit.kernels import softmax
from nlmkit.losses import (
    Predictor,
    apply_mlm_mask,
    ar_loss,
    ce_loss,
    corpus_nll,
    mlm_corrupt,
    mlm_loss,
    summed_ce,
    summed_ce_grad,
)
from nlmkit.transformer import gpt2_forward, gpt2_hidden
from nlmkit.vocab import TokenSequence, Vocabulary
from nlmkit.weights import init_weights

import oracles
from conftest import random_distribution, tiny_gpt2_config


def assert_matches_oracle(got, want):
    if want == math.inf:
        assert got == math.inf
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def predictor(dist):
    """A Predictor whose logits are the logarithms of the hand-written
    next-token distribution `dist(context)`, one call per context."""
    def logits(contexts):
        return np.log(np.column_stack([dist(ctx) for ctx in contexts]))

    return Predictor(lambda ids: logits([ids[:j + 1] for j in range(len(ids))]),
                     lambda ids, n: logits([ids[s:s + n] for s in range(len(ids) - n + 1)]))


class TestCeLoss:
    def test_uniform_is_log_vocab(self):
        assert abs(ce_loss(3, np.log(np.full(8, 1 / 8))) - math.log(8)) < 1e-12

    def test_one_hot_truth_is_zero(self):
        y = np.full(5, -np.inf)
        y[2] = 0.0
        assert ce_loss(2, y) == 0.0

    def test_zero_probability_reports_infinity(self):
        y = np.full(4, -np.inf)
        y[0] = 0.0
        assert ce_loss(3, y) == math.inf

    def test_finite_past_probability_underflow(self):
        # softmax([0, 800])[0] underflows to 0; the loss itself is 800
        assert ce_loss(0, np.array([0.0, 800.0])) == 800.0

    @pytest.mark.parametrize("logits", [[0.0, np.nan], [0.0, np.inf], [-np.inf, -np.inf], []])
    def test_undefined_distribution_rejected(self, logits):
        with pytest.raises(UndefinedDistributionError):
            ce_loss(0, np.array(logits))

    @pytest.mark.parametrize("targets,logits", [(4, np.zeros(4)), (-1, np.zeros(4)),
                                                ([0, 4], np.zeros((4, 2))),
                                                ([0, 1, 2], np.zeros((4, 2))),
                                                (0, np.zeros((4, 1)))])
    def test_bad_targets_rejected(self, targets, logits):
        with pytest.raises(ShapeError):
            ce_loss(targets, logits)

    @pytest.mark.parametrize("view", [lambda z: z, lambda z: z[:, :-1], lambda z: z[:, [3, 0, 3]],
                                      lambda z: z[:, 2]])
    def test_leaves_the_callers_logits_alone_and_overwrite_agrees(self, rng, view):
        z = rng.normal(scale=4.0, size=(7, 5))
        z[0, 1] = -np.inf
        targets = rng.integers(0, 7, view(z).shape[1:])
        kept = z.copy()
        loss = ce_loss(targets, view(z))
        npt.assert_array_equal(z, kept)
        # the in-place reduction the losses run on logits they own
        assert summed_ce(targets, view(z.copy())) == loss

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40), cols=st.integers(1, 4),
           spread=st.floats(0.0, 1e4), rate=st.floats(0.0, 0.9))
    def test_property_matches_log_space_oracle(self, seed, size, cols, spread, rate):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-spread, spread, size=(size, cols))
        z[rng.random((size, cols)) < rate] = -np.inf
        # every column keeps at least one finite logit
        z[rng.integers(0, size, cols), np.arange(cols)] = rng.uniform(-spread, spread, cols)
        targets = rng.integers(0, size, cols)
        want = [oracles.ce_loss(list(z[:, j]), int(t)) for j, t in enumerate(targets)]
        for j, t in enumerate(targets):
            assert_matches_oracle(ce_loss(int(t), z[:, j]), want[j])
        assert_matches_oracle(ce_loss(targets, z), math.fsum(want))


class TestCeLossGrad:
    """``summed_ce_grad``: the loss and, in place, its gradient in the logits."""

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), cols=st.integers(1, 5),
           spread=st.floats(0.0, 50.0), rate=st.floats(0.0, 0.9))
    def test_loss_bitwise_and_columns_sum_to_zero(self, seed, size, cols, spread, rate):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-spread, spread, size=(size, cols))
        z[rng.random((size, cols)) < rate] = -np.inf
        targets = rng.integers(0, size, cols)
        z[targets, np.arange(cols)] = rng.uniform(-spread, spread, cols)  # finite targets
        grad = z.copy()
        loss = summed_ce_grad(targets, grad)
        assert loss == summed_ce(targets, z.copy())
        assert np.abs(grad.sum(axis=0)).max() <= 1e-15
        assert (grad[np.isneginf(z)] == 0.0).all()

    def test_gradient_is_softmax_minus_one_hot(self, rng):
        z = rng.normal(size=(6, 3))
        targets = np.array([5, 0, 5])
        want = softmax(z, axis=0)
        want[targets, np.arange(3)] -= 1.0
        summed_ce_grad(targets, z)  # in place: z is now the gradient
        npt.assert_allclose(z, want, rtol=0, atol=1e-15)

    def test_masked_non_target_gets_exact_zero(self):
        z = np.array([[0.0, 1.0], [-np.inf, 2.0], [3.0, -np.inf]])
        targets = np.array([0, 1])
        loss = ce_loss(targets, z)
        assert summed_ce_grad(targets, z) == loss
        assert z[1, 0] == 0.0 and z[2, 1] == 0.0

    # the ids are checked where they enter (``training._batch``); their count is checked here
    @pytest.mark.parametrize("targets,logits", [([0], np.zeros((4, 2))),
                                                ([0, 1, 2], np.zeros((4, 2)))])
    def test_bad_targets_rejected(self, targets, logits):
        with pytest.raises(ShapeError):
            summed_ce_grad(np.array(targets), logits)


def layouts(z):
    """C-ordered and F-ordered copies of the same logits."""
    return np.ascontiguousarray(z), np.asfortranarray(z)


class TestLogitLayout:
    """Every loss reads a |V| x n logit matrix in either memory order; the
    tied head returns one whose columns, one per position, are contiguous."""

    def _logits(self, rng, rows=13, cols=6):
        z = rng.normal(scale=3.0, size=(rows, cols))
        z[0, 1] = -np.inf
        return z

    def test_ce_loss_and_its_gradient(self, rng):
        z = self._logits(rng)
        targets = rng.integers(1, 13, 6)
        c, f = layouts(z)
        assert c.flags.c_contiguous and f.flags.f_contiguous and not f.flags.c_contiguous
        assert ce_loss(targets, f) == pytest.approx(
            ce_loss(targets, c), rel=1e-12)
        assert summed_ce_grad(targets, f) == pytest.approx(summed_ce_grad(targets, c), rel=1e-12)
        npt.assert_allclose(f, c, rtol=1e-12, atol=0)  # each now holds its gradient

    def test_mlm_loss(self, rng):
        target = apply_mlm_mask(TokenSequence([0, 1, 2, 3, 4, 5]), [1, 2, 5], umbrella_vocab())
        c, f = layouts(self._logits(rng))
        assert mlm_loss(target, f) == pytest.approx(mlm_loss(target, c), rel=1e-12)

    def test_corpus_nll(self, rng):
        z = self._logits(rng, cols=40)
        corpus = rng.integers(0, 13, 30).tolist()

        def passes(order):
            # fresh arrays per call, as a model's passes return
            return Predictor(lambda ids: np.array(z[:, :len(ids)], order=order),
                             lambda ids, n: np.array(z[:, :len(ids) - n + 1], order=order))

        want = corpus_nll(corpus, passes("C"), window=4, min_context=1)
        assert corpus_nll(corpus, passes("F"), window=4, min_context=1) \
            == pytest.approx(want, rel=1e-12)

    def test_overwrite_shifts_a_column_contiguous_view_in_place(self, rng):
        rows = rng.normal(scale=3.0, size=(6, 13))  # position-major, as the tied head computes
        z = rows.T
        before = z.copy()
        targets = rng.integers(0, 13, 6)
        loss = summed_ce(targets, z)  # as ar_loss reduces a forward's logits
        npt.assert_array_equal(rows.T, np.exp(before - before.max(axis=0)))
        assert loss == pytest.approx(ce_loss(targets, before), rel=1e-12)


class TestArLoss:
    def test_uniform_model(self):
        forward = lambda ids: np.log(np.full((8, len(ids)), 1 / 8))
        assert abs(ar_loss([1, 2, 3, 4], forward) - 3 * math.log(8)) < 1e-12

    def test_memorizing_model_scores_zero(self):
        ids = [1, 2, 3]

        def forward(seq):
            out = np.full((5, len(seq)), -np.inf)
            for i in range(len(seq)):
                out[ids[i + 1], i] = 0.0
            return out

        assert ar_loss(ids, forward) == 0.0

    def test_teacher_forcing_uses_only_ground_truth(self):
        calls = []

        def forward(ids):
            calls.append(list(ids))
            return np.log(np.full((6, len(ids)), 1 / 6))

        ids = [5, 4, 3, 2]
        ar_loss(ids, forward)
        assert calls == [ids[:-1]]  # one call, on the ground-truth tokens that predict one

    def test_forward_must_return_a_column_per_predicting_token(self):
        with pytest.raises(ShapeError, match=r"expected \(\|V\|, 3\)"):
            ar_loss([1, 2, 3, 4], lambda ids: np.zeros((4, 4)))

    def test_requires_two_tokens(self):
        with pytest.raises(SequenceLengthError):
            ar_loss([1], lambda ids: np.log(np.full((4, 1), 0.25)))

    @pytest.mark.parametrize("bad", [8, 9, -1, 2**70])
    def test_an_id_only_a_target_is_out_of_vocabulary(self, bad):
        # the forward pass never reads the last token, so only the loss can refuse it
        forward = lambda ids: np.log(np.full((8, len(ids)), 1 / 8))
        with pytest.raises(OutOfVocabularyError, match="out of range"):
            ar_loss([1, 2, 3, bad], forward)

    def test_dot_product_formulation_agrees(self):
        # the tied-logit loss can be written directly with embedding dot
        # products against the hidden states; both routes must agree
        cfg = tiny_gpt2_config()
        w = init_weights(cfg, 31)
        ids = [3, 1, 4, 1, 5]
        via_softmax = ar_loss(ids, lambda s: gpt2_forward(s, w))
        h = gpt2_hidden(ids, w)
        e = w.embedding
        direct = 0.0
        for i in range(len(ids) - 1):
            scores = np.array([e[:, j] @ h[:, i] for j in range(cfg.vocab_size)])
            direct -= (e[:, ids[i + 1]] @ h[:, i]) - math.log(np.exp(scores).sum())
        assert abs(via_softmax - direct) < 1e-9

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_in_place_loss_is_bitwise_the_copying_one(self, n):
        w = init_weights(tiny_gpt2_config(), 31)
        ids = [3, 1, 4, 1, 5, 7][:n]
        want = ce_loss(ids[1:], gpt2_forward(ids, w)[:, :-1])
        assert ar_loss(ids, lambda s: gpt2_forward(s, w)) == want

    def test_finite_past_probability_underflow(self):
        # a scaled embedding and final norm gain put a target logit more
        # than 745 below its column's maximum, where its probability is 0
        w = init_weights(tiny_gpt2_config(), 31)
        w.embedding *= 1e3
        w.emb_norm_gain *= 100
        ids = [3, 1, 4, 1, 5]
        probs = softmax(gpt2_forward(ids, w), axis=0)
        assert (probs[ids[1:], range(4)] == 0.0).any()
        want = math.fsum(oracles.ce_loss(z, t) for z, t in zip(oracles.gpt2_logits(ids, w), ids[1:]))
        got = ar_loss(ids, lambda s: gpt2_forward(s, w))
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-12 * want, (got, want)


def umbrella_vocab():
    words = ["I", "knew", "it", "was", "going", "to", "rain", "but",
             "forgot", "take", "my", "umbrella", "[MASK]"]
    return Vocabulary(words, {})


class TestMlmCorrupt:
    def test_worked_sentence_masks_expected_tokens(self):
        vocab = umbrella_vocab()
        words = "I knew it was going to rain but I forgot to take my umbrella".split()
        seq = TokenSequence([vocab.id_of(t) for t in words])
        target = apply_mlm_mask(seq, [3, 4, 9], vocab)
        masked_words = [vocab.token_of(target.original_ids[p])
                        for p in target.masked_positions()]
        assert masked_words == ["was", "going", "forgot"]
        corrupted_words = [vocab.token_of(i) for i in target.corrupted.ids]
        assert corrupted_words[:7] == ["I", "knew", "it", "[MASK]", "[MASK]", "to", "rain"]

    def test_rate_masks_expected_count(self):
        vocab = umbrella_vocab()
        seq = TokenSequence([0, 1, 2, 3])
        target = mlm_corrupt(seq, 0.26, seed=5, vocab=vocab)
        diff = [i for i in range(4) if target.corrupted.ids[i] != seq.ids[i]]
        assert len(diff) == 1  # floor(0.26 * 4) = 1
        assert target.masked_positions() == diff

    def test_seed_determinism(self):
        vocab = umbrella_vocab()
        seq = TokenSequence(list(range(10)))
        a = mlm_corrupt(seq, 0.4, seed=9, vocab=vocab)
        b = mlm_corrupt(seq, 0.4, seed=9, vocab=vocab)
        assert a.corrupted.ids == b.corrupted.ids
        assert a.mask == b.mask

    def test_specials_never_masked(self):
        vocab = Vocabulary(["[CLS]", "[SEP]", "[MASK]", "a", "b"], {})
        seq = TokenSequence([0, 3, 4, 1])
        for seed in range(20):
            target = mlm_corrupt(seq, 0.6, seed=seed, vocab=vocab)
            assert not target.mask[0] and not target.mask[3]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError):
            mlm_corrupt(TokenSequence(list(range(10))), 0.4, seed=seed, vocab=umbrella_vocab())

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_are_accepted(self, seed):
        seq = TokenSequence(list(range(10)))
        a = mlm_corrupt(seq, 0.4, seed=seed, vocab=umbrella_vocab())
        assert a.mask == mlm_corrupt(seq, 0.4, seed=seed, vocab=umbrella_vocab()).mask

    def test_all_special_sequence_rejected(self):
        vocab = Vocabulary(["[CLS]", "[SEP]", "[MASK]", "a"], {})
        with pytest.raises(SequenceFormatError):
            mlm_corrupt(TokenSequence([0, 1]), 0.5, seed=0, vocab=vocab)


class TestMlmLoss:
    def _target(self, vocab, ids, positions):
        return apply_mlm_mask(TokenSequence(ids), positions, vocab)

    def test_no_mask_means_zero_loss(self, rng):
        vocab = umbrella_vocab()
        target = self._target(vocab, [0, 1, 2], [])
        dists = np.column_stack([random_distribution(rng, 13) for _ in range(3)])
        assert mlm_loss(target, np.log(dists)) == 0.0

    def test_single_masked_uniform_is_log_vocab(self):
        vocab = Vocabulary([chr(97 + i) for i in range(7)] + ["[MASK]"], {})
        target = self._target(vocab, [0, 1, 2, 3], [2])
        dists = np.full((8, 4), 1 / 8)
        assert abs(mlm_loss(target, np.log(dists)) - math.log(8)) < 1e-12

    def test_equals_index_filtered_sum(self, rng):
        vocab = umbrella_vocab()
        ids = list(rng.integers(0, 12, size=9))
        positions = [1, 4, 7]
        target = self._target(vocab, [int(i) for i in ids], positions)
        logits = np.log(np.column_stack([random_distribution(rng, 13) for _ in range(9)]))
        expected = sum(ce_loss(target.original_ids[p], logits[:, p])
                       for p in positions)
        assert mlm_loss(target, logits) == expected

    def test_invariant_to_unmasked_predictions(self, rng):
        vocab = umbrella_vocab()
        target = self._target(vocab, [0, 1, 2, 3, 4], [1, 3])
        logits = np.log(np.column_stack([random_distribution(rng, 13) for _ in range(5)]))
        base = mlm_loss(target, logits)
        for _ in range(100):
            altered = logits.copy()
            for pos in (0, 2, 4):
                altered[:, pos] = np.log(random_distribution(rng, 13))
            assert mlm_loss(target, altered) == base


class TestCorpusNll:
    def test_uniform_model_scores_log_vocab_per_token(self):
        predict = predictor(lambda ctx: np.full(16, 1 / 16))
        corpus = list(range(10)) + [0]  # 11 tokens -> 10 predictions
        assert abs(corpus_nll(corpus, predict, window=4, min_context=1) - 10 * math.log(16)) < 1e-12

    def test_two_token_corpus_is_single_ce_term(self, rng):
        dist = random_distribution(rng, 5)
        assert corpus_nll([3, 2], predictor(lambda ctx: dist), window=3, min_context=1) \
            == ce_loss(2, np.log(dist))

    def test_window_clipping_passes_short_prefixes(self):
        seen = []

        def predict(ctx):
            seen.append(len(ctx))
            return np.full(4, 0.25)

        corpus_nll([0, 1, 2, 3, 0], predictor(predict), window=2, min_context=1)
        assert seen == [1, 2, 2, 2]

    def test_min_context_skips_partial_windows(self):
        seen = []

        def predict(ctx):
            seen.append(len(ctx))
            return np.full(4, 0.25)

        corpus_nll([0, 1, 2, 3, 0], predictor(predict), window=3, min_context=3)
        assert seen == [3, 3]

    def test_short_contexts_need_a_prefix_pass(self):
        full_windows_only = Predictor(None, predictor(lambda ctx: np.full(4, 0.25)).windows)
        with pytest.raises(SequenceLengthError):
            corpus_nll([0, 1, 2, 3, 0], full_windows_only, window=3, min_context=1)
        assert corpus_nll([0, 1, 2, 3, 0], full_windows_only, window=3, min_context=3) \
            == pytest.approx(2 * math.log(4), rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(SequenceLengthError):
            corpus_nll([1], predictor(lambda ctx: np.full(4, 0.25)), window=2, min_context=1)
