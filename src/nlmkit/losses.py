"""Cross-entropy machinery: next-token loss, masked-token loss, corpus NLL.

All losses consume probability distributions (post-softmax) and reduce to
``-log p`` of the correct class.  A zero probability gives an infinite
loss value rather than an exception, so a diverged model still reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SequenceFormatError, SequenceLengthError, ShapeError
from .vocab import MASK_TOKEN, TokenSequence, Vocabulary
from .weights import philox

# full windows corpus_nll hands to a window scorer at once; bounds the
# scorer's working set (a batched unroll holds d_e x window x WINDOW_BATCH)
WINDOW_BATCH = 64


def ce_loss(y_true_id: int, y_hat: np.ndarray) -> float:
    """Cross entropy against a one-hot truth: -log y_hat[y_true_id]."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if not (0 <= y_true_id < y_hat.shape[0]):
        raise ShapeError(f"class id {y_true_id} out of range for distribution of {y_hat.shape[0]}")
    p = y_hat[y_true_id]
    if p == 0.0:
        return math.inf
    return float(-np.log(p))


def cross_entropy_full(y_true: np.ndarray, y_hat: np.ndarray) -> float:
    """Definition-form cross entropy -sum_j y_j log yhat_j.

    Terms with y_j == 0 contribute exactly zero (the 0*log 0 convention),
    so for one-hot truths this equals ce_loss bit for bit.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_true.shape != y_hat.shape:
        raise ShapeError(f"distribution shapes disagree: {y_true.shape} vs {y_hat.shape}")
    total = 0.0
    for y, p in zip(y_true, y_hat):
        if y != 0.0:
            total += -y * (math.log(p) if p > 0.0 else -math.inf)
    return float(total)


def ar_targets(ids: list[int]) -> tuple[list[int], list[int]]:
    """Teacher-forcing pair: the full input and the one-step-shifted output."""
    if len(ids) < 2:
        raise SequenceLengthError("need at least two tokens to form a next-token target")
    return ids[:-1], ids[1:]


def ar_loss(seq: TokenSequence | list[int], forward) -> float:
    """Summed next-token cross entropy under teacher forcing.

    ``forward`` maps the ground-truth sequence to per-position
    distributions (|V| x len); position i is scored against token i+1.
    The model is called exactly once, on the ground-truth tokens, never on
    its own predictions.
    """
    ids = seq.ids if isinstance(seq, TokenSequence) else list(seq)
    if len(ids) < 2:
        raise SequenceLengthError(f"ar_loss needs a sequence of length >= 2, got {len(ids)}")
    probs = np.asarray(forward(ids), dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != len(ids):
        raise ShapeError(
            f"forward returned shape {probs.shape}, expected (|V|, {len(ids)})"
        )
    return float(sum(ce_loss(ids[i + 1], probs[:, i]) for i in range(len(ids) - 1)))


@dataclass
class MlmTarget:
    """A corrupted sequence, its mask flags, and the original token ids."""

    corrupted: TokenSequence
    mask: list[bool]
    original_ids: list[int]

    def masked_positions(self) -> list[int]:
        return [i for i, flag in enumerate(self.mask) if flag]


def apply_mlm_mask(seq: TokenSequence, positions: list[int], vocab: Vocabulary) -> MlmTarget:
    """Replace the given positions with [MASK] and record the targets."""
    mask_id = vocab.mask_id
    if mask_id is None:
        raise SequenceFormatError(f"vocabulary declares no {MASK_TOKEN} token")
    flags = [False] * len(seq)
    corrupted = list(seq.ids)
    for pos in positions:
        if not (0 <= pos < len(seq)):
            raise SequenceLengthError(f"mask position {pos} out of range for length {len(seq)}")
        corrupted[pos] = mask_id
        flags[pos] = True
    return MlmTarget(
        corrupted=TokenSequence(corrupted, segments=seq.segments, mlm_mask=flags),
        mask=flags,
        original_ids=list(seq.ids),
    )


def mlm_corrupt(seq: TokenSequence, mask_rate: float, seed: int, vocab: Vocabulary) -> MlmTarget:
    """Randomly mask tokens at the given rate (floor of eligible count, at
    least one), never touching [CLS]/[SEP]; deterministic under the seed."""
    if not (0.0 < mask_rate < 1.0):
        raise ValueError(f"mask_rate must lie in (0, 1), got {mask_rate}")
    protected = {vocab.cls_id, vocab.sep_id} - {None}
    eligible = [i for i, t in enumerate(seq.ids) if t not in protected]
    if not eligible:
        raise SequenceFormatError("sequence contains only [CLS]/[SEP] tokens; nothing to mask")
    count = max(1, int(math.floor(mask_rate * len(eligible))))
    rng = philox(seed)
    chosen = sorted(rng.choice(len(eligible), size=count, replace=False).tolist())
    return apply_mlm_mask(seq, [eligible[i] for i in chosen], vocab)


def mlm_loss(target: MlmTarget, distributions: np.ndarray) -> float:
    """Summed -log p of the original token, over masked positions only."""
    probs = np.asarray(distributions, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != len(target.mask):
        raise ShapeError(
            f"distributions shape {probs.shape} does not cover {len(target.mask)} positions"
        )
    total = 0.0
    for i, flag in enumerate(target.mask):
        if flag:
            total += ce_loss(target.original_ids[i], probs[:, i])
    return float(total)


class Predictor:
    """Next-token distributions of a causal model in the three forms
    ``corpus_nll`` uses.

    Calling it on a context gives the |V| distribution of the next token.
    ``prefix(ids)``, None for a model that needs a full window, gives the
    |V| x len(ids) distributions after every prefix ids[:j+1] from one
    causal pass.  ``windows(ids, n)`` gives the |V| x (len(ids) - n + 1)
    distributions after every n-token window ids[s:s+n]; unless the model
    supplies a batched scorer, that is one call per window.
    """

    def __init__(self, predict, prefix=None, windows=None):
        self._predict = predict
        self._windows = windows
        self.prefix = prefix

    def __call__(self, context: list[int]) -> np.ndarray:
        return self._predict(context)

    def windows(self, ids: list[int], n: int) -> np.ndarray:
        if self._windows is not None:
            return self._windows(ids, n)
        return np.column_stack([np.asarray(self._predict(ids[s:s + n]))
                                for s in range(len(ids) - n + 1)])


def corpus_nll(corpus_ids: list[int], predict_next, window: int,
               min_context: int = 1) -> float:
    """Sliding-window negative log likelihood over a token stream.

    Each position i after the first is scored from its context
    corpus[max(0, i - window):i].  Models that demand a full window (the
    feedforward LM) pass ``min_context=window`` so shorter prefixes are
    skipped.

    The contexts shorter than ``window`` are the prefixes corpus[:i] with
    i < window, so a ``Predictor`` with a prefix pass scores them all in
    one causal pass over corpus[:window-1]; without one, each is one call.
    The full windows corpus[i-window:i] go to its window scorer,
    WINDOW_BATCH at a time.  A plain callable (context -> |V| vector) is
    wrapped into a Predictor that makes one call per context.
    """
    if len(corpus_ids) < 2:
        raise SequenceLengthError("corpus must contain at least two tokens")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not isinstance(predict_next, Predictor):
        predict_next = Predictor(predict_next)
    n = len(corpus_ids)
    short = range(max(1, min_context), min(window, n))
    total = 0.0
    if short and predict_next.prefix is not None:
        probs = np.asarray(predict_next.prefix(corpus_ids[:short[-1]]))
        for i in short:
            total += ce_loss(corpus_ids[i], probs[:, i - 1])
    else:
        for i in short:
            total += ce_loss(corpus_ids[i], np.asarray(predict_next(corpus_ids[:i])))
    scored = len(short)
    if window >= min_context:
        for lo in range(window, n, WINDOW_BATCH):
            hi = min(lo + WINDOW_BATCH, n)
            probs = np.asarray(predict_next.windows(corpus_ids[lo - window:hi - 1], window))
            for i in range(lo, hi):
                total += ce_loss(corpus_ids[i], probs[:, i - lo])
            scored += hi - lo
    if scored == 0:
        raise SequenceLengthError(
            f"no position has the {min_context} tokens of context the model requires"
        )
    return float(total)
