"""Cross-entropy machinery: next-token loss, masked-token loss, corpus NLL.

Models emit logits, and every loss reduces them through ``_shifted_ce``,
the one log-sum-exp: the summed ``-log softmax(z)[t]`` of the correct classes,
computed in log space so it stays finite wherever the true loss is finite.
A target whose logit is -inf gives an infinite loss rather than an
exception, so a diverged model still reports.  The losses check their
targets where they enter and hand ``summed_ce`` (or the trainer's
``summed_ce_grad``) the logits they gather or that a forward pass has just
returned, to shift in place, so ``ar_loss``'s `forward` and a
``Predictor``'s passes must return arrays they do not keep; ``ce_loss``
leaves a caller's logits unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embeddings import checked_ids
from .errors import SequenceFormatError, SequenceLengthError, ShapeError
from .kernels import shifted, softmax
from .vocab import MASK_TOKEN, TokenSequence, Vocabulary
from .weights import philox

# full windows corpus_nll hands to a window scorer at once; bounds the
# scorer's working set (|V| x WINDOW_BATCH logits, and states per window)
WINDOW_BATCH = 64


def ce_loss(targets, logits) -> float:
    """Summed cross entropy -log softmax(z)[t] against one-hot truths.

    Either one class id and a |V| logit vector, or k class ids and a
    |V| x k matrix with one column per target, reduced from a checked,
    shifted copy.
    """
    z = shifted(logits, 0, False)
    return _shifted_ce(checked_ids(targets, len(z), ShapeError, f"{len(z)} classes"), z)[0]


def summed_ce(targets: np.ndarray, z: np.ndarray) -> float:
    """``ce_loss`` of class ids checked where they entered and float64
    logits `z` that the caller owns, which it shifts by their column maxima
    (``kernels.shifted``) and exponentiates in place."""
    return _shifted_ce(targets, shifted(z, 0, True))[0]


def _shifted_ce(targets: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """``summed_ce`` of shifted logits `s`, exponentiated in place, and their column sums."""
    if s.shape[1:] != targets.shape:
        raise ShapeError(f"targets of shape {targets.shape} do not match logits of shape {s.shape}")
    picked = s[(targets, np.arange(s.shape[1])) if s.ndim == 2 else targets]
    sums = np.exp(s, out=s).sum(axis=0)  # exp(-inf) == 0.0 exactly; a target at -inf gives inf
    return float((np.log(sums) - picked).sum()), sums


def summed_ce_grad(targets: np.ndarray, z: np.ndarray) -> float:
    """``summed_ce`` of |V| x k logits `z`, which it leaves holding the
    loss's gradient in them, softmax(z) - onehot(t): an entry at -inf gets
    exactly 0."""
    loss, sums = _shifted_ce(targets, shifted(z, 0, True))
    z /= sums
    z[targets, np.arange(z.shape[1])] -= 1.0
    return loss


def ar_loss(ids: list[int], forward) -> float:
    """Summed next-token cross entropy under teacher forcing.

    ``forward`` maps a sequence to per-position logits (|V| x len); it is
    called exactly once, on the ground-truth tokens but the last, never on
    the model's own predictions, and position i is scored against token
    i+1.  No position predicts past the last token, so none is computed,
    and the logits are consumed in place.  A target outside the logits'
    |V| rows raises ``OutOfVocabularyError``, also the last, which no
    forward pass reads.
    """
    if len(ids) < 2:
        raise SequenceLengthError(f"ar_loss needs a sequence of length >= 2, got {len(ids)}")
    logits = np.asarray(forward(ids[:-1]), dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != len(ids) - 1:
        raise ShapeError(
            f"forward returned shape {logits.shape}, expected (|V|, {len(ids) - 1})"
        )
    return summed_ce(checked_ids(ids[1:], logits.shape[0]), logits)


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
        corrupted=TokenSequence(corrupted, segments=seq.segments),
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


def mlm_loss(target: MlmTarget, logits: np.ndarray) -> float:
    """Summed cross entropy of the original token, over masked positions only;
    an original id outside the logits' |V| rows raises ``OutOfVocabularyError``."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != len(target.mask):
        raise ShapeError(
            f"logits shape {logits.shape} does not cover {len(target.mask)} positions"
        )
    masked = target.masked_positions()
    targets = checked_ids([target.original_ids[i] for i in masked], logits.shape[0])
    return summed_ce(targets, logits[:, masked])  # the gather is a fresh copy


@dataclass
class Predictor:
    """Next-token logits of a causal model in the two forms ``corpus_nll``
    uses.

    ``prefix(ids)``, None for a model that needs a full window, gives the
    |V| x len(ids) logits after every prefix ids[:j+1] from one causal
    pass.  ``windows(ids, n)`` gives the |V| x (len(ids) - n + 1) logits
    after every n-token window ids[s:s+n].  Calling it on a context gives
    the next-token distribution: the softmax of the context's one window.
    Both passes return new arrays, which ``corpus_nll`` shifts in place.
    """

    prefix: Callable | None
    windows: Callable

    def __call__(self, context: list[int]) -> np.ndarray:
        return softmax(self.windows(context, len(context))[:, 0])


def corpus_nll(corpus_ids: list[int], predict_next: Predictor, window: int,
               min_context: int) -> float:
    """Sliding-window negative log likelihood over a token stream.

    Each position i after the first is scored from its context
    corpus[max(0, i - window):i].  Models that demand a full window (the
    feedforward LM) pass ``min_context=window`` so shorter prefixes are
    skipped.

    The contexts shorter than ``window`` are the prefixes corpus[:i] with
    i < window, so the predictor's prefix pass scores them all in one
    causal pass over corpus[:window-1].  The full windows
    corpus[i-window:i] go to its window scorer, WINDOW_BATCH at a time.
    Each pass is reduced by one ``summed_ce`` call.  An id outside the
    vocabulary raises ``OutOfVocabularyError``, also where it is only a target.
    """
    if len(corpus_ids) < 2:
        raise SequenceLengthError("corpus must contain at least two tokens")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(corpus_ids)
    short = range(max(1, min_context), min(window, n))
    total, targets = 0.0, None  # targets are checked once, against the first pass's |V|
    if short:
        if predict_next.prefix is None:
            raise SequenceLengthError(
                f"the model cannot score contexts shorter than {window} tokens; "
                f"pass min_context={window}"
            )
        logits = predict_next.prefix(corpus_ids[:short[-1]])
        targets = checked_ids(corpus_ids, logits.shape[0])
        total += summed_ce(targets[short.start:short.stop], logits[:, short.start - 1:])
    scored = len(short)
    if window >= min_context:
        for lo in range(window, n, WINDOW_BATCH):
            hi = min(lo + WINDOW_BATCH, n)
            logits = predict_next.windows(corpus_ids[lo - window:hi - 1], window)
            if targets is None:
                targets = checked_ids(corpus_ids, logits.shape[0])
            total += summed_ce(targets[lo:hi], logits)
            scored += hi - lo
    if scored == 0:
        raise SequenceLengthError(
            f"no position has the {min_context} tokens of context the model requires"
        )
    return float(total)
