"""Fixed-window feedforward language model.

The context window is concatenated into a single vector, so the model
consumes exactly ``context_width`` tokens and emits one vector of
next-token logits.  Input and output embeddings are separate matrices (no
weight tying here).

There is one forward pass, ``ffnn_batch_forward``: a B x n matrix of window
ids becomes B concatenated-embedding columns and |V| x B logits after a
handful of matrix products.  One window is its one-row case.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfVocabularyError, SequenceLengthError, ShapeError
from .kernels import sigmoid
from .vocab import TokenSequence
from .weights import FfnnWeights

_ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "identity": lambda x: x,
}


def activation_fn(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def ffnn_batch_forward(windows, w: FfnnWeights) -> np.ndarray:
    """Next-token logits (|V| x B) after each row of a B x n matrix of ids."""
    windows = np.asarray(windows, dtype=np.intp)
    if windows.ndim != 2 or windows.shape[1] != w.context_width:
        raise SequenceLengthError(
            f"context must contain exactly {w.context_width} tokens, got windows of shape "
            f"{windows.shape}"
        )
    vocab_size = w.embedding.shape[1]
    if windows.size and not (0 <= windows.min() and windows.max() < vocab_size):
        raise OutOfVocabularyError(f"ids from {windows.min()} to {windows.max()} are out of "
                                   f"range for embedding table of {vocab_size}")
    batch = windows.shape[0]
    # each column: the window's embeddings concatenated position-major
    h = w.embedding[:, windows.reshape(-1)].T.reshape(batch, -1).T
    for layer in w.layers:
        if layer.w.shape[1] != h.shape[0]:
            raise ShapeError(f"layer weight {layer.w.shape} cannot consume input of {h.shape[0]}")
        h = activation_fn(layer.activation)(layer.w @ h + layer.b[:, None])
    return w.output @ h


def ffnn_forward(seq: TokenSequence | list[int], w: FfnnWeights) -> np.ndarray:
    """Logits over the vocabulary for the token after the window."""
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    return ffnn_batch_forward([ids], w)[:, 0]


def ffnn_predict(seq: TokenSequence | list[int], w: FfnnWeights) -> int:
    """Argmax next-token id; ties break toward the lowest id."""
    return int(np.argmax(ffnn_forward(seq, w)))


def ffnn_generate(prompt: list[int], w: FfnnWeights, steps: int) -> list[int]:
    """Greedy continuation by sliding the fixed window over the output."""
    n = w.context_width
    if len(prompt) < n:
        raise SequenceLengthError(
            f"prompt must contain at least {n} tokens to fill the window, got {len(prompt)}"
        )
    ids = list(prompt)
    for _ in range(steps):
        ids.append(ffnn_predict(ids[-n:], w))
    return ids
