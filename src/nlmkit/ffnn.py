"""Fixed-window feedforward language model.

The context window is concatenated into a single vector, so the model
consumes exactly ``context_width`` tokens and emits one vector of
next-token logits.  Input and output embeddings are separate matrices (no
weight tying here).

There is one pass, ``ffnn_vjp``: a B x n matrix of window ids becomes B
concatenated-embedding columns and |V| x B logits after a handful of
matrix products, returned with their backward pass.  ``ffnn_batch_forward``
checks the ids and keeps the logits; one window is its one-row case, and
``ffnn_decoder`` slides that window over a generation's checked ids.  The
head stays ``w.output @ h``: flipped, it was no faster (8.3 ms a 64-step decode).
"""

from __future__ import annotations

import numpy as np

from .embeddings import checked_ids, embed_backward
from .errors import SequenceLengthError, ShapeError
from .kernels import ACTIVATIONS
from .weights import FfnnWeights


def ffnn_batch_forward(windows, w: FfnnWeights) -> np.ndarray:
    """Next-token logits (|V| x B) after each row of a B x n matrix of ids."""
    return ffnn_vjp(checked_ids(windows, w.embedding.shape[1]), w)[0]


def ffnn_vjp(windows, w: FfnnWeights):
    """``ffnn_batch_forward``'s logits and its backward pass, for checked ids.

    The input columns, the windows' embeddings concatenated position-major,
    are gathered by indexing, not ``embed``: numpy lays the gather out
    id-major, so their reshape copies nothing.  ``backward(d_z, g)`` takes
    a |V| x B gradient of the loss in the logits and writes the loss's
    gradient in every parameter into `g`, a zeroed record built like `w`.
    """
    if windows.ndim != 2 or windows.shape[1] != w.context_width:
        raise SequenceLengthError(
            f"context must contain exactly {w.context_width} tokens, got windows of shape "
            f"{windows.shape}"
        )
    hs = [w.embedding[:, windows.reshape(-1)].T.reshape(windows.shape[0], -1).T]
    for layer in w.layers:
        if layer.w.shape[1] != hs[-1].shape[0]:
            raise ShapeError(f"layer weight {layer.w.shape} cannot consume input of "
                             f"{hs[-1].shape[0]}")
        hs.append(ACTIVATIONS[layer.activation][0](layer.w @ hs[-1] + layer.b[:, None]))

    def backward(d_z: np.ndarray, g: FfnnWeights) -> None:
        g.output[...] = d_z @ hs[-1].T
        d_h = w.output.T @ d_z
        for layer, g_layer, h_in, h_out in zip(w.layers[::-1], g.layers[::-1], hs[-2::-1],
                                               hs[:0:-1]):
            d_a = d_h * ACTIVATIONS[layer.activation][1](h_out)
            g_layer.w[...] = d_a @ h_in.T
            g_layer.b[...] = d_a.sum(axis=1)
            d_h = layer.w.T @ d_a
        # undo the position-major concatenation: one embedding column per id
        d_e = w.embedding.shape[0]
        embed_backward(windows.reshape(-1), d_h.T.reshape(-1, d_e).T, g.embedding)

    return w.output @ hs[-1], backward


def ffnn_forward(ids: list[int], w: FfnnWeights) -> np.ndarray:
    """Logits over the vocabulary for the token after the window."""
    return ffnn_batch_forward([ids], w)[:, 0]


def ffnn_decoder(w: FfnnWeights, total: int):
    """Next-token logits after the last window of the checked ids so far, one
    call per token.  The window slides, so `total` needs no bound here."""
    n = w.context_width
    return lambda ids: ffnn_vjp(np.asarray(ids[-n:])[None], w)[0][:, 0]
