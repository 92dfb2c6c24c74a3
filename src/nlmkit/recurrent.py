"""Elman RNN and LSTM cells, time unrolling, and the recurrent LM.

States start at zero.  An LSTM layer steps through its stacked form
(U, W, b): its gate blocks Q, P, R, S, in update order, as a 4d x d U and W
and a 4d b, which ``stack_lstm_layer`` copies from the per-gate tensors (the
only storage).  All layers share the embedding width, and the output head
reuses the transposed embedding matrix (weight tying).

A cell takes one state vector, or a d x B matrix that advances B
sequences at once, one column each.  ``unroll`` takes and returns the
per-layer ``(h, c)`` state, so ``recurrent_decoder`` carries it forward one
token at a time instead of re-reading the prefix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embeddings import embed, tied_logits
from .errors import SequenceLengthError, ShapeError
from .ffnn import activation_fn
from .kernels import sigmoid
from .weights import LstmLayerWeights, RecurrentWeights, RnnLayerWeights


def _same_batch(h: np.ndarray, x: np.ndarray) -> bool:
    """Both are d x B matrices with the same B."""
    return h.ndim == 2 and h.shape[1] == x.shape[1]


def rnn_cell(h_prev: np.ndarray, x_in: np.ndarray, w: RnnLayerWeights) -> np.ndarray:
    """One Elman step for a state vector or a d x B matrix of states."""
    if (w.u.shape[1] != h_prev.shape[0] or w.w.shape[1] != x_in.shape[0]
            or h_prev.ndim != x_in.ndim or h_prev.ndim != 1 and not _same_batch(h_prev, x_in)):
        raise ShapeError(
            f"rnn cell dims disagree: U {w.u.shape} vs h {h_prev.shape}, "
            f"W {w.w.shape} vs x {x_in.shape}"
        )
    # a (d,) bias would add along the rows of a d x B matrix, so give it a column axis
    b = w.b if h_prev.ndim == 1 else w.b[:, None]
    return activation_fn(w.activation)(w.u @ h_prev + w.w @ x_in + b)


def stack_lstm_layer(t: LstmLayerWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layer's stacked form (U, W, b), copied from its per-gate tensors."""
    return (np.vstack((t.u_q, t.u_p, t.u_r, t.u_s)), np.vstack((t.w_q, t.w_p, t.w_r, t.w_s)),
            np.concatenate((t.b_q, t.b_p, t.b_r, t.b_s)))


def lstm_cell(h_prev: np.ndarray, c_prev: np.ndarray, x_in: np.ndarray,
              layer: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step through a stacked layer (U, W, b) for state vectors or
    d x B state matrices; returns (hidden, context).  One ``U h + W x + b``
    feeds all four gates: tanh on its Q rows, sigmoid on its P, R and S rows,
    so every gate value lies strictly inside (0, 1) for finite inputs."""
    u, w, b = layer
    d = h_prev.shape[0]
    if (u.shape != (4 * d, d) or w.shape != (4 * d, x_in.shape[0]) or b.shape != (4 * d,)
            or h_prev.shape != c_prev.shape or h_prev.ndim != x_in.ndim
            or h_prev.ndim != 1 and not _same_batch(h_prev, x_in)):
        raise ShapeError(
            f"lstm cell dims disagree: U {u.shape} vs h {h_prev.shape}, "
            f"c {c_prev.shape}, W {w.shape} vs x {x_in.shape}, b {b.shape}"
        )
    b = b if h_prev.ndim == 1 else b[:, None]  # column biases, as in rnn_cell
    z = u @ h_prev + w @ x_in + b
    q = np.tanh(z[:d])  # candidate
    p, r, s = sigmoid(z[d:]).reshape((3,) + h_prev.shape)  # forget, add and output gates
    c = q * r + c_prev * p
    return s * np.tanh(c), c


def _stacked(layers: list) -> list:
    """Each ``LstmLayerWeights`` in its stacked form, any other layer as it is."""
    return [stack_lstm_layer(l) if isinstance(l, LstmLayerWeights) else l for l in layers]


def unroll(seq_embeddings: np.ndarray, layers: list,
           state: list | None = None) -> tuple[np.ndarray, list]:
    """Run stacked recurrent layers over time; returns the top layer's
    outputs as a d_e x len matrix and the final per-layer ``(h, c)`` state.

    An ``RnnLayerWeights`` layer runs the Elman cell, any other the LSTM
    cell: ``LstmLayerWeights`` are stacked once per call, stacked layers
    pass through.  A d_e x len x B input unrolls B sequences at once;
    outputs are then d_e x len x B and states d_e x B.  Column i depends only on
    input columns <= i, by construction.  The initial state is `state`, as
    returned by an earlier call, or zero (the Elman cell ignores c).
    """
    if seq_embeddings.ndim not in (2, 3) or seq_embeddings.shape[1] < 1:
        raise SequenceLengthError("unroll requires a nonempty d_e x len (x B) input")
    if not layers:
        raise SequenceLengthError("unroll requires at least one layer")
    layers = _stacked(layers)
    if state is None:
        # cells never write into their inputs, so one zero array serves all
        h_state = [np.zeros(seq_embeddings.shape[:1] + seq_embeddings.shape[2:])] * len(layers)
        c_state = list(h_state)
    elif len(state) != len(layers):
        raise ShapeError(f"state has {len(state)} layers, the model {len(layers)}")
    else:
        h_state = [h for h, _ in state]
        c_state = [c for _, c in state]
    length = seq_embeddings.shape[1]
    out = np.empty(seq_embeddings.shape)
    for i in range(length):
        x = seq_embeddings[:, i]
        for l, layer in enumerate(layers):
            if isinstance(layer, RnnLayerWeights):
                h_state[l] = rnn_cell(h_state[l], x, layer)
            else:
                h_state[l], c_state[l] = lstm_cell(h_state[l], c_state[l], x, layer)
            x = h_state[l]
        out[:, i] = x
    return out, list(zip(h_state, c_state))


def recurrent_windows(ids: list[int], n: int, w: RecurrentWeights) -> np.ndarray:
    """Top-layer hidden state after every n-token window ids[s:s+n], one
    column per window (d_e x (len(ids) - n + 1)), from one batched unroll."""
    windows = sliding_window_view(embed(ids, w.embedding), n, axis=1)  # d_e x B x n view
    _, state = unroll(windows.transpose(0, 2, 1), w.layers)
    return state[-1][0]


def recurrent_lm_forward(ids: list[int], w: RecurrentWeights) -> np.ndarray:
    """Next-token logits per position (|V| x len), tied output head."""
    return tied_logits(unroll(embed(ids, w.embedding), w.layers)[0], w.embedding)


def recurrent_decoder(w: RecurrentWeights, total: int):
    """Next-token logits after the ids so far, one call per token; each call
    unrolls only the new ids, through layers stacked once.  `total` needs no bound."""
    state, seen, layers = None, 0, _stacked(w.layers)

    def next_logits(ids):
        nonlocal state, seen
        h, state = unroll(embed(ids[seen:], w.embedding), layers, state)
        seen = len(ids)
        return tied_logits(h[:, -1], w.embedding)

    return next_logits
