"""Elman RNN and LSTM cells, time unrolling, and the recurrent LM.

States start at zero.  The LSTM updates its gates in a fixed order:
candidate, forget, add, context update, output.  Stacked layers all share
the embedding width, and the output head reuses the transposed embedding
matrix (weight tying).

A cell takes one state vector, or a d x B matrix that advances B
sequences at once, one column each.  ``unroll`` takes and returns the
per-layer ``(h, c)`` state, so generation carries it forward one token at
a time instead of re-reading the prefix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embeddings import embed, tied_logits
from .errors import SequenceLengthError, ShapeError
from .ffnn import activation_fn
from .kernels import sigmoid
from .vocab import TokenSequence
from .weights import LstmLayerWeights, LstmWeights, RnnLayerWeights, RnnWeights


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


def lstm_cell(h_prev: np.ndarray, c_prev: np.ndarray, x_in: np.ndarray,
              w: LstmLayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step for state vectors or d x B state matrices; returns
    (hidden, context).

    The candidate passes through tanh, the three gates through sigmoid,
    so every gate value lies strictly inside (0, 1) for finite inputs.
    """
    if (w.u_q.shape[1] != h_prev.shape[0] or w.w_q.shape[1] != x_in.shape[0]
            or h_prev.shape != c_prev.shape or h_prev.ndim != x_in.ndim
            or h_prev.ndim != 1 and not _same_batch(h_prev, x_in)):
        raise ShapeError(
            f"lstm cell dims disagree: U {w.u_q.shape} vs h {h_prev.shape}, "
            f"c {c_prev.shape}, W {w.w_q.shape} vs x {x_in.shape}"
        )
    b_q, b_p, b_r, b_s = w.b_q, w.b_p, w.b_r, w.b_s
    if h_prev.ndim == 2:  # column biases, as in rnn_cell
        b_q, b_p, b_r, b_s = b_q[:, None], b_p[:, None], b_r[:, None], b_s[:, None]
    q = np.tanh(w.u_q @ h_prev + w.w_q @ x_in + b_q)   # candidate
    p = sigmoid(w.u_p @ h_prev + w.w_p @ x_in + b_p)   # forget gate
    r = sigmoid(w.u_r @ h_prev + w.w_r @ x_in + b_r)   # add gate
    c = q * r + c_prev * p
    s = sigmoid(w.u_s @ h_prev + w.w_s @ x_in + b_s)   # output gate
    h = s * np.tanh(c)
    return h, c


def unroll(seq_embeddings: np.ndarray, layers: list, kind: str,
           state: list | None = None) -> tuple[np.ndarray, list]:
    """Run stacked recurrent layers over time; returns the top layer's
    outputs as a d_e x len matrix and the final per-layer ``(h, c)`` state.

    A d_e x len x B input unrolls B sequences at once; outputs are then
    d_e x len x B and states d_e x B.  Column i depends only on input
    columns <= i, by construction.  The initial state is `state`, as
    returned by an earlier call, or zero (the Elman cell ignores c).
    """
    if seq_embeddings.ndim not in (2, 3) or seq_embeddings.shape[1] < 1:
        raise SequenceLengthError("unroll requires a nonempty d_e x len (x B) input")
    if not layers:
        raise SequenceLengthError("unroll requires at least one layer")
    if kind not in ("rnn", "lstm"):
        raise ValueError(f"unknown recurrent kind {kind!r}")
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
            if kind == "rnn":
                h_state[l] = rnn_cell(h_state[l], x, layer)
            else:
                h_state[l], c_state[l] = lstm_cell(h_state[l], c_state[l], x, layer)
            x = h_state[l]
        out[:, i] = x
    return out, list(zip(h_state, c_state))


def _kind(w: RnnWeights | LstmWeights) -> str:
    return "rnn" if isinstance(w, RnnWeights) else "lstm"


def recurrent_hidden(seq: TokenSequence | list[int], w: RnnWeights | LstmWeights,
                     state: list | None = None) -> tuple[np.ndarray, list]:
    """Top-layer hidden states (d_e x len) and the final state; `seq`
    continues `state` when one is given."""
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    return unroll(embed(ids, w.embedding), w.layers, _kind(w), state)


def recurrent_windows(ids: list[int], n: int, w: RnnWeights | LstmWeights) -> np.ndarray:
    """Top-layer hidden state after every n-token window ids[s:s+n], one
    column per window (d_e x (len(ids) - n + 1)), from one batched unroll."""
    if not 1 <= n <= len(ids):
        raise SequenceLengthError(f"window {n} does not fit a sequence of {len(ids)} tokens")
    windows = sliding_window_view(embed(ids, w.embedding), n, axis=1)  # d_e x B x n view
    _, state = unroll(windows.transpose(0, 2, 1), w.layers, _kind(w))
    return state[-1][0]


def recurrent_lm_forward(seq: TokenSequence | list[int],
                         w: RnnWeights | LstmWeights) -> np.ndarray:
    """Next-token logits per position (|V| x len), tied output head."""
    return tied_logits(recurrent_hidden(seq, w)[0], w.embedding)


def recurrent_generate(prompt: list[int], w: RnnWeights | LstmWeights, steps: int) -> list[int]:
    """Greedy continuation; ties break toward the lowest id.

    The prompt is unrolled once; each later step advances the carried
    state by the token just chosen.
    """
    if not prompt:
        raise SequenceLengthError("prompt must contain at least one token")
    ids = list(prompt)
    state = None
    new = ids
    for _ in range(steps):
        h, state = recurrent_hidden(new, w, state)
        ids.append(int(np.argmax(tied_logits(h[:, -1], w.embedding))))
        new = ids[-1:]
    return ids
