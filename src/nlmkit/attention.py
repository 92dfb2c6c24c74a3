"""Attention masks, single heads, and multi-head attention.

Sequences are matrices with one column per position (d_e x n).  A head
maps that to an n x d_v matrix with one *row* per position; multi-head
attention concatenates the head outputs side by side and projects back,
transposing so the result is d_e x n again.
"""

from __future__ import annotations

import numpy as np

from .errors import SequenceLengthError, ShapeError
from .kernels import as_matrix, softmax
from .weights import HeadWeights, MultiHeadWeights

AR_MODE = "AR"
AE_MODE = "AE"


def build_mask(length: int, mode: str) -> np.ndarray:
    """Additive attention mask: 0 where allowed, -inf where forbidden.

    AR mode forbids every position to the right of the query (strict
    upper triangle); AE mode allows everything.
    """
    if length < 1:
        raise SequenceLengthError(f"mask length must be >= 1, got {length}")
    if mode == AE_MODE:
        return np.zeros((length, length))
    if mode == AR_MODE:
        mask = np.zeros((length, length))
        mask[np.triu_indices(length, k=1)] = -np.inf
        return mask
    raise ValueError(f"unknown mask mode {mode!r}; expected 'AR' or 'AE'")


def attention_scores(x: np.ndarray, w: HeadWeights, mask: np.ndarray) -> np.ndarray:
    """Masked, scaled query-key score matrix (one query per row)."""
    x = as_matrix(x)
    mask = as_matrix(mask)
    n = x.shape[1]
    if mask.shape != (n, n):
        raise ShapeError(f"mask shape {mask.shape} does not match sequence length {n}")
    if x.shape[0] != w.w_q.shape[0]:
        raise ShapeError(f"sequence rows {x.shape[0]} != projection rows {w.w_q.shape[0]}")
    d_k = w.w_q.shape[1]
    q = x.T @ w.w_q  # n x d_k, one query per row
    k = x.T @ w.w_k
    if w.b_q is not None:
        q = q + w.b_q
    if w.b_k is not None:
        k = k + w.b_k
    return mask + (q @ k.T) / np.sqrt(d_k)


def self_attention_head(x: np.ndarray, w: HeadWeights, mask: np.ndarray) -> np.ndarray:
    """One attention head: weighted value sums per query; returns n x d_v."""
    x = as_matrix(x)
    v = x.T @ w.w_v
    if w.b_v is not None:
        v = v + w.b_v
    weights = softmax(attention_scores(x, w, mask), axis=1)
    return weights @ v


def multi_head_attention(x: np.ndarray, w: MultiHeadWeights, mask: np.ndarray) -> np.ndarray:
    """Concatenate head outputs (head m occupies columns [m*d_v, (m+1)*d_v))
    and project back to the embedding space; returns d_e x n."""
    x = as_matrix(x)
    concat = np.hstack([self_attention_head(x, head, mask) for head in w.heads])
    if concat.shape[1] != w.w_o.shape[0]:
        raise ShapeError(
            f"concatenated head width {concat.shape[1]} != output projection rows {w.w_o.shape[0]}"
        )
    out = concat @ w.w_o
    if w.b_o is not None:
        out = out + w.b_o
    return out.T
