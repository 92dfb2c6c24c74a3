"""Attention masks, single heads, and multi-head attention.

Sequences are matrices with one column per position (d_e x n).  A head
maps that to an n x d_v matrix with one *row* per position; multi-head
attention concatenates the head outputs side by side and projects back,
transposing so the result is d_e x n again.

Incremental decoding passes a per-head ``HeadCache`` holding the keys and
values of earlier positions.  The new columns' keys and values are written
after the cached ones and the new queries score against all of them.  The
mask then has one row per new column and one column per key, so its width
says how many positions the cache holds once the new ones are added.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return np.where(np.tri(length, dtype=bool), 0.0, -np.inf)
    raise ValueError(f"unknown mask mode {mode!r}; expected 'AR' or 'AE'")


@dataclass
class HeadCache:
    """Keys (max_len x d_k) and values (max_len x d_v) of one head, one row
    per position, preallocated to the model's maximum length."""

    k: np.ndarray
    v: np.ndarray


def _extend(store: np.ndarray, rows: np.ndarray, total: int) -> np.ndarray:
    """Write `rows` as rows [total - len(rows), total) of `store`; return its first `total` rows."""
    store[total - rows.shape[0]:total] = rows
    return store[:total]


def attention_scores(x: np.ndarray, w: HeadWeights, mask: np.ndarray,
                     cache: HeadCache | None = None) -> np.ndarray:
    """Masked, scaled query-key score matrix (one query per row).

    Without a cache the keys are x's own columns and the mask is n x n.
    With one, the mask is n x total: the keys of x are stored as the last
    n of `total` cached rows and every query scores against all of them.
    """
    x = as_matrix(x)
    mask = as_matrix(mask)
    n = x.shape[1]
    if cache is None:
        if mask.shape != (n, n):
            raise ShapeError(f"mask shape {mask.shape} does not match sequence length {n}")
    elif mask.shape[0] != n or not n <= mask.shape[1] <= cache.k.shape[0]:
        raise ShapeError(
            f"mask shape {mask.shape} does not fit {n} new columns in a cache of {cache.k.shape[0]}"
        )
    if x.shape[0] != w.w_q.shape[0]:
        raise ShapeError(f"sequence rows {x.shape[0]} != projection rows {w.w_q.shape[0]}")
    d_k = w.w_q.shape[1]
    q = x.T @ w.w_q  # n x d_k, one query per row
    k = x.T @ w.w_k
    if w.b_q is not None:
        q = q + w.b_q
    if w.b_k is not None:
        k = k + w.b_k
    if cache is not None:
        k = _extend(cache.k, k, mask.shape[1])
    return mask + (q @ k.T) / np.sqrt(d_k)


def self_attention_head(x: np.ndarray, w: HeadWeights, mask: np.ndarray,
                        cache: HeadCache | None = None) -> np.ndarray:
    """One attention head: weighted value sums per query; returns n x d_v."""
    x = as_matrix(x)
    v = x.T @ w.w_v
    if w.b_v is not None:
        v = v + w.b_v
    scores = attention_scores(x, w, mask, cache)
    if cache is not None:
        v = _extend(cache.v, v, scores.shape[1])
    return softmax(scores, axis=1) @ v


def multi_head_attention(x: np.ndarray, w: MultiHeadWeights, mask: np.ndarray,
                         cache: list[HeadCache] | None = None) -> np.ndarray:
    """Concatenate head outputs (head m occupies columns [m*d_v, (m+1)*d_v))
    and project back to the embedding space; returns d_e x n.  `cache`, if
    given, holds one HeadCache per head."""
    x = as_matrix(x)
    caches = [None] * len(w.heads) if cache is None else cache
    concat = np.hstack([self_attention_head(x, head, mask, c) for head, c in zip(w.heads, caches)])
    if concat.shape[1] != w.w_o.shape[0]:
        raise ShapeError(
            f"concatenated head width {concat.shape[1]} != output projection rows {w.w_o.shape[0]}"
        )
    out = concat @ w.w_o
    if w.b_o is not None:
        out = out + w.b_o
    return out.T
