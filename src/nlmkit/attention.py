"""Attention masks and multi-head attention.

Sequences are matrices with one column per position (d_e x n), or several
such side by side.  A layer's M heads are stacked along a leading axis
(``weights.MultiHeadWeights``), and every step runs once for all of them:
each projection is one matmul, the scores and the value mixing are one
batched matmul over heads and sequences, and one softmax takes every
head's scores.  Head m maps the query columns (``query_columns``: the last
mask.shape[0] of each sequence) to one *row* each of a d_v-wide matrix;
multi-head attention places head m's rows in columns [m d_v, (m + 1) d_v)
and projects back, transposing to d_e rows again.  Only the score and
value-mixing matmuls see the sequences apart.  Incremental decoding passes
an ``AttentionCache`` holding every head's keys and values of earlier
positions.  Then x is one sequence of new columns, a mask row each, whose
keys and values are written after the cached ones; the mask's width is
the number of keys once they are added.  The softmax exponentiates only
the entries its mask allows (``kernels.exp_allowed``), which each call
derives from the mask it is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SequenceLengthError, ShapeError
from .kernels import exp_allowed, softmax
from .weights import MultiHeadWeights

AR_MODE = "AR"
AE_MODE = "AE"


def build_mask(length: int, mode: str, first: int = 0) -> np.ndarray:
    """Additive attention mask: 0 where allowed, -inf where forbidden.

    AR mode forbids every position to the right of the query (strict
    upper triangle); AE mode allows everything.  Only the rows of queries
    first..length-1 are built, each `length` keys wide.  An AR mask is a
    read-only view of one memoized per `length`: gpt2 asks only for its
    max_len and slices each pass's rows and keys.
    """
    if length < 1:
        raise SequenceLengthError(f"mask length must be >= 1, got {length}")
    if not 0 <= first < length:
        raise SequenceLengthError(f"a mask of {length} keys has no query row from row {first}")
    if mode == AE_MODE:
        return np.zeros((length - first, length))
    if mode == AR_MODE:
        return _causal(length)[first:]
    raise ValueError(f"unknown mask mode {mode!r}; expected 'AR' or 'AE'")


@functools.lru_cache(maxsize=None)
def _causal(length: int) -> np.ndarray:
    """The read-only AR mask over `length` keys."""
    mask = np.where(np.tri(length, dtype=bool), 0.0, -np.inf)
    mask.flags.writeable = False
    return mask


@dataclass
class AttentionCache:
    """Keys (M x max_len x d_k) and values (M x max_len x d_v) of one layer's
    heads, one row per position, preallocated to the model's maximum length."""

    k: np.ndarray
    v: np.ndarray


def _extend(store: np.ndarray, rows: np.ndarray, total: int) -> np.ndarray:
    """Write every head's `rows` as its rows [total - len, total) of `store`;
    return each head's first `total` rows."""
    store[:, total - rows.shape[1]:total] = rows
    return store[:, :total]


def query_columns(x: np.ndarray, mask: np.ndarray, cache: AttentionCache | None) -> np.ndarray:
    """The columns of x that the rows of `mask` query: the last mask.shape[0]
    of each sequence, mask.shape[1] wide without a cache; with one, x is a
    single sequence of new columns and the mask has a row for each."""
    rows, keys = mask.shape
    n = keys if cache is None else x.shape[1]  # columns per sequence
    if not (1 <= rows <= n <= keys and x.shape[1] and x.shape[1] % n == 0) or (
            cache is not None and (rows != n or keys > cache.k.shape[1])):
        raise ShapeError(f"mask shape {mask.shape} does not fit {x.shape[1]} columns or the cache")
    return x if rows == n else x.reshape(len(x), -1, n)[:, :, n - rows:].reshape(len(x), -1)


def _project(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """x's columns through every head's projection: M x columns x width."""
    out = x.T @ w
    if b is not None:
        out += b[:, None]
    return out


def multi_head_attention(x: np.ndarray, w: MultiHeadWeights, mask: np.ndarray,
                         cache: AttentionCache | None) -> np.ndarray:
    """Every head's weighted value sums per query (head m in columns
    [m*d_v, (m+1)*d_v)), projected back to the embedding space; returns
    d_e x (B*r), the query columns' outputs for B sequences and an r x keys
    mask.  Each query scores its own sequence's keys or, with a cache, all
    `keys` cached rows, the keys of x stored as the last of them.  All
    are float64 arrays.  A score that overflows to +inf, allowed or
    masked, raises ``UndefinedDistributionError`` from the softmax."""
    heads, d_e, d_k = w.w_q.shape
    d_v = w.w_v.shape[2]
    if x.shape[0] != d_e:
        raise ShapeError(f"sequence rows {x.shape[0]} != projection rows {d_e}")
    if heads * d_v != w.w_o.shape[0]:
        raise ShapeError(
            f"concatenated head width {heads * d_v} != output projection rows {w.w_o.shape[0]}"
        )
    rows, keys = mask.shape
    q = _project(query_columns(x, mask, cache), w.w_q, w.b_q)  # M x B*r x d_k
    k = _project(x, w.w_k, w.b_k)
    v = _project(x, w.w_v, w.b_v)
    if cache is not None:
        k = _extend(cache.k, k, keys)
        v = _extend(cache.v, v, keys)
    # M x B x r x keys: head m of sequence b scores its queries against its keys
    scores = q.reshape(heads, -1, rows, d_k) @ k.reshape(heads, -1, keys, d_k).swapaxes(2, 3)
    scores /= math.sqrt(d_k)
    with np.errstate(invalid="ignore"):  # +inf meets -inf at a masked key: NaN, refused below
        scores += mask
    weights = softmax(scores.reshape(-1, keys), axis=1, allowed=exp_allowed(mask), overwrite=True)
    mixed = weights.reshape(scores.shape) @ v.reshape(heads, -1, keys, d_v)  # M x B x r x d_v
    out = mixed.transpose(1, 2, 0, 3).reshape(-1, heads * d_v) @ w.w_o
    if w.b_o is not None:
        out += w.b_o
    return out.T
