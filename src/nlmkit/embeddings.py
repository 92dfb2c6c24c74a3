"""Embedding lookup, positional sums, and tied output logits.

Embedding matrices store one token per column (shape d_e x |V|), so a
sequence embeds to a d_e x len matrix whose columns follow the token order.
The lookup and the tied head each have a backward pass beside them; both
add into the gradient of the embedding table, which a tied model shares.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfVocabularyError, SequenceLengthError, ShapeError


def checked_ids(ids, size: int, error: type = OutOfVocabularyError,
                what: str | None = None) -> np.ndarray:
    """The ids as an intp array, each in [0, size), or `error` naming `what`
    (an embedding table of `size`); an id no intp holds is out of range too,
    and float, bool or string ids are refused, also bools in a list of ints,
    as are lists nested to uneven depths or lengths."""
    what = what or f"embedding table of {size}"
    try:
        given = np.asarray(ids)
    except ValueError:  # ragged nesting makes no array
        raise error(f"ids for {what} must form a rectangular array") from None
    if given.dtype.kind not in "iu" and given.size:
        try:  # Python ints no int64 holds arrive as object, or as float64 beside a negative one
            np.asarray(ids, dtype=np.intp)
        except OverflowError:
            raise error(f"an id is out of range for {what}") from None
        except (TypeError, ValueError):
            pass
        raise error(f"ids for {what} must be integers, got dtype {given.dtype}")
    if isinstance(ids, (list, tuple)) and _holds_bool(ids):
        raise error(f"ids for {what} must be integers, got dtype bool")
    ids = given.astype(np.intp, copy=False)  # a uint64 id from 2**63 up wraps below 0
    # one reduction checks both ends: a negative id reads as 2**63 or more unsigned
    if ids.size and ids.view(np.uintp).max() >= size:
        raise error(f"ids from {given.min()} to {given.max()} are out of range for {what}")
    return ids


def checked_sequence(ids, size: int, width: int) -> np.ndarray:
    """``checked_ids`` of one sequence of at least `width` >= 1 ids, or ``SequenceLengthError``."""
    ids = checked_ids(ids, size)
    if ids.ndim != 1:
        raise SequenceLengthError(f"expected one sequence of ids, got shape {ids.shape}")
    if not 1 <= width <= len(ids):
        raise SequenceLengthError(f"window {width} does not fit a sequence of {len(ids)} tokens")
    return ids


def _holds_bool(ids: list | tuple) -> bool:
    """Whether a Python or numpy bool, or an array of dtype bool, is in `ids` or
    in a list or tuple nested in it: one set of types per level of nesting."""
    while True:
        kinds = set(map(type, ids))
        if kinds & {bool, np.bool_} or np.ndarray in kinds and any(
                x.dtype == bool for x in ids if type(x) is np.ndarray):
            return True
        if not kinds & {list, tuple}:
            return False
        ids = [y for x in ids if type(x) in (list, tuple) for y in x]


def embed(ids: list[int], e: np.ndarray) -> np.ndarray:
    """Select one embedding column per token id.

    Repeated ids produce identical columns; the result has shape
    (d_e,) + the shape of the ids, (d_e, len(ids)) for a list.
    """
    # clip, the cheaper mode, never acts on checked ids: nor where a step takes them unchecked
    return e.take(checked_ids(ids, e.shape[1]), axis=1, mode="clip")


def embed_backward(ids, d_x: np.ndarray, grad_e: np.ndarray) -> None:
    """Add the gradient of the embedded columns (d_e x len(ids)) into the
    gradient of the table; a repeated id adds once per occurrence."""
    np.add.at(grad_e, (slice(None), ids), d_x)


def add_positions(x: np.ndarray, positions: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Columnwise sum of embeddings with the positional prefix and segments.

    The positional table covers the model maximum length; only its first
    len(x) columns are used, so shorter sequences get a truncated prefix.
    """
    if x.shape[0] != positions.shape[0]:
        raise ShapeError(f"embedding dim {x.shape[0]} != positional dim {positions.shape[0]}")
    if x.shape[1] > positions.shape[1]:
        raise SequenceLengthError(
            f"sequence length {x.shape[1]} exceeds maximum {positions.shape[1]}"
        )
    if segments.shape != x.shape:
        raise ShapeError(f"segment matrix {segments.shape} != sequence shape {x.shape}")
    return x + positions[:, : x.shape[1]] + segments


def tied_logits(h: np.ndarray, e: np.ndarray, out_bias: np.ndarray | None = None) -> np.ndarray:
    """Vocabulary scores from hidden states via the transposed embedding table.

    `h` is one hidden vector or a d_e x len matrix with one column per
    position; the result is a |V| vector or a |V| x len matrix.  Component
    j of a column is the dot product of embedding column j with the hidden
    column, plus the optional output bias.  Only `h` is coerced to float64.

    Both are scored as (h.T @ e).T, whose columns are contiguous (see
    ``kernels``); for a decode step's vector that is the gemv of ``e.T @ h``.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (1, 2) or h.shape[0] != e.shape[0]:
        raise ShapeError(f"hidden shape {h.shape} does not match embedding dim {e.shape[0]}")
    z = h.T @ e
    if out_bias is not None:
        if out_bias.shape != e.shape[1:]:
            raise ShapeError(f"output bias shape {out_bias.shape} != vocabulary size {e.shape[1]}")
        z += out_bias
    return z.T


def tied_logits_backward(h: np.ndarray, e: np.ndarray, d_z: np.ndarray,
                         grad_e: np.ndarray) -> np.ndarray:
    """Backward pass of ``tied_logits`` without an output bias for a d_e x k
    `h` and a |V| x k logit gradient: adds the table's gradient into
    `grad_e` and returns the gradient of `h`."""
    grad_e += h @ d_z.T
    return e @ d_z
