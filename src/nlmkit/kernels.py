"""Dense numeric kernels shared by every model.

This module fixes the numerical conventions used everywhere else:

* all computation is IEEE-754 binary64,
* matrices are 2-D ``numpy`` arrays whose columns index sequence positions,
* each kernel has one implementation that works along an axis; a vector is
  the one-slice case.  Vocabulary logits and layer norm run along
  axis 0 (down each column, one column per position); attention weights run
  along axis 1 (across each row, one row per query),
* models emit logits; a distribution is ``softmax`` of them and a loss is
  taken from them directly (``losses.summed_ce``), never from probabilities,
* a logit matrix is |V| x n with each position's column contiguous, the
  transposed view of the tied head's n x |V| product h.T @ E: at d_e 128,
  |V| 5000 and n 127 that product took 3.2 against 5.2 ms for E.T @ h, and
  the cross entropy down the columns 1.5 against 2.2 ms (one BLAS thread, Xeon),
* attention masks may carry ``-inf`` sentinels; softmax maps them to exact 0,
* softmax and the loss share one validation and shift step (``shifted``):
  the largest finite entry of each slice is subtracted before
  exponentiation,
* the package shifts and exponentiates in place only arrays it made itself:
  the attention scores, and the logits that ``losses.summed_ce`` gets from a
  loss's gather or the package's own forward passes.  The public ``softmax``
  and ``shifted`` leave the caller's array unchanged unless told
  ``overwrite=True``; ``losses.ce_loss`` always leaves it unchanged,
* a causal softmax exponentiates only the entries its mask allows
  (``exp_allowed``), since ``exp(-inf)`` costs about five times a finite
  ``exp`` (5.0 against 1.1 ns per entry).  That pays from
  ``MASKED_EXP_MIN_KEYS`` keys.  On fresh causal scores, masked against
  plain, ``softmax`` took 13.3 against 11.1 us at 16 keys, 15.8 against
  14.1 at 24, 18.5 against 18.9 at 32, 79.0 against 112.4 at 128, and
  125.4 against 167.4 us for 4 stacked 64-key windows (``timeit`` minima
  less the copy of the scores, one BLAS thread, 2-vCPU shared Xeon).
  Every output is bitwise the plain path's,
* layer normalization uses the population standard deviation and adds
  ``LAYER_NORM_EPS`` under the square root,
* numpy is the only numeric dependency: the sigmoid and the exact GELU are
  closed forms over ``np.tanh`` and ``math.erfc``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, UndefinedDistributionError

LAYER_NORM_EPS = 1e-5

# Fewest keys at which a masked softmax exponentiates only its allowed entries.
MASKED_EXP_MIN_KEYS = 32

GELU_TANH_COEFF = 0.044715
SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def shifted(v, axis: int, overwrite: bool) -> np.ndarray:
    """Scores minus the largest entry of each slice along `axis`.

    `v` is a vector or a matrix.  This is the step softmax and cross
    entropy share: it rejects NaN and +inf entries and a slice with no
    finite entry, which has no defined distribution, and leaves every
    finite entry <= 0 so no exponential can overflow; -inf stays -inf.
    The result is a new array, or `v` itself, shifted in place, when
    `overwrite` is set and `v` is already a float64 array.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or a matrix, got ndim={v.ndim}")
    if v.shape[axis] == 0:
        raise UndefinedDistributionError("softmax input has no finite entry; it is empty")
    # NaN propagates through max and +inf or an all -inf slice makes it
    # infinite, so finite maxima prove every slice valid without a pass
    # over the entries; the max of a valid slice is its largest finite entry
    peak = v.max(axis=axis, keepdims=True)
    if not np.isfinite(peak).all():
        if np.isnan(v).any():
            raise UndefinedDistributionError("softmax input contains NaN")
        if np.isposinf(v).any():
            raise UndefinedDistributionError("softmax input contains +inf")
        raise UndefinedDistributionError(
            "softmax input has no finite entry; all scores are masked"
        )
    if overwrite:
        v -= peak
        return v
    return v - peak


def exp_allowed(mask: np.ndarray) -> np.ndarray | None:
    """The entries of scores under an additive `mask` that softmax must
    exponentiate, those above -inf, as a boolean array of the mask's shape;
    or None where exponentiating all costs less, for the same bits: for one
    row (a last query row allows every key), under ``MASKED_EXP_MIN_KEYS``
    keys, or no -inf."""
    if mask.shape[0] == 1 or mask.shape[1] < MASKED_EXP_MIN_KEYS:
        return None
    allowed = mask != -np.inf
    return None if allowed.all() else allowed


def softmax(v, axis: int = -1, allowed: np.ndarray | None = None,
            overwrite: bool = False) -> np.ndarray:
    """Probability distributions from scores, one per slice along `axis`.

    `v` is a vector or a matrix.  Entries equal to -inf get probability
    exactly 0; inputs are validated and shifted by ``shifted``, in place in
    `v` when `overwrite` is set.  `allowed`, from ``exp_allowed``, marks the
    entries above -inf: v is one or more copies of its shape stacked along
    axis 0, and only those entries are exponentiated, the others set to 0.
    """
    e = shifted(v, axis, overwrite)
    if allowed is None:
        np.exp(e, out=e)  # exp(-inf) == 0.0 exactly
    else:
        stacked = (-1,) + allowed.shape
        if e.shape[-1] != allowed.shape[-1] or e.size % allowed.size:
            raise ShapeError(f"allowed entries {allowed.shape} do not tile scores {e.shape}")
        p = np.zeros(e.shape)
        np.exp(e.reshape(stacked), out=p.reshape(stacked), where=allowed)
        e = p
    e /= e.sum(axis=axis, keepdims=True)
    return e


def sigmoid(x):
    """Logistic function, elementwise, as 0.5 tanh(0.5 x) + 0.5: the form
    the LSTM gates use (``recurrent``), within 2.3e-16 of 1 / (1 + e^-x)
    and never overflowing.  It saturates to exactly 0 and 1 beyond |x| ~ 37.
    Four numpy calls: 2.2 us on 64 x 1 and 16 us on 64 x 96, against 0.9
    and 36 us for scipy's ``expit`` (one thread, 2-vCPU shared Xeon).
    """
    t = np.tanh(np.multiply(x, 0.5, dtype=np.float64))
    t *= 0.5
    t += 0.5
    return t


# name -> (ffnn or rnn activation, its derivative written in the output y)
ACTIVATIONS = {
    "sigmoid": (sigmoid, lambda y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
    "identity": (lambda x: x, np.ones_like),
}


def gelu_tanh(x):
    """GELU via the tanh approximation used by the transformer models,
    0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), in one temporary.

    The final product runs as (x (1 + tanh(...))) 0.5, which is bitwise
    (0.5 x) (1 + tanh(...)) for every finite x: halving is exact in the
    normal range, and where x is subnormal the tanh factor is exactly 1.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= GELU_TANH_COEFF
    t += x
    t *= SQRT_2_OVER_PI
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def gelu_exact(x):
    """GELU as x Phi(x), Phi(x) = erfc(-x / sqrt 2) / 2 by ``math.erfc`` per
    entry: bitwise x * 0.5 * math.erfc(-x / math.sqrt(2.0)).  On 512 x 100
    that took 6 to 8 ms against about 1 ms with scipy's ``ndtr``; only
    ``gelu_mode=exact`` configs run it, and no perfbench workload does.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x * 0.5
    out *= np.asarray(np.frompyfunc(math.erfc, 1, 1)(-x / math.sqrt(2.0)), dtype=np.float64)
    return out


def gelu(x, mode: str):
    if mode == "tanh":
        return gelu_tanh(x)
    if mode == "exact":
        return gelu_exact(x)
    raise ValueError(f"unknown gelu mode {mode!r}; expected 'tanh' or 'exact'")


@np.errstate(over="ignore")  # layer_norm normalizes the columns that overflow again
def _centered(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of x less their means, and their population variances."""
    # bitwise ndarray.mean without its Python wrapper; keepdims keeps var an array
    out = x - np.add.reduce(x, axis=0, keepdims=True) / x.shape[0]
    return out, np.add.reduce(out * out, axis=0, keepdims=True) / x.shape[0]


def layer_norm(x, gain, bias) -> np.ndarray:
    """Z-score along axis 0, then apply the learned gain and bias.

    `x` is a vector or a d x n matrix normalized column by column.  Mean
    and standard deviation are taken over each column (population form);
    ``LAYER_NORM_EPS`` sits under the square root so constant columns
    normalize to the bias.  Only `x` is coerced to float64.

    A column whose variance overflows (past about 1e154, with no warning)
    is normalized again at 2^-k its scale, k even, with ``LAYER_NORM_EPS``
    at 2^-2k: no bit changes where nothing underflows.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.ndim in (1, 2) and 0 < len(x) and gain.shape == bias.shape == x.shape[:1]):
        raise ShapeError(f"layer_norm needs x with nonempty axis 0 matching gain and bias: "
                         f"x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    column = (-1,) + (1,) * (x.ndim - 1)
    out, var = _centered(x)
    eps = LAYER_NORM_EPS
    if not np.isfinite(var).all():
        k = np.frexp(np.abs(x).max(axis=0, keepdims=True))[1]  # 0 for NaN or inf
        k = np.where(np.isfinite(var), 0, k + (k & 1))
        # where eps 2^-2k underflows, the least subnormal keeps a constant column at its bias
        eps = np.maximum(np.ldexp(eps, -2 * k), np.finfo(np.float64).smallest_subnormal)
        out, var = _centered(np.ldexp(x, -k))
    var += eps
    out /= np.sqrt(var, out=var)
    out *= gain.reshape(column)
    out += bias.reshape(column)
    return out
