"""Dense numeric kernels shared by every model.

This module fixes the numerical conventions used everywhere else:

* all computation is IEEE-754 binary64,
* matrices are 2-D ``numpy`` arrays whose columns index sequence positions,
* each kernel has one implementation that works along an axis; a vector is
  the one-slice case.  Vocabulary logits and layer norm run along
  axis 0 (down each column, one column per position); attention weights run
  along axis 1 (across each row, one row per query),
* models emit logits; a distribution is ``softmax`` of them and a loss is
  taken from them directly (``losses.ce_loss``), never from probabilities,
* attention masks may carry ``-inf`` sentinels; softmax maps them to exact 0,
* softmax and the loss share one validation and shift step (``shifted``):
  the largest finite entry of each slice is subtracted before
  exponentiation,
* layer normalization uses the population standard deviation and adds
  ``LAYER_NORM_EPS`` under the square root.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, ndtr

from .errors import ShapeError, UndefinedDistributionError

LAYER_NORM_EPS = 1e-5

GELU_TANH_COEFF = 0.044715
SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array without copying when possible."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def as_vector(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={m.ndim}")
    return m


def shifted(v, axis: int) -> np.ndarray:
    """Scores minus the largest entry of each slice along `axis`, as a new array.

    `v` is a vector or a matrix.  This is the step softmax and cross
    entropy share: it rejects NaN and +inf entries and a slice with no
    finite entry, which has no defined distribution, and leaves every
    finite entry <= 0 so no exponential can overflow; -inf stays -inf.
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
    return v - peak


def softmax(v, axis: int = -1) -> np.ndarray:
    """Probability distributions from scores, one per slice along `axis`.

    `v` is a vector or a matrix.  Entries equal to -inf get probability
    exactly 0; inputs are validated and shifted by ``shifted``.
    """
    e = shifted(v, axis)
    np.exp(e, out=e)  # exp(-inf) == 0.0 exactly
    e /= e.sum(axis=axis, keepdims=True)
    return e


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    return expit(np.asarray(x, dtype=np.float64))


def gelu_tanh(x):
    """GELU via the tanh approximation used by the transformer models."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(SQRT_2_OVER_PI * (x + GELU_TANH_COEFF * (x * x * x))))


def gelu_exact(x):
    """GELU as x * Phi(x) with Phi the standard normal CDF."""
    x = np.asarray(x, dtype=np.float64)
    return x * ndtr(x)


def gelu(x, mode: str):
    if mode == "tanh":
        return gelu_tanh(x)
    if mode == "exact":
        return gelu_exact(x)
    raise ValueError(f"unknown gelu mode {mode!r}; expected 'tanh' or 'exact'")


def layer_norm(x, gain, bias) -> np.ndarray:
    """Z-score along axis 0, then apply the learned gain and bias.

    `x` is a vector or a d x n matrix normalized column by column.  Mean
    and standard deviation are taken over each column (population form);
    ``LAYER_NORM_EPS`` sits under the square root so constant columns
    normalize to the bias.
    """
    x = np.asarray(x, dtype=np.float64)
    gain = as_vector(gain)
    bias = as_vector(bias)
    if x.ndim not in (1, 2) or not (x.shape[0] == gain.shape[0] == bias.shape[0]):
        raise ShapeError(
            f"layer_norm dims disagree: x {x.shape}, gain {gain.shape}, bias {bias.shape}"
        )
    column = (-1,) + (1,) * (x.ndim - 1)
    out = x - x.mean(axis=0)
    var = (out * out).mean(axis=0)
    out /= np.sqrt(var + LAYER_NORM_EPS)
    out *= gain.reshape(column)
    out += bias.reshape(column)
    return out
