"""Input adapters for images and multivariate series.

Images are split into square patches and flattened into one column per
patch, so a transformer treats patches as tokens.  Series columns are
z-scored and linearly projected; self-supervised corruption masks each
channel independently with geometric run lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import as_matrix, as_vector
from .weights import philox


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """Flatten square patches into columns; returns (patch*patch*C, n).

    Patches are taken in row-major grid order; inside a patch, pixels are
    row-major with channels innermost.  The patch size must divide both
    image dimensions.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ShapeError(f"image must be H x W x C, got ndim={image.ndim}")
    h, w, c = image.shape
    if patch < 1 or h % patch or w % patch:
        raise ShapeError(f"patch size {patch} does not divide image {h}x{w}")
    rows, cols = h // patch, w // patch
    # (rows, patch, cols, patch, c) -> (rows, cols, patch, patch, c)
    grid = image.reshape(rows, patch, cols, patch, c).transpose(0, 2, 1, 3, 4)
    return grid.reshape(rows * cols, patch * patch * c).T.copy()


def unpatchify(columns: np.ndarray, height: int, width: int,
               channels: int, patch: int) -> np.ndarray:
    """Inverse of patchify; rebuilds the H x W x C image."""
    columns = as_matrix(columns)
    rows, cols = height // patch, width // patch
    if columns.shape != (patch * patch * channels, rows * cols):
        raise ShapeError(
            f"column matrix {columns.shape} does not match image "
            f"{height}x{width}x{channels} with patch {patch}"
        )
    grid = columns.T.reshape(rows, cols, patch, patch, channels)
    return grid.transpose(0, 2, 1, 3, 4).reshape(height, width, channels).copy()


def patch_embed(patches: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    """Project flattened patches to embedding space: one column per patch."""
    patches = as_matrix(patches)
    embedding = as_matrix(embedding)
    if embedding.shape[1] != patches.shape[0]:
        raise ShapeError(
            f"embedding expects {embedding.shape[1]}-value patches, got {patches.shape[0]}"
        )
    return embedding @ patches


TST_ZSCORE_EPS = 1e-8


def tst_embed(series: np.ndarray, embedding: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Z-score each time step across channels, then project with bias."""
    series = as_matrix(series)
    embedding = as_matrix(embedding)
    bias = as_vector(bias)
    if embedding.shape[1] != series.shape[0]:
        raise ShapeError(
            f"embedding expects {embedding.shape[1]} channels, got {series.shape[0]}"
        )
    if bias.shape[0] != embedding.shape[0]:
        raise ShapeError(f"bias dim {bias.shape[0]} != embedding dim {embedding.shape[0]}")
    mu = series.mean(axis=0)
    var = series.var(axis=0)
    z = (series - mu) / np.sqrt(var + TST_ZSCORE_EPS)
    return embedding @ z + bias[:, None]


@dataclass
class NoiseMask:
    """Binary C x n mask (1 = masked) with its generating statistics."""

    mask: np.ndarray
    rate: float
    mean_len: int


def _channel_mask(length: int, rate: float, mean_len: int, seed: int, channel: int) -> np.ndarray:
    """Alternating geometric runs for one channel, keyed by (seed, channel)."""
    rng = philox(seed + (channel << 32))
    p_end_masked = 1.0 / mean_len
    p_end_clear = rate / (mean_len * (1.0 - rate))
    mask = np.zeros(length, dtype=np.uint8)
    masked = rng.random() < rate  # stationary start
    pos = 0
    while pos < length:
        run = rng.geometric(p_end_masked if masked else min(p_end_clear, 1.0))
        if masked:
            mask[pos:pos + run] = 1
        pos += run
        masked = not masked
    return mask


def tst_mask(series: np.ndarray, rate: float, mean_len: int,
             seed: int) -> tuple[np.ndarray, NoiseMask]:
    """Corrupt a series by zeroing geometric runs per channel.

    Masked runs average ``mean_len`` steps and clear runs
    ``mean_len * (1 - rate) / rate``, so the long-run masked fraction is
    ``rate``.  Channels are masked independently: a channel's mask depends
    only on the seed, its index, and the length.  The seed lies in
    [0, 2**32), so no two (seed, channel) pairs share a stream.
    """
    series = as_matrix(series)
    if not (0.0 < rate < 1.0):
        raise ValueError(f"rate must lie in (0, 1), got {rate}")
    if mean_len < 1:
        raise ValueError(f"mean_len must be >= 1, got {mean_len}")
    if not 0 <= seed < 2**32:
        raise ConfigError(f"seed must be an integer in [0, 2**32), got {seed}")
    channels, length = series.shape
    mask = np.stack([_channel_mask(length, rate, mean_len, seed, c) for c in range(channels)])
    corrupted = series.copy()
    corrupted[mask == 1] = 0.0
    return corrupted, NoiseMask(mask=mask, rate=rate, mean_len=mean_len)
