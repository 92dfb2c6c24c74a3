"""Byte-exact tensor archives for weight sets.

Layout (all integers unsigned 64-bit little-endian, payloads IEEE-754
binary64 little-endian, row-major):

    magic   4 bytes  "ANLM"
    version u64      1
    count   u64      number of tensors
    entry*  count times:
        name_len u64
        name     UTF-8 bytes
        rank     u64
        dims     rank u64 values
        payload  prod(dims) float64 values

Round trips are bitwise: load(save(w)) reproduces every byte of every
tensor.  A load reads each payload into its own array.  Malformed files
raise a distinct error per failure mode (magic, version, truncation,
duplicate names).  Every declared length is checked against the bytes left
in the file before anything is read or allocated, so whatever its header
declares, a load allocates about the file's size for weights and at most
about ten times it for a file of zero-size tensors.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import (
    ArchiveDuplicateNameError,
    ArchiveError,
    ArchiveMagicError,
    ArchiveTruncatedError,
    ArchiveVersionError,
)
from .weights import named_tensor_view

MAGIC = b"ANLM"
FORMAT_VERSION = 1


def save_weights(weights, path) -> None:
    """Write a named-tensor set (structured weights or plain dict)."""
    tensors = named_tensor_view(weights)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", FORMAT_VERSION, len(tensors)))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            arr = np.asarray(tensor, dtype="<f8")  # tobytes() is row-major for any layout
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


class _Reader:
    """Reads an open archive, refusing any read longer than the bytes left
    in the file before it happens."""

    def __init__(self, fh):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size

    def _claim(self, count: int, what: str) -> None:
        if count > self._left:
            raise ArchiveTruncatedError(
                f"archive ends inside {what}: wanted {count} bytes, {self._left} left"
            )
        self._left -= count

    def exact(self, count: int, what: str) -> bytes:
        self._claim(count, what)
        data = self._fh.read(count)
        if len(data) != count:  # the file shrank while being read
            raise ArchiveTruncatedError(f"archive ends inside {what}")
        return data

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.exact(8, what))[0]

    def tensor(self, dims: tuple[int, ...], what: str) -> np.ndarray:
        """Read a float64 payload straight into a new array of shape `dims`."""
        self._claim(8 * math.prod(dims), what)
        try:
            tensor = np.empty(dims, dtype="<f8")
        except ValueError as exc:  # a zero-size tensor with a dim numpy cannot index
            raise ArchiveError(f"{what} has unsupported dims {dims}: {exc}") from None
        if self._fh.readinto(tensor.data) != tensor.nbytes:
            raise ArchiveTruncatedError(f"archive ends inside {what}")
        return tensor


def load_weights(path) -> dict[str, np.ndarray]:
    """Read an archive back into an ordered name -> float64 array dict."""
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        magic = reader.exact(4, "magic")
        if magic != MAGIC:
            raise ArchiveMagicError(f"bad magic {magic!r}; expected {MAGIC!r}")
        version = reader.u64("version")
        if version != FORMAT_VERSION:
            raise ArchiveVersionError(
                f"unsupported format version {version}; expected {FORMAT_VERSION}"
            )
        count = reader.u64("tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = reader.u64("name length")
            try:
                name = reader.exact(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArchiveError(f"tensor name is not valid UTF-8: {exc}") from None
            if name in tensors:
                raise ArchiveDuplicateNameError(f"archive contains tensor {name!r} twice")
            rank = reader.u64(f"rank of {name}")
            dims = struct.unpack(f"<{rank}Q", reader.exact(8 * rank, f"dims of {name}"))
            tensors[name] = reader.tensor(dims, f"payload of {name}")
        trailing = fh.read(1)
        if trailing:
            raise ArchiveError("archive has trailing bytes after the last tensor")
    return tensors
