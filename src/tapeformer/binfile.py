"""Array payloads of the binary file formats (feature matrix, dataset
artifact, checkpoint), written and read without intermediate copies,
and the lines of the text formats.

A payload is the array's raw bytes in C order. ``Reader`` checks every
size a header declares against the bytes left in the file before it
reads or allocates anything, so a corrupt size field is reported as a
truncated file instead of surfacing as numpy's or Python's own overflow
or allocation error.
"""
from __future__ import annotations

import math
import os

import numpy as np


def payload(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a flat uint8 view of its buffer."""
    return arr.reshape(-1).view(np.uint8)


class Reader:
    """Sequential reads from a binary file opened in ``rb`` mode.

    Any read the file cannot satisfy raises ``error``; with ``digest``
    set, every byte read is also fed to that hash.
    """

    def __init__(self, f, error: Exception, digest=None):
        self.f = f
        self.error = error
        self.digest = digest
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def _reserve(self, n: int) -> None:
        if n > self.left:
            raise self.error
        self.left -= n

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        self._reserve(n)
        buf = self.f.read(n)
        if len(buf) != n:
            raise self.error
        if self.digest is not None:
            self.digest.update(buf)
        return buf

    def utf8(self, n: int, error: Exception) -> str:
        """The next ``n`` bytes as text; ``error`` if they are not UTF-8."""
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise error from None

    def array(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The next C-order array of ``shape``, read into its final buffer."""
        return self.fill(self.empty(shape, dtype, dtype))

    def empty(self, shape: tuple[int, ...], stored, dtype) -> np.ndarray:
        """An empty ``dtype`` array of ``shape`` for the next array, once the
        file is known to hold its bytes as ``stored``; ``fill`` reads them."""
        self._reserve(math.prod(shape) * np.dtype(stored).itemsize)
        try:
            return np.empty(shape, dtype=dtype)
        except ValueError:  # a huge dimension of an empty array, or rank > 64
            raise self.error from None

    def fill(self, arr: np.ndarray) -> np.ndarray:
        """``arr``, C-contiguous, filled with the next bytes ``empty`` reserved."""
        raw = payload(arr)
        if self.f.readinto(raw) != raw.size:
            raise self.error
        if self.digest is not None:
            self.digest.update(raw)
        return arr


def utf8_lines(path, error: type[Exception]):
    """(line number, line) for each line of a UTF-8 text file, split as
    text mode splits it. Text mode decodes ahead in chunks, so its decode
    error cannot name a line: bytes that are not UTF-8 come through as
    lone surrogates, and a line holding one raises ``error`` naming it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for ln, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:  # the surrogate of byte b is U+DC00 + b
                    raise error(f"{path}:{ln}: not UTF-8: byte {ord(line[e.start]) - 0xDC00:#04x}"
                                f" at column {e.start + 1}") from None
            yield ln, line
