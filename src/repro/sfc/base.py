"""Common interface and bit-twiddling helpers for space-filling curves."""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

import numpy as np

from repro._util import check_dimension, check_positive_int

__all__ = ["SpaceFillingCurve", "bits_for", "interleave_bits", "deinterleave_bits"]


def bits_for(n_cells: int) -> int:
    """Number of bits needed to address ``n_cells`` distinct coordinates.

    ``bits_for(1) == 1`` so that degenerate single-cell dimensions still get
    an addressable bit (keeps the curve machinery uniform).
    """
    n_cells = check_positive_int(n_cells, "n_cells")
    return max(1, int(n_cells - 1).bit_length())


class SpaceFillingCurve(ABC):
    """A bijection between d-dimensional cells and positions on a curve.

    Parameters
    ----------
    dims:
        Dimensionality ``d`` of the cell space.
    bits:
        Bits per coordinate; the curve covers the cube ``[0, 2**bits)**d``.
        ``bits * dims`` must fit in a signed 64-bit key (<= 62).

    Subclasses implement :meth:`index`; :meth:`coords` (the inverse) is
    optional but provided by every curve in this package, which makes
    round-trip property testing cheap.
    """

    def __init__(self, dims: int, bits: int):
        self.dims = check_dimension(dims, "dims")
        self.bits = check_positive_int(bits, "bits")
        if self.dims * self.bits > 62:
            raise ValueError(
                f"dims*bits = {self.dims * self.bits} exceeds 62; keys would "
                "overflow int64"
            )

    @property
    def size(self) -> int:
        """Total number of cells on the curve (``2**(dims*bits)``)."""
        return 1 << (self.dims * self.bits)

    def _check_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim == 1:
            coords = coords[None, :]
        if coords.ndim != 2 or coords.shape[1] != self.dims:
            raise ValueError(
                f"coords must have shape (n, {self.dims}), got {coords.shape}"
            )
        if coords.size and (coords.min() < 0 or coords.max() >= (1 << self.bits)):
            raise ValueError(
                f"coordinates must lie in [0, {1 << self.bits}) for bits={self.bits}"
            )
        return coords

    @abstractmethod
    def index(self, coords: np.ndarray) -> np.ndarray:
        """Map cell coordinates to curve positions.

        Parameters
        ----------
        coords:
            Integer array of shape ``(n, d)`` (a single ``(d,)`` row is
            promoted).

        Returns
        -------
        numpy.ndarray
            ``(n,)`` int64 positions in ``[0, size)``.
        """

    @abstractmethod
    def coords(self, index: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`index`: map positions back to ``(n, d)`` cells."""


def interleave_bits(coords: np.ndarray, bits: int) -> np.ndarray:
    """Bit-interleave ``(n, d)`` coordinates into ``(n,)`` int64 keys.

    Bit ``b`` (0 = least significant) of dimension ``k`` lands at key bit
    ``b * d + (d - 1 - k)``, i.e. dimension 0 contributes the *most*
    significant bit of each d-bit group — the conventional Z-order layout.
    Each byte of a coordinate is spread in one lookup of a 256-entry table,
    so the cost is ``d * ceil(bits / 8)`` array passes.
    """
    coords = np.asarray(coords)
    if coords.dtype.kind not in "iu":
        coords = coords.astype(np.int64)
    n, d = coords.shape
    spread = _spread_table(d)
    out = np.zeros(n, dtype=np.int64)
    for k in range(d):
        col = coords[:, k]
        for b in range(0, bits, 8):
            out |= spread[(col >> b) & 0xFF] << (b * d + (d - 1 - k))
    return out


@functools.lru_cache(maxsize=None)
def _spread_table(d: int) -> np.ndarray:
    """``table[v]`` moves bit ``b`` of the byte ``v`` to bit ``b * d``."""
    v = np.arange(256, dtype=np.int64)
    table = np.zeros(256, dtype=np.int64)
    for b in range(8):
        table |= ((v >> b) & 1) << (b * d)
    table.flags.writeable = False
    return table


def deinterleave_bits(keys: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`interleave_bits`."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.zeros((keys.shape[0], dims), dtype=np.int64)
    for b in range(bits):
        for k in range(dims):
            bit = (keys >> (b * dims + (dims - 1 - k))) & 1
            out[:, k] |= bit << b
    return out
