"""d-dimensional Hilbert curve (Skilling's transpose algorithm), vectorized.

The HCAM declustering scheme needs the Hilbert *index* of every grid cell.
We implement John Skilling's compact algorithm ("Programming the Hilbert
curve", AIP Conf. Proc. 707, 2004), which transforms between axis
coordinates and the "transpose" form of the Hilbert index with O(bits·dims)
bit operations per point.  All operations are elementwise, so the whole
transform vectorizes over numpy arrays of points: declustering a grid with
hundreds of thousands of cells costs a handful of array passes rather than a
Python loop per cell.

For ``dims == 2`` and ``bits == 1`` the curve is the familiar U shape::

    index:  0 1 2 3   ->   (0,0) (0,1) (1,1) (1,0)

(with dimension 0 treated as the most significant axis, matching
:func:`repro.sfc.base.interleave_bits`).
"""

from __future__ import annotations

import numpy as np

from repro.sfc.base import (
    SpaceFillingCurve,
    deinterleave_bits,
    interleave_bits,
)

__all__ = ["HilbertCurve"]


class HilbertCurve(SpaceFillingCurve):
    """Hilbert space-filling curve over ``[0, 2**bits)**dims``.

    Examples
    --------
    >>> import numpy as np
    >>> curve = HilbertCurve(dims=2, bits=2)
    >>> curve.index(np.array([[0, 0], [1, 1], [3, 3]]))
    array([ 0,  2, 10])
    >>> np.array_equal(curve.coords(curve.index(cells)), cells)  # doctest: +SKIP
    True
    """

    def index(self, coords: np.ndarray) -> np.ndarray:
        coords = self._check_coords(coords)
        transpose = self._axes_to_transpose(self._columns(coords))
        return interleave_bits(np.stack(transpose, axis=1), self.bits)

    def coords(self, index: np.ndarray) -> np.ndarray:
        index = np.asarray(index, dtype=np.int64)
        scalar = index.ndim == 0
        index = np.atleast_1d(index)
        if index.size and (index.min() < 0 or index.max() >= self.size):
            raise ValueError(f"index must lie in [0, {self.size})")
        transpose = deinterleave_bits(index, self.dims, self.bits)
        out = np.stack(self._transpose_to_axes(self._columns(transpose)), axis=1).astype(np.int64)
        return out[0] if scalar else out

    # -- Skilling's algorithm, on one column per dimension ------------------

    def _columns(self, x: np.ndarray) -> list[np.ndarray]:
        """Copy ``(n, d)`` coordinates into ``d`` columns of the smallest
        unsigned dtype that holds ``bits`` bits."""
        word = np.min_scalar_type((1 << self.bits) - 1)
        return [x[:, i].astype(word) for i in range(self.dims)]

    @staticmethod
    def _set_mask(col: np.ndarray, q: int) -> np.ndarray:
        """All ones where bit ``q`` (a power of two) of ``col`` is set, else 0."""
        return -((col >> (q.bit_length() - 1)) & 1)

    @classmethod
    def _exchange(cls, x: list[np.ndarray], i: int, q: int) -> None:
        """One step of Skilling's loop, branch-free: where bit ``q`` of
        ``x[i]`` is set, invert the bits of ``x[0]`` below ``q``; elsewhere
        exchange those bits of ``x[0]`` and ``x[i]`` (a no-op for ``i == 0``)."""
        p = q - 1
        invert = cls._set_mask(x[i], q) & p
        t = (x[0] ^ x[i]) & (invert ^ p)
        x[0] ^= invert | t
        x[i] ^= t

    def _axes_to_transpose(self, x: list[np.ndarray]) -> list[np.ndarray]:
        """Axis coordinates -> Hilbert transpose form (columns, updated in place)."""
        d = self.dims
        m = 1 << (self.bits - 1)
        # Inverse undo excess work.
        q = m
        while q > 1:
            for i in range(d):
                self._exchange(x, i, q)
            q >>= 1
        # Gray encode.
        for i in range(1, d):
            x[i] ^= x[i - 1]
        t = np.zeros_like(x[0])
        q = m
        while q > 1:
            t ^= self._set_mask(x[d - 1], q) & (q - 1)
            q >>= 1
        for xi in x:
            xi ^= t
        return x

    def _transpose_to_axes(self, x: list[np.ndarray]) -> list[np.ndarray]:
        """Hilbert transpose form -> axis coordinates (columns, updated in place)."""
        d = self.dims
        n_top = 2 << (self.bits - 1)
        # Gray decode by H ^ (H/2).
        t = x[d - 1] >> 1
        for i in range(d - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        # Undo excess work.
        q = 2
        while q != n_top:
            for i in range(d - 1, -1, -1):
                self._exchange(x, i, q)
            q <<= 1
        return x
