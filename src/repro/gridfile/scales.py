"""Linear scales: the per-dimension split points of a grid file.

A scale for dimension ``k`` is a sorted array of *interior* boundaries inside
the domain ``[domain_lo_k, domain_hi_k]``.  ``len(boundaries) + 1`` intervals
result; interval ``i`` is half-open ``[B[i-1], B[i])`` except the last, which
is closed at the domain's upper edge so every point in the domain maps to a
cell.  Points exactly on a boundary belong to the *upper* interval
(``searchsorted(..., side="right")``), and bucket splitting uses the same
convention, so locate/split never disagree.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_dimension

__all__ = ["Scales"]


class Scales:
    """Per-dimension partition boundaries of a grid file.

    Parameters
    ----------
    domain_lo, domain_hi:
        Arrays of shape ``(d,)``: the data domain (closed box).
    boundaries:
        Optional list of ``d`` sorted 1-d float arrays of interior split
        points, each strictly inside the corresponding domain interval.
        Defaults to no splits (one interval per dimension).
    """

    def __init__(self, domain_lo, domain_hi, boundaries=None):
        self.domain_lo = np.asarray(domain_lo, dtype=np.float64).copy()
        self.domain_hi = np.asarray(domain_hi, dtype=np.float64).copy()
        if self.domain_lo.shape != self.domain_hi.shape or self.domain_lo.ndim != 1:
            raise ValueError("domain_lo/domain_hi must be 1-d arrays of equal shape")
        if np.any(self.domain_lo >= self.domain_hi):
            raise ValueError("domain must have positive extent in every dimension")
        self._d = check_dimension(self.domain_lo.shape[0])
        if boundaries is None:
            boundaries = [np.empty(0, dtype=np.float64) for _ in range(self._d)]
        if len(boundaries) != self._d:
            raise ValueError(f"expected {self._d} boundary arrays")
        self.boundaries: list[np.ndarray] = []
        for k, b in enumerate(boundaries):
            b = np.asarray(b, dtype=np.float64).copy()
            if b.ndim != 1:
                raise ValueError("each boundary array must be 1-d")
            if np.any(np.diff(b) <= 0):
                raise ValueError(f"boundaries of dim {k} must be strictly increasing")
            if b.size and (b[0] <= self.domain_lo[k] or b[-1] >= self.domain_hi[k]):
                raise ValueError(
                    f"boundaries of dim {k} must lie strictly inside the domain"
                )
            self.boundaries.append(b)

    @property
    def dims(self) -> int:
        """Dimensionality of the indexed space."""
        return self._d

    @property
    def nintervals(self) -> tuple[int, ...]:
        """Number of intervals along each dimension (the directory shape)."""
        return tuple(len(b) + 1 for b in self.boundaries)

    @property
    def n_cells(self) -> int:
        """Total number of grid cells (the paper's "subspaces")."""
        return int(np.prod(self.nintervals))

    @property
    def lengths(self) -> np.ndarray:
        """Domain extent per dimension (``L_k`` in the paper)."""
        return self.domain_hi - self.domain_lo

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Map points to cell index vectors.

        Parameters
        ----------
        points:
            ``(n, d)`` array of coordinates inside the domain (a single
            ``(d,)`` point is promoted).

        Returns
        -------
        numpy.ndarray
            ``(n, d)`` int64 cell indices.
        """
        points = np.asarray(points, dtype=np.float64)
        squeeze = points.ndim == 1
        points = np.atleast_2d(points)
        if points.shape[1] != self._d:
            raise ValueError(f"points must have {self._d} columns")
        cells = np.empty(points.shape, dtype=np.int64)
        for k in range(self._d):
            cells[:, k] = np.searchsorted(self.boundaries[k], points[:, k], side="right")
        return cells[0] if squeeze else cells

    def check_points(self, points: np.ndarray) -> None:
        """Raise ``ValueError`` unless every coordinate of the ``(n, d)``
        points (or one ``(d,)`` point) is finite and inside the closed domain.

        The message names the first offending row and dimension.  A NaN
        would otherwise pass a pair of ``<``/``>`` domain tests and land in
        a bucket that no query can reach.  The common case costs one min
        and one max per column (both propagate NaN), with no per-point mask.
        """
        pts = np.atleast_2d(points)
        if pts.shape[0] == 0:
            return
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        if (np.isfinite(lo) & np.isfinite(hi) & (lo >= self.domain_lo) & (hi <= self.domain_hi)).all():
            return
        inside = np.isfinite(pts) & (pts >= self.domain_lo) & (pts <= self.domain_hi)
        i, k = (int(v) for v in np.argwhere(~inside)[0])
        where = f"row {i}" if np.ndim(points) == 2 else f"point {points}"
        v = pts[i, k]
        if not np.isfinite(v):
            raise ValueError(f"{where}, dimension {k}: coordinate {v} is not finite")
        raise ValueError(
            f"{where}, dimension {k}: coordinate {v} outside domain "
            f"[{self.domain_lo[k]}, {self.domain_hi[k]}]"
        )

    def interval(self, dim: int, i: int) -> tuple[float, float]:
        """Domain bounds ``[lo, hi)`` of interval ``i`` along ``dim``."""
        b = self.boundaries[dim]
        if not 0 <= i <= len(b):
            raise IndexError(f"interval {i} out of range for dim {dim}")
        lo = self.domain_lo[dim] if i == 0 else b[i - 1]
        hi = self.domain_hi[dim] if i == len(b) else b[i]
        return float(lo), float(hi)

    def edges(self, dim: int) -> np.ndarray:
        """All interval edges of ``dim`` including the domain endpoints."""
        return np.concatenate(
            ([self.domain_lo[dim]], self.boundaries[dim], [self.domain_hi[dim]])
        )

    def box_bounds(self, lo_cells, hi_cells) -> tuple[np.ndarray, np.ndarray]:
        """Domain bounds of cell boxes.

        Parameters
        ----------
        lo_cells, hi_cells:
            ``(n, d)`` integer arrays — half-open cell boxes ``[lo, hi)``.

        Returns
        -------
        (lo, hi):
            ``(n, d)`` float arrays of domain coordinates.
        """
        lo_cells = np.atleast_2d(np.asarray(lo_cells, dtype=np.int64))
        hi_cells = np.atleast_2d(np.asarray(hi_cells, dtype=np.int64))
        lo = np.empty(lo_cells.shape, dtype=np.float64)
        hi = np.empty(hi_cells.shape, dtype=np.float64)
        for k in range(self._d):
            e = self.edges(k)
            lo[:, k] = e[lo_cells[:, k]]
            hi[:, k] = e[hi_cells[:, k]]
        return lo, hi

    def insert_boundary(self, dim: int, value: float) -> int:
        """Insert an interior boundary; return the index of the split interval.

        After the call, old interval ``i`` (the return value) is replaced by
        intervals ``i`` (below ``value``) and ``i + 1`` (at/above ``value``).
        The caller is responsible for refining the grid directory to match.
        """
        b = self.boundaries[dim]
        if not self.domain_lo[dim] < value < self.domain_hi[dim]:
            raise ValueError(
                f"boundary {value} outside domain of dim {dim} "
                f"[{self.domain_lo[dim]}, {self.domain_hi[dim]}]"
            )
        i = int(np.searchsorted(b, value, side="left"))
        if i < len(b) and b[i] == value:
            raise ValueError(f"boundary {value} already present in dim {dim}")
        self.boundaries[dim] = np.insert(b, i, value)
        return i

    def cell_range_for_interval(self, dim: int, lo: float, hi: float) -> tuple[int, int]:
        """Half-open range of interval indices intersecting ``[lo, hi]``.

        The query interval is treated as closed on both ends, matching the
        point-in-range semantics of :class:`repro.gridfile.query.RangeQuery`.
        An interval that misses the domain ``[domain_lo, domain_hi]``, or
        has a NaN bound, contains no point and gets an empty range.
        """
        b = self.boundaries[dim]
        start = int(np.searchsorted(b, lo, side="right"))
        if not (hi >= self.domain_lo[dim] and lo <= self.domain_hi[dim]):
            return start, start
        stop = int(np.searchsorted(b, hi, side="right")) + 1
        return start, stop

    def cell_ranges_for_boxes(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`cell_range_for_interval` over a stack of query boxes.

        One ``searchsorted`` per dimension resolves a whole workload at once,
        which is the hot path of batched query evaluation
        (:meth:`repro.gridfile.GridFile.batch_query_buckets`).

        Parameters
        ----------
        lo, hi:
            ``(n, d)`` arrays of closed query-box bounds.

        Returns
        -------
        (starts, stops):
            ``(n, d)`` int64 arrays; along each dimension ``k``, query ``i``
            intersects the half-open interval range
            ``[starts[i, k], stops[i, k])`` — identical to calling
            :meth:`cell_range_for_interval` per query and dimension.
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.shape[1] != self._d:
            raise ValueError(f"query bounds must have shape (n, {self._d})")
        starts = np.empty(lo.shape, dtype=np.int64)
        stops = np.empty(hi.shape, dtype=np.int64)
        for k in range(self._d):
            b = self.boundaries[k]
            starts[:, k] = np.searchsorted(b, lo[:, k], side="right")
            stops[:, k] = np.searchsorted(b, hi[:, k], side="right") + 1
            outside = ~((hi[:, k] >= self.domain_lo[k]) & (lo[:, k] <= self.domain_hi[k]))
            stops[outside, k] = starts[outside, k]
        return starts, stops

    def copy(self) -> "Scales":
        """Deep copy."""
        return Scales(self.domain_lo, self.domain_hi, [b.copy() for b in self.boundaries])

    def __repr__(self) -> str:
        return (
            f"Scales(dims={self._d}, nintervals={self.nintervals}, "
            f"domain={list(zip(self.domain_lo, self.domain_hi))})"
        )
