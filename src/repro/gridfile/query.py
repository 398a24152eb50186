"""Query objects: multidimensional range queries and partial-match queries.

The paper's workload is square range queries whose side lengths are governed
by a ratio ``r`` of the domain volume: the side along dimension ``k`` is
``l_k = r**(1/d) * L_k`` (so the query covers a fraction ``r`` of the domain
volume), with centers uniform over the domain.  :meth:`RangeQuery.square`
reproduces exactly that construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RangeQuery", "PartialMatchQuery"]


@dataclass(frozen=True)
class RangeQuery:
    """A closed axis-aligned box query ``[lo_k, hi_k]`` per dimension.

    Bounds may be infinite but not NaN.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-d arrays of equal shape")
        for name, bound in (("lo", lo), ("hi", hi)):
            nan = np.flatnonzero(np.isnan(bound))
            if nan.size:
                raise ValueError(f"query bound {name}[{nan[0]}] is NaN")
        if np.any(lo > hi):
            raise ValueError("query must satisfy lo <= hi elementwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dims(self) -> int:
        """Dimensionality of the query."""
        return self.lo.shape[0]

    @property
    def side_lengths(self) -> np.ndarray:
        """Extent of the query along each dimension."""
        return self.hi - self.lo

    def volume(self) -> float:
        """Volume of the query box."""
        return float(np.prod(self.side_lengths))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``(n, d)`` points fall inside (closed box)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    @classmethod
    def square(
        cls, center: np.ndarray, ratio: float, domain_lo, domain_hi, clip: bool = True
    ) -> "RangeQuery":
        """The paper's square query: volume fraction ``ratio`` of the domain.

        Side length along dimension ``k`` is ``ratio**(1/d) * L_k``.  With
        ``clip=True`` (default) the box is intersected with the domain, as a
        real system would.
        """
        center = np.asarray(center, dtype=np.float64)
        domain_lo = np.asarray(domain_lo, dtype=np.float64)
        domain_hi = np.asarray(domain_hi, dtype=np.float64)
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        d = center.shape[0]
        half = (ratio ** (1.0 / d)) * (domain_hi - domain_lo) / 2.0
        lo = center - half
        hi = center + half
        if clip:
            lo = np.maximum(lo, domain_lo)
            hi = np.minimum(hi, domain_hi)
        return cls(lo, hi)


@dataclass(frozen=True)
class PartialMatchQuery:
    """A partial-match query: some attributes pinned, the rest unspecified.

    The paper defines these as ``(A_1 = a_1, ..., A_d = a_d)`` with at least
    one ``a_i`` unspecified; DM is strictly optimal for large classes of
    them (Du & Sobolewski).
    """

    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        for k in self.spec:
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"spec keys must be non-negative ints, got {k!r}")

    @property
    def n_specified(self) -> int:
        """Number of pinned attributes."""
        return len(self.spec)

    def as_range(self, domain_lo, domain_hi) -> RangeQuery:
        """Equivalent degenerate range query over the given domain."""
        lo = np.asarray(domain_lo, dtype=np.float64).copy()
        hi = np.asarray(domain_hi, dtype=np.float64).copy()
        if len(self.spec) >= lo.shape[0]:
            raise ValueError("a partial-match query needs >= 1 unspecified attribute")
        for k, v in self.spec.items():
            if k >= lo.shape[0]:
                raise ValueError(f"dimension {k} out of range")
            lo[k] = hi[k] = float(v)
        return RangeQuery(lo, hi)
