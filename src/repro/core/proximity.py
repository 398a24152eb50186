"""Bucket proximity measures.

The minimax algorithm weights bucket pairs by "the probability that they are
accessed together by a query".  Following the paper, the default surrogate
is the **proximity index** of Kamel & Faloutsos (Parallel R-trees, SIGMOD
1992), defined for d-dimensional boxes R, S as the product over dimensions of

* ``(1 + 2·δ_i) / 3``   if the projections intersect (``δ_i`` = intersection
  length / domain length), and
* ``(1 - Δ_i)² / 3``    if they are disjoint (``Δ_i`` = gap / domain length).

Both branches equal 1/3 at a touching boundary, so the index is continuous;
it lies in ``(0, 1]`` and equals 1 only for two copies of the full domain.
The Euclidean center distance is provided as the ablation alternative the
paper argues against (it ignores partial overlap of box-shaped buckets).

Because the index is a product of per-dimension factors, the one-vs-all rows
the minimax loops consume can be gathered from small per-dimension tables
(:class:`FactoredProximity`) whenever the boxes take few distinct intervals
per dimension — always the case for grid-file buckets, whose edges lie on
scale boundaries.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = [
    "proximity_index",
    "proximity_matrix",
    "pairwise_rows",
    "FactoredProximity",
    "proximity_rows",
    "center_distance",
    "euclidean_similarity",
]


def _dim_factors(lo_a, hi_a, lo_b, hi_b, lengths):
    """Per-dimension proximity factors with broadcasting."""
    inter = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    lengths = np.asarray(lengths, dtype=np.float64)
    delta = np.clip(inter, 0.0, None) / lengths
    gap = np.clip(-inter, 0.0, None) / lengths
    intersecting = inter >= 0
    return np.where(intersecting, (1.0 + 2.0 * delta) / 3.0, (1.0 - gap) ** 2 / 3.0)


#: Cells per row block while filling a pairwise matrix or factor table
#: (4 MiB of float64), so the temporaries of :func:`_dim_factors` stay small
#: for any matrix size.
_BLOCK_CELLS = 512 * 1024

#: Cap on the float64 factor tables of one :class:`FactoredProximity`
#: (256 MiB).  It bounds memory; boxes over it take formula rows.
_MAX_TABLE_BYTES = 256 * 1024 * 1024


def _interval_factors(lo_a, hi_a, lo_b, hi_b, length):
    """:func:`_dim_factors` of one-dimensional boxes, dimension axis dropped."""
    return _dim_factors(lo_a, hi_a, lo_b, hi_b, length)[..., 0]


def proximity_index(lo_a, hi_a, lo_b, hi_b, lengths) -> np.ndarray:
    """Proximity index between boxes, with numpy broadcasting.

    Parameters
    ----------
    lo_a, hi_a:
        First operand box(es); any shape broadcastable against the second,
        last axis = dimension.
    lo_b, hi_b:
        Second operand box(es).
    lengths:
        Domain extent per dimension (``L_k``).

    Returns
    -------
    numpy.ndarray
        Proximity values in ``(0, 1]``, shape = broadcast shape minus the
        last (dimension) axis.

    Examples
    --------
    One bucket against all others (the minimax inner loop)::

        p = proximity_index(lo[y], hi[y], lo, hi, domain_lengths)   # (n,)
    """
    lo_a = np.asarray(lo_a, dtype=np.float64)
    hi_a = np.asarray(hi_a, dtype=np.float64)
    lo_b = np.asarray(lo_b, dtype=np.float64)
    hi_b = np.asarray(hi_b, dtype=np.float64)
    factors = _dim_factors(lo_a, hi_a, lo_b, hi_b, lengths)
    return np.prod(factors, axis=-1)


def proximity_matrix(lo, hi, lengths) -> np.ndarray:
    """Full pairwise proximity matrix of ``n`` boxes (``(n, n)``, symmetric).

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` box bounds.
    lengths:
        Domain extent per dimension.

    O(n²·d) time and an ``(n, n)`` result, filled in row blocks of about
    4 MiB of broadcast temporaries.  Used where a whole matrix is needed
    (e.g. the Kernighan–Lin refinement); minimax reads one row per step
    through :func:`proximity_rows` instead.
    """
    lo = np.asarray(lo, dtype=np.float64)
    block_rows = _BLOCK_CELLS // max(1, lo.shape[0] * lo.shape[1])
    return pairwise_rows(proximity_index, lo, hi, lengths, block_rows)


def pairwise_rows(weight_fn, lo, hi, lengths, block_rows: int) -> np.ndarray:
    """Fill an ``(n, n)`` pairwise weight matrix in row blocks.

    ``weight_fn`` is any broadcasting box-pair weight (``proximity_index``,
    ``euclidean_similarity``, ...).  Row ``i`` of the result is bit-for-bit
    identical to ``weight_fn(lo[i], hi[i], lo, hi, lengths)``.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    block_rows = max(1, int(block_rows))
    out = np.empty((n, n), dtype=np.float64)
    for s in range(0, n, block_rows):
        e = min(n, s + block_rows)
        out[s:e] = weight_fn(
            lo[s:e, None, :], hi[s:e, None, :], lo[None, :, :], hi[None, :, :], lengths
        )
    return out


class FactoredProximity:
    """Proximity rows of ``n`` boxes gathered from per-dimension tables.

    Per dimension ``j`` every box's ``(lo_j, hi_j)`` interval is coded
    against the ``U_j`` distinct intervals, and a ``(U_j, U_j)`` table of
    :func:`_dim_factors` holds every factor once.  :meth:`row` gathers the
    ``d`` factor rows and multiplies them left to right — the same
    elementwise arithmetic, in the same order, as ``np.prod(axis=-1)`` in
    :func:`proximity_index`, so rows are bit-for-bit identical.

    Build with :meth:`build`, which returns ``None`` unless the tables are
    no larger than the dense ``(n, n)`` matrix (``Σ_j U_j² ≤ n²``) and fit
    under a fixed 256 MiB cap.
    """

    __slots__ = ("codes", "tables")

    def __init__(self, codes: "list[np.ndarray]", tables: "list[np.ndarray]"):
        self.codes = codes
        self.tables = tables

    @property
    def n(self) -> int:
        """Number of boxes."""
        return int(self.codes[0].shape[0])

    @classmethod
    def build(cls, lo, hi, lengths) -> "FactoredProximity | None":
        """Factor tables for ``(n, d)`` boxes, or ``None`` if the rule rejects them.

        Every dimension is coded before any table is built, so rejected
        boxes cost ``O(n·d log n)`` and ``O(n)`` memory.  The rule admits
        the boxes when ``Σ_j U_j² ≤ n²`` and the float64 tables take at most
        ``_MAX_TABLE_BYTES``.  Tables are filled in row blocks, so their
        temporaries stay at a few MiB.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        n, d = lo.shape
        if n == 0 or d == 0:
            return None
        limit = min(n * n, _MAX_TABLE_BYTES // 8)
        lengths = np.broadcast_to(np.asarray(lengths, dtype=np.float64), (d,))
        coded, cells = [], 0
        for j in range(d):
            lo_vals, lo_code = np.unique(lo[:, j], return_inverse=True)
            hi_vals, hi_code = np.unique(hi[:, j], return_inverse=True)
            pairs, code = np.unique(lo_code * hi_vals.size + hi_code, return_inverse=True)
            cells += pairs.size * pairs.size
            if cells > limit:
                return None
            coded.append((lo_vals[pairs // hi_vals.size], hi_vals[pairs % hi_vals.size], code))
        tables = [
            pairwise_rows(
                _interval_factors, ilo[:, None], ihi[:, None], length,
                _BLOCK_CELLS // ilo.size,
            )
            for (ilo, ihi, _), length in zip(coded, lengths)
        ]
        return cls([code for _, _, code in coded], tables)

    def row(self, y: int) -> np.ndarray:
        """``proximity_index(lo[y], hi[y], lo, hi, lengths)``, bit for bit."""
        codes, tables = self.codes, self.tables
        out = tables[0][codes[0][y]].take(codes[0])
        for code, table in zip(codes[1:], tables[1:]):
            out *= table[code[y]].take(code)
        return out


def proximity_rows(lo, hi, lengths) -> Callable[[int], np.ndarray]:
    """``row(y) -> proximity_index(lo[y], hi[y], lo, hi, lengths)``.

    The one place that picks a row source: a :class:`FactoredProximity`
    when its size rule admits the boxes, else the full formula; either way
    bit for bit the same, and a fresh array per call.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    factored = FactoredProximity.build(lo, hi, lengths)
    if factored is not None:
        return factored.row
    return lambda y: proximity_index(lo[y], hi[y], lo, hi, lengths)


def center_distance(lo_a, hi_a, lo_b, hi_b, lengths=None) -> np.ndarray:
    """Euclidean distance between box centers (optionally domain-normalized)."""
    lo_a = np.asarray(lo_a, dtype=np.float64)
    hi_a = np.asarray(hi_a, dtype=np.float64)
    lo_b = np.asarray(lo_b, dtype=np.float64)
    hi_b = np.asarray(hi_b, dtype=np.float64)
    ca = (lo_a + hi_a) / 2.0
    cb = (lo_b + hi_b) / 2.0
    diff = ca - cb
    if lengths is not None:
        diff = diff / np.asarray(lengths, dtype=np.float64)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def euclidean_similarity(lo_a, hi_a, lo_b, hi_b, lengths) -> np.ndarray:
    """A similarity in ``(0, 1]`` derived from normalized center distance.

    ``1 / (1 + d)`` with ``d`` the domain-normalized center distance; used as
    the drop-in edge weight for the proximity-vs-Euclidean ablation.
    """
    return 1.0 / (1.0 + center_distance(lo_a, hi_a, lo_b, hi_b, lengths))
