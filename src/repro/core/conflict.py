"""Conflict-resolution heuristics for index-based declustering on grid files.

A merged bucket covers several cells, and a per-cell scheme (DM/FX/HCAM)
may map those cells to different disks — the bucket's *assignment
alternatives* ``C(b)``.  The four heuristics of paper §2.1 pick one:

* **random** — uniform choice among the distinct alternatives;
* **most frequent** — the disk occurring most often among the per-cell
  mappings (ties broken randomly);
* **data balance** (Algorithm 1) — singletons first, then each conflicted
  bucket goes to the alternative disk currently holding the fewest data
  buckets;
* **area balance** — like data balance but balancing the total region
  volume per disk.

All heuristics run in time linear in the number of cells, preserving the
linear complexity of the index-based schemes.  :class:`Alternatives` holds
every bucket's distinct alternatives and their multiplicities, found by one
sort over ``bucket * M + disk`` keys of the cells.  From it, random and
most-frequent selection are array operations with one vectorised draw in
bucket order, and step 2 of Algorithm 1 (fixing the singleton buckets and
their loads) is one ``bincount``.  Only step 3, which sends each conflicted
bucket to the disk that is least loaded *after* the buckets before it, is
sequential; it loops over plain Python lists.

Each resolver shares the signature::

    resolve(alternatives, n_disks, *, weights=None, sizes=None, rng=None)

where ``alternatives`` is an :class:`Alternatives` or a sequence whose
item ``b`` is the (multiset) array of per-cell disks of bucket ``b``,
``weights[b]`` is its region volume (used by area balance) and ``sizes[b]``
its record count (empty buckets occupy no disk page and are excluded from
the balance counters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng

__all__ = [
    "Alternatives",
    "resolve_random",
    "resolve_most_frequent",
    "resolve_data_balance",
    "resolve_area_balance",
    "CONFLICT_HEURISTICS",
]


@dataclass(frozen=True)
class Alternatives:
    """Every bucket's distinct alternative disks, packed bucket by bucket.

    Entries ``start[b]:start[b + 1]`` belong to bucket ``b``: ``disk`` holds
    its distinct alternatives in ascending order and ``count`` how many of
    its cells map to each.  ``bucket`` repeats the bucket id per entry.
    Every bucket has at least one entry.
    """

    bucket: np.ndarray
    disk: np.ndarray
    count: np.ndarray
    start: np.ndarray

    @property
    def n_buckets(self) -> int:
        """Number of buckets."""
        return self.start.size - 1

    @classmethod
    def from_cells(cls, cell_buckets, cell_disks, n_buckets: int, n_disks: int) -> "Alternatives":
        """Pair each cell's bucket with its disk, for example a grid
        directory with a scheme's per-cell disk map of the same shape.

        Raises ``ValueError`` naming the first bucket that has no cell or a
        disk outside ``[0, n_disks)``.
        """
        cell_buckets = np.asarray(cell_buckets, dtype=np.int64).ravel()
        cell_disks = np.asarray(cell_disks, dtype=np.int64).ravel()
        if cell_buckets.shape != cell_disks.shape:
            raise ValueError("cell_buckets and cell_disks must have the same size")
        if cell_buckets.size and (cell_buckets.min() < 0 or cell_buckets.max() >= n_buckets):
            raise ValueError(f"cell bucket ids must lie in [0, {n_buckets})")
        empty = np.flatnonzero(np.bincount(cell_buckets, minlength=n_buckets) == 0)
        bad = (cell_disks < 0) | (cell_disks >= n_disks)
        first_empty = int(empty[0]) if empty.size else n_buckets
        first_bad = int(cell_buckets[bad].min()) if bad.any() else n_buckets
        if first_empty < first_bad:
            raise ValueError(f"bucket {first_empty} has no assignment alternatives")
        if first_bad < n_buckets:
            raise ValueError(f"bucket {first_bad} alternatives out of range [0, {n_disks})")
        keys, count = np.unique(cell_buckets * n_disks + cell_disks, return_counts=True)
        bucket = keys // n_disks
        start = np.zeros(n_buckets + 1, dtype=np.int64)
        np.cumsum(np.bincount(bucket, minlength=n_buckets), out=start[1:])
        return cls(bucket=bucket, disk=keys % n_disks, count=count, start=start)

    @classmethod
    def from_lists(cls, alternatives, n_disks: int) -> "Alternatives":
        """Pack a sequence of per-bucket arrays of per-cell disks."""
        arrays = [np.asarray(a).ravel() for a in alternatives]
        lengths = np.fromiter((a.size for a in arrays), dtype=np.int64, count=len(arrays))
        cell_buckets = np.repeat(np.arange(len(arrays), dtype=np.int64), lengths)
        cell_disks = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls.from_cells(cell_buckets, cell_disks, len(arrays), n_disks)


def _as_alternatives(alternatives, n_disks: int) -> Alternatives:
    if not isinstance(alternatives, Alternatives):
        return Alternatives.from_lists(alternatives, n_disks)
    bad = alternatives.disk >= n_disks
    if bad.any():
        bucket = int(alternatives.bucket[bad][0])
        raise ValueError(f"bucket {bucket} alternatives out of range [0, {n_disks})")
    return alternatives


def _pick(alt: Alternatives, entries: np.ndarray, rng) -> np.ndarray:
    """Per bucket, one uniform draw among its ``entries`` (indices into
    ``alt``, grouped by bucket in order); returns the chosen disks.

    The draws are made in bucket order, one per bucket, exactly as scalar
    ``rng.integers(n)`` calls would be (a bucket with one candidate
    consumes no random state).
    """
    n = np.bincount(alt.bucket[entries], minlength=alt.n_buckets)
    first = np.cumsum(n) - n
    return alt.disk[entries[first + rng.integers(n)]]


def resolve_random(alternatives, n_disks, *, weights=None, sizes=None, rng=None):
    """Random selection among each bucket's distinct alternative disks."""
    alt = _as_alternatives(alternatives, n_disks)
    return _pick(alt, np.arange(alt.disk.size), as_rng(rng))


def resolve_most_frequent(alternatives, n_disks, *, weights=None, sizes=None, rng=None):
    """Pick the disk named most often by the bucket's per-cell mappings.

    If several disks tie for the highest multiplicity, one of them is chosen
    uniformly at random (the paper's fallback to random selection).
    """
    alt = _as_alternatives(alternatives, n_disks)
    top = np.maximum.reduceat(alt.count, alt.start[:-1])
    return _pick(alt, np.flatnonzero(alt.count == top[alt.bucket]), as_rng(rng))


def _balance(alt: Alternatives, n_disks, load, rng):
    """Algorithm 1 with bucket ``b`` adding ``load[b]`` to its disk.

    Step 2 fixes the single-alternative buckets and sums their loads per
    disk in bucket order; step 3 then sends each conflicted bucket, in
    bucket order, to its least-loaded alternative (ties drawn at random).
    """
    rng = as_rng(rng)
    # Step 2: buckets with a single alternative are fixed.
    single = np.diff(alt.start) == 1
    out = np.full(alt.n_buckets, -1, dtype=np.int64)
    out[single] = alt.disk[alt.start[:-1][single]]
    disk_load = np.bincount(out[single], weights=load[single], minlength=n_disks)
    # Step 3, sequential: each choice depends on the loads before it.
    loads = disk_load.tolist()
    disks = alt.disk.tolist()
    bounds = alt.start.tolist()
    bucket_load = load.tolist()
    conflicted = np.flatnonzero(~single)
    chosen = []
    for b in conflicted.tolist():
        candidates = disks[bounds[b] : bounds[b + 1]]
        held = [loads[d] for d in candidates]
        least = min(held)
        if held.count(least) == 1:
            choice = candidates[held.index(least)]
        else:
            ties = [d for d, h in zip(candidates, held) if h == least]
            choice = ties[rng.integers(len(ties))]
        chosen.append(choice)
        loads[choice] += bucket_load[b]
    out[conflicted] = chosen
    return out


def resolve_data_balance(alternatives, n_disks, *, weights=None, sizes=None, rng=None):
    """Algorithm 1: balance the number of (non-empty) data buckets per disk."""
    alt = _as_alternatives(alternatives, n_disks)
    if sizes is None:
        sizes = np.ones(alt.n_buckets)
    return _balance(alt, n_disks, (np.asarray(sizes) > 0).astype(np.float64), rng)


def resolve_area_balance(alternatives, n_disks, *, weights=None, sizes=None, rng=None):
    """Balance the total subspace volume per disk (paper's *area balance*)."""
    if weights is None:
        raise ValueError("area balance requires per-bucket region volumes")
    alt = _as_alternatives(alternatives, n_disks)
    return _balance(alt, n_disks, np.asarray(weights, dtype=np.float64), rng)


#: Registry used by :class:`repro.core.base.IndexBasedMethod`.
CONFLICT_HEURISTICS = {
    "random": resolve_random,
    "most_frequent": resolve_most_frequent,
    "data_balance": resolve_data_balance,
    "area_balance": resolve_area_balance,
}
