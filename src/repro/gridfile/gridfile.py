"""The grid file: scales + directory + buckets, with dynamic maintenance.

Implements the classic Nievergelt–Hinterberger design:

* **insert** locates the cell of a point through the scales and drops the
  record into the bucket the directory names;
* on **overflow** of a bucket whose region spans several cells, the region is
  split at an existing cell plane (the plane that best balances the records);
* on overflow of a single-cell bucket, a new scale boundary is inserted
  (**refinement**) — the directory duplicates one slab, every other bucket's
  region is preserved, and the now two-cell bucket is split;
* bucket regions always remain boxes, so merged ("multi-subspace") buckets
  arise naturally wherever data is sparse — the structural property whose
  interaction with declustering the paper studies.

Records are integer ids into one shared ``(n, d)`` coordinate array, which
keeps query evaluation and declustering fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.gridfile.bucket import Bucket
from repro.gridfile.directory import Directory
from repro.gridfile.regions import CellBox
from repro.gridfile.scales import Scales

__all__ = ["GridFile", "GridFileStats"]


@dataclass(frozen=True)
class GridFileStats:
    """Structural summary of a grid file (the numbers Figure 2 reports)."""

    n_records: int
    n_cells: int
    n_buckets: int
    n_nonempty_buckets: int
    n_merged_buckets: int
    nintervals: tuple[int, ...]
    capacity: int
    mean_occupancy: float
    max_occupancy: int
    n_overflowed: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        shape = "x".join(str(n) for n in self.nintervals)
        return (
            f"{self.n_records} records, grid {shape} = {self.n_cells} subspaces, "
            f"{self.n_buckets} buckets ({self.n_merged_buckets} merged), "
            f"capacity {self.capacity}, mean occupancy {self.mean_occupancy:.1f}"
        )


class GridFile:
    """A d-dimensional grid file over a fixed domain.

    Most users construct one with :meth:`from_points` (dynamic, record by
    record — faithful to the paper's small 2-d files) or
    :meth:`repro.gridfile.bulk_load` (for the large 3-d/4-d files).

    Parameters
    ----------
    scales:
        Per-dimension split points.
    directory:
        Cell-to-bucket map; must match ``scales.nintervals``.
    buckets:
        Bucket list indexed by bucket id.
    points:
        ``(n, d)`` coordinate array shared by all buckets.
    capacity:
        Maximum records per bucket (the paper fixes the bucket *size*; with a
        fixed record width the two are equivalent — see
        ``repro.experiments.config`` for the calibrated values).
    split_policy:
        ``"midpoint"`` (default): new scale boundaries go at the middle of
        the refined interval when that separates the records (falling back
        to a separating value otherwise) — the classic grid-file discipline,
        which on the paper's datasets reproduces its bucket/merge statistics.
        ``"median"``: boundaries separate the overflowing bucket's records at
        their median (equi-depth).  Ablated in
        ``benchmarks/bench_ablation_split.py``.
    """

    def __init__(
        self,
        scales: Scales,
        directory: Directory,
        buckets: list[Bucket],
        points: np.ndarray,
        capacity: int,
        split_policy: str = "midpoint",
    ):
        if directory.shape != scales.nintervals:
            raise ValueError(
                f"directory shape {directory.shape} does not match scales "
                f"{scales.nintervals}"
            )
        if split_policy not in ("median", "midpoint"):
            raise ValueError(f"unknown split_policy {split_policy!r}")
        self.scales = scales
        self.directory = directory
        self.buckets = buckets
        self.points = np.asarray(points, dtype=np.float64)
        self.capacity = check_positive_int(capacity, "capacity", minimum=2)
        self.split_policy = split_policy
        self._n = self.points.shape[0]
        self._next_split_dim = 0
        self._deleted: set[int] = set()
        #: Structural-event listeners (see :meth:`add_listener`).  Kept as a
        #: plain list; the hot mutation paths only touch it when non-empty.
        self._listeners: list = []
        #: Cached per-bucket record counts (``None`` when stale).  Every
        #: structural mutation funnels through :meth:`invalidate_caches`;
        #: ``_sizes_rebuilds`` counts actual recomputations so tests can
        #: assert the cache is not rebuilt per query.
        self._sizes_cache: "np.ndarray | None" = None
        self._sizes_rebuilds = 0
        #: Lazily filled per-bucket coordinate columns (see
        #: :meth:`bucket_columns`); entries drop with :meth:`invalidate_caches`.
        self._columns_cache: dict[int, np.ndarray] = {}
        #: Cached read-only cell boxes and domain regions of every bucket
        #: (see :meth:`bucket_cell_boxes`); dropped on structural change.
        self._cell_boxes: "tuple[np.ndarray, np.ndarray] | None" = None
        self._regions: "tuple[np.ndarray, np.ndarray] | None" = None
        #: Deletion triggers a buddy-merge attempt when a bucket's occupancy
        #: falls below ``merge_trigger * capacity``; a merge is performed only
        #: if the combined bucket stays below ``merge_fill * capacity``
        #: (hysteresis against split/merge thrashing).
        self.merge_trigger = 0.3
        self.merge_fill = 0.7

    # ------------------------------------------------------------- builders

    @classmethod
    def empty(
        cls,
        domain_lo,
        domain_hi,
        capacity: int,
        split_policy: str = "midpoint",
        reserve: int = 1024,
    ) -> "GridFile":
        """An empty grid file: one bucket covering the whole domain."""
        scales = Scales(domain_lo, domain_hi)
        directory = Directory(scales.nintervals, fill=0)
        box = CellBox(np.zeros(scales.dims, dtype=np.int64), np.ones(scales.dims, dtype=np.int64))
        gf = cls(
            scales,
            directory,
            [Bucket(0, box)],
            np.empty((0, scales.dims), dtype=np.float64),
            capacity,
            split_policy,
        )
        gf.points = np.empty((max(reserve, 1), scales.dims), dtype=np.float64)
        gf._n = 0
        return gf

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        domain_lo,
        domain_hi,
        capacity: int,
        split_policy: str = "midpoint",
    ) -> "GridFile":
        """Build a grid file by inserting ``points`` one record at a time."""
        points = np.asarray(points, dtype=np.float64)
        gf = cls.empty(domain_lo, domain_hi, capacity, split_policy, reserve=len(points))
        if points.ndim == 2 and points.shape[1] == gf.dims:
            gf.scales.check_points(points)
        for p in points:
            gf.insert_point(p)
        return gf

    # --------------------------------------------------------------- basics

    @property
    def dims(self) -> int:
        """Dimensionality of the indexed space."""
        return self.scales.dims

    @property
    def n_records(self) -> int:
        """Number of live records stored (deleted records excluded)."""
        return self._n - len(self._deleted)

    @property
    def n_deleted(self) -> int:
        """Number of records deleted since construction."""
        return len(self._deleted)

    def is_live(self, rid: int) -> bool:
        """Whether record ``rid`` exists and has not been deleted."""
        return 0 <= rid < self._n and rid not in self._deleted

    def live_record_ids(self) -> np.ndarray:
        """Ids of all live (non-deleted) records, ascending."""
        if not self._deleted:
            return np.arange(self._n, dtype=np.int64)
        mask = np.ones(self._n, dtype=bool)
        mask[list(self._deleted)] = False
        return np.nonzero(mask)[0]

    @property
    def n_buckets(self) -> int:
        """Number of buckets (including empty ones, which occupy no disk page)."""
        return len(self.buckets)

    def coords(self) -> np.ndarray:
        """View of the stored record coordinates, shape ``(n_records, d)``."""
        return self.points[: self._n]

    def records_in_bucket(self, bucket_id: int) -> np.ndarray:
        """Record ids stored in the given bucket."""
        return self.buckets[bucket_id].record_array()

    # ---------------------------------------------------------- event hooks

    def add_listener(self, listener) -> None:
        """Subscribe to structural maintenance events.

        A listener is any object exposing (all optional):

        * ``on_split(gf, bucket_id, new_bucket_id)`` — after a bucket split;
          the new bucket was appended at id ``new_bucket_id``.
        * ``on_merge(gf, survivor_id, absorbed_id)`` — after buddy buckets
          merged (``absorbed_id`` is about to be removed).
        * ``on_remove(gf, bucket_id, moved_id)`` — after bucket
          ``bucket_id`` was deleted; ``moved_id`` is the old id of the
          bucket renumbered into its slot (``None`` if it was the last).
        * ``on_refine(gf, dim, interval)`` — after a new scale boundary
          duplicated directory interval ``interval`` along ``dim``.
        * ``on_record(gf, bucket_id, kind)`` — after a record landed in
          (``kind="insert"``) or left (``kind="delete"``) a bucket, before
          any split/merge it triggers.

        Online maintenance (incremental declustering, cache invalidation)
        hangs off these events — see :mod:`repro.parallel.online`.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Unsubscribe a listener added with :meth:`add_listener`."""
        self._listeners.remove(listener)

    def _emit(self, event: str, *args) -> None:
        for listener in self._listeners:
            handler = getattr(listener, "on_" + event, None)
            if handler is not None:
                handler(self, *args)

    # -------------------------------------------------------------- inserts

    def _append_point(self, coords) -> int:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.dims,):
            raise ValueError(f"point must have shape ({self.dims},)")
        self.scales.check_points(coords)
        if self._n == self.points.shape[0]:
            grown = np.empty((max(4, 2 * self.points.shape[0]), self.dims), dtype=np.float64)
            grown[: self._n] = self.points[: self._n]
            self.points = grown
        self.points[self._n] = coords
        self._n += 1
        return self._n - 1

    def insert_point(self, coords) -> int:
        """Insert a point; split buckets / refine scales on overflow.

        Returns the new record id.
        """
        rid = self._append_point(coords)
        cell = self.scales.locate(self.points[rid])
        bucket = self.buckets[self.directory.bucket_at(cell)]
        bucket.record_ids.append(rid)
        self.invalidate_caches(bucket.id)
        if self._listeners:
            self._emit("record", bucket.id, "insert")
        self._handle_overflow(bucket)
        return rid

    # ------------------------------------------------------------- deletes

    def delete_record(self, rid: int) -> None:
        """Delete a record by id; merges underfull buddy buckets.

        After the deletion, if the owning bucket's occupancy falls below
        ``merge_trigger * capacity``, the grid file tries to merge it with a
        *buddy* — a neighbouring bucket whose region unions with this one
        into a box — as long as the combined bucket stays below
        ``merge_fill * capacity``.  Merging repeats while a willing buddy
        exists, so long delete sequences shrink the bucket population the
        same way insert sequences grow it.  (The directory itself never
        shrinks; dropping now-unused scale boundaries is a standard grid-file
        simplification we also make.)

        Raises ``KeyError`` if the record does not exist or was already
        deleted.
        """
        if not 0 <= rid < self._n or rid in self._deleted:
            raise KeyError(f"record {rid} does not exist or is already deleted")
        cell = self.scales.locate(self.points[rid])
        bucket = self.buckets[self.directory.bucket_at(cell)]
        try:
            bucket.record_ids.remove(rid)
        except ValueError:  # pragma: no cover - guarded by the directory
            raise KeyError(f"record {rid} not found in its bucket") from None
        self._deleted.add(rid)
        self.invalidate_caches(bucket.id)
        if bucket.overflowed and bucket.n_records <= self.capacity:
            bucket.overflowed = False
        if self._listeners:
            self._emit("record", bucket.id, "delete")
        self._maybe_merge(bucket)

    def delete_records(self, rids) -> None:
        """Delete several records (convenience wrapper)."""
        for rid in rids:
            self.delete_record(int(rid))

    def _maybe_merge(self, bucket: Bucket) -> None:
        while bucket.n_records < self.merge_trigger * self.capacity:
            buddy = self._find_buddy(bucket)
            if buddy is None:
                return
            bucket = self._merge_buckets(bucket, buddy)

    def _find_buddy(self, bucket: Bucket) -> "Bucket | None":
        """A neighbour whose region + this one forms a box and fits a merge."""
        box = bucket.cellbox
        shape = self.directory.shape
        budget = self.merge_fill * self.capacity
        for k in range(self.dims):
            for side in (1, -1):
                probe = box.lo.copy()
                if side == 1:
                    if box.hi[k] >= shape[k]:
                        continue
                    probe[k] = box.hi[k]
                else:
                    if box.lo[k] == 0:
                        continue
                    probe[k] = box.lo[k] - 1
                other = self.buckets[self.directory.bucket_at(probe)]
                if other is bucket:
                    continue
                obox = other.cellbox
                aligned = all(
                    obox.lo[j] == box.lo[j] and obox.hi[j] == box.hi[j]
                    for j in range(self.dims)
                    if j != k
                )
                touching = (
                    obox.lo[k] == box.hi[k] if side == 1 else obox.hi[k] == box.lo[k]
                )
                if (
                    aligned
                    and touching
                    and not other.overflowed
                    and bucket.n_records + other.n_records <= budget
                ):
                    return other
        return None

    def _merge_buckets(self, a: Bucket, b: Bucket) -> Bucket:
        """Merge buddy buckets; returns the surviving bucket."""
        self.invalidate_caches()
        lo = np.minimum(a.cellbox.lo, b.cellbox.lo)
        hi = np.maximum(a.cellbox.hi, b.cellbox.hi)
        a.cellbox = CellBox(lo, hi)
        a.record_ids.extend(b.record_ids)
        b.record_ids = []
        self.directory.set_box(a.cellbox, a.id)
        if self._listeners:
            self._emit("merge", a.id, b.id)
        self._remove_bucket(b.id)
        # ``a`` may have been renumbered by the swap-removal.
        return self.buckets[self.directory.bucket_at(a.cellbox.lo)]

    def _remove_bucket(self, bid: int) -> None:
        """Delete a bucket id, renumbering the last bucket into its slot."""
        self.invalidate_caches()
        last = len(self.buckets) - 1
        if bid != last:
            moved = self.buckets[last]
            moved.id = bid
            self.buckets[bid] = moved
            self.directory.set_box(moved.cellbox, bid)
        self.buckets.pop()
        if self._listeners:
            self._emit("remove", bid, last if bid != last else None)

    def _handle_overflow(self, bucket: Bucket) -> None:
        stack = [bucket]
        while stack:
            b = stack.pop()
            while b.n_records > self.capacity and not b.overflowed:
                new = self._split_bucket(b)
                if new is None:
                    b.overflowed = True
                    break
                if new.n_records > self.capacity:
                    stack.append(new)

    def _new_bucket(self, box: CellBox, record_ids=None) -> Bucket:
        self.invalidate_caches()
        b = Bucket(len(self.buckets), box, record_ids)
        self.buckets.append(b)
        return b

    def _split_bucket(self, b: Bucket) -> "Bucket | None":
        """Split an overflowing bucket; refine scales first if single-celled.

        Returns the newly created bucket, or ``None`` when the records cannot
        be separated by any boundary (all coincide in every dimension).
        """
        # Before the refinement too: it shifts every cell box, and its
        # listeners may read the bucket regions.
        self.invalidate_caches()
        if b.cellbox.n_cells == 1 and not self._refine_for(b):
            return None
        dim, cut = self._choose_cut(b)
        lower, upper = b.cellbox.split_at(dim, cut)
        plane = self.scales.edges(dim)[cut]
        rec = b.record_array()
        upper_mask = self.points[rec, dim] >= plane
        new = self._new_bucket(upper, rec[upper_mask].tolist())
        b.record_ids = rec[~upper_mask].tolist()
        b.cellbox = lower
        self.directory.set_box(upper, new.id)
        if self._listeners:
            self._emit("split", b.id, new.id)
        return new

    def _choose_cut(self, b: Bucket) -> tuple[int, int]:
        """Pick the (dim, cell plane) that best balances the bucket's records.

        Considers every interior cell plane of the bucket's box; prefers the
        plane maximizing ``min(left, right)`` record counts, tie-broken by
        centrality.  A plane with an empty side is legal (creates an empty
        buddy bucket) but only chosen when no plane separates the records.
        """
        rec = b.record_array()
        box = b.cellbox
        best = None  # (min_side, -centrality_penalty, dim, cut)
        for k in range(self.dims):
            if box.span[k] < 2:
                continue
            edges = self.scales.edges(k)
            coords = self.points[rec, k]
            mid = (box.lo[k] + box.hi[k]) / 2.0
            for cut in range(int(box.lo[k]) + 1, int(box.hi[k])):
                left = int(np.count_nonzero(coords < edges[cut]))
                right = len(rec) - left
                key = (min(left, right), -abs(cut - mid), k, cut)
                if best is None or key[:2] > best[:2]:
                    best = key
        assert best is not None, "called _choose_cut on a single-cell bucket"
        return best[2], best[3]

    def _refine_for(self, b: Bucket) -> bool:
        """Insert a scale boundary through ``b``'s single cell.

        Tries dimensions cyclically, skipping those where no boundary
        strictly inside the cell's interval separates the records: fewer
        than two distinct coordinates, or distinct values so close to the
        domain's upper edge that the only separating value is that edge.
        Returns False when every dimension is skipped.
        """
        rec = b.record_array()
        cell = b.cellbox.lo
        for off in range(self.dims):
            k = (self._next_split_dim + off) % self.dims
            coords = self.points[rec, k]
            distinct = np.unique(coords)
            if distinct.size < 2:
                continue
            lo, hi = self.scales.interval(k, int(cell[k]))
            value = self._boundary_value(distinct, coords, lo, hi)
            if value is None:
                continue
            interval = self.scales.insert_boundary(k, value)
            self.directory.refine(k, interval)
            for bb in self.buckets:
                bb.cellbox.shift_for_refinement(k, interval)
            self._next_split_dim = (k + 1) % self.dims
            if self._listeners:
                self._emit("refine", k, interval)
            return True
        return False

    def _boundary_value(
        self, distinct: np.ndarray, coords: np.ndarray, lo: float, hi: float
    ) -> "float | None":
        """Choose the new boundary value inside ``(lo, hi)`` per split policy.

        Returns ``None`` when no separating value lies strictly inside.
        """
        if self.split_policy == "midpoint":
            mid = (lo + hi) / 2.0
            if distinct[0] < mid <= distinct[-1] and lo < mid < hi:
                return mid
            # Midpoint would not separate the records; fall through to a
            # separating value so insertion always terminates.
        # Separating value nearest the record median.
        order = np.sort(coords)
        target = order[len(order) // 2]
        # Gaps between consecutive distinct values; pick the one whose split
        # point is closest to the median record.
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        # Guard against float collapse (mid == left value): nudge to the
        # right distinct value, which still separates because locate() sends
        # boundary-equal points to the upper interval.
        collapsed = mids <= distinct[:-1]
        mids[collapsed] = distinct[1:][collapsed]
        # A gap between the last two floats below the domain's upper edge
        # can collapse onto that edge, which is no boundary.
        mids = mids[(lo < mids) & (mids < hi)]
        if mids.size == 0:
            return None
        return float(mids[np.argmin(np.abs(mids - target))])

    # --------------------------------------------------------------- querying

    def query_cell_ranges(self, lo, hi) -> list[tuple[int, int]]:
        """Per-dimension half-open cell ranges intersecting the closed box."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != (self.dims,) or hi.shape != (self.dims,):
            raise ValueError(f"query bounds must have shape ({self.dims},)")
        return [
            self.scales.cell_range_for_interval(k, float(lo[k]), float(hi[k]))
            for k in range(self.dims)
        ]

    def query_buckets(self, lo, hi, include_empty: bool = False) -> np.ndarray:
        """Bucket ids whose region intersects the closed query box.

        Empty buckets occupy no disk page, so they are excluded by default
        (set ``include_empty=True`` for structural analyses).
        """
        ranges = self.query_cell_ranges(lo, hi)
        ids = self.directory.buckets_in_ranges(ranges)
        if include_empty:
            return ids
        sizes = self._bucket_sizes()
        return ids[sizes[ids] > 0]

    def batch_query_buckets(
        self, lo, hi, include_empty: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a whole workload of box queries to buckets in one pass.

        Equivalent to calling :meth:`query_buckets` per query.  The scale
        lookups are batched (one ``searchsorted`` per dimension for the
        whole workload), and the directory is never sliced: a bucket meets
        query ``i`` iff along every dimension ``k`` its cell box
        ``[cell_lo, cell_hi)`` overlaps the query's cell range
        ``[start, stop)``, i.e. ``cell_lo < stop`` and ``cell_hi > start``.
        Each of those ``2·d`` tests is a row of bits over the candidate
        buckets (the non-empty ones unless ``include_empty``), packed eight
        to a byte and built once per distinct ``start``/``stop`` value in a
        chunk of queries.  A chunk ANDs its ``2·d`` gathered rows, finds the
        non-zero bytes and unpacks only those.  The cost is
        ``O(d · queries · buckets / 8)`` byte operations plus the size of
        the result, and the chunk bounds the scratch memory to a few MiB.

        Parameters
        ----------
        lo, hi:
            ``(n, d)`` arrays of closed query-box bounds.
        include_empty:
            Also return empty buckets (as in :meth:`query_buckets`).

        Returns
        -------
        (ids, offsets):
            CSR-packed bucket lists: ``ids[offsets[i]:offsets[i+1]]`` are the
            sorted unique bucket ids of query ``i`` (int64).
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        starts, stops = self.scales.cell_ranges_for_boxes(lo, hi)
        n = starts.shape[0]
        if include_empty:
            candidates = np.arange(self.n_buckets, dtype=np.int64)
        else:
            candidates = self.nonempty_bucket_ids()
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
        cell_lo, cell_hi = (c[candidates] for c in self.bucket_cell_boxes())
        row_bytes = (candidates.size + 7) // 8
        chunk = max(1, _BITSET_BYTES // row_bytes)
        parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        counts = np.zeros(n, dtype=np.int64)
        for q0 in range(0, n, chunk):
            q1 = min(n, q0 + chunk)
            hit = np.full((q1 - q0, row_bytes), 0xFF, dtype=np.uint8)
            for k in range(self.dims):
                hit &= _packed_rows(cell_lo[:, k], stops[q0:q1, k], np.less)
                hit &= _packed_rows(cell_hi[:, k], starts[q0:q1, k], np.greater)
            # An inverted box has an empty cell range but may still pass
            # both tests against a bucket that spans it.
            hit[np.any(stops[q0:q1] <= starts[q0:q1], axis=1)] = 0
            nz = np.flatnonzero(hit)
            bits = np.flatnonzero(np.unpackbits(hit.ravel()[nz]))
            pos = nz[bits >> 3]  # byte offset of each hit in the chunk
            del nz
            query = pos // row_bytes
            counts[q0:q1] = np.bincount(query, minlength=q1 - q0)
            pos -= query * row_bytes
            del query
            pos <<= 3
            pos |= bits & 7
            parts.append(candidates[pos])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return np.concatenate(parts), offsets

    def query_records(self, lo, hi) -> np.ndarray:
        """Record ids of points inside the closed query box (exact filter)."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        candidates = self.query_buckets(lo, hi)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64)
        rec = np.concatenate([self.buckets[b].record_array() for b in candidates])
        pts = self.points[rec]
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        return np.sort(rec[inside])

    # ------------------------------------------------------------ structure

    def invalidate_caches(self, bucket_id: "int | None" = None) -> None:
        """Drop derived caches (bucket sizes, coordinate columns, boxes) after a mutation.

        ``bucket_id`` names the one bucket whose records changed (a record
        insert or delete); only its columns are dropped.  Without it every
        bucket's columns and the bucket boxes and regions go, as after a
        split, merge, renumbering or scale refinement.  All
        built-in mutators call this automatically; callers that mutate
        ``buckets[...].record_ids`` directly must call it themselves
        (without an argument).
        """
        self._sizes_cache = None
        if bucket_id is None:
            self._columns_cache.clear()
            self._cell_boxes = self._regions = None
        else:
            self._columns_cache.pop(bucket_id, None)

    def bucket_columns(self, bucket_id: int) -> np.ndarray:
        """Coordinates of a bucket's records as a read-only ``(d, n)`` array.

        Column ``j`` holds the point of ``records_in_bucket(bucket_id)[j]``.
        Built on first request and cached until :meth:`invalidate_caches`
        drops it, so repeated query planning over a static file gathers each
        bucket's records once.
        """
        try:
            return self._columns_cache[bucket_id]
        except KeyError:
            pass
        cols = np.ascontiguousarray(self.points[self.buckets[bucket_id].record_array()].T)
        cols.flags.writeable = False
        self._columns_cache[bucket_id] = cols
        return cols

    def _bucket_sizes(self) -> np.ndarray:
        """Cached per-bucket record counts (do not mutate the result)."""
        if self._sizes_cache is None:
            self._sizes_cache = np.array(
                [b.n_records for b in self.buckets], dtype=np.int64
            )
            self._sizes_rebuilds += 1
        return self._sizes_cache

    def bucket_sizes(self) -> np.ndarray:
        """Number of records in each bucket, indexed by bucket id.

        Returns a copy of the internal cache, so the result stays valid (and
        safely mutable) across later grid-file mutations.
        """
        return self._bucket_sizes().copy()

    def nonempty_bucket_ids(self) -> np.ndarray:
        """Ids of buckets that hold at least one record."""
        return np.nonzero(self._bucket_sizes() > 0)[0]

    def bucket_cell_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell boxes of all buckets as two read-only ``(n_buckets, d)`` int arrays.

        Built once and cached until a structural change (see
        :meth:`invalidate_caches`).
        """
        if self._cell_boxes is None:
            self._cell_boxes = _read_only(
                np.stack([b.cellbox.lo for b in self.buckets]),
                np.stack([b.cellbox.hi for b in self.buckets]),
            )
        return self._cell_boxes

    def bucket_regions(self) -> tuple[np.ndarray, np.ndarray]:
        """Domain-coordinate regions of all buckets (read-only ``(n_buckets, d)`` floats).

        Cached like :meth:`bucket_cell_boxes`.
        """
        if self._regions is None:
            self._regions = _read_only(*self.scales.box_bounds(*self.bucket_cell_boxes()))
        return self._regions

    def stats(self) -> GridFileStats:
        """Structural summary (bucket counts, merging, occupancy)."""
        sizes = self._bucket_sizes()
        nonempty = sizes > 0
        merged = np.array([b.is_merged for b in self.buckets])
        return GridFileStats(
            n_records=self.n_records,
            n_cells=self.scales.n_cells,
            n_buckets=len(self.buckets),
            n_nonempty_buckets=int(nonempty.sum()),
            n_merged_buckets=int((merged & nonempty).sum()),
            nintervals=self.scales.nintervals,
            capacity=self.capacity,
            mean_occupancy=float(sizes[nonempty].mean()) if nonempty.any() else 0.0,
            max_occupancy=int(sizes.max()) if sizes.size else 0,
            n_overflowed=sum(1 for b in self.buckets if b.overflowed),
        )

    def check_invariants(self) -> None:
        """Verify structural invariants; raises ``AssertionError`` on breakage.

        Checked: directory shape matches scales; every bucket's directory
        region equals exactly its cell box; boxes tile the grid; every live
        record is finite, inside the domain and in the bucket owning its
        cell; occupancy respects capacity unless flagged overflowed; cached
        bucket boxes and regions are current.
        """
        assert self.directory.shape == self.scales.nintervals
        covered = np.zeros(self.directory.shape, dtype=bool)
        for b in self.buckets:
            region = self.directory.grid[b.cellbox.slices()]
            assert (region == b.id).all(), f"bucket {b.id} region corrupted"
            assert not covered[b.cellbox.slices()].any(), f"bucket {b.id} overlaps"
            covered[b.cellbox.slices()] = True
            assert b.n_records <= self.capacity or b.overflowed, (
                f"bucket {b.id} over capacity without overflow flag"
            )
        assert covered.all(), "cell boxes do not tile the directory"
        live = self.points[self.live_record_ids()]
        assert np.isfinite(live).all(), "non-finite record coordinates"
        assert ((live >= self.scales.domain_lo) & (live <= self.scales.domain_hi)).all(), (
            "record outside the domain"
        )
        seen = np.zeros(self._n, dtype=bool)
        for b in self.buckets:
            rec = b.record_array()
            assert not seen[rec].any(), "record in two buckets"
            seen[rec] = True
            if rec.size:
                cells = self.scales.locate(self.points[rec])
                owners = self.directory.buckets_at(cells)
                assert (owners == b.id).all(), f"bucket {b.id} holds foreign records"
        if self._deleted:
            deleted = np.fromiter(self._deleted, dtype=np.int64)
            assert not seen[deleted].any(), "deleted record still in a bucket"
            seen[deleted] = True
        assert seen.all(), "lost records"
        lo = np.stack([b.cellbox.lo for b in self.buckets])
        hi = np.stack([b.cellbox.hi for b in self.buckets])
        if self._cell_boxes is not None:
            assert all(map(np.array_equal, self._cell_boxes, (lo, hi))), "stale cell boxes"
        if self._regions is not None:
            fresh = self.scales.box_bounds(lo, hi)
            assert all(map(np.array_equal, self._regions, fresh)), "stale bucket regions"

    def __repr__(self) -> str:
        return f"GridFile({self.stats()})"


#: Bytes of packed bucket-by-query bits that :meth:`GridFile.batch_query_buckets`
#: holds per chunk of queries.
_BITSET_BYTES = 1 << 19


def _packed_rows(edges: np.ndarray, values: np.ndarray, compare) -> np.ndarray:
    """Row ``i`` holds bit ``b`` set iff ``compare(edges[b], values[i])``,
    packed eight buckets to a byte (``np.packbits`` order)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.packbits(compare(edges[None, :], distinct[:, None]), axis=1)[inverse]


def _read_only(*arrays: np.ndarray) -> tuple:
    """Mark shared cache arrays read-only and return them as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays
