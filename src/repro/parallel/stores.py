"""Page stores: the storage-structure interface of the cluster simulator.

The SPMD protocol only needs three things from a storage structure: which
pages a query touches, which records a page holds, and the record
coordinates.  :class:`PageStore` captures that contract, plus
:meth:`~PageStore.page_columns`, the per-page coordinate columns the
coordinator's vectorised planner filters;
:class:`GridFileStore` and :class:`RTreeStore` adapt the two structures, so
the *parallel R-tree* runs on the same simulated SP-2 as the parallel grid
file (``benchmarks/bench_ext_rtree_cluster.py``).

:class:`DurableGridFileStore` backs the grid file with the crash-safe
storage engine of :mod:`repro.storage`: queries still run against the live
in-memory structure (identical plans, identical simulated costs), but
every mutation can be committed to an actual block device through
:meth:`~DurableGridFileStore.commit_op` — which is what the online
engine's write path does when it is handed one.  :func:`make_store` builds
either flavour from a backend name (``memory`` keeps the legacy pure
in-memory store, so all golden neutrality pins are untouched).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.gridfile.gridfile import GridFile
from repro.rtree.rtree import RTree
from repro.storage import DEFAULT_PAGE_SIZE, DurableGridFile, StorageError

__all__ = [
    "PageStore",
    "GridFileStore",
    "DurableGridFileStore",
    "RTreeStore",
    "as_page_store",
    "make_store",
]


class PageStore(ABC):
    """Minimal storage interface the coordinator plans against."""

    @property
    @abstractmethod
    def n_pages(self) -> int:
        """Number of disk pages (the declustering domain)."""

    @abstractmethod
    def query_pages(self, lo, hi) -> np.ndarray:
        """Ids (int64) of (non-empty) pages intersecting the closed query box."""

    def query_pages_batch(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """The page sets of a whole workload, CSR-packed.

        Returns int64 ``(ids, offsets)``: ``ids[offsets[i]:offsets[i+1]]``
        is what query ``i`` resolves to on its own, i.e.
        ``query_pages(q.lo, q.hi)``, or the page set a query already
        carries as ``page_ids`` (the SQL planner's
        :class:`repro.sql.plan.RoutedQuery`), as given.
        """
        routed = [getattr(q, "page_ids", None) for q in queries]
        boxes = [q for q, p in zip(queries, routed) if p is None]
        if not boxes:
            return _pack([np.asarray(p, dtype=np.int64) for p in routed])
        ids, offsets = self._resolve(boxes)
        if len(boxes) == len(routed):
            return ids, offsets
        resolved = iter(np.split(ids, offsets[1:-1]))
        return _pack(
            [next(resolved) if p is None else np.asarray(p, dtype=np.int64) for p in routed]
        )

    def _resolve(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`query_pages` of each of a non-empty list of boxes,
        CSR-packed.  Stores with a batch resolver override this."""
        return _pack([self.query_pages(q.lo, q.hi) for q in queries])

    @abstractmethod
    def page_records(self, page_id: int) -> np.ndarray:
        """Record ids stored on a page."""

    @abstractmethod
    def record_coords(self, record_ids: np.ndarray) -> np.ndarray:
        """Coordinates of the given records, shape ``(n, d)``."""

    def page_columns(self, page_id: int) -> np.ndarray:
        """Coordinates of a page's records as a read-only ``(d, n)`` array.

        Column ``j`` is the point of ``page_records(page_id)[j]``.  This
        default gathers them on every call; stores that can keep them
        between calls override it.
        """
        cols = np.ascontiguousarray(self.record_coords(self.page_records(page_id)).T)
        cols.flags.writeable = False
        return cols


class GridFileStore(PageStore):
    """A grid file as a page store (page = bucket)."""

    def __init__(self, gf: GridFile):
        self.gf = gf

    @property
    def n_pages(self) -> int:
        return self.gf.n_buckets

    def query_pages(self, lo, hi) -> np.ndarray:
        return self.gf.query_buckets(lo, hi).astype(np.int64)

    def _resolve(self, queries) -> tuple[np.ndarray, np.ndarray]:
        return self.gf.batch_query_buckets(
            np.array([q.lo for q in queries], dtype=np.float64),
            np.array([q.hi for q in queries], dtype=np.float64),
        )

    def page_records(self, page_id: int) -> np.ndarray:
        return self.gf.records_in_bucket(page_id)

    def record_coords(self, record_ids: np.ndarray) -> np.ndarray:
        return self.gf.points[np.asarray(record_ids, dtype=np.int64)]

    def page_columns(self, page_id: int) -> np.ndarray:
        return self.gf.bucket_columns(page_id)


class DurableGridFileStore(GridFileStore):
    """A grid file served from the crash-safe storage engine.

    Wraps a :class:`repro.storage.DurableGridFile`: reads use the live
    in-memory grid file exactly like :class:`GridFileStore` (so the
    simulator's plans and costs are unchanged), while
    :meth:`commit_op` flushes the mutations of one logical operation to
    the block device as a WAL-protected transaction.  Real I/O time is
    *not* added to the simulated clock — the analytic disk model remains
    the cost authority; this store adds durability, not timing.
    """

    def __init__(self, durable: DurableGridFile):
        super().__init__(durable.gf)
        self.durable = durable

    @property
    def engine(self):
        """The underlying :class:`repro.storage.StorageEngine`."""
        return self.durable.engine

    def commit_op(self) -> "int | None":
        """Commit everything dirtied since the last call (one transaction)."""
        return self.durable.commit_op()

    def checkpoint(self) -> None:
        """fsync the device and truncate the WAL."""
        self.durable.checkpoint()

    def close(self) -> None:
        """Detach from the grid file and close the engine."""
        self.durable.close()


def make_store(
    gf: GridFile,
    backend: str = "memory",
    path=None,
    page_size: int = DEFAULT_PAGE_SIZE,
    durability: str = "commit",
) -> GridFileStore:
    """Build a grid-file page store for the given storage backend.

    ``memory`` returns the legacy pure in-memory :class:`GridFileStore`
    (byte-identical simulator behaviour); ``file`` persists the grid file
    under ``path`` via a fresh :class:`DurableGridFileStore`.
    """
    if backend == "memory":
        return GridFileStore(gf)
    if path is None:
        raise StorageError(f"store backend {backend!r} requires a path")
    durable = DurableGridFile.create(
        gf, path, backend=backend, page_size=page_size, durability=durability
    )
    return DurableGridFileStore(durable)


class RTreeStore(PageStore):
    """An R-tree as a page store (page = leaf, in the tree's leaf order)."""

    def __init__(self, tree: RTree):
        self.tree = tree

    @property
    def n_pages(self) -> int:
        return self.tree.n_leaves

    def query_pages(self, lo, hi) -> np.ndarray:
        return self.tree.query_leaves(lo, hi)

    def page_records(self, page_id: int) -> np.ndarray:
        return self.tree.leaf_records(page_id)

    def record_coords(self, record_ids: np.ndarray) -> np.ndarray:
        return self.tree.points[np.asarray(record_ids, dtype=np.int64)]


def _pack(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(ids, offsets)`` of a list of int id arrays."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([p.size for p in parts], out=offsets[1:])
    if not parts:
        return np.empty(0, dtype=np.int64), offsets
    return np.concatenate(parts).astype(np.int64, copy=False), offsets


def as_page_store(obj) -> PageStore:
    """Coerce a GridFile / RTree / PageStore into a :class:`PageStore`."""
    if isinstance(obj, PageStore):
        return obj
    if isinstance(obj, GridFile):
        return GridFileStore(obj)
    if isinstance(obj, RTree):
        return RTreeStore(obj)
    raise TypeError(f"cannot adapt {type(obj).__name__} into a PageStore")
