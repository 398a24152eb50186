"""Durable grid files: a GridFile paged onto a transactional StorageEngine.

:class:`DurableGridFile` keeps a live in-memory
:class:`~repro.gridfile.GridFile` (all queries stay vectorized and
unchanged) and mirrors its state onto engine pages, in on-disk format 2:

* each **bucket** serialises to a small binary blob, chunked across one
  or more pages: a header (bucket id, record count, dims, overflow flag),
  then its record ids and their coordinates;
* a JSON **catalog** blob holds the structure: capacity, split policy,
  merge settings, domain, scale boundaries, the directory grid and the
  page list of every bucket blob;
* the engine's **root** blob (on the meta page, written by every commit)
  holds the format number, the catalog's page list and the per-op
  scalars: the record count ``n`` and the split cursor.

Nothing else is stored.  :meth:`DurableGridFile.open` derives each
bucket's cell box as the bounding box of its directory cells, and the
deleted-record set as the ids below ``n`` that no bucket holds.

The class subscribes to the grid file's structural listener events
(:meth:`GridFile.add_listener`), so splits, merges, bucket removals and
refinements mark exactly the right pages dirty.  :meth:`commit_op`
flushes everything dirtied since the last call as **one** engine
transaction — the natural unit is one logical operation (one insert or
delete, including any restructuring it triggered), which makes recovery
land precisely on an operation boundary.  The catalog is rewritten only
when the structure changed: after a split, merge, bucket removal or
refinement, or when a bucket blob's page list changed.  Any other commit
stages just its dirty bucket pages and the meta page.

Determinism: page allocation, blob bytes and the catalog JSON are all
deterministic functions of the operation sequence, so a crashed store
that is recovered and replayed to the same operation count is
byte-identical to a never-crashed one (the crash-injection harness in
:mod:`repro.storage.harness` asserts exactly this).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.gridfile.bucket import Bucket
from repro.gridfile.directory import Directory
from repro.gridfile.gridfile import GridFile
from repro.gridfile.regions import CellBox
from repro.gridfile.scales import Scales
from repro.storage.engine import StorageEngine
from repro.storage.page import HEADER_SIZE, StorageError

__all__ = ["DurableGridFile"]

#: On-disk format written and read by this module.  Format 1 stores (a
#: root without a ``"format"`` key) are refused on open.
FORMAT = 2

_BUCKET_HEADER = "<IIII"  # bucket id, n_records, dims, overflowed
_BUCKET_HEADER_SIZE = struct.calcsize(_BUCKET_HEADER)


def _bucket_blob(gf: GridFile, bucket: Bucket) -> bytes:
    rec = bucket.record_array()
    coords = gf.points[rec] if rec.size else np.empty((0, gf.dims))
    return (
        struct.pack(_BUCKET_HEADER, bucket.id, rec.size, gf.dims, int(bucket.overflowed))
        + rec.astype("<i8").tobytes()
        + coords.astype("<f8").tobytes()
    )


def _parse_bucket_blob(blob: bytes, expected_bid: int, dims: int):
    """``(record ids, coords, overflowed)`` of one bucket blob."""
    if len(blob) < _BUCKET_HEADER_SIZE:
        raise StorageError(f"bucket {expected_bid}: blob too short ({len(blob)} bytes)")
    bid, n_rec, d, overflowed = struct.unpack_from(_BUCKET_HEADER, blob)
    if bid != expected_bid or d != dims or overflowed > 1:
        raise StorageError(
            f"bucket {expected_bid}: blob header mismatch "
            f"(id={bid}, dims={d}, overflowed={overflowed})"
        )
    want = _BUCKET_HEADER_SIZE + 8 * n_rec * (1 + d)
    if len(blob) < want:
        raise StorageError(
            f"bucket {expected_bid}: blob of {len(blob)} bytes is shorter than "
            f"its header claims ({n_rec} records, {want} bytes)"
        )
    off = _BUCKET_HEADER_SIZE
    rids = np.frombuffer(blob, dtype="<i8", count=n_rec, offset=off)
    off += 8 * n_rec
    coords = np.frombuffer(blob, dtype="<f8", count=n_rec * d, offset=off)
    return (
        rids.astype(np.int64),
        coords.reshape(n_rec, d).astype(np.float64),
        bool(overflowed),
    )


def _parse_root(raw: bytes) -> dict:
    try:
        root = json.loads(raw.decode("ascii"))
    except ValueError as exc:  # also UnicodeDecodeError / JSONDecodeError
        raise StorageError(f"store root is not a grid-store root: {exc}") from None
    if not isinstance(root, dict):
        raise StorageError("store root is not a grid-store root")
    fmt = root.get("format", 1)
    if fmt != FORMAT:
        raise StorageError(
            f"store is in grid-store format {fmt}; this build reads format {FORMAT} only"
        )
    return root


def _cell_boxes(grid: np.ndarray, n_buckets: int) -> list:
    """Each bucket's cell box: the bounding box of its directory cells.

    Raises :class:`StorageError` unless every bucket owns a non-empty
    region that fills its bounding box exactly.
    """
    flat = grid.ravel()
    named = np.unique(flat)
    if named.size == 0 or not np.array_equal(named, np.arange(n_buckets)):
        ids = f" (ids {named[0]}..{named[-1]})" if named.size else ""
        raise StorageError(
            f"catalog lists {n_buckets} bucket page lists but the directory "
            f"names {named.size} buckets{ids}"
        )
    counts = np.bincount(flat, minlength=n_buckets)
    order = np.argsort(flat, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cells = np.unravel_index(order, grid.shape)
    lo = np.stack([np.minimum.reduceat(c, starts) for c in cells], axis=1)
    hi = np.stack([np.maximum.reduceat(c, starts) for c in cells], axis=1) + 1
    holes = np.nonzero(np.prod(hi - lo, axis=1) != counts)[0]
    if holes.size:
        raise StorageError(f"bucket {int(holes[0])}: directory region is not a box")
    return [CellBox(a, b) for a, b in zip(lo, hi)]


class DurableGridFile:
    """A grid file whose every committed operation survives a crash.

    Build one with :meth:`create` (wrap a fresh in-memory grid file) or
    :meth:`open` (rebuild from disk, running crash recovery first).  The
    live grid file is ``self.gf``; mutate it directly (or via
    :meth:`insert` / :meth:`delete`) and call :meth:`commit_op` at each
    operation boundary.
    """

    def __init__(self, gf: GridFile, engine: StorageEngine, catalog_pages, bucket_pages):
        self.gf = gf
        self.engine = engine
        self._catalog_pages: list[int] = list(catalog_pages)
        self._bucket_pages: dict[int, list[int]] = {
            int(b): list(p) for b, p in bucket_pages.items()
        }
        self._dirty: set[int] = set()
        self._freed: list[int] = []
        self._pending = False
        #: The structure changed since the last commit: rewrite the catalog.
        self._structural = False
        gf.add_listener(self)

    # ----------------------------------------------------------- lifecycle

    @classmethod
    def create(cls, gf: GridFile, directory, **engine_kwargs) -> "DurableGridFile":
        """Persist ``gf`` into a freshly created store (full snapshot)."""
        engine = StorageEngine.create(directory, **engine_kwargs)
        d = cls(gf, engine, [], {})
        d._dirty.update(range(gf.n_buckets))
        d._pending = d._structural = True
        d.commit_op()
        return d

    @classmethod
    def open(cls, directory, recover: bool = True, **engine_kwargs) -> "DurableGridFile":
        """Rebuild the grid file from disk (crash recovery runs first).

        Raises :class:`StorageError`, naming the page or bucket at fault,
        when the store is not a readable format-2 grid store.
        """
        engine = StorageEngine.open(directory, recover=recover, **engine_kwargs)
        try:
            gf, catalog_pages, bucket_pages = cls._load(engine)
        except BaseException:
            engine.close()
            raise
        return cls(gf, engine, catalog_pages, bucket_pages)

    @staticmethod
    def _load(engine: StorageEngine):
        root = _parse_root(engine.root)
        try:
            catalog_pages = [int(p) for p in root["catalog_pages"]]
            n = int(root["n"])
            next_split_dim = int(root["next_split_dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"store root: bad or missing field {exc}") from None
        where = f"catalog (pages {catalog_pages})"
        blob = b"".join(engine.read(p) for p in catalog_pages)
        try:
            cat = json.loads(blob.decode("ascii"))
        except ValueError as exc:
            raise StorageError(f"{where}: malformed JSON: {exc}") from None
        try:
            scales = Scales(
                np.array(cat["domain_lo"]),
                np.array(cat["domain_hi"]),
                [np.array(b, dtype=np.float64) for b in cat["boundaries"]],
            )
            grid = np.array(cat["directory"], dtype=np.int64).reshape(cat["directory_shape"])
            directory_obj = Directory.from_array(grid)
            all_pages = [[int(p) for p in pages] for pages in cat["buckets"]]
            capacity, split_policy = cat["capacity"], cat["split_policy"]
            merge_trigger, merge_fill = float(cat["merge_trigger"]), float(cat["merge_fill"])
        except KeyError as exc:
            raise StorageError(f"{where}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise StorageError(f"{where}: {exc}") from None
        boxes = _cell_boxes(grid, len(all_pages))
        dims = scales.dims
        points = np.zeros((n, dims), dtype=np.float64)
        held = np.zeros(n, dtype=bool)
        buckets = []
        for bid, pages in enumerate(all_pages):
            rids, coords, overflowed = _parse_bucket_blob(
                b"".join(engine.read(p) for p in pages), bid, dims
            )
            if rids.size and (rids.min() < 0 or rids.max() >= n or held[rids].any()):
                raise StorageError(
                    f"bucket {bid} (pages {pages}): record ids outside range({n}) "
                    "or held by another bucket"
                )
            held[rids] = True
            points[rids] = coords
            bucket = Bucket(bid, boxes[bid], rids.tolist())
            bucket.overflowed = overflowed
            buckets.append(bucket)
        try:
            gf = GridFile(scales, directory_obj, buckets, points, capacity, split_policy)
        except (TypeError, ValueError) as exc:
            raise StorageError(f"{where}: {exc}") from None
        gf._deleted = set(np.flatnonzero(~held).tolist())
        gf._next_split_dim = next_split_dim
        gf.merge_trigger = merge_trigger
        gf.merge_fill = merge_fill
        return gf, catalog_pages, dict(enumerate(all_pages))

    def close(self) -> None:
        """Detach from the grid file and close the engine."""
        self.gf.remove_listener(self)
        self.engine.close()

    def checkpoint(self) -> None:
        """fsync the device and truncate the WAL (engine checkpoint)."""
        self.engine.checkpoint()

    # ------------------------------------------------------ listener events

    def on_record(self, gf, bucket_id, kind) -> None:
        self._dirty.add(bucket_id)
        self._pending = True

    def on_split(self, gf, bucket_id, new_bucket_id) -> None:
        self._dirty.add(bucket_id)
        self._dirty.add(new_bucket_id)
        self._pending = self._structural = True

    def on_merge(self, gf, survivor_id, absorbed_id) -> None:
        self._dirty.add(survivor_id)
        self._pending = self._structural = True

    def on_remove(self, gf, bucket_id, moved_id) -> None:
        self._freed.extend(self._bucket_pages.pop(bucket_id, []))
        self._dirty.discard(bucket_id)
        if moved_id is not None:
            # The last bucket was renumbered into the freed slot; its blob
            # encodes the bucket id, so it must be rewritten either way.
            self._bucket_pages[bucket_id] = self._bucket_pages.pop(moved_id, [])
            self._dirty.discard(moved_id)
            self._dirty.add(bucket_id)
        self._pending = self._structural = True

    def on_refine(self, gf, dim, interval) -> None:
        # Scales and directory live in the catalog; cell boxes are derived.
        self._pending = self._structural = True

    # ------------------------------------------------------------- commits

    def _chunks(self, blob: bytes) -> list[bytes]:
        cap = self.engine.page_size - HEADER_SIZE
        return [blob[i : i + cap] for i in range(0, len(blob), cap)] or [b""]

    def _write_blob(self, blob: bytes, old_pages: list) -> list:
        """Stage ``blob`` over pages, reusing ``old_pages`` prefix-first."""
        chunks = self._chunks(blob)
        pages = list(old_pages[: len(chunks)])
        while len(pages) < len(chunks):
            pages.append(self.engine.alloc())
        for pid in old_pages[len(chunks) :]:
            self.engine.release(pid)
        for pid, chunk in zip(pages, chunks):
            self.engine.put(pid, chunk)
        return pages

    def _catalog_blob(self) -> bytes:
        gf = self.gf
        cat = {
            "capacity": gf.capacity,
            "split_policy": gf.split_policy,
            "merge_trigger": gf.merge_trigger,
            "merge_fill": gf.merge_fill,
            "domain_lo": gf.scales.domain_lo.tolist(),
            "domain_hi": gf.scales.domain_hi.tolist(),
            "boundaries": [b.tolist() for b in gf.scales.boundaries],
            "directory_shape": list(gf.directory.shape),
            "directory": gf.directory.grid.ravel().tolist(),
            "buckets": [self._bucket_pages.get(b.id, []) for b in gf.buckets],
        }
        return json.dumps(cat, sort_keys=True, separators=(",", ":")).encode("ascii")

    def commit_op(self) -> "int | None":
        """Commit everything dirtied since the last call as one transaction.

        Stages the dirty bucket pages and the meta page; the catalog too
        when the structure changed.  Returns the txid, or ``None`` when
        nothing changed.
        """
        if not self._pending:
            return None
        gf = self.gf
        self.engine.begin()
        for pid in self._freed:
            self.engine.release(pid)
        for bid in sorted(b for b in self._dirty if b < gf.n_buckets):
            old = self._bucket_pages.get(bid, [])
            pages = self._write_blob(_bucket_blob(gf, gf.buckets[bid]), old)
            if pages != old:
                self._bucket_pages[bid] = pages
                self._structural = True
        if self._structural:
            self._catalog_pages = self._write_blob(self._catalog_blob(), self._catalog_pages)
        root = {
            "format": FORMAT,
            "catalog_pages": self._catalog_pages,
            "n": gf._n,
            "next_split_dim": gf._next_split_dim,
        }
        self.engine.set_root(json.dumps(root, sort_keys=True).encode("ascii"))
        txid = self.engine.commit()
        self._dirty.clear()
        self._freed.clear()
        self._pending = self._structural = False
        return txid

    # -------------------------------------------------------- conveniences

    def insert(self, coords) -> int:
        """Insert a point and commit the operation; returns the record id."""
        rid = self.gf.insert_point(coords)
        self.commit_op()
        return rid

    def delete(self, rid: int) -> None:
        """Delete a record and commit the operation."""
        self.gf.delete_record(rid)
        self.commit_op()

    def apply(self, op) -> None:
        """Apply one ``("insert", coords)`` / ``("delete", rid)`` op and commit."""
        kind, arg = op
        if kind == "insert":
            self.insert(arg)
        elif kind == "delete":
            self.delete(int(arg))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
