"""DurableGridFile: create/commit/reopen roundtrip fidelity.

A reopened store must rebuild a grid file that is *observably identical*
to the live one — same records, same structure, same query answers, and
(the property the crash harness leans on) same future behaviour: applying
the same operation to both must produce byte-identical catalogs.  Also
pinned here: which pages a commit writes, and the typed errors ``open``
raises on a store it cannot read.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.gridfile import GridFile
from repro.obs import MetricsRegistry
from repro.storage import (
    DurableGridFile,
    StorageEngine,
    StorageError,
    default_workload,
    unpack_page,
)

CAPACITY = 4


def _fresh_gf():
    return GridFile.empty([0.0, 0.0], [1.0, 1.0], capacity=CAPACITY, reserve=4)


def _populated(tmp_path, n_ops=40, seed=7):
    d = DurableGridFile.create(_fresh_gf(), tmp_path / "store", page_size=512)
    for op in default_workload(n_ops=n_ops, capacity=CAPACITY, seed=seed):
        d.apply(op)
    return d


def _assert_same_gridfile(a: GridFile, b: GridFile):
    assert a.n_records == b.n_records
    assert a.n_deleted == b.n_deleted
    assert a._deleted == b._deleted
    assert a._next_split_dim == b._next_split_dim
    assert a.capacity == b.capacity
    assert a.split_policy == b.split_policy
    assert (a.merge_trigger, a.merge_fill) == (b.merge_trigger, b.merge_fill)
    assert a.n_buckets == b.n_buckets
    assert a.directory.shape == b.directory.shape
    np.testing.assert_array_equal(a.directory.grid, b.directory.grid)
    for sa, sb in zip(a.scales.boundaries, b.scales.boundaries):
        np.testing.assert_array_equal(sa, sb)
    for ba, bb in zip(a.buckets, b.buckets):
        assert ba.id == bb.id
        assert ba.overflowed == bb.overflowed
        np.testing.assert_array_equal(ba.cellbox.lo, bb.cellbox.lo)
        np.testing.assert_array_equal(ba.cellbox.hi, bb.cellbox.hi)
        assert sorted(ba.record_ids) == sorted(bb.record_ids)
    live = a.live_record_ids()
    np.testing.assert_array_equal(np.sort(live), np.sort(b.live_record_ids()))
    np.testing.assert_allclose(a.points[live], b.points[live])


def test_create_then_open_empty(tmp_path):
    d = DurableGridFile.create(_fresh_gf(), tmp_path / "store", page_size=512)
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    assert d2.gf.n_records == 0
    d2.gf.check_invariants()
    d2.close()


def test_roundtrip_after_workload(tmp_path):
    d = _populated(tmp_path)
    d.gf.check_invariants()
    d.close()

    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    d2.gf.check_invariants()
    _assert_same_gridfile(d.gf, d2.gf)
    d2.close()


def test_roundtrip_preserves_queries(tmp_path):
    d = _populated(tmp_path, n_ops=60)
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.random(2), rng.random(2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        got = np.sort(d2.gf.query_records(lo, hi))
        want = np.sort(d.gf.query_records(lo, hi))
        np.testing.assert_array_equal(got, want)
    d2.close()


def test_reopened_store_continues_identically(tmp_path):
    """Same ops applied to the live and the reopened file → same bytes."""
    ops = default_workload(n_ops=50, capacity=CAPACITY, seed=11)
    head, tail = ops[:30], ops[30:]

    d = DurableGridFile.create(_fresh_gf(), tmp_path / "a", page_size=512)
    for op in head:
        d.apply(op)
    d.close()

    # continue the stored file after a reopen...
    d2 = DurableGridFile.open(tmp_path / "a", page_size=512)
    for op in tail:
        d2.apply(op)
    d2.checkpoint()
    d2.close()

    # ...and compare with the never-reopened oracle
    oracle = DurableGridFile.create(_fresh_gf(), tmp_path / "b", page_size=512)
    for op in ops:
        oracle.apply(op)
    oracle.checkpoint()
    oracle.close()

    got = (tmp_path / "a" / "pages.dat").read_bytes()
    want = (tmp_path / "b" / "pages.dat").read_bytes()
    assert got == want


def test_commit_op_noop_without_changes(tmp_path):
    d = _populated(tmp_path, n_ops=10)
    assert d.commit_op() is None  # nothing dirty
    seq = d.engine.commit_seq
    assert d.commit_op() is None
    assert d.engine.commit_seq == seq
    d.close()


def test_multi_page_bucket_blobs(tmp_path):
    """Coincident points overflow one bucket past a single 512-byte page."""
    gf = _fresh_gf()
    d = DurableGridFile.create(gf, tmp_path / "store", page_size=512)
    p = np.array([0.5, 0.5])
    for _ in range(40):  # 40 records * 24 bytes > one page payload
        d.insert(p)
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    assert d2.gf.n_records == 40
    d2.gf.check_invariants()
    assert any(len(pages) > 1 for pages in d2._bucket_pages.values())
    d2.close()


def test_open_rejects_rootless_store(tmp_path):
    from repro.storage import StorageEngine

    StorageEngine.create(tmp_path / "store", page_size=512).close()
    with pytest.raises(StorageError):
        DurableGridFile.open(tmp_path / "store", page_size=512)


def test_delete_releases_pages(tmp_path):
    """Deleting everything shrinks back to one bucket and recycles pages."""
    d = DurableGridFile.create(_fresh_gf(), tmp_path / "store", page_size=512)
    rng = np.random.default_rng(5)
    rids = [d.insert(rng.random(2)) for _ in range(30)]
    peak = d.engine.allocator.next_page_id
    for rid in rids:
        d.delete(rid)
    assert d.gf.n_records == 0
    # all bucket pages for removed buckets returned to the free-list
    assert len(d.engine.allocator.free_pages) > 0
    assert d.engine.allocator.next_page_id == peak  # nothing leaked past peak
    assert d.engine.fsck().ok
    d.close()


def _catalog_rewritten(d: DurableGridFile) -> bool:
    """Whether the last commit wrote the catalog (its first page's LSN)."""
    pid = d._catalog_pages[0]
    header, _ = unpack_page(d.engine.store.read_page(pid), pid)
    return header.lsn == d.engine.commit_seq


def test_long_lived_store_writes_one_bucket_page_per_op(tmp_path):
    """After 1,000+ deletes a plain commit still writes 2 pages, no catalog.

    Then the store reopens with the same deleted set, cell boxes and
    overflow flags.
    """
    metrics = MetricsRegistry()
    gf = GridFile.empty([0.0, 0.0], [1.0, 1.0], capacity=16)
    d = DurableGridFile.create(
        gf, tmp_path / "store", durability="checkpoint", metrics=metrics
    )
    rng = np.random.default_rng(20)
    rids = [d.insert(rng.random(2)) for _ in range(1300)]
    rids += [d.insert((0.25, 0.25)) for _ in range(20)]  # an overflowed bucket
    for rid in rng.permutation(rids[:1300])[:1050]:
        d.delete(int(rid))
    assert gf.n_deleted >= 1000
    assert any(b.overflowed for b in gf.buckets)

    pages_written = metrics.counter("storage.pages_written")
    plain = split = 0
    for _ in range(300):
        catalog = (list(d._catalog_pages), [d.engine.read(p) for p in d._catalog_pages])
        n_buckets, before = gf.n_buckets, pages_written.value
        d.insert(rng.random(2))
        if gf.n_buckets == n_buckets:
            plain += 1
            assert pages_written.value - before == 2  # bucket page + meta page
            assert not _catalog_rewritten(d)
            assert (d._catalog_pages, [d.engine.read(p) for p in d._catalog_pages]) == catalog
        else:
            split += 1
            assert _catalog_rewritten(d)
    assert plain > 0 and split > 0
    d.checkpoint()
    d.close()

    d2 = DurableGridFile.open(tmp_path / "store")
    d2.gf.check_invariants()
    _assert_same_gridfile(gf, d2.gf)
    d2.close()


def test_merge_commit_rewrites_catalog(tmp_path):
    d = _populated(tmp_path, n_ops=40)
    merged = 0
    for rid in d.gf.live_record_ids().tolist():
        n_buckets = d.gf.n_buckets
        d.delete(rid)
        if d.gf.n_buckets < n_buckets:
            merged += 1
            assert _catalog_rewritten(d)
    assert merged > 0
    d.close()


def test_adjacent_float_overflow_survives_reopen(tmp_path):
    """Values one ulp below the domain edge overflow their bucket durably."""
    gf = GridFile.empty([0.0, 0.0], [1.0, 1.0], capacity=6)
    d = DurableGridFile.create(gf, tmp_path / "store", page_size=512)
    for _ in range(6):
        d.insert((1.0, 1.0))
    d.insert((1.0, 0.9999999999999999))
    assert gf.buckets[0].overflowed
    d.close()
    d2 = DurableGridFile.open(tmp_path / "store", page_size=512)
    assert d2.gf.n_records == 7
    assert d2.gf.buckets[0].overflowed
    d2.gf.check_invariants()
    _assert_same_gridfile(gf, d2.gf)
    d2.close()


# ---------------------------------------------------------------------------
# open() on a store it cannot read: typed errors naming the page or bucket


def _catalog(**overrides) -> dict:
    """Catalog of an empty 2-d grid file whose one bucket blob is on page 2."""
    cat = {
        "capacity": 4,
        "split_policy": "midpoint",
        "merge_trigger": 0.3,
        "merge_fill": 0.7,
        "domain_lo": [0.0, 0.0],
        "domain_hi": [1.0, 1.0],
        "boundaries": [[], []],
        "directory_shape": [1, 1],
        "directory": [0],
        "buckets": [[2]],
    }
    cat.update(overrides)
    return cat


def _write_store(path, catalog, bucket_blob=None, root=None):
    """A store holding ``catalog`` on page 1 and ``bucket_blob`` on page 2."""
    if isinstance(catalog, dict):
        catalog = json.dumps(catalog).encode("ascii")
    if bucket_blob is None:
        bucket_blob = struct.pack("<IIII", 0, 0, 2, 0)
    if root is None:
        root = {"format": 2, "catalog_pages": [1], "n": 0, "next_split_dim": 0}
    eng = StorageEngine.create(path, page_size=512)
    eng.begin()
    assert (eng.alloc(), eng.alloc()) == (1, 2)
    eng.put(1, catalog)
    eng.put(2, bucket_blob)
    eng.set_root(json.dumps(root).encode("ascii"))
    eng.commit()
    eng.close()


def test_hand_built_store_opens(tmp_path):
    """``_write_store`` writes a valid store; each case below breaks one part."""
    _write_store(tmp_path / "s", _catalog())
    d = DurableGridFile.open(tmp_path / "s", page_size=512)
    assert d.gf.n_records == 0 and d.gf.n_buckets == 1
    d.gf.check_invariants()
    d.close()


def test_open_refuses_format_1_store(tmp_path):
    _write_store(tmp_path / "s", _catalog(), root={"catalog_pages": [1]})
    with pytest.raises(StorageError, match="format 1.*format 2"):
        DurableGridFile.open(tmp_path / "s", page_size=512)


def test_open_rejects_malformed_catalog_json(tmp_path):
    _write_store(tmp_path / "s", b'{"capacity": 4,')
    with pytest.raises(StorageError, match=r"catalog \(pages \[1\]\): malformed JSON"):
        DurableGridFile.open(tmp_path / "s", page_size=512)


def test_open_rejects_catalog_missing_key(tmp_path):
    cat = _catalog()
    del cat["directory"]
    _write_store(tmp_path / "s", cat)
    with pytest.raises(StorageError, match=r"catalog \(pages \[1\]\): missing key 'directory'"):
        DurableGridFile.open(tmp_path / "s", page_size=512)


def test_open_rejects_truncated_bucket_blob(tmp_path):
    blob = struct.pack("<IIII", 0, 5, 2, 0) + b"\x00" * 16  # claims 5 records
    _write_store(tmp_path / "s", _catalog(), bucket_blob=blob)
    with pytest.raises(StorageError, match="bucket 0: blob of 32 bytes is shorter"):
        DurableGridFile.open(tmp_path / "s", page_size=512)


def test_open_rejects_bucket_count_mismatch(tmp_path):
    _write_store(tmp_path / "s", _catalog(buckets=[[2], [2]]))
    with pytest.raises(StorageError, match="2 bucket page lists but the directory names 1"):
        DurableGridFile.open(tmp_path / "s", page_size=512)
