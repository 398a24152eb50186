"""Unit tests for the crash-safe storage backend (:mod:`repro.storage`).

Covers each layer in isolation: page framing + CRC detection, the two
block-store backends, the persistent page allocator, WAL append/replay
(including torn tails), and the single-writer storage engine with its
recovery and fsck paths.
"""

from __future__ import annotations

import pytest

from repro.storage import (
    BLOCK_STORES,
    DATA_FILE,
    DEFAULT_PAGE_SIZE,
    HEADER_SIZE,
    META_PAGE,
    REC_COMMIT,
    REC_PAGE,
    WAL_FILE,
    FileBlockStore,
    MemoryBlockStore,
    PageAllocator,
    PageCorruptionError,
    StorageEngine,
    StorageError,
    WriteAheadLog,
    hexdump,
    make_block_store,
    pack_page,
    unpack_page,
)

# ---------------------------------------------------------------------------
# page framing


def test_pack_unpack_roundtrip():
    buf = pack_page(7, 42, b"hello world", page_size=256)
    assert len(buf) == 256
    header, payload = unpack_page(buf, expected_id=7)
    assert header.page_id == 7
    assert header.lsn == 42
    assert payload == b"hello world"


def test_unpack_rejects_wrong_slot():
    buf = pack_page(7, 1, b"x", page_size=256)
    with pytest.raises(PageCorruptionError) as exc:
        unpack_page(buf, expected_id=8)
    assert exc.value.page_id == 8
    assert "slot" in exc.value.reason


def test_unpack_detects_bit_flip_anywhere():
    # flips beyond header + payload land in uncovered zero padding, so only
    # probe the covered region (torn-prefix detection covers the tail case)
    buf = bytearray(pack_page(3, 9, b"payload bytes", page_size=128))
    for offset in (0, 5, 12, HEADER_SIZE, HEADER_SIZE + 12):
        flipped = bytearray(buf)
        flipped[offset] ^= 0x40
        with pytest.raises(PageCorruptionError):
            unpack_page(bytes(flipped), expected_id=3)


def test_unpack_detects_torn_prefix():
    """A half-written page (valid prefix + stale/zero tail) fails the CRC."""
    buf = pack_page(3, 9, b"A" * 60, page_size=128)
    torn = buf[:64] + b"\x00" * 64
    with pytest.raises(PageCorruptionError):
        unpack_page(torn, expected_id=3)


def test_all_zero_page_reports_empty():
    with pytest.raises(PageCorruptionError) as exc:
        unpack_page(b"\x00" * 128)
    assert "empty" in exc.value.reason


def test_payload_must_fit():
    with pytest.raises(ValueError):
        pack_page(1, 1, b"x" * 200, page_size=128)


def test_hexdump_shape():
    text = hexdump(bytes(range(48)), width=16)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("00000000")


# ---------------------------------------------------------------------------
# block stores


@pytest.mark.parametrize("backend", sorted(BLOCK_STORES))
def test_blockstore_roundtrip(backend, tmp_path):
    store = make_block_store(backend, path=tmp_path / "dev.dat", page_size=128)
    try:
        page = pack_page(0, 1, b"zero", page_size=128)
        store.write_page(0, page)
        store.write_page(3, pack_page(3, 1, b"three", page_size=128))
        assert store.read_page(0) == page
        assert store.n_pages >= 4
        # reads past EOF zero-pad rather than raising
        assert store.read_page(1000) == b"\x00" * 128
    finally:
        store.close()


@pytest.mark.parametrize("backend", sorted(BLOCK_STORES))
def test_blockstore_rejects_bad_writes(backend, tmp_path):
    store = make_block_store(backend, path=tmp_path / "dev.dat", page_size=128)
    try:
        with pytest.raises(ValueError):
            store.write_page(0, b"short")
        with pytest.raises(ValueError):
            store.write_page(-1, b"\x00" * 128)
    finally:
        store.close()


def test_file_store_persists(tmp_path):
    path = tmp_path / "dev.dat"
    page = pack_page(2, 5, b"persist me", page_size=128)
    with FileBlockStore(path, page_size=128) as store:
        store.write_page(2, page)
        store.sync()
    with FileBlockStore(path, page_size=128) as store:
        assert store.read_page(2) == page


def test_make_block_store_validates():
    with pytest.raises(StorageError):
        make_block_store("nvram")
    with pytest.raises(StorageError):
        make_block_store("file")  # path required
    assert isinstance(make_block_store("memory"), MemoryBlockStore)


def test_page_size_floor():
    with pytest.raises(ValueError):
        MemoryBlockStore(page_size=32)


# ---------------------------------------------------------------------------
# allocator


def test_allocator_lifo_reuse():
    alloc = PageAllocator()
    a, b, c = alloc.alloc(), alloc.alloc(), alloc.alloc()
    assert (a, b, c) == (1, 2, 3)
    alloc.release(b)
    alloc.release(c)
    assert alloc.alloc() == c  # LIFO: last released first
    assert alloc.alloc() == b
    assert alloc.alloc() == 4


def test_allocator_release_errors():
    alloc = PageAllocator()
    pid = alloc.alloc()
    alloc.release(pid)
    with pytest.raises(StorageError):
        alloc.release(pid)  # double free
    with pytest.raises(StorageError):
        alloc.release(99)  # never allocated


def test_allocator_serialization_roundtrip():
    alloc = PageAllocator()
    pids = [alloc.alloc() for _ in range(5)]
    alloc.release(pids[1])
    alloc.release(pids[3])
    clone = PageAllocator.from_bytes(alloc.to_bytes())
    assert clone.free_pages == alloc.free_pages
    assert clone.alloc() == alloc.alloc()
    assert clone.validate() == []


def test_allocator_validate_flags_corruption():
    bad = PageAllocator(next_page_id=3, free=(2, 2, 9))
    problems = bad.validate()
    assert any("duplicated" in p for p in problems)
    assert any("outside" in p for p in problems)


# ---------------------------------------------------------------------------
# write-ahead log


def _page(pid, lsn, payload, size=128):
    return pack_page(pid, lsn, payload, page_size=size)


def test_wal_replay_committed_only(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.log_page(1, 5, _page(5, 1, b"one"))
    wal.commit(1)
    wal.log_page(2, 6, _page(6, 2, b"uncommitted"))
    wal.close()  # crash before commit(2)

    wal = WriteAheadLog(tmp_path / "wal.log")
    replay = wal.replay()
    wal.close()
    assert set(replay.images) == {5}
    assert replay.last_txid == 1
    assert not replay.torn_tail


def test_wal_commit_publishes_latest_image(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.log_page(1, 5, _page(5, 1, b"v1"))
    wal.commit(1)
    wal.log_page(2, 5, _page(5, 2, b"v2"))
    wal.commit(2)
    replay = wal.replay()
    wal.close()
    _, payload = unpack_page(replay.images[5], expected_id=5)
    assert payload == b"v2"
    assert replay.last_txid == 2


def test_wal_replay_stops_at_torn_tail(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.log_page(1, 5, _page(5, 1, b"good"))
    wal.commit(1)
    wal.log_page(2, 6, _page(6, 2, b"doomed"))
    wal.commit(2)
    wal.close()

    # tear the file mid-way through txid 2's records
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])

    wal = WriteAheadLog(path)
    replay = wal.replay()
    wal.close()
    assert replay.torn_tail
    assert set(replay.images) == {5}
    assert replay.last_txid == 1


def test_wal_replay_ignores_corrupt_record_and_tail(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.log_page(1, 5, _page(5, 1, b"good"))
    wal.commit(1)
    end_of_good = path.stat().st_size
    wal.log_page(2, 6, _page(6, 2, b"doomed"))
    wal.commit(2)
    wal.close()

    blob = bytearray(path.read_bytes())
    blob[end_of_good + 4] ^= 0xFF  # corrupt txid 2's first record header
    path.write_bytes(bytes(blob))

    wal = WriteAheadLog(path)
    replay = wal.replay()
    wal.close()
    assert replay.torn_tail
    assert set(replay.images) == {5}
    assert replay.valid_bytes == end_of_good


def test_wal_checkpoint_truncates(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.log_page(1, 5, _page(5, 1, b"x"))
    wal.commit(1)
    wal.checkpoint(1)
    replay = wal.replay()
    wal.close()
    assert replay.images == {}
    assert replay.last_txid == 1  # checkpoint record carries the txid


def test_wal_rec_types_distinct():
    assert len({REC_PAGE, REC_COMMIT}) == 2


# ---------------------------------------------------------------------------
# storage engine


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("page_size", 256)
    return StorageEngine.create(tmp_path / "store", **kwargs)


def test_engine_create_open_roundtrip(tmp_path):
    eng = _engine(tmp_path)
    eng.begin()
    pid = eng.alloc()
    eng.put(pid, b"payload")
    eng.set_root(str(pid).encode())
    eng.commit()
    eng.close()

    eng = StorageEngine.open(tmp_path / "store", page_size=256)
    assert eng.root == str(pid).encode()
    assert eng.read(pid) == b"payload"
    assert pid in eng.live_pages()
    eng.close()


def test_engine_refuses_double_create(tmp_path):
    _engine(tmp_path).close()
    with pytest.raises(StorageError):
        StorageEngine.create(tmp_path / "store", page_size=256)


def test_engine_reads_zero_padded_device(tmp_path):
    # Stores written by the retired memory-mapped device carry zero-filled
    # pages up to a 64-page boundary; they are the same format and must
    # open and fsck clean on the file backend.
    eng = _engine(tmp_path)
    eng.begin()
    pids = [eng.alloc() for _ in range(3)]
    for pid in pids:
        eng.put(pid, f"data{pid}".encode())
    eng.set_root(b"root")
    eng.commit()
    eng.close()
    data = tmp_path / "store" / DATA_FILE
    with open(data, "r+b") as f:
        f.truncate(64 * 256)

    eng = StorageEngine.open(tmp_path / "store", page_size=256)
    assert eng.root == b"root"
    assert [eng.read(pid) for pid in pids] == [f"data{pid}".encode() for pid in pids]
    report = eng.fsck()
    assert report.ok, report.problems
    eng.close()


def test_engine_abort_discards(tmp_path):
    eng = _engine(tmp_path)
    eng.begin()
    pid = eng.alloc()
    eng.put(pid, b"junk")
    eng.abort()
    eng.begin()
    pid2 = eng.alloc()
    eng.commit()
    assert pid2 == pid  # aborted alloc was rolled back
    eng.close()


def test_engine_requires_open_tx(tmp_path):
    eng = _engine(tmp_path)
    with pytest.raises(StorageError):
        eng.put(1, b"x")
    with pytest.raises(StorageError):
        eng.commit()
    eng.close()


def test_engine_release_frees_for_reuse(tmp_path):
    eng = _engine(tmp_path)
    eng.begin()
    a = eng.alloc()
    b = eng.alloc()
    eng.put(a, b"a")
    eng.put(b, b"b")
    eng.commit()
    eng.begin()
    eng.release(a)
    eng.commit()
    eng.begin()
    assert eng.alloc() == a
    eng.commit()
    eng.close()


def test_engine_memory_backend_skips_wal(tmp_path):
    eng = StorageEngine(tmp_path / "mem", backend="memory", page_size=256)
    eng.begin()
    pid = eng.alloc()
    eng.put(pid, b"volatile")
    eng.commit()
    assert eng.read(pid) == b"volatile"
    assert not (tmp_path / "mem" / WAL_FILE).exists()
    eng.close()


def test_engine_recovers_torn_page_from_wal(tmp_path):
    eng = _engine(tmp_path)
    eng.begin()
    pid = eng.alloc()
    eng.put(pid, b"important")
    eng.commit()
    eng.close()

    # tear the committed page on the device; the WAL still holds its image
    data = tmp_path / "store" / DATA_FILE
    blob = bytearray(data.read_bytes())
    offset = pid * 256 + 40
    blob[offset] ^= 0xFF
    data.write_bytes(bytes(blob))

    eng = StorageEngine.open(tmp_path / "store", page_size=256)
    assert eng.last_recovery is not None
    assert eng.last_recovery.pages_restored >= 1
    assert eng.read(pid) == b"important"
    eng.close()


def test_engine_recover_is_idempotent(tmp_path):
    eng = _engine(tmp_path)
    eng.begin()
    pid = eng.alloc()
    eng.put(pid, b"x")
    eng.commit()
    eng.close()

    eng = StorageEngine.open(tmp_path / "store", page_size=256)
    before = (tmp_path / "store" / DATA_FILE).read_bytes()
    eng.recover()
    eng.recover()
    assert (tmp_path / "store" / DATA_FILE).read_bytes() == before
    assert eng.read(pid) == b"x"
    eng.close()


def test_engine_checkpoint_truncates_wal(tmp_path):
    eng = _engine(tmp_path)
    for i in range(5):
        eng.begin()
        eng.put(eng.alloc(), b"fill %d" % i)
        eng.commit()
    wal_path = tmp_path / "store" / WAL_FILE
    grown = wal_path.stat().st_size
    eng.checkpoint()
    assert wal_path.stat().st_size < grown
    eng.close()


def test_engine_durability_off_has_no_wal(tmp_path):
    eng = StorageEngine.create(tmp_path / "store", page_size=256, durability="off")
    eng.begin()
    pid = eng.alloc()
    eng.put(pid, b"fast")
    eng.commit()
    eng.close()
    assert not (tmp_path / "store" / WAL_FILE).exists()
    eng = StorageEngine.open(tmp_path / "store", page_size=256, durability="off")
    assert eng.read(pid) == b"fast"
    eng.close()


def test_engine_rejects_bad_durability(tmp_path):
    with pytest.raises(StorageError):
        StorageEngine(tmp_path / "store", durability="sometimes")


# ---------------------------------------------------------------------------
# fsck


def _committed_engine(tmp_path, n=3):
    eng = _engine(tmp_path)
    pids = []
    eng.begin()
    for i in range(n):
        pid = eng.alloc()
        eng.put(pid, b"page %d" % i)
        pids.append(pid)
    eng.commit()
    return eng, pids


def test_fsck_clean_store(tmp_path):
    eng, pids = _committed_engine(tmp_path)
    report = eng.fsck()
    assert report.ok
    assert report.pages_checked == len(pids)
    assert report.problems == []
    eng.close()


def test_fsck_detects_and_repairs_bit_flip(tmp_path):
    eng, pids = _committed_engine(tmp_path)
    eng.close()

    data = tmp_path / "store" / DATA_FILE
    blob = bytearray(data.read_bytes())
    blob[pids[0] * 256 + 25] ^= 0x01  # flip inside the payload ("page 0")
    data.write_bytes(bytes(blob))

    eng = StorageEngine.open(tmp_path / "store", page_size=256, recover=False)
    report = eng.fsck()
    assert not report.ok
    assert any(f"page {pids[0]}" in p for p in report.problems)
    assert pids[0] in report.dumps  # hexdump captured for artifacts

    repaired = eng.fsck(repair=True)
    assert repaired.pages_repaired >= 1
    assert eng.fsck().ok
    assert eng.read(pids[0]) == b"page 0"
    eng.close()


def test_fsck_repairs_corrupt_meta_from_wal(tmp_path):
    eng, pids = _committed_engine(tmp_path)
    eng.close()

    data = tmp_path / "store" / DATA_FILE
    blob = bytearray(data.read_bytes())
    blob[META_PAGE * 256 + 12] ^= 0xFF
    data.write_bytes(bytes(blob))

    # open() with recover=False would refuse the corrupt meta page, so use
    # the bare constructor (fsck loads meta itself)
    eng = StorageEngine(tmp_path / "store", page_size=256)
    report = eng.fsck(repair=True)
    assert report.pages_repaired >= 1
    assert eng.fsck().ok
    eng.close()


def test_default_page_size_is_sane():
    assert DEFAULT_PAGE_SIZE % 512 == 0
