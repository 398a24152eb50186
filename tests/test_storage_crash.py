"""Crash-injection suite: recovery must be byte-perfect, detection total.

Tier-1 runs a small crash-at-every-boundary matrix; the ``slow`` CI job
runs the full workload under both crash models (process kill and power
loss).  The CRC sweep asserts **100% detection**: every live page with an
injected bit flip or torn tail is flagged by ``fsck``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridfile import GridFile
from repro.storage import (
    DATA_FILE,
    HEADER_SIZE,
    META_PAGE,
    CrashClock,
    DurableGridFile,
    FaultyFile,
    InjectedCrash,
    StorageEngine,
    WriteAheadLog,
    default_workload,
    enumerate_boundaries,
    run_crash_matrix,
    run_workload,
    unpack_page,
)

PAGE = 512


def test_default_workload_is_deterministic_and_mixed():
    a = default_workload(n_ops=30)
    b = default_workload(n_ops=30)
    kinds = {k for k, _ in a}
    assert kinds == {"insert", "delete"}
    assert len(a) == len(b) == 30
    for (ka, va), (kb, vb) in zip(a, b):
        assert ka == kb
        if ka == "insert":
            np.testing.assert_array_equal(va, vb)
        else:
            assert va == vb


def test_enumerate_boundaries_covers_writes_and_syncs(tmp_path):
    ops = default_workload(n_ops=6)
    boundaries = enumerate_boundaries(ops, tmp_path, page_size=PAGE)
    assert len(boundaries) > len(ops)  # several I/O ops per logical op
    phases = {ph for _, ph in boundaries}
    assert phases == {"before", "mid"}


def _catalog_rewrites(ops, directory) -> list:
    """Per op of ``ops``: whether its commit rewrote the catalog."""
    d = DurableGridFile.create(
        GridFile.empty((0.0, 0.0), (1.0, 1.0), capacity=4), directory, page_size=PAGE
    )
    kinds = []
    for op in ops:
        d.apply(op)
        pid = d._catalog_pages[0]
        header, _ = unpack_page(d.engine.store.read_page(pid), pid)
        kinds.append(header.lsn == d.engine.commit_seq)
    d.close()
    return kinds


def test_crash_matrix_small_both_phases(tmp_path):
    """Tier-1: every crash point of a short workload recovers byte-perfectly."""
    ops = default_workload(n_ops=6)
    # The crash points cover both kinds of commit: one that rewrites the
    # catalog (after a split) and one that writes only a bucket page.
    kinds = _catalog_rewrites(ops, tmp_path / "kinds")
    assert True in kinds and False in kinds
    report = run_crash_matrix(ops, tmp_path, page_size=PAGE)
    assert report.ok, report.failures
    assert report.n_crashed > 0
    assert report.n_crashed + report.n_completed == report.n_boundaries
    # the matrix must actually exercise the interesting recovery paths
    assert report.pages_torn > 0
    assert report.torn_tails > 0
    assert report.n_restarted > 0


@pytest.mark.slow
def test_crash_matrix_full_process_kill(tmp_path):
    ops = default_workload(n_ops=40)
    report = run_crash_matrix(ops, tmp_path, page_size=PAGE)
    assert report.ok, report.failures
    assert report.pages_torn > 0 and report.pages_stale > 0
    assert report.torn_tails > 0


@pytest.mark.slow
def test_crash_matrix_full_power_loss(tmp_path):
    ops = default_workload(n_ops=40)
    report = run_crash_matrix(ops, tmp_path, lose_unsynced=True, page_size=PAGE)
    assert report.ok, report.failures
    assert report.n_crashed > 0


def test_power_loss_small(tmp_path):
    ops = default_workload(n_ops=5)
    report = run_crash_matrix(ops, tmp_path, lose_unsynced=True, page_size=PAGE)
    assert report.ok, report.failures


# ---------------------------------------------------------------------------
# CRC detection sweep: 100% of injected corruptions must be caught


def _oracle_store(tmp_path, n_ops=60):
    d = run_workload(default_workload(n_ops=n_ops), tmp_path / "store", page_size=PAGE)
    live = sorted(d.engine.live_pages())
    d.close()
    return tmp_path / "store", live


def _fsck_flags(store_dir, pid):
    eng = StorageEngine(store_dir, page_size=PAGE)
    report = eng.fsck()
    eng.close()
    if pid == META_PAGE:
        return not report.ok  # meta corruption reported as unreadable meta
    return (not report.ok) and any(f"page {pid}" in p for p in report.problems)


def test_crc_detects_bit_flip_on_every_live_page(tmp_path):
    store_dir, live = _oracle_store(tmp_path)
    data = store_dir / DATA_FILE
    pristine = data.read_bytes()
    assert len(live) > 5
    for pid in [META_PAGE] + live:
        page = pristine[pid * PAGE : (pid + 1) * PAGE]
        header, _ = unpack_page(page, pid)
        covered = HEADER_SIZE + header.payload_len  # CRC-covered prefix
        for offset in (0, covered // 2, covered - 1):
            blob = bytearray(pristine)
            blob[pid * PAGE + offset] ^= 0x10
            data.write_bytes(bytes(blob))
            assert _fsck_flags(store_dir, pid), (pid, offset)
    data.write_bytes(pristine)


def test_crc_detects_torn_write_on_every_live_page(tmp_path):
    store_dir, live = _oracle_store(tmp_path)
    data = store_dir / DATA_FILE
    pristine = data.read_bytes()
    for pid in [META_PAGE] + live:
        page = pristine[pid * PAGE : (pid + 1) * PAGE]
        torn = page[: HEADER_SIZE // 2] + b"\x00" * (PAGE - HEADER_SIZE // 2)
        if torn == page:
            continue  # nothing actually injected
        blob = bytearray(pristine)
        blob[pid * PAGE : (pid + 1) * PAGE] = torn
        data.write_bytes(bytes(blob))
        assert _fsck_flags(store_dir, pid), pid
    data.write_bytes(pristine)


def test_flip_bits_mid_workload_is_detected(tmp_path):
    """Silent corruption of the final device write of a live run is caught."""
    ops = default_workload(n_ops=10)
    count_dir = tmp_path / "count"
    clock = CrashClock()
    d = run_workload(
        ops,
        count_dir,
        page_size=PAGE,
        file_factory=lambda path, mode: FaultyFile(path, mode, clock=clock),
    )
    d.close()
    # device writes are exactly one page; WAL records are page + header
    page_writes = [i for i, (k, s) in enumerate(clock.ops) if k == "write" and s == PAGE]
    assert page_writes

    flip_op = page_writes[-1]
    clock2 = CrashClock()

    def factory(path, mode):
        flips = {flip_op: (8, 0x01)} if str(path).endswith(DATA_FILE) else None
        return FaultyFile(path, mode, clock=clock2, flip_bits=flips)

    store_dir = tmp_path / "store"
    d = run_workload(ops, store_dir, page_size=PAGE, file_factory=factory)
    d.close()

    eng = StorageEngine(store_dir, page_size=PAGE)
    report = eng.fsck()
    eng.close()
    assert not report.ok
    assert report.dumps  # hexdump artifact captured for the corrupt page


# ---------------------------------------------------------------------------
# fault primitives


def test_faulty_file_crashes_on_cue(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"")
    clock = CrashClock(crash_op=1, phase="before")
    f = FaultyFile(path, clock=clock)
    f.write(b"first")
    with pytest.raises(InjectedCrash):
        f.write(b"second")
    with pytest.raises(InjectedCrash):
        f.write(b"third")  # the process stays dead
    f.close()
    assert path.read_bytes() == b"first"


def test_faulty_file_mid_write_tears(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"")
    clock = CrashClock(crash_op=0, phase="mid")
    f = FaultyFile(path, clock=clock)
    with pytest.raises(InjectedCrash):
        f.write(b"ABCDEFGH")
    f.close()
    assert path.read_bytes() == b"ABCD"  # exactly half landed


def test_power_loss_reverts_to_last_sync(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"")
    clock = CrashClock(crash_op=3, phase="before")
    f = FaultyFile(path, clock=clock, lose_unsynced=True)
    f.write(b"durable")  # op 0
    f.sync()  # op 1
    f.write(b" lost")  # op 2
    with pytest.raises(InjectedCrash):
        f.write(b" never")  # op 3: crash -> rollback
    assert path.read_bytes() == b"durable"
    f.close()


def test_lying_drive_loses_synced_writes(tmp_path):
    """drop_sync + lose_unsynced: sync claims success but durably saves nothing."""
    path = tmp_path / "wal.log"
    path.write_bytes(b"")
    clock = CrashClock(crash_op=5, phase="before")
    factory = lambda p, m: FaultyFile(  # noqa: E731
        p, m, clock=clock, lose_unsynced=True, drop_sync=True
    )
    wal = WriteAheadLog(path, file_factory=factory)
    wal.log_page(1, 1, b"X" * 64)  # op 0 (write)
    with pytest.raises(InjectedCrash):
        # commit = append (op 1) + sync (op 2); fill ops until the crash
        wal.commit(1)
        wal.log_page(2, 2, b"Y" * 64)
        wal.commit(2)
    for f in clock.files:
        f.close()
    assert path.read_bytes() == b""  # nothing survived the lying drive

    replay = WriteAheadLog(path).replay()
    assert replay.images == {}
    assert replay.last_txid == 0
