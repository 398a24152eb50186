"""Write-ahead log with physical redo records and torn-tail recovery.

Protocol (append → fsync → apply):

1. every page a transaction will touch is appended to the log as a **full
   page image** (``PAGE`` record — the page bytes exactly as they will be
   written to the data device);
2. a ``COMMIT`` record seals the transaction and the log is fsynced
   (``sync_on_commit``);
3. only then are the images applied to the data device.

Because the images are physical, replay is idempotent: writing the last
committed image of each page any number of times converges to the same
device state.  :meth:`WriteAheadLog.replay` scans the log from the start
and stops at the first record whose magic, length or CRC fails — the
standard *torn tail* rule: everything before the tear is intact (it was
fsynced before later records were appended), everything after belongs to
a transaction that never committed.

Record layout (little-endian)::

    offset  size  field
    0       2     magic        b"WL"
    2       1     type         1=PAGE, 2=COMMIT, 3=CHECKPOINT
    3       1     (pad)
    4       8     txid         u64 commit sequence number
    12      4     page_id      u32 (PAGE records; else 0)
    16      4     payload_len  u32
    20      4     crc32        u32 over header[0:20] + payload

A ``CHECKPOINT`` record is written to a freshly truncated log once the
data device has been fsynced — every earlier image is then superseded by
the device itself, which bounds both log length and recovery time.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.storage.page import StorageError

__all__ = [
    "REC_CHECKPOINT",
    "REC_COMMIT",
    "REC_HEADER_SIZE",
    "REC_PAGE",
    "WalReplay",
    "WriteAheadLog",
]

WAL_MAGIC = b"WL"
_REC_PREFIX = "<2sBxQII"  # magic, type, pad, txid, page_id, payload_len
_REC_PREFIX_SIZE = struct.calcsize(_REC_PREFIX)
REC_HEADER_SIZE = _REC_PREFIX_SIZE + 4

REC_PAGE = 1
REC_COMMIT = 2
REC_CHECKPOINT = 3


@dataclass
class WalReplay:
    """Result of scanning the log: the committed redo set.

    ``images`` maps page id to the image of its **last committed** writer;
    applying them all (in any order, any number of times) brings the data
    device to the state as of transaction ``last_txid``.
    """

    images: dict[int, bytes] = field(default_factory=dict)
    #: Highest committed transaction id seen (0 when none committed).
    last_txid: int = 0
    #: Complete records scanned (committed or not).
    n_records: int = 0
    #: True when the scan stopped at a torn/corrupt record before EOF.
    torn_tail: bool = False
    #: Byte offset of the first invalid record (== log length when clean).
    valid_bytes: int = 0


class WriteAheadLog:
    """Append-only redo log over a single file.

    Parameters
    ----------
    path:
        Log file location (created empty if missing).
    sync_on_commit:
        fsync the log inside :meth:`commit` (the durable default).  With
        ``False`` the log is only fsynced at checkpoints — commits may be
        lost on crash, but recovery still lands on a consistent prefix
        (``benchmarks/bench_ext_durability.py`` counts the fsyncs saved).
    file_factory:
        Replacement for ``open`` (fault injection — see
        :class:`~repro.storage.faults.FaultyFile`).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` for append/fsync
        counters (``storage.wal.*``).
    """

    def __init__(self, path, sync_on_commit: bool = True, file_factory=None, metrics=None):
        self.path = Path(path)
        self.sync_on_commit = bool(sync_on_commit)
        self.metrics = metrics
        factory = file_factory if file_factory is not None else open
        mode = "r+b" if self.path.exists() else "w+b"
        self._f = factory(self.path, mode)
        self._end = self._f.seek(0, os.SEEK_END)

    # ------------------------------------------------------------- appending

    def _append(self, rec_type: int, txid: int, page_id: int, payload: bytes) -> None:
        prefix = struct.pack(_REC_PREFIX, WAL_MAGIC, rec_type, txid, page_id, len(payload))
        crc = zlib.crc32(prefix + payload)
        self._f.seek(self._end)
        self._f.write(prefix + struct.pack("<I", crc) + payload)
        self._end += REC_HEADER_SIZE + len(payload)
        if self.metrics is not None:
            self.metrics.counter("storage.wal.appends").inc()
            self.metrics.counter("storage.wal.bytes").inc(REC_HEADER_SIZE + len(payload))

    def log_page(self, txid: int, page_id: int, page_bytes: bytes) -> None:
        """Append the full page image a transaction is about to apply."""
        self._append(REC_PAGE, txid, page_id, page_bytes)

    def commit(self, txid: int) -> None:
        """Seal transaction ``txid`` (fsyncs when ``sync_on_commit``)."""
        self._append(REC_COMMIT, txid, 0, b"")
        if self.sync_on_commit:
            self.sync()

    def sync(self) -> None:
        """fsync the log file."""
        if hasattr(self._f, "sync"):  # FaultyFile intercepts fsync here
            self._f.sync()
        else:
            self._f.flush()
            os.fsync(self._f.fileno())
        if self.metrics is not None:
            self.metrics.counter("storage.wal.fsyncs").inc()

    def checkpoint(self, txid: int) -> None:
        """Restart the log after the data device was made durable."""
        self._f.truncate(0)
        self._end = 0
        self._append(REC_CHECKPOINT, txid, 0, b"")
        self.sync()
        if self.metrics is not None:
            self.metrics.counter("storage.checkpoints").inc()

    # --------------------------------------------------------------- replay

    def replay(self) -> WalReplay:
        """Scan the log; return the committed redo set (torn tail dropped)."""
        self._f.seek(0, os.SEEK_END)
        size = self._f.tell()
        self._f.seek(0)
        data = self._f.read(size)
        out = WalReplay()
        staged: dict[int, dict[int, bytes]] = {}
        pos = 0
        while pos + REC_HEADER_SIZE <= len(data):
            magic, rec_type, txid, page_id, payload_len = struct.unpack_from(
                _REC_PREFIX, data, pos
            )
            (crc,) = struct.unpack_from("<I", data, pos + _REC_PREFIX_SIZE)
            end = pos + REC_HEADER_SIZE + payload_len
            if magic != WAL_MAGIC or end > len(data):
                out.torn_tail = True
                break
            payload = data[pos + REC_HEADER_SIZE : end]
            if crc != zlib.crc32(data[pos : pos + _REC_PREFIX_SIZE] + payload):
                out.torn_tail = True
                break
            out.n_records += 1
            if rec_type == REC_PAGE:
                staged.setdefault(txid, {})[page_id] = bytes(payload)
            elif rec_type == REC_COMMIT:
                out.images.update(staged.pop(txid, {}))
                out.last_txid = max(out.last_txid, txid)
            elif rec_type == REC_CHECKPOINT:
                # The device was durable at this point; earlier images are
                # superseded (only reachable when truncation was interrupted).
                staged.clear()
                out.images.clear()
                out.last_txid = max(out.last_txid, txid)
            else:
                raise StorageError(f"unknown WAL record type {rec_type}")
            pos = end
        else:
            if pos != len(data):
                out.torn_tail = True  # trailing bytes shorter than a header
        out.valid_bytes = pos
        return out

    def close(self) -> None:
        """Close the log file (no implicit sync)."""
        self._f.close()
