"""Crash-safe on-disk storage: pages, block devices, WAL and recovery.

The simulator's analytic disk model (``repro.parallel``) answers *how
long* I/O takes; this package answers *whether the data survives*.  It
provides real durable storage for grid files:

* :mod:`~repro.storage.page` — checksummed page format (magic, page id,
  LSN, CRC32) detecting torn writes, bit flips and wrong-slot writes;
* :mod:`~repro.storage.blockstore` — block devices (``memory`` /
  ``file``);
* :mod:`~repro.storage.allocator` — page allocator with a persistent
  free-list;
* :mod:`~repro.storage.wal` — write-ahead log with physical redo and
  torn-tail recovery;
* :mod:`~repro.storage.engine` — single-writer transactional engine
  (meta page, commit protocol, :meth:`~repro.storage.engine.StorageEngine.recover`,
  :meth:`~repro.storage.engine.StorageEngine.fsck`);
* :mod:`~repro.storage.gridstore` — a live
  :class:`~repro.gridfile.GridFile` paged onto the engine
  (:class:`~repro.storage.gridstore.DurableGridFile`);
* :mod:`~repro.storage.faults` / :mod:`~repro.storage.harness` — fault
  injection (killed writes, dropped fsyncs, bit flips) and the
  crash-at-every-write-boundary matrix that proves recovery is
  byte-perfect.

See ``docs/storage.md`` for the on-disk formats and the recovery
protocol.
"""

from repro.storage.allocator import PageAllocator
from repro.storage.blockstore import (
    BLOCK_STORES,
    BlockStore,
    FileBlockStore,
    MemoryBlockStore,
    make_block_store,
)
from repro.storage.engine import (
    DATA_FILE,
    DURABILITY_MODES,
    META_PAGE,
    WAL_FILE,
    FsckReport,
    RecoveryReport,
    StorageEngine,
)
from repro.storage.faults import CrashClock, FaultyFile, InjectedCrash
from repro.storage.gridstore import DurableGridFile
from repro.storage.harness import (
    CrashMatrixReport,
    default_workload,
    enumerate_boundaries,
    run_crash_matrix,
    run_workload,
)
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    HEADER_SIZE,
    PAGE_MAGIC,
    PageCorruptionError,
    PageHeader,
    StorageError,
    hexdump,
    pack_page,
    unpack_page,
)
from repro.storage.wal import (
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_HEADER_SIZE,
    REC_PAGE,
    WalReplay,
    WriteAheadLog,
)

__all__ = [
    "BLOCK_STORES",
    "DATA_FILE",
    "DEFAULT_PAGE_SIZE",
    "DURABILITY_MODES",
    "HEADER_SIZE",
    "META_PAGE",
    "PAGE_MAGIC",
    "REC_CHECKPOINT",
    "REC_COMMIT",
    "REC_HEADER_SIZE",
    "REC_PAGE",
    "WAL_FILE",
    "BlockStore",
    "CrashClock",
    "CrashMatrixReport",
    "DurableGridFile",
    "FaultyFile",
    "FileBlockStore",
    "FsckReport",
    "InjectedCrash",
    "MemoryBlockStore",
    "PageAllocator",
    "PageCorruptionError",
    "PageHeader",
    "RecoveryReport",
    "StorageEngine",
    "StorageError",
    "WalReplay",
    "WriteAheadLog",
    "default_workload",
    "enumerate_boundaries",
    "hexdump",
    "make_block_store",
    "pack_page",
    "run_crash_matrix",
    "run_workload",
    "unpack_page",
]
