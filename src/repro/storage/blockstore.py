"""Block devices: fixed-size page I/O over memory or a regular file.

A :class:`BlockStore` is the raw device abstraction under the storage
engine — it reads and writes whole pages by id and knows how to make them
durable (:meth:`BlockStore.sync`).  Two backends:

* ``memory`` — a bytearray; no durability, the unit-test device;
* ``file`` — classic seek/read/write on a regular file with
  ``fsync``-backed :meth:`~BlockStore.sync` (the crash-injection harness
  wraps this backend's file object with a
  :class:`~repro.storage.faults.FaultyFile`).

Reads past the end of the device return zero-filled pages (which fail the
page CRC and are treated as never written), so recovery can probe any page
id without tracking the device length separately.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path

from repro.storage.page import DEFAULT_PAGE_SIZE, StorageError

__all__ = [
    "BLOCK_STORES",
    "BlockStore",
    "FileBlockStore",
    "MemoryBlockStore",
    "make_block_store",
]


class BlockStore(ABC):
    """Fixed-size page I/O: the device interface under the storage engine."""

    #: Registry key of the backend ("memory" / "file").
    kind: str = "abstract"

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < 64:
            raise ValueError(f"page_size must be >= 64, got {page_size}")
        self.page_size = int(page_size)

    @abstractmethod
    def read_page(self, page_id: int) -> bytes:
        """The ``page_size`` bytes of page ``page_id`` (zeros past the end)."""

    @abstractmethod
    def write_page(self, page_id: int, buf: bytes) -> None:
        """Overwrite page ``page_id``; the device grows as needed."""

    @abstractmethod
    def sync(self) -> None:
        """Make every completed write durable (fsync)."""

    @property
    @abstractmethod
    def n_pages(self) -> int:
        """Device length in pages (a torn tail counts as one page)."""

    def close(self) -> None:
        """Release the backing resources (no implicit sync)."""

    def _check_write(self, page_id: int, buf: bytes) -> None:
        if page_id < 0:
            raise ValueError(f"page id must be non-negative, got {page_id}")
        if len(buf) != self.page_size:
            raise ValueError(
                f"page writes must be exactly {self.page_size} bytes, got {len(buf)}"
            )

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryBlockStore(BlockStore):
    """An in-memory device (no durability; unit tests and dry runs)."""

    kind = "memory"

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        super().__init__(page_size)
        self._buf = bytearray()

    def read_page(self, page_id: int) -> bytes:
        start = page_id * self.page_size
        chunk = bytes(self._buf[start : start + self.page_size])
        return chunk + b"\x00" * (self.page_size - len(chunk))

    def write_page(self, page_id: int, buf: bytes) -> None:
        self._check_write(page_id, buf)
        end = (page_id + 1) * self.page_size
        if len(self._buf) < end:
            self._buf.extend(b"\x00" * (end - len(self._buf)))
        self._buf[page_id * self.page_size : end] = buf

    def sync(self) -> None:
        pass

    @property
    def n_pages(self) -> int:
        return -(-len(self._buf) // self.page_size)


class FileBlockStore(BlockStore):
    """Seek/read/write page I/O on a regular file.

    ``file_factory(path, mode)`` replaces the builtin ``open`` — the
    crash-injection harness passes a factory returning a
    :class:`~repro.storage.faults.FaultyFile` so every write and sync of
    the device goes through the fault injector.
    """

    kind = "file"

    def __init__(self, path, page_size: int = DEFAULT_PAGE_SIZE, file_factory=None):
        super().__init__(page_size)
        self.path = Path(path)
        factory = file_factory if file_factory is not None else open
        mode = "r+b" if self.path.exists() else "w+b"
        self._f = factory(self.path, mode)

    def read_page(self, page_id: int) -> bytes:
        self._f.seek(page_id * self.page_size)
        chunk = self._f.read(self.page_size)
        return chunk + b"\x00" * (self.page_size - len(chunk))

    def write_page(self, page_id: int, buf: bytes) -> None:
        self._check_write(page_id, buf)
        self._f.seek(page_id * self.page_size)
        self._f.write(buf)

    def sync(self) -> None:
        if hasattr(self._f, "sync"):  # FaultyFile intercepts fsync here
            self._f.sync()
        else:
            self._f.flush()
            os.fsync(self._f.fileno())

    @property
    def n_pages(self) -> int:
        pos = self._f.tell()
        size = self._f.seek(0, os.SEEK_END)
        self._f.seek(pos)
        return -(-size // self.page_size)

    def close(self) -> None:
        self._f.close()


#: Backend registry (the ``--store`` CLI knob and ``make_store`` use it).
BLOCK_STORES = {
    "memory": MemoryBlockStore,
    "file": FileBlockStore,
}


def make_block_store(
    kind: str, path=None, page_size: int = DEFAULT_PAGE_SIZE, **kwargs
) -> BlockStore:
    """Instantiate a registered backend (``memory`` needs no path)."""
    try:
        cls = BLOCK_STORES[kind]
    except KeyError:
        raise StorageError(
            f"unknown block store {kind!r} (choose from {sorted(BLOCK_STORES)})"
        ) from None
    if kind == "memory":
        return cls(page_size=page_size)
    if path is None:
        raise StorageError(f"block store {kind!r} requires a path")
    return cls(path, page_size=page_size, **kwargs)
