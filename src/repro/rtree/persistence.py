"""Saving/loading R-trees.

An R-tree is a deterministic function of its points and page capacity
(:meth:`RTree.bulk_load`), so the archive stores just those two and
loading rebuilds the tree: leaf order — the declustering domain that
assignments index — round-trips exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.rtree.rtree import RTree

__all__ = ["save_rtree", "load_rtree"]


def save_rtree(tree: RTree, path) -> None:
    """Serialize an R-tree to a single ``.npz`` archive."""
    np.savez_compressed(Path(path), points=tree.coords(), max_entries=tree.max_entries)


def load_rtree(path) -> RTree:
    """Load an R-tree saved with :func:`save_rtree`.

    Raises ``ValueError`` for an archive in the older node-list format
    (per-node entries and MBRs), which this module no longer reads.
    """
    with np.load(Path(path)) as z:
        if "max_entries" not in z.files:
            raise ValueError(f"{path}: not a points + max_entries R-tree archive")
        return RTree.bulk_load(z["points"], max_entries=int(z["max_entries"]))
