"""Declustering R-tree leaf pages (parallel R-trees, Kamel & Faloutsos).

The leaves of an R-tree are its disk pages; declustering them over M disks
parallelizes range queries exactly as for grid-file buckets.  The leaf MBRs
are ordinary boxes, so the proximity-based algorithms apply unchanged; the
Hilbert-centroid round robin is Kamel & Faloutsos' own proposal for
parallel R-trees (and the origin of the proximity index the paper adopts).
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.minimax import minimax_partition
from repro.core.optimal import optimal_response_times
from repro.core.ssp import short_spanning_path
from repro.sfc import HilbertCurve
from repro.sim.diskmodel import QueryEvaluation
from repro.rtree.rtree import RTree

__all__ = [
    "leaf_regions",
    "hilbert_leaf_assignment",
    "minimax_leaf_assignment",
    "ssp_leaf_assignment",
    "evaluate_rtree_queries",
]


def leaf_regions(tree: RTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf MBRs and domain lengths.

    Returns ``(lo, hi, lengths)`` with ``lo``/``hi`` the tree's read-only
    ``(n_leaves, d)`` leaf level and ``lengths`` the extent of the root MBR
    (the data domain the proximity index normalizes by).
    """
    if tree.n_records == 0:
        d = tree.dims
        return np.empty((0, d)), np.empty((0, d)), np.ones(d)
    lengths = np.maximum(tree.hi[-1][0] - tree.lo[-1][0], 1e-12)
    return tree.lo[0], tree.hi[0], lengths


def hilbert_leaf_assignment(tree: RTree, n_disks: int, bits: int = 12) -> np.ndarray:
    """Kamel–Faloutsos: order leaves by Hilbert value of their centroid,
    deal to disks round robin."""
    check_positive_int(n_disks, "n_disks")
    lo, hi, lengths = leaf_regions(tree)
    n = lo.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    centers = (lo + hi) / 2.0
    origin = tree.lo[-1][0]
    cells = ((centers - origin) / lengths * ((1 << bits) - 1)).astype(np.int64)
    cells = np.clip(cells, 0, (1 << bits) - 1)
    curve = HilbertCurve(dims=tree.dims, bits=min(bits, 62 // tree.dims))
    scale = (1 << curve.bits) - 1
    cells = (cells * scale // max(1, (1 << bits) - 1)).astype(np.int64)
    keys = curve.index(cells)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(keys, kind="stable")] = np.arange(n)
    return ranks % n_disks


def minimax_leaf_assignment(tree: RTree, n_disks: int, rng=None) -> np.ndarray:
    """The paper's minimax algorithm applied to leaf MBRs."""
    lo, hi, lengths = leaf_regions(tree)
    if lo.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return minimax_partition(lo, hi, lengths, min(n_disks, lo.shape[0]), rng=as_rng(rng))


def ssp_leaf_assignment(tree: RTree, n_disks: int, rng=None) -> np.ndarray:
    """Short-spanning-path declustering of the leaf MBRs."""
    check_positive_int(n_disks, "n_disks")
    lo, hi, lengths = leaf_regions(tree)
    n = lo.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = short_spanning_path(lo, hi, lengths, as_rng(rng))
    out = np.empty(n, dtype=np.int64)
    out[order] = np.arange(n) % n_disks
    return out


def evaluate_rtree_queries(
    tree: RTree, assignment: np.ndarray, queries, n_disks: int
) -> QueryEvaluation:
    """Response-time evaluation of a declustered R-tree (paper §2.2 metric).

    ``assignment`` maps each leaf (in leaf order) to a disk.
    """
    check_positive_int(n_disks, "n_disks")
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (tree.n_leaves,):
        raise ValueError(f"assignment must have shape ({tree.n_leaves},)")
    response = np.zeros(len(queries), dtype=np.int64)
    touched = np.empty(len(queries), dtype=np.int64)
    for qi, q in enumerate(queries):
        hit = tree.query_leaves(q.lo, q.hi)
        touched[qi] = hit.size
        if hit.size:
            response[qi] = np.bincount(assignment[hit], minlength=n_disks).max()
    return QueryEvaluation(
        response=response,
        buckets_touched=touched,
        optimal=optimal_response_times(touched, n_disks),
        n_disks=n_disks,
    )
