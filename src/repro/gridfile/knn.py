"""k-nearest-neighbour queries over grid files.

Grid files support NN search by examining buckets in order of their
regions' minimum distance to the query point, stopping as soon as the next
bucket cannot contain anything closer than the current k-th best — the
standard branch-and-bound argument.  With at most a few thousand buckets,
computing all bucket min-distances vectorized and scanning them sorted is
both simple and fast; the early-exit bound keeps the number of *record*
evaluations small.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int, euclidean_norms
from repro.gridfile.gridfile import GridFile

__all__ = ["knn_query", "min_distance_to_boxes"]


def min_distance_to_boxes(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean distance from a point to each closed box (0 if inside)."""
    point = np.asarray(point, dtype=np.float64)
    gap = np.maximum(np.maximum(lo - point, point - hi), 0.0)
    return euclidean_norms(gap)


def knn_query(gf: GridFile, point, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` records nearest to ``point`` (Euclidean).

    Parameters
    ----------
    gf:
        The grid file.
    point:
        Query point, shape ``(d,)``.
    k:
        Number of neighbours (capped at the number of live records).

    Returns
    -------
    (record_ids, distances):
        Both of length ``min(k, n_records)``, ordered by ascending distance
        (ties broken by record id, deterministically).
    """
    check_positive_int(k, "k")
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (gf.dims,):
        raise ValueError(f"point must have shape ({gf.dims},)")
    k = min(k, gf.n_records)
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)

    lo, hi = gf.bucket_regions()
    mind = min_distance_to_boxes(point, lo, hi)
    sizes = gf.bucket_sizes()
    order = np.argsort(mind, kind="stable")

    best_ids: list[int] = []
    best_d: list[float] = []
    kth = np.inf
    for bid in order:
        if sizes[bid] == 0:
            continue
        if mind[bid] > kth:
            break
        rec = gf.records_in_bucket(int(bid))
        d = euclidean_norms(gf.points[rec] - point)
        best_ids.extend(rec.tolist())
        best_d.extend(d.tolist())
        if len(best_ids) >= k:
            # Keep only the current k best and update the bound.
            idx = np.lexsort((best_ids, best_d))[:k]
            best_ids = [best_ids[i] for i in idx]
            best_d = [best_d[i] for i in idx]
            kth = best_d[-1]
    idx = np.lexsort((best_ids, best_d))[:k]
    return (
        np.asarray([best_ids[i] for i in idx], dtype=np.int64),
        np.asarray([best_d[i] for i in idx]),
    )
