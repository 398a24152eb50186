"""R-trees: the tree-based alternative storage structure (paper §1).

The paper positions grid files against tree-based multidimensional indexes
(Guttman's R-tree) and borrows its proximity index from Kamel & Faloutsos'
*parallel R-trees* — R-trees whose leaf pages are declustered over a disk
farm.  This package provides that comparison substrate:

* :class:`~repro.rtree.rtree.RTree` — a Sort-Tile-Recursive (STR)
  bulk-loaded R-tree stored as per-level MBR arrays, with range queries and
  best-first k-nearest neighbours;
* :mod:`~repro.rtree.decluster` — declustering of the leaf pages with the
  same algorithms used for grid files (minimax / SSP over leaf MBRs, the
  Kamel–Faloutsos Hilbert-centroid round robin, random), and response-time
  evaluation compatible with :class:`repro.sim.QueryEvaluation`.

``benchmarks/bench_ext_rtree.py`` runs the head-to-head the paper implies:
same dataset, same workload, grid file vs R-tree, each under its best
declustering.
"""

from repro.rtree.decluster import (
    evaluate_rtree_queries,
    hilbert_leaf_assignment,
    leaf_regions,
    minimax_leaf_assignment,
    ssp_leaf_assignment,
)
from repro.rtree.rtree import RTree, knn_query as rtree_knn_query

__all__ = [
    "RTree",
    "rtree_knn_query",
    "leaf_regions",
    "hilbert_leaf_assignment",
    "minimax_leaf_assignment",
    "ssp_leaf_assignment",
    "evaluate_rtree_queries",
]
