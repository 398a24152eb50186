"""Grid files and Cartesian product files (the paper's storage substrate).

A *grid file* (Nievergelt & Hinterberger, TODS 1984) partitions a
d-dimensional domain with per-dimension **scales** (sorted split points); the
cross product of the intervals forms **cells** (the paper's "subspaces"); a
**grid directory** maps every cell to a data **bucket**; and — the property
that distinguishes grid files from Cartesian product files — multiple
neighbouring cells may share one bucket ("merged subspaces") as long as the
bucket's cell region stays box-shaped.

This package provides:

* :class:`~repro.gridfile.gridfile.GridFile` — dynamic inserts with bucket
  splitting and directory refinement, plus a bulk loader for large datasets;
* :func:`~repro.gridfile.cartesian.cartesian_product_file` — the special
  case where every cell is its own bucket (used by the analytic theorems);
* :class:`~repro.gridfile.query.RangeQuery` and query processing;
* :func:`~repro.gridfile.persistence.export_declustered`, which writes the
  paper's simulator layout (one file per disk).
"""

from repro.gridfile.bucket import Bucket
from repro.gridfile.bulkload import bulk_load
from repro.gridfile.cartesian import cartesian_product_file, cartesian_scales
from repro.gridfile.directory import Directory
from repro.gridfile.gridfile import GridFile
from repro.gridfile.knn import knn_query
from repro.gridfile.persistence import export_declustered
from repro.gridfile.query import PartialMatchQuery, RangeQuery
from repro.gridfile.regions import CellBox
from repro.gridfile.scales import Scales

__all__ = [
    "Bucket",
    "CellBox",
    "Directory",
    "GridFile",
    "knn_query",
    "PartialMatchQuery",
    "RangeQuery",
    "Scales",
    "bulk_load",
    "cartesian_product_file",
    "cartesian_scales",
    "export_declustered",
]
