"""Bulk loading of large grid files.

The paper's large files (DSMC.3d with 52 857 records, stock.3d with 127 026,
and the 4-d SP-2 file with millions) are impractical to build record by
record in pure Python.  The bulk loader reproduces the same *structure* a
dynamically grown grid file reaches:

1. fix the scales up front — per-dimension boundaries at data quantiles
   (equi-depth, the shape adaptive insertion converges to) or equal-width;
2. histogram the records over the resulting cells;
3. build buckets by recursive **buddy splitting** of the whole cell grid:
   a box whose record count fits in a bucket becomes one (merged) bucket,
   otherwise it is halved along its longest cell axis and both halves recurse.

Step 3 yields exactly the grid-file invariant (box regions, buddy
splittability) and produces merged buckets over sparse regions and
fine-grained buckets over hot spots — e.g. the paper's 16x12x8 = 1536
subspaces merging into ~444 buckets for DSMC.3d.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.gridfile.bucket import Bucket
from repro.gridfile.directory import Directory
from repro.gridfile.gridfile import GridFile
from repro.gridfile.regions import CellBox
from repro.gridfile.scales import Scales

__all__ = ["bulk_load", "quantile_boundaries", "equal_width_boundaries"]


def quantile_boundaries(values: np.ndarray, n_intervals: int, lo: float, hi: float) -> np.ndarray:
    """Equi-depth interior boundaries: ``n_intervals - 1`` data quantiles.

    Duplicate quantiles (heavy ties in the data) are dropped, so the returned
    scale may have fewer intervals than requested; boundaries are strictly
    inside ``(lo, hi)``.
    """
    check_positive_int(n_intervals, "n_intervals")
    if n_intervals == 1:
        return np.empty(0, dtype=np.float64)
    qs = np.linspace(0.0, 1.0, n_intervals + 1)[1:-1]
    b = np.quantile(values, qs)
    b = np.unique(b)
    return b[(b > lo) & (b < hi)]


def equal_width_boundaries(n_intervals: int, lo: float, hi: float) -> np.ndarray:
    """Equal-width interior boundaries (``n_intervals - 1`` of them)."""
    check_positive_int(n_intervals, "n_intervals")
    return np.linspace(lo, hi, n_intervals + 1)[1:-1]


def _buddy_split(counts: np.ndarray, capacity: int) -> list[CellBox]:
    """Recursively halve the cell grid into boxes holding <= capacity records.

    Splits along the dimension with the largest cell span (ties to the lowest
    dimension), at the span midpoint — the buddy-system discipline that keeps
    regions re-mergeable.  Boxes that cannot shrink further (single cell)
    become buckets regardless of count.
    """
    d = counts.ndim
    full = CellBox(np.zeros(d, dtype=np.int64), np.asarray(counts.shape, dtype=np.int64))
    out: list[CellBox] = []
    stack = [full]
    while stack:
        box = stack.pop()
        total = int(counts[box.slices()].sum())
        if total <= capacity or box.n_cells == 1:
            out.append(box)
            continue
        k = int(np.argmax(box.span))
        cut = int(box.lo[k] + box.span[k] // 2)
        lower, upper = box.split_at(k, cut)
        stack.append(upper)
        stack.append(lower)
    return out


def bulk_load(
    points: np.ndarray,
    domain_lo,
    domain_hi,
    capacity: int,
    resolution=None,
    scale_mode: str = "quantile",
) -> GridFile:
    """Construct a grid file for ``points`` without per-record insertion.

    Parameters
    ----------
    points:
        ``(n, d)`` record coordinates inside the domain.
    domain_lo, domain_hi:
        Closed data domain.
    capacity:
        Records per bucket.
    resolution:
        Number of scale intervals per dimension.  ``None`` derives a uniform
        target from ``n / capacity`` (enough cells that buddy splitting can
        isolate hot spots).  The paper quotes explicit resolutions for its
        datasets (e.g. 16x12x8 for DSMC.3d); pass them here.
    scale_mode:
        ``"quantile"`` (equi-depth, default) or ``"equal"`` (equal width).

    Returns
    -------
    GridFile
        A fully populated grid file satisfying ``check_invariants``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = points.shape
    check_positive_int(capacity, "capacity", minimum=2)
    domain_lo = np.asarray(domain_lo, dtype=np.float64)
    domain_hi = np.asarray(domain_hi, dtype=np.float64)
    Scales(domain_lo, domain_hi).check_points(points)

    if resolution is None:
        per_dim = max(2, int(np.ceil((2.0 * n / capacity) ** (1.0 / d))))
        resolution = (per_dim,) * d
    if len(resolution) != d:
        raise ValueError(f"resolution must have {d} entries")

    boundaries = []
    for k in range(d):
        if scale_mode == "quantile":
            b = quantile_boundaries(points[:, k], int(resolution[k]), domain_lo[k], domain_hi[k])
        elif scale_mode == "equal":
            b = equal_width_boundaries(int(resolution[k]), domain_lo[k], domain_hi[k])
        else:
            raise ValueError(f"unknown scale_mode {scale_mode!r}")
        boundaries.append(b)
    scales = Scales(domain_lo, domain_hi, boundaries)

    cells = scales.locate(points)
    shape = scales.nintervals
    flat = np.ravel_multi_index(tuple(cells[:, k] for k in range(d)), shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)

    boxes = _buddy_split(counts, capacity)

    directory = Directory(shape, fill=-1)
    buckets = []
    for bid, box in enumerate(boxes):
        directory.set_box(box, bid)
        buckets.append(Bucket(bid, box))
    assert (directory.grid >= 0).all()

    owner = directory.grid.reshape(-1)[flat]
    order = np.argsort(owner, kind="stable")
    sorted_owner = owner[order]
    starts = np.searchsorted(sorted_owner, np.arange(len(buckets)))
    ends = np.searchsorted(sorted_owner, np.arange(len(buckets)) + 1)
    for bid, (s, e) in enumerate(zip(starts, ends)):
        buckets[bid].record_ids = order[s:e].tolist()
        if e - s > capacity:
            buckets[bid].overflowed = True

    return GridFile(scales, directory, buckets, points, capacity)
