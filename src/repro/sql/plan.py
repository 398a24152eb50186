"""Cost-based access-path planning for ``SELECT`` statements.

The planner scores up to three access paths for every query and picks the
cheapest estimated *response time* — the same quantity the paper's R(q)
analysis minimizes (the max over disks of blocks served, times the disk
service time, plus coordinator CPU):

``gridfile``
    Resolve the query box against the grid directory.  CPU is the
    directory lookup plus ``plan_time_per_bucket`` per directory *cell*
    touched; I/O fetches every nonempty bucket overlapping the box.
    Expected pages follow the uniform-directory estimate
    ``cells_hit * B_ne / n_cells`` (clipped to ``[1, B_ne]``).

``rtree``
    Descend a secondary STR R-tree to the exact matching records, then
    fetch only the buckets that *contain matches*.  Expected leaf visits
    use the Kamel–Faloutsos overlap formula
    ``n_leaves * prod_k min(1, (s_k + bar_l_k) / L_k)``; expected
    qualifying records use uniform selectivity ``n * prod_k s_k / L_k``;
    expected distinct buckets holding them use Cardenas' formula
    ``B_ne * (1 - (1 - 1/B_ne)**r_q)``.  This path wins partial-match /
    equality queries: the grid directory must touch a whole slab of cells
    while the R-tree touches only leaves overlapping a measure-zero plane,
    and Cardenas predicts almost no data pages for the few matches.

``scan``
    Fetch all ``B_ne`` nonempty buckets with *zero* lookup CPU and filter
    every record.  Wins when the box covers (nearly) the whole domain.

All three paths declusters their page set over the ``M`` disks of the
cluster, so estimated I/O is ``service_time(ceil(pages / M))`` — the
balanced lower bound of the paper's R(q).

The planner also *resolves* the chosen path: the exact page ids to fetch
(carried to the cluster by :class:`RoutedQuery`) and the exact matching
record ids (SQL semantics are checked here — strict ``<``/``>``/``!=``
predicates filter the closed-box candidate set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.gridfile.knn import knn_query as gridfile_knn
from repro.gridfile.query import RangeQuery
from repro.rtree.rtree import knn_query as rtree_knn
from repro.sql.ast import Between, Nearest, Select
from repro.sql.errors import SqlError

__all__ = [
    "RoutedQuery",
    "PathEstimate",
    "SelectPlan",
    "bound_box",
    "predicate_mask",
    "plan_select",
]

#: Fixed preference order used only to break exact cost ties deterministically.
_TIE_ORDER = {"gridfile": 0, "rtree": 1, "scan": 2}


@dataclass(frozen=True)
class RoutedQuery(RangeQuery):
    """A :class:`RangeQuery` whose touched pages were resolved by the planner.

    ``Coordinator.plan`` honours ``page_ids`` when present instead of
    re-resolving against the store, so the cluster fetches exactly the
    access path's page set (e.g. only match-holding buckets on the R-tree
    path).  ``page_ids`` is a sorted tuple of ints to keep the dataclass
    hashable/frozen.
    """

    page_ids: tuple = ()


@dataclass(frozen=True)
class PathEstimate:
    """Cost-model output for one access path (seconds, analytic)."""

    path: str
    est_cells: float  # directory cells / leaf visits driving plan CPU
    est_pages: float  # expected data buckets fetched
    cpu_s: float  # coordinator lookup + plan CPU
    io_s: float  # declustered fetch: service_time(ceil(pages / M))
    filter_s: float  # candidate filtering CPU

    @property
    def total_s(self) -> float:
        return self.cpu_s + self.io_s + self.filter_s


@dataclass
class SelectPlan:
    """A planned (and resolved) ``SELECT``: what to fetch, what matches."""

    select: Select
    chosen: str
    estimates: dict = field(default_factory=dict)  # path -> PathEstimate
    page_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    record_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    routed: "RoutedQuery | None" = None

    def explain(self) -> str:
        """Deterministic multi-line EXPLAIN rendering."""
        lines = [f"access path: {self.chosen}"]
        for name in sorted(self.estimates, key=lambda n: _TIE_ORDER[n]):
            e = self.estimates[name]
            mark = "*" if name == self.chosen else " "
            lines.append(
                f"  {mark} {name:<8} cells={e.est_cells:.1f} "
                f"pages={e.est_pages:.1f} cpu={e.cpu_s:.3e}s "
                f"io={e.io_s:.3e}s filter={e.filter_s:.3e}s "
                f"total={e.total_s:.3e}s"
            )
        lines.append(
            f"  fetch: {self.page_ids.size} page(s), {self.record_ids.size} row(s)"
        )
        return "\n".join(lines)


# --------------------------------------------------------------- binding


def _dim_of(columns, pred) -> int:
    names = [c.name for c in columns]
    try:
        return names.index(pred.column)
    except ValueError:
        raise SqlError(
            f"unknown column {pred.column!r} (table has {', '.join(names)})",
            pred.line,
            pred.column_no,
        ) from None


def bound_box(columns, where) -> "tuple[np.ndarray, np.ndarray, bool]":
    """Closed bounding hull of a predicate conjunction over the table domain.

    Strict predicates contribute their closed hull (the exact filter
    re-checks strictness later); ``!=`` contributes nothing.  Returns
    ``(lo, hi, empty)`` — ``empty`` when the conjunction is unsatisfiable.
    """
    lo = np.asarray([c.lo for c in columns], dtype=np.float64)
    hi = np.asarray([c.hi for c in columns], dtype=np.float64)
    for pred in where:
        k = _dim_of(columns, pred)
        if isinstance(pred, Between):
            lo[k] = max(lo[k], float(pred.lo))
            hi[k] = min(hi[k], float(pred.hi))
        elif pred.op in ("<", "<="):
            hi[k] = min(hi[k], float(pred.value))
        elif pred.op in (">", ">="):
            lo[k] = max(lo[k], float(pred.value))
        elif pred.op == "=":
            lo[k] = max(lo[k], float(pred.value))
            hi[k] = min(hi[k], float(pred.value))
        # "!=" does not constrain the hull.
    return lo, hi, bool(np.any(lo > hi))


def predicate_mask(where, columns, coords: np.ndarray) -> np.ndarray:
    """Exact SQL-semantics mask of the conjunction over ``(n, d)`` coords."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    mask = np.ones(coords.shape[0], dtype=bool)
    for pred in where:
        v = coords[:, _dim_of(columns, pred)]
        if isinstance(pred, Between):
            mask &= (v >= pred.lo) & (v <= pred.hi)
        elif pred.op == "<":
            mask &= v < pred.value
        elif pred.op == "<=":
            mask &= v <= pred.value
        elif pred.op == ">":
            mask &= v > pred.value
        elif pred.op == ">=":
            mask &= v >= pred.value
        elif pred.op == "=":
            mask &= v == pred.value
        else:  # "!="
            mask &= v != pred.value
    return mask


# ----------------------------------------------------------- cost model


def _io_time(params, pages: float, n_disks: int) -> float:
    """Declustered fetch time: the balanced R(q) bound ceil(pages/M) blocks."""
    if pages <= 0:
        return 0.0
    return params.disk.service_time(int(math.ceil(pages / max(1, n_disks))))


def _grid_stats(gf):
    sizes = gf.bucket_sizes()
    b_ne = int(np.count_nonzero(sizes))
    avg_occ = (gf.n_records / b_ne) if b_ne else 0.0
    return b_ne, avg_occ


def _selectivity(gf, lo, hi) -> float:
    """Uniform-data volume fraction of the (closed) box.

    A degenerate dimension (equality predicate) contributes zero — on
    continuous uniform data an exact-match plane is expected to hold ~no
    records, which is precisely why the R-tree path (fetch only buckets
    holding actual matches) beats the grid path (fetch every bucket the
    directory slab overlaps) on partial-match queries.  Callers floor the
    resulting record estimate at one.
    """
    frac = 1.0
    for k in range(gf.dims):
        length = float(gf.scales.domain_hi[k] - gf.scales.domain_lo[k])
        overlap = max(0.0, min(hi[k], gf.scales.domain_hi[k]) - max(lo[k], gf.scales.domain_lo[k]))
        frac *= min(1.0, overlap / length) if length > 0 else 1.0
    return frac


def _estimate_gridfile(gf, lo, hi, params, n_disks) -> PathEstimate:
    b_ne, avg_occ = _grid_stats(gf)
    cells = 1
    for k in range(gf.dims):
        start, stop = gf.scales.cell_range_for_interval(k, float(lo[k]), float(hi[k]))
        cells *= max(0, stop - start)
    n_cells = max(1, gf.scales.n_cells)
    pages = min(float(b_ne), max(1.0, cells * b_ne / n_cells)) if b_ne else 0.0
    cpu = params.lookup_time + params.plan_time_per_bucket * cells
    return PathEstimate(
        path="gridfile",
        est_cells=float(cells),
        est_pages=pages,
        cpu_s=cpu,
        io_s=_io_time(params, pages, n_disks),
        filter_s=params.cpu_filter_per_record * avg_occ * pages,
    )


def _cardenas(b_ne: int, records: float) -> float:
    """Expected distinct buckets hit by ``records`` uniform draws (Cardenas)."""
    if b_ne <= 0 or records <= 0:
        return 0.0
    return b_ne * (1.0 - (1.0 - 1.0 / b_ne) ** records)


def _estimate_rtree(tree, gf, lo, hi, params, n_disks) -> PathEstimate:
    b_ne, _ = _grid_stats(gf)
    n_leaves = tree.n_leaves
    # Kamel–Faloutsos: expected leaves whose MBR overlaps the query box.
    overlap_frac = 1.0
    if tree.n_records:
        avg_side = (tree.hi[0] - tree.lo[0]).mean(axis=0)
        for k in range(gf.dims):
            length = float(gf.scales.domain_hi[k] - gf.scales.domain_lo[k])
            s_k = max(0.0, float(hi[k] - lo[k]))
            if length > 0:
                overlap_frac *= min(1.0, (s_k + float(avg_side[k])) / length)
    est_leaves = max(1.0, n_leaves * overlap_frac)
    est_qual = max(1.0, gf.n_records * _selectivity(gf, lo, hi)) if gf.n_records else 0.0
    pages = _cardenas(b_ne, est_qual)
    avg_leaf = tree.n_records / n_leaves
    cpu = params.lookup_time * tree.height() + params.plan_time_per_bucket * est_leaves
    return PathEstimate(
        path="rtree",
        est_cells=est_leaves,
        est_pages=pages,
        cpu_s=cpu,
        io_s=_io_time(params, pages, n_disks),
        filter_s=params.cpu_filter_per_record * est_leaves * avg_leaf,
    )


def _estimate_scan(gf, params, n_disks) -> PathEstimate:
    b_ne, _ = _grid_stats(gf)
    return PathEstimate(
        path="scan",
        est_cells=0.0,
        est_pages=float(b_ne),
        cpu_s=0.0,
        io_s=_io_time(params, b_ne, n_disks),
        filter_s=params.cpu_filter_per_record * gf.n_records,
    )


def _estimate_knn(gf, tree, nearest: Nearest, params, n_disks, path: str) -> PathEstimate:
    b_ne, avg_occ = _grid_stats(gf)
    need = math.ceil(nearest.k / avg_occ) if avg_occ else 0.0
    # Branch-and-bound visits a neighbourhood around the k-holding buckets.
    visit = min(float(b_ne), 3.0 * max(1.0, need)) if b_ne else 0.0
    if path == "gridfile":
        cpu = params.lookup_time + params.plan_time_per_bucket * visit
        filt = params.cpu_filter_per_record * avg_occ * visit
        cells = visit
    else:  # rtree
        leaves = tree.n_leaves
        avg_leaf = tree.n_records / leaves
        visit_leaves = min(float(leaves), 3.0 * max(1.0, nearest.k / max(1.0, avg_leaf)))
        cpu = params.lookup_time * tree.height() + params.plan_time_per_bucket * visit_leaves
        filt = params.cpu_filter_per_record * avg_leaf * visit_leaves
        visit = _cardenas(b_ne, float(nearest.k))
        cells = visit_leaves
    return PathEstimate(
        path=path,
        est_cells=cells,
        est_pages=visit,
        cpu_s=cpu,
        io_s=_io_time(params, visit, n_disks),
        filter_s=filt,
    )


# ------------------------------------------------------------ resolution


def _owning_buckets(gf, rids: np.ndarray) -> np.ndarray:
    """Distinct nonempty buckets holding the given records (sorted)."""
    if rids.size == 0:
        return np.empty(0, dtype=np.int64)
    cells = np.atleast_2d(gf.scales.locate(gf.points[rids]))
    return np.unique(gf.directory.buckets_at(cells)).astype(np.int64)


def _resolve_range(gf, tree_info, columns, where, lo, hi, empty, chosen):
    """Exact (page_ids, record_ids) for the chosen path on a range query."""
    if empty:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if chosen == "gridfile":
        pages = np.sort(gf.query_buckets(lo, hi)).astype(np.int64)
        cand = gf.query_records(lo, hi)
        rids = cand[predicate_mask(where, columns, gf.points[cand])] if cand.size else cand
        return pages, np.sort(rids).astype(np.int64)
    if chosen == "rtree":
        tree, rid_map = tree_info
        pos = tree.query_records(lo, hi)
        rids = rid_map[pos] if pos.size else pos.astype(np.int64)
        if rids.size:
            rids = rids[predicate_mask(where, columns, gf.points[rids])]
        rids = np.sort(rids).astype(np.int64)
        return _owning_buckets(gf, rids), rids
    # scan
    pages = np.sort(gf.nonempty_bucket_ids()).astype(np.int64)
    cand = gf.live_record_ids()
    if cand.size:
        box = (gf.points[cand] >= lo).all(axis=1) & (gf.points[cand] <= hi).all(axis=1)
        cand = cand[box]
        if cand.size:
            cand = cand[predicate_mask(where, columns, gf.points[cand])]
    return pages, np.sort(cand).astype(np.int64)


def _resolve_knn(gf, tree_info, nearest: Nearest, chosen):
    """Exact (page_ids, record_ids) for ``NEAREST k``; rids in distance order."""
    if chosen == "rtree":
        tree, rid_map = tree_info
        pos, _ = rtree_knn(tree, np.asarray(nearest.point, dtype=np.float64), nearest.k)
        rids = rid_map[pos] if pos.size else pos.astype(np.int64)
    else:
        rids, _ = gridfile_knn(gf, np.asarray(nearest.point, dtype=np.float64), nearest.k)
    if chosen == "scan":
        pages = np.sort(gf.nonempty_bucket_ids()).astype(np.int64)
    else:
        pages = _owning_buckets(gf, rids)
    return pages, rids.astype(np.int64)


# --------------------------------------------------------------- driver


def plan_select(select: Select, columns, gf, tree_info, allowed, params, n_disks) -> SelectPlan:
    """Score the allowed access paths, pick the cheapest, resolve it.

    Parameters
    ----------
    columns:
        The table's :class:`~repro.sql.ast.ColumnDef` tuple (binds WHERE).
    gf:
        The table's live :class:`~repro.gridfile.GridFile`.
    tree_info:
        ``(RTree, rid_map)`` when the table maintains a secondary R-tree
        (``rid_map`` maps tree-positional ids to grid-file record ids),
        else ``None``.
    allowed:
        Access paths declared by ``USING`` (``scan`` is always allowed).
    """
    nearest = select.nearest
    if nearest is not None:
        if len(nearest.point) != len(columns):
            raise SqlError(
                f"NEAREST point has {len(nearest.point)} coordinates, "
                f"table has {len(columns)} columns",
                select.line,
                select.column_no,
            )
        lo = np.asarray(nearest.point, dtype=np.float64)
        hi = lo
        empty = False
    else:
        lo, hi, empty = bound_box(columns, select.where)

    estimates: dict = {}
    if nearest is not None:
        if "gridfile" in allowed:
            estimates["gridfile"] = _estimate_knn(gf, None, nearest, params, n_disks, "gridfile")
        if "rtree" in allowed and tree_info is not None:
            estimates["rtree"] = _estimate_knn(gf, tree_info[0], nearest, params, n_disks, "rtree")
        estimates["scan"] = _estimate_scan(gf, params, n_disks)
    else:
        if "gridfile" in allowed:
            estimates["gridfile"] = _estimate_gridfile(gf, lo, hi, params, n_disks)
        if "rtree" in allowed and tree_info is not None:
            estimates["rtree"] = _estimate_rtree(tree_info[0], gf, lo, hi, params, n_disks)
        estimates["scan"] = _estimate_scan(gf, params, n_disks)

    chosen = min(estimates, key=lambda n: (estimates[n].total_s, _TIE_ORDER[n]))

    if nearest is not None:
        pages, rids = _resolve_knn(gf, tree_info, nearest, chosen)
        if rids.size:
            pts = gf.points[rids]
            q_lo, q_hi = pts.min(axis=0), pts.max(axis=0)
        else:
            q_lo = q_hi = np.asarray(nearest.point, dtype=np.float64)
    else:
        pages, rids = _resolve_range(gf, tree_info, columns, select.where, lo, hi, empty, chosen)
        if empty:
            q_lo = q_hi = np.asarray([c.lo for c in columns], dtype=np.float64)
        else:
            q_lo, q_hi = lo, hi

    routed = RoutedQuery(q_lo, q_hi, page_ids=tuple(int(p) for p in pages))
    return SelectPlan(
        select=select,
        chosen=chosen,
        estimates=estimates,
        page_ids=pages,
        record_ids=rids,
        routed=routed,
    )
