"""The batch planner against the per-query reference, and eager runs
against runs planned one query at a time.

``Coordinator.plan_batch`` resolves a whole workload with one store call
(``PageStore.query_pages_batch``) and groups every query's pages with one
sort.  Each of its plans must equal ``reference_plan`` (``tests.oracles``)
field for field and type for type, on grid-file and R-tree stores, with
routed page sets mixed into a batch, on empty, inverted and out-of-domain
boxes, on files whose deletes left empty buckets and with several disks per
node.  Records are counted query by query, so a store that builds page
columns per call never holds more than one query's columns.
"""

from __future__ import annotations

import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Minimax
from repro.gridfile import GridFile, RangeQuery
from repro.parallel import ClusterParams, FaultPlan, ParallelGridFile, RequestPipeline
from repro.parallel.coordinator import Coordinator
from repro.parallel.stores import RTreeStore
from repro.rtree import RTree
from repro.sim import square_queries
from repro.sql.plan import RoutedQuery
from tests.oracles import reference_plan
from tests.test_plan_reference import assert_same_plan

LO, HI = 0.0, 100.0


def _gridfile_with_deletes() -> GridFile:
    """A file whose deletes emptied a corner, so some buckets hold nothing."""
    rng = np.random.default_rng(21)
    gf = GridFile.from_points(rng.uniform(LO, HI, size=(400, 2)), [LO, LO], [HI, HI], capacity=6)
    pts = gf.coords()
    for rid in np.flatnonzero((pts[:, 0] < 45) & (pts[:, 1] < 45)).tolist():
        gf.delete_record(rid)
    assert (gf.bucket_sizes() == 0).any()
    return gf


def _rtree_store() -> RTreeStore:
    rng = np.random.default_rng(22)
    return RTreeStore(RTree.bulk_load(rng.uniform(LO, HI, size=(300, 2)), max_entries=9))


STORES = {"gridfile": _gridfile_with_deletes(), "rtree": _rtree_store()}

coord_value = st.floats(-30.0, 130.0, allow_nan=False)


class _Box:
    """A bare query box: unlike ``RangeQuery`` it may be inverted."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def contains(self, points):
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)


@st.composite
def queries(draw, n_pages: int):
    """A routed page set, a box inside or outside the domain, or an
    inverted box."""
    lo = np.array(draw(st.tuples(coord_value, coord_value)))
    hi = lo + np.array(draw(st.tuples(st.floats(0, 60), st.floats(0, 60))))
    kind = draw(st.sampled_from(["routed", "box", "box", "inverted"]))
    if kind == "routed":
        pages = draw(st.lists(st.integers(0, n_pages - 1), unique=True, max_size=12))
        return RoutedQuery(lo, hi, page_ids=tuple(pages))
    if kind == "inverted":
        return _Box(hi, lo - np.array(draw(st.tuples(st.floats(0, 5), st.floats(0.01, 5)))))
    return RangeQuery(lo, hi)


@pytest.mark.parametrize("kind", sorted(STORES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plan_batch_matches_reference(kind, data):
    store = STORES[kind]
    n_pages = store.n_buckets if kind == "gridfile" else store.n_pages
    disks_per_node = data.draw(st.sampled_from([1, 2, 4]), label="disks_per_node")
    assignment = np.random.default_rng(n_pages).integers(0, 8, size=n_pages)
    coord = Coordinator(store, assignment, 8, disks_per_node=disks_per_node)
    batch = data.draw(st.lists(queries(n_pages), max_size=24), label="batch")
    plans = coord.plan_batch(batch)
    assert len(plans) == len(batch)
    for i, (plan, q) in enumerate(zip(plans, batch)):
        assert_same_plan(plan, reference_plan(coord, i, q))
        assert_same_plan(coord.plan(i, q), plan)


@pytest.mark.parametrize("disks_per_node", [1, 4])
def test_large_mixed_batch_matches_reference(disks_per_node):
    """Thirty queries with routed, empty, out-of-domain and inverted queries
    in the middle."""
    gf = STORES["gridfile"]
    assignment = np.arange(gf.n_buckets) % 8
    coord = Coordinator(gf, assignment, 8, disks_per_node=disks_per_node)
    batch = square_queries(30, 0.3, [LO, LO], [HI, HI], rng=5)
    empty_pages = tuple(np.flatnonzero(gf.bucket_sizes() == 0).tolist())
    batch[3] = RoutedQuery(batch[3].lo, batch[3].hi, page_ids=empty_pages[:4] + (0, 7))
    batch[7] = RoutedQuery(batch[7].lo, batch[7].hi, page_ids=())
    batch[11] = RangeQuery(np.array([150.0, 150.0]), np.array([160.0, 170.0]))
    batch[12] = RangeQuery(np.array([-50.0, -50.0]), np.array([200.0, 200.0]))
    batch[20] = _Box(np.array([60.0, 60.0]), np.array([40.0, 70.0]))
    for i, (plan, q) in enumerate(zip(coord.plan_batch(batch), batch)):
        assert_same_plan(plan, reference_plan(coord, i, q))
    assert coord.plan_batch(batch)[12].blocks_per_disk.sum() == np.count_nonzero(
        gf.bucket_sizes()
    )


def test_plan_batch_of_nothing():
    coord = Coordinator(STORES["gridfile"], np.zeros(STORES["gridfile"].n_buckets, int), 2)
    assert coord.plan_batch([]) == []


class _LiveColumnsStore(RTreeStore):
    """An R-tree store (fresh page columns on every call) that records the
    most column arrays it has handed out that were alive at once."""

    def __init__(self, tree):
        super().__init__(tree)
        self.handed_out: list = []
        self.peak_alive = 0

    def page_columns(self, page_id: int) -> np.ndarray:
        cols = super().page_columns(page_id)
        self.handed_out = [r for r in self.handed_out if r() is not None]
        self.handed_out.append(weakref.ref(cols))
        self.peak_alive = max(self.peak_alive, len(self.handed_out))
        return cols


def test_plan_batch_holds_one_querys_page_columns_at_a_time():
    store = _LiveColumnsStore(STORES["rtree"].tree)
    coord = Coordinator(store, np.arange(store.n_pages) % 4, 4)
    batch = square_queries(20, 0.1, [LO, LO], [HI, HI], rng=11)
    plans = coord.plan_batch(batch)
    pages = [int(p.blocks_per_disk.sum()) for p in plans]
    assert sum(pages) > 2 * max(pages)
    assert store.peak_alive == max(pages)


def test_query_pages_batch_is_per_query_resolution():
    store = Coordinator(STORES["gridfile"], np.zeros(STORES["gridfile"].n_buckets, int), 1).store
    batch = square_queries(30, 0.2, [LO, LO], [HI, HI], rng=3)
    batch[4] = RoutedQuery(batch[4].lo, batch[4].hi, page_ids=(5, 1, 3))
    ids, offsets = store.query_pages_batch(batch)
    assert ids.dtype == offsets.dtype == np.int64
    for i, q in enumerate(batch):
        want = np.array([5, 1, 3]) if i == 4 else store.query_pages(q.lo, q.hi)
        np.testing.assert_array_equal(ids[offsets[i] : offsets[i + 1]], want)


# --------------------------------------- eager runs vs per-query planning


def _assert_same_report(got, want) -> None:
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


@pytest.mark.parametrize(
    "params,faults",
    [
        (ClusterParams(), None),
        (ClusterParams(disks_per_node=2, pipeline_depth=3, cache_blocks=8), None),
        (
            ClusterParams(replication="chained", disks_per_node=2),
            FaultPlan(seed=3).node_crash(0.05, node=1).node_recover(0.4, node=1),
        ),
    ],
)
def test_run_queries_equals_a_run_planned_query_by_query(small_gridfile, params, faults):
    gf = small_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    pgf = ParallelGridFile(gf, assignment, 8, params)
    batch = square_queries(40, 0.1, [0, 0], [2000, 2000], rng=9)
    eager = pgf.run_queries(batch, faults=faults)
    lazy = RequestPipeline(pgf, batch, faults=faults, lazy_plan=True).run_closed()
    _assert_same_report(eager, lazy)
