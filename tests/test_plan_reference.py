"""The vectorised coordinator plan against the per-bucket reference loop,
and the per-bucket coordinate-column cache against the grid file itself.

``Coordinator.plan`` counts every touched page's candidate and qualified
records with array work over cached coordinate columns; the reference
planner in :mod:`tests.oracles` walks the pages one by one and filters
with ``RangeQuery.contains``.  The two must agree field for field —
request order, each request's bucket order, every count and its Python
type — on every store kind, on degenerate boxes, and with several disks
per node.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Minimax
from repro.gridfile import GridFile, PartialMatchQuery, RangeQuery
from repro.parallel.coordinator import Coordinator
from repro.parallel.stores import GridFileStore, RTreeStore
from repro.rtree import RTree
from repro.sim import square_queries
from repro.sql.plan import RoutedQuery
from tests.oracles import reference_plan

DOMAIN = ([0.0, 0.0], [2000.0, 2000.0])
PLAN_DICTS = (
    "candidates_per_node",
    "qualified_per_node",
    "candidates_per_bucket",
    "qualified_per_bucket",
)


def assert_same_plan(got, want) -> None:
    assert got.query_id == want.query_id
    assert got.blocks_per_disk.dtype == want.blocks_per_disk.dtype
    np.testing.assert_array_equal(got.blocks_per_disk, want.blocks_per_disk)
    assert len(got.requests) == len(want.requests)
    for g, w in zip(got.requests, want.requests):
        assert (g.query_id, g.node_id, g.candidates, g.qualified, g.attempt) == (
            w.query_id, w.node_id, w.candidates, w.qualified, w.attempt
        )
        assert g.target_disks is None and w.target_disks is None
        assert {type(g.node_id), type(g.candidates), type(g.qualified)} == {int}
        assert g.bucket_ids.dtype == w.bucket_ids.dtype
        np.testing.assert_array_equal(g.bucket_ids, w.bucket_ids)
    for name in PLAN_DICTS:
        got_items = list(getattr(got, name).items())
        assert got_items == list(getattr(want, name).items()), name
        assert all(type(k) is int and type(v) is int for k, v in got_items), name


def _check(coord, queries) -> None:
    for i, q in enumerate(queries):
        assert_same_plan(coord.plan(i, q), reference_plan(coord, i, q))


@pytest.fixture(scope="module")
def clustered_gridfile():
    """Points crowded into one corner, so splits leave empty buddy buckets."""
    rng = np.random.default_rng(3)
    pts = np.concatenate(
        [
            rng.uniform(0, 2000, size=(200, 2)),
            np.clip(rng.normal(300, 60, size=(500, 2)), 0, 2000),
        ]
    )
    gf = GridFile.from_points(pts, *DOMAIN, capacity=12)
    assert (gf.bucket_sizes() == 0).any()
    return gf


@pytest.fixture(scope="module")
def workload():
    return square_queries(60, 0.1, *DOMAIN, rng=11) + square_queries(20, 0.4, *DOMAIN, rng=12)


@pytest.mark.parametrize("disks_per_node", [1, 2, 4])
def test_gridfile_store_matches_reference(clustered_gridfile, workload, disks_per_node):
    gf = clustered_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    _check(Coordinator(gf, assignment, 8, disks_per_node=disks_per_node), workload)


@pytest.mark.parametrize("disks_per_node", [1, 3])
def test_rtree_store_matches_reference(workload, disks_per_node):
    rng = np.random.default_rng(5)
    tree = RTree.bulk_load(rng.uniform(0, 2000, size=(900, 2)), max_entries=16)
    store = RTreeStore(tree)
    assignment = np.arange(store.n_pages, dtype=np.int64) % 6
    _check(Coordinator(store, assignment, 6, disks_per_node=disks_per_node), workload)


def test_routed_page_ids_match_reference_including_empty_pages(clustered_gridfile):
    gf = clustered_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    coord = Coordinator(gf, assignment, 8, disks_per_node=2)
    every_page = tuple(range(gf.n_buckets))
    empty_pages = tuple(int(b) for b in np.flatnonzero(gf.bucket_sizes() == 0))
    box = (np.array([100.0, 100.0]), np.array([500.0, 450.0]))
    queries = [
        RoutedQuery(*box, page_ids=every_page),
        RoutedQuery(*box, page_ids=empty_pages),
        RoutedQuery(*box, page_ids=every_page[::3]),
        RoutedQuery(*box, page_ids=()),
    ]
    _check(coord, queries)
    plan = coord.plan(0, queries[1])
    assert plan.blocks_per_disk.sum() == len(empty_pages)
    assert set(plan.candidates_per_bucket.values()) == {0}


def test_degenerate_boxes_match_reference(clustered_gridfile):
    gf = clustered_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    coord = Coordinator(gf, assignment, 8, disks_per_node=2)
    p = gf.coords()[17]
    queries = [
        # lo == hi on one axis: a partial match through a stored record.
        PartialMatchQuery({0: float(p[0])}).as_range(*DOMAIN),
        # lo == hi on every axis: exactly one stored point.
        RangeQuery(p.copy(), p.copy()),
        # Touches populated buckets but no record (a point between records).
        RangeQuery(np.array([1999.5, 1999.5]), np.array([1999.5, 1999.5])),
        # Touches nothing that holds records.
        RangeQuery(np.array([1990.0, 5.0]), np.array([1995.0, 6.0])),
    ]
    _check(coord, queries)
    assert coord.plan(0, queries[0]).total_qualified >= 1
    assert coord.plan(1, queries[1]).total_qualified >= 1
    assert coord.plan(2, queries[2]).total_qualified == 0


def test_plan_fills_the_cache_lazily_and_shares_it(clustered_gridfile, workload):
    gf = GridFile.from_points(clustered_gridfile.coords(), *DOMAIN, capacity=12)
    assignment = Minimax().assign(gf, 8, rng=0)
    coord = Coordinator(gf, assignment, 8)
    assert gf._columns_cache == {}
    plan = coord.plan(0, workload[0])
    touched = set(plan.candidates_per_bucket)
    assert set(gf._columns_cache) == touched
    b = next(iter(touched))
    assert GridFileStore(gf).page_columns(b) is coord.store.page_columns(b)


# ------------------------------------------------- page_columns vs the file


def _assert_columns_current(gf: GridFile) -> None:
    store = GridFileStore(gf)
    for b in range(gf.n_buckets):
        cols = store.page_columns(b)
        assert not cols.flags.writeable
        assert cols.shape == (gf.dims, gf.buckets[b].n_records)
        np.testing.assert_array_equal(cols, gf.points[gf.records_in_bucket(b)].T)


class _Events:
    def __init__(self):
        self.counts = {"split": 0, "merge": 0, "remove": 0}

    def on_split(self, gf, *_):
        self.counts["split"] += 1

    def on_merge(self, gf, *_):
        self.counts["merge"] += 1

    def on_remove(self, gf, bucket_id, moved_id):
        if moved_id is not None:
            self.counts["remove"] += 1


def _apply_stream(ops) -> dict:
    """Run inserts (``(True, x, y)``) and deletes (``(False, k, _)`` removes
    the ``k``-th live record, modulo) on a fresh small-capacity file,
    comparing every bucket's cached columns with the file after each op."""
    gf = GridFile.empty([0.0, 0.0], [100.0, 100.0], capacity=4)
    events = _Events()
    gf.add_listener(events)
    _assert_columns_current(gf)
    for is_insert, a, b in ops:
        if is_insert:
            gf.insert_point([a, b])
        else:
            live = gf.live_record_ids()
            if live.size == 0:
                continue
            gf.delete_record(int(live[int(a) % live.size]))
        _assert_columns_current(gf)
    return events.counts


coord_values = st.floats(0.0, 100.0, allow_nan=False).map(lambda v: round(v, 1))


@settings(max_examples=40)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just(True), coord_values, coord_values),
            st.tuples(st.just(False), st.integers(0, 10_000), st.just(0.0)),
        ),
        max_size=120,
    )
)
def test_page_columns_follow_any_insert_delete_stream(ops):
    _apply_stream(ops)


def test_page_columns_follow_splits_merges_and_renumbering():
    rng = np.random.default_rng(9)
    grow = [(True, *rng.uniform(0, 100, 2).round(1).tolist()) for _ in range(150)]
    shrink = [(False, int(k), 0.0) for k in rng.integers(0, 10_000, 140)]
    counts = _apply_stream(grow + shrink)
    assert counts["split"] > 0 and counts["merge"] > 0 and counts["remove"] > 0


def test_direct_record_writers_invalidate_everything():
    pts = np.random.default_rng(2).uniform(0, 100, (60, 2))
    gf = GridFile.from_points(pts, [0, 0], [100, 100], capacity=8)
    _assert_columns_current(gf)
    a, b = np.flatnonzero(gf.bucket_sizes())[:2].tolist()
    gf.buckets[b].record_ids.extend(gf.buckets[a].record_ids)
    gf.buckets[a].record_ids = []
    gf.invalidate_caches()
    _assert_columns_current(gf)
