"""Tests for the array-backed STR R-tree (build and queries)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import euclidean_norms
from repro.rtree import RTree, rtree_knn_query
from tests.conftest import brute_force_query
from tests.oracles import str_rtree_reference


def assert_matches_reference(t: RTree, pts: np.ndarray, max_entries: int) -> None:
    """The array tree equals the loop-built STR tree leaf for leaf, level for level."""
    leaves, levels = str_rtree_reference(pts, max_entries)
    assert t.n_leaves == len(leaves)
    assert [t.leaf_records(j).tolist() for j in range(t.n_leaves)] == leaves
    assert t.height() == max(1, len(levels))
    for level, boxes in enumerate(levels):
        assert np.array_equal(t.lo[level], np.array([lo for lo, _ in boxes]))
        assert np.array_equal(t.hi[level], np.array([hi for _, hi in boxes]))


def brute_knn(pts, q, k):
    """The k nearest records by linear scan, ties by record id."""
    d = euclidean_norms(pts - q)
    order = np.lexsort((np.arange(len(pts)), d))[:k]
    return order, d[order]


@st.composite
def str_cases(draw):
    """Points (with duplicated coordinates) and a page capacity, sized
    around the boundaries where STR adds a leaf or a level."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(2, 32))
    n = draw(
        st.one_of(
            st.sampled_from([0, 1, m - 1, m, m + 1, m * m, m * m + 1]),
            st.integers(0, 300),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.round(rng.uniform(0, 10, size=(n, d)), decimals=int(rng.integers(0, 3)))
    if n > 1:
        # One third of the rows repeat an earlier row.
        dup = rng.integers(0, n, size=n // 3)
        pts[rng.integers(0, n, size=dup.size)] = pts[dup]
    return pts, m, rng


@settings(max_examples=60, deadline=None)
@given(str_cases())
def test_rtree_property(case):
    """Property: the array tree matches the loop-built reference, and range
    and kNN results match brute force (ids, distances and tie order)."""
    pts, m, rng = case
    n, d = pts.shape
    t = RTree.bulk_load(pts, max_entries=m)
    assert_matches_reference(t, pts, m)
    _, levels = str_rtree_reference(pts, m)
    for _ in range(5):
        lo = rng.uniform(-1, 9, d)
        hi = lo + rng.uniform(0, 5, d)
        if levels:
            leaf_lo = np.array([b[0] for b in levels[0]])
            leaf_hi = np.array([b[1] for b in levels[0]])
            want = np.flatnonzero(np.all(leaf_lo <= hi, axis=1) & np.all(lo <= leaf_hi, axis=1))
        else:
            want = np.empty(0, dtype=np.int64)
        assert np.array_equal(t.query_leaves(lo, hi), want)
        assert np.array_equal(t.query_records(lo, hi), brute_force_query(pts, lo, hi))
        q = rng.uniform(0, 10, d)
        for k in (1, 5, 40):
            ids, dist = rtree_knn_query(t, q, k)
            want_ids, want_d = brute_knn(pts, q, k)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(dist, want_d)


class TestConstruction:
    def test_defaults(self):
        t = RTree(2, max_entries=12)
        assert t.n_records == 0
        assert t.n_leaves == 1
        assert t.height() == 1
        assert t.leaf_records(0).size == 0

    def test_rejects_wrong_point_shape(self):
        with pytest.raises(ValueError):
            RTree.bulk_load(np.zeros(3))
        with pytest.raises(ValueError):
            RTree(2, max_entries=1)


class TestBulkLoad:
    def test_structure(self, rng):
        pts = rng.uniform(0, 1, size=(5000, 2))
        t = RTree.bulk_load(pts, max_entries=50)
        assert_matches_reference(t, pts, 50)
        assert t.n_records == 5000
        assert t.n_leaves >= 100
        assert sorted(t.order.tolist()) == list(range(5000))

    def test_empty(self):
        t = RTree.bulk_load(np.empty((0, 2)))
        assert t.n_records == 0
        assert t.n_leaves == 1
        assert t.query_leaves([0, 0], [1, 1]).size == 0
        assert t.query_records([0, 0], [1, 1]).size == 0

    def test_tiny(self):
        pts = np.array([[0.5, 0.5]])
        t = RTree.bulk_load(pts, max_entries=4)
        assert t.height() == 1
        assert_matches_reference(t, pts, 4)

    def test_queries_match_brute_force(self, rng):
        pts = rng.uniform(0, 1, size=(3000, 2)) ** 2  # skewed
        t = RTree.bulk_load(pts, max_entries=40)
        for _ in range(25):
            lo = rng.uniform(0, 0.7, 2)
            hi = lo + rng.uniform(0, 0.3, 2)
            assert np.array_equal(t.query_records(lo, hi), brute_force_query(pts, lo, hi))

    def test_str_leaves_tight(self, rng):
        """STR leaves overlap far less than worst-case random grouping."""
        pts = rng.uniform(0, 1, size=(2000, 2))
        t = RTree.bulk_load(pts, max_entries=40)
        areas = np.prod(t.hi[0] - t.lo[0], axis=1)
        # Total leaf area stays near the domain area (low overlap).
        assert areas.sum() < 2.0

    def test_leaf_fill(self, rng):
        pts = rng.uniform(0, 1, size=(1000, 2))
        t = RTree.bulk_load(pts, max_entries=50)
        fills = np.diff(t.leaf_start)
        assert fills.max() <= 50
        assert fills.mean() > 25  # STR packs pages well


class TestEquivalenceWithGridFile:
    def test_same_answers(self, rng):
        """R-tree and grid file agree on every query (both exact)."""
        from repro.gridfile import bulk_load as gf_bulk

        pts = rng.uniform(0, 100, size=(1500, 2))
        t = RTree.bulk_load(pts, max_entries=30)
        gf = gf_bulk(pts, [0, 0], [100, 100], capacity=30)
        for _ in range(20):
            lo = rng.uniform(0, 70, 2)
            hi = lo + rng.uniform(0, 30, 2)
            assert np.array_equal(t.query_records(lo, hi), gf.query_records(lo, hi))
