"""Tests for k-nearest-neighbour queries (grid file + R-tree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridfile import GridFile, bulk_load, knn_query
from repro.gridfile.knn import min_distance_to_boxes
from repro.rtree import RTree, rtree_knn_query


def brute_knn(pts, q, k):
    d = np.sqrt(((pts - q) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(pts)), d))[:k]
    return order, d[order]


class TestMinDistance:
    def test_inside_is_zero(self):
        lo = np.array([[0.0, 0.0]])
        hi = np.array([[2.0, 2.0]])
        assert min_distance_to_boxes(np.array([1.0, 1.0]), lo, hi)[0] == 0.0

    def test_face_and_corner(self):
        lo = np.array([[0.0, 0.0]])
        hi = np.array([[1.0, 1.0]])
        assert min_distance_to_boxes(np.array([2.0, 0.5]), lo, hi)[0] == pytest.approx(1.0)
        assert min_distance_to_boxes(np.array([2.0, 2.0]), lo, hi)[0] == pytest.approx(np.sqrt(2))


class TestGridFileKnn:
    def test_matches_brute_force(self, rng):
        pts = rng.uniform(0, 100, size=(1000, 2))
        gf = bulk_load(pts, [0, 0], [100, 100], capacity=20)
        for _ in range(25):
            q = rng.uniform(0, 100, 2)
            k = int(rng.integers(1, 20))
            ids, d = knn_query(gf, q, k)
            want_ids, want_d = brute_knn(pts, q, k)
            assert np.array_equal(ids, want_ids)
            assert np.allclose(d, want_d)

    def test_k_exceeds_records(self, rng):
        pts = rng.uniform(0, 1, size=(5, 2))
        gf = bulk_load(pts, [0, 0], [1, 1], capacity=4)
        ids, d = knn_query(gf, [0.5, 0.5], 50)
        assert ids.size == 5
        assert (np.diff(d) >= 0).all()

    def test_k1_is_nearest(self, rng):
        pts = rng.uniform(0, 1, size=(200, 2))
        gf = bulk_load(pts, [0, 0], [1, 1], capacity=10)
        q = np.array([0.3, 0.7])
        ids, _ = knn_query(gf, q, 1)
        assert ids[0] == brute_knn(pts, q, 1)[0][0]

    def test_respects_deletions(self, rng):
        pts = rng.uniform(0, 100, size=(100, 2))
        gf = GridFile.from_points(pts, [0, 0], [100, 100], capacity=10)
        q = pts[7]
        assert knn_query(gf, q, 1)[0][0] == 7
        gf.delete_record(7)
        nid, _ = knn_query(gf, q, 1)
        assert nid[0] != 7

    def test_empty_file(self):
        gf = GridFile.empty([0, 0], [1, 1], capacity=4)
        ids, d = knn_query(gf, [0.5, 0.5], 3)
        assert ids.size == 0

    def test_validation(self, small_gridfile):
        with pytest.raises(ValueError):
            knn_query(small_gridfile, [1.0], 3)
        with pytest.raises(ValueError):
            knn_query(small_gridfile, [1.0, 1.0], 0)


class TestRTreeKnn:
    def test_matches_brute_force(self, rng):
        pts = rng.uniform(0, 100, size=(1000, 3))
        t = RTree.bulk_load(pts, max_entries=25)
        for _ in range(20):
            q = rng.uniform(0, 100, 3)
            k = int(rng.integers(1, 15))
            ids, d = rtree_knn_query(t, q, k)
            want_ids, want_d = brute_knn(pts, q, k)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(d, want_d)

    def test_empty_tree(self):
        t = RTree(2)
        ids, d = rtree_knn_query(t, [0.5, 0.5], 3)
        assert ids.size == 0

    def test_validation(self, rng):
        t = RTree.bulk_load(rng.uniform(0, 1, size=(10, 2)))
        with pytest.raises(ValueError):
            rtree_knn_query(t, [0.5], 1)
        with pytest.raises(ValueError):
            rtree_knn_query(t, [0.5, 0.5], 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
def test_knn_agreement_property(seed, k):
    """Property: grid file, R-tree and brute force agree on kNN."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 300))
    pts = rng.uniform(0, 1, size=(n, 2))
    gf = bulk_load(pts, [0, 0], [1, 1], capacity=max(2, n // 8))
    t = RTree.bulk_load(pts, max_entries=max(2, n // 8))
    q = rng.uniform(0, 1, 2)
    g_ids, _ = knn_query(gf, q, k)
    r_ids, _ = rtree_knn_query(t, q, k)
    want, _ = brute_knn(pts, q, k)
    assert np.array_equal(g_ids, want)
    assert np.array_equal(r_ids, want)
