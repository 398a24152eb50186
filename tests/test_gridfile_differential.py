"""Differential tests: incremental builds vs bulk loads, batched vs per-query.

Two independent code paths exist for the same question in several places;
these tests pin them against each other:

* a grid file grown by :meth:`GridFile.insert_point` and one built by
  :func:`repro.gridfile.bulk_load` over the same points partition the data
  differently, but ``query_records`` must return identical answer sets;
* :meth:`GridFile.batch_query_buckets` (one vectorized ``searchsorted``
  sweep for the whole workload) must agree with per-query
  :meth:`GridFile.query_buckets` on every query, including the edge cases:
  empty buckets included, zero-volume boxes, and boxes entirely outside
  the populated region.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import brute_force_query
from repro.gridfile import GridFile, bulk_load
from repro.sim import square_queries

DOMAIN = ([0.0, 0.0], [100.0, 100.0])


def _points(seed: int, n: int = 800) -> np.ndarray:
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0, 100, size=(n // 2, 2))
    cluster = np.clip(rng.normal(60, 8, size=(n - n // 2, 2)), 0, 100)
    return np.concatenate([uniform, cluster])


class TestIncrementalVsBulk:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_records_identical(self, seed):
        pts = _points(seed)
        inc = GridFile.from_points(pts, *DOMAIN, capacity=24)
        blk = bulk_load(pts, *DOMAIN, capacity=24)
        queries = square_queries(80, 0.03, *DOMAIN, rng=seed)
        for q in queries:
            a = inc.query_records(q.lo, q.hi)
            b = blk.query_records(q.lo, q.hi)
            assert np.array_equal(a, b)
            assert np.array_equal(a, brute_force_query(pts, q.lo, q.hi))

    def test_full_domain_and_point_queries(self):
        pts = _points(7)
        inc = GridFile.from_points(pts, *DOMAIN, capacity=24)
        blk = bulk_load(pts, *DOMAIN, capacity=24)
        lo, hi = np.array(DOMAIN[0]), np.array(DOMAIN[1])
        assert np.array_equal(
            inc.query_records(lo, hi), blk.query_records(lo, hi)
        )
        assert inc.query_records(lo, hi).size == len(pts)
        # Zero-volume box exactly on a data point.
        p = pts[17]
        assert np.array_equal(inc.query_records(p, p), blk.query_records(p, p))
        assert 17 in inc.query_records(p, p)

    def test_after_deletions(self):
        """The equivalence survives merges on the incremental side."""
        pts = _points(11, n=600)
        inc = GridFile.from_points(pts, *DOMAIN, capacity=24)
        rng = np.random.default_rng(11)
        victims = rng.choice(len(pts), size=250, replace=False)
        inc.delete_records(victims)
        keep = np.setdiff1d(np.arange(len(pts)), victims)
        queries = square_queries(40, 0.05, *DOMAIN, rng=11)
        for q in queries:
            got = inc.query_records(q.lo, q.hi)
            exp = keep[
                np.all((pts[keep] >= q.lo) & (pts[keep] <= q.hi), axis=1)
            ]
            assert np.array_equal(got, np.sort(exp))


class TestBatchQueryParity:
    """``batch_query_buckets`` ≡ ``query_buckets``, per query, bit-for-bit."""

    @pytest.fixture(scope="class")
    def gf(self):
        gf = GridFile.from_points(_points(3), *DOMAIN, capacity=24)
        # Carve out some empty buckets so the size filter has work to do.
        inside = gf.live_record_ids()
        box_mask = np.all(
            (gf.points[inside] >= [40, 40]) & (gf.points[inside] <= [55, 55]),
            axis=1,
        )
        gf.delete_records(inside[box_mask])
        return gf

    def _assert_parity(self, gf, los, his, include_empty):
        ids, offsets = gf.batch_query_buckets(los, his, include_empty=include_empty)
        assert offsets[0] == 0 and offsets[-1] == ids.size
        for i in range(los.shape[0]):
            per = gf.query_buckets(los[i], his[i], include_empty=include_empty)
            batch = ids[offsets[i] : offsets[i + 1]]
            assert np.array_equal(np.sort(per), batch), i

    @pytest.mark.parametrize("include_empty", [False, True])
    def test_random_workload(self, gf, include_empty):
        queries = square_queries(120, 0.04, *DOMAIN, rng=9)
        los = np.array([q.lo for q in queries])
        his = np.array([q.hi for q in queries])
        self._assert_parity(gf, los, his, include_empty)

    @pytest.mark.parametrize("include_empty", [False, True])
    def test_zero_volume_boxes(self, gf, include_empty):
        # Degenerate boxes: on data points, on scale boundaries, at corners.
        pts = [
            gf.points[int(gf.live_record_ids()[0])],
            np.array([0.0, 0.0]),
            np.array([100.0, 100.0]),
            np.array([float(gf.scales.edges(0)[1]), 50.0]),
        ]
        los = np.array(pts)
        self._assert_parity(gf, los, los.copy(), include_empty)

    @pytest.mark.parametrize("include_empty", [False, True])
    def test_fully_outside_domain(self, gf, include_empty):
        """Boxes beyond the domain resolve to no bucket on both paths.

        Their cell range is empty in the dimension they miss, so neither
        path returns a bucket, and no *records* ever qualify.
        """
        los = np.array([[-50.0, -50.0], [150.0, 20.0], [20.0, 150.0]])
        his = np.array([[-10.0, -10.0], [200.0, 30.0], [30.0, 200.0]])
        self._assert_parity(gf, los, his, include_empty)
        ids, _ = gf.batch_query_buckets(los, his, include_empty=include_empty)
        assert ids.size == 0
        for lo, hi in zip(los, his):
            assert gf.query_records(lo, hi).size == 0

    def test_empty_workload(self, gf):
        ids, offsets = gf.batch_query_buckets(
            np.empty((0, 2)), np.empty((0, 2))
        )
        assert ids.size == 0
        assert np.array_equal(offsets, np.zeros(1, dtype=np.int64))

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(-20, 120, allow_nan=False),
                st.floats(-20, 120, allow_nan=False),
                st.floats(0, 40, allow_nan=False),
                st.floats(0, 40, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        include_empty=st.booleans(),
    )
    def test_property_parity(self, gf, data, include_empty):
        los = np.array([[x, y] for x, y, _, _ in data])
        his = np.array([[x + w, y + h] for x, y, w, h in data])
        self._assert_parity(gf, los, his, include_empty)
