"""Records and query boxes at and beyond the edge of a grid file's domain.

* Non-finite coordinates are refused on every way in (``insert_point``,
  ``from_points``, ``bulk_load``) with an error that names the row and the
  dimension: a NaN fails both ``<`` and ``>`` domain tests, so it used to
  be stored in a bucket no query could reach.
* :class:`RangeQuery` refuses NaN bounds and keeps infinite ones.
* A box disjoint from the domain intersects no cell, so it resolves to no
  bucket on the per-query and the batched path alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridfile import GridFile, RangeQuery, bulk_load


def _fifty_points() -> GridFile:
    pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(50, 2))
    return GridFile.from_points(pts, [0.0, 0.0], [1.0, 1.0], capacity=4)


class TestNonFiniteRecords:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_insert_point_rejects(self, bad):
        gf = _fifty_points()
        with pytest.raises(ValueError, match=r"dimension 0: coordinate .* is not finite"):
            gf.insert_point([bad, 0.5])
        # Nothing was stored: every record is still reachable.
        assert gf.n_records == 50
        assert gf.query_records([0.0, 0.0], [1.0, 1.0]).size == 50
        gf.check_invariants()

    def test_from_points_names_row_and_dimension(self):
        pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(51, 2))
        pts[17, 1] = np.nan
        with pytest.raises(ValueError, match=r"row 17, dimension 1: coordinate nan is not finite"):
            GridFile.from_points(pts, [0.0, 0.0], [1.0, 1.0], capacity=4)

    def test_bulk_load_names_row_and_dimension(self):
        pts = np.random.default_rng(2).uniform(0.0, 1.0, size=(40, 3))
        pts[3, 2] = np.nan
        with pytest.raises(ValueError, match=r"row 3, dimension 2"):
            bulk_load(pts, np.zeros(3), np.ones(3), capacity=4)

    def test_out_of_domain_names_row_and_dimension(self):
        pts = np.full((5, 2), 0.5)
        pts[4, 0] = 1.5
        with pytest.raises(ValueError, match=r"row 4, dimension 0: coordinate 1.5 outside domain"):
            GridFile.from_points(pts, [0.0, 0.0], [1.0, 1.0], capacity=4)
        with pytest.raises(ValueError, match=r"outside domain"):
            bulk_load(pts, [0.0, 0.0], [1.0, 1.0], capacity=4)

    def test_check_invariants_catches_a_planted_nan(self):
        gf = _fifty_points()
        gf.points[7, 1] = np.nan
        with pytest.raises(AssertionError, match="non-finite"):
            gf.check_invariants()

    def test_check_invariants_catches_a_record_outside_the_domain(self):
        gf = _fifty_points()
        gf.points[7, 0] = 2.0
        with pytest.raises(AssertionError, match="outside the domain"):
            gf.check_invariants()

    def test_deleted_records_are_not_checked(self):
        gf = _fifty_points()
        gf.delete_record(7)
        gf.points[7] = np.nan
        gf.check_invariants()


class TestRangeQueryBounds:
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_rejects_nan(self, side):
        lo, hi = np.zeros(3), np.ones(3)
        {"lo": lo, "hi": hi}[side][2] = np.nan
        with pytest.raises(ValueError, match=rf"{side}\[2\] is NaN"):
            RangeQuery(lo, hi)

    def test_infinite_bounds_allowed(self):
        q = RangeQuery([-np.inf, 0.0], [np.inf, 1.0])
        gf = _fifty_points()
        assert gf.query_records(q.lo, q.hi).size == 50
        assert q.contains(np.array([[1e300, 0.5]])).all()


class TestBoxesOutsideTheDomain:
    BOXES = [
        ([2.0, 2.0], [3.0, 3.0]),
        ([-3.0, -3.0], [-2.0, -2.0]),
        ([0.2, 1.5], [0.4, 2.0]),
        ([-1.0, 0.2], [-1e-9, 0.4]),
        ([1.0 + 1e-9, 0.0], [np.inf, 1.0]),
    ]

    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("lo,hi", BOXES)
    def test_resolves_to_no_bucket(self, lo, hi, include_empty):
        gf = _fifty_points()
        assert gf.query_buckets(lo, hi, include_empty=include_empty).size == 0
        ids, offsets = gf.batch_query_buckets([lo], [hi], include_empty=include_empty)
        assert ids.size == 0 and offsets.tolist() == [0, 0]
        assert gf.query_records(lo, hi).size == 0

    @pytest.mark.parametrize("lo,hi", [([np.nan, 0.0], [np.nan, 1.0]), ([0.0, 0.0], [np.nan, 1.0])])
    def test_nan_bounds_resolve_to_no_bucket(self, lo, hi):
        # RangeQuery refuses NaN; raw bounds contain no point either.
        gf = _fifty_points()
        assert gf.query_buckets(lo, hi, include_empty=True).size == 0
        assert gf.batch_query_buckets([lo], [hi], include_empty=True)[0].size == 0
        assert gf.query_records(lo, hi).size == 0

    def test_touching_the_edge_still_intersects(self):
        gf = _fifty_points()
        assert gf.query_buckets([1.0, 1.0], [2.0, 2.0], include_empty=True).size == 1
        assert gf.query_buckets([-1.0, -1.0], [0.0, 0.0], include_empty=True).size == 1

    def test_interval_ranges_are_empty(self):
        scales = _fifty_points().scales
        for lo, hi in [(2.0, 3.0), (-3.0, -2.0)]:
            start, stop = scales.cell_range_for_interval(0, lo, hi)
            assert start == stop
        starts, stops = scales.cell_ranges_for_boxes([[2.0, 0.5], [-3.0, 0.5]], [[3.0, 0.6], [-2.0, 0.6]])
        assert (starts[:, 0] == stops[:, 0]).all()
        assert (starts[:, 1] < stops[:, 1]).all()
