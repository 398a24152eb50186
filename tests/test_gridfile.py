"""Tests for dynamic grid files: insertion, splitting, refinement, queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridfile import GridFile, PartialMatchQuery
from tests.conftest import brute_force_query


class TestEmpty:
    def test_structure(self):
        gf = GridFile.empty([0, 0], [1, 1], capacity=4)
        assert gf.n_records == 0
        assert gf.n_buckets == 1
        assert gf.dims == 2
        gf.check_invariants()

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            GridFile.empty([0, 0], [1, 1], capacity=1)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            GridFile.empty([0, 0], [1, 1], capacity=4, split_policy="widest")


class TestInsert:
    def test_single_insert(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=4)
        rid = gf.insert_point([1.0, 2.0])
        assert rid == 0
        assert gf.n_records == 1
        assert gf.coords().tolist() == [[1.0, 2.0]]
        gf.check_invariants()

    def test_rejects_out_of_domain(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=4)
        with pytest.raises(ValueError):
            gf.insert_point([11.0, 0.0])
        with pytest.raises(ValueError):
            gf.insert_point([-0.1, 0.0])

    def test_rejects_wrong_shape(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=4)
        with pytest.raises(ValueError):
            gf.insert_point([1.0])

    def test_overflow_triggers_split(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=4)
        for x in (1.0, 2.0, 3.0, 6.0, 7.0):
            gf.insert_point([x, 5.0])
        assert gf.n_buckets == 2
        assert gf.scales.n_cells >= 2
        gf.check_invariants()

    def test_split_separates_records(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=2)
        for x in (1.0, 2.0, 8.0):
            gf.insert_point([x, 5.0])
        sizes = gf.bucket_sizes()
        assert sizes.max() <= 2
        gf.check_invariants()

    def test_growth_reallocates(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=4, reserve=2)
        for i in range(10):
            gf.insert_point([i, i])
        assert gf.n_records == 10
        gf.check_invariants()

    def test_identical_points_overflow_flag(self):
        """Coincident points cannot be separated: bucket overflows gracefully."""
        gf = GridFile.empty([0, 0], [10, 10], capacity=3)
        for _ in range(7):
            gf.insert_point([5.0, 5.0])
        assert gf.n_records == 7
        stats = gf.stats()
        assert stats.n_overflowed >= 1
        gf.check_invariants()

    def test_adjacent_floats_at_domain_edge_overflow(self):
        """Values one ulp below the domain's upper edge have no boundary.

        The midpoint of 1 - 2**-53 and 1.0 rounds to 1.0, the domain edge,
        so no scale boundary can separate the records: the bucket is
        flagged overflowed instead (the slow stateful suite's example).
        """
        gf = GridFile.empty([0, 0], [1, 1], capacity=6)
        for _ in range(6):
            gf.insert_point((1.0, 1.0))
        gf.insert_point((1.0, 0.9999999999999999))
        assert gf.n_records == 7
        assert gf.n_buckets == 1
        assert gf.buckets[0].overflowed
        gf.check_invariants()
        # The file stays usable; like any overflowed bucket, this one takes
        # further records in place until deletes bring it under capacity.
        gf.insert_point((0.1, 0.1))
        assert gf.n_records == 8
        gf.check_invariants()

    def test_duplicates_plus_spread_still_works(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=3)
        for _ in range(5):
            gf.insert_point([5.0, 5.0])
        for x in np.linspace(0.5, 9.5, 20):
            gf.insert_point([x, x])
        assert gf.n_records == 25
        gf.check_invariants()

    def test_boundary_point_insert(self):
        """Points exactly on a freshly created boundary stay queryable."""
        gf = GridFile.empty([0, 0], [8, 8], capacity=2, split_policy="midpoint")
        pts = [[2.0, 2.0], [4.0, 4.0], [6.0, 6.0], [4.0, 2.0], [2.0, 6.0]]
        for p in pts:
            gf.insert_point(p)
        gf.check_invariants()
        got = gf.query_records([4.0, 0.0], [4.0, 8.0])
        want = brute_force_query(gf.coords(), [4.0, 0.0], [4.0, 8.0])
        assert np.array_equal(got, want)


class TestSplitPolicies:
    @pytest.mark.parametrize("policy", ["midpoint", "median"])
    def test_policy_builds_valid_file(self, points_2d, policy):
        gf = GridFile.from_points(points_2d, [0, 0], [2000, 2000], 30, split_policy=policy)
        gf.check_invariants()
        assert gf.n_records == len(points_2d)

    def test_midpoint_prefers_interval_middle(self):
        gf = GridFile.empty([0, 0], [8, 8], capacity=2, split_policy="midpoint")
        for p in ([1.0, 1.0], [2.0, 1.0], [6.0, 1.0]):
            gf.insert_point(p)
        # First refinement should cut dim 0 at 4.0 (the interval midpoint).
        assert 4.0 in gf.scales.boundaries[0].tolist()

    def test_median_separates_at_data(self):
        gf = GridFile.empty([0, 0], [100, 100], capacity=2, split_policy="median")
        for p in ([1.0, 1.0], [2.0, 1.0], [3.0, 1.0]):
            gf.insert_point(p)
        b = gf.scales.boundaries[0]
        assert b.size == 1 and 1.0 < b[0] <= 3.0


class TestStructure(object):
    def test_stats_consistency(self, small_gridfile):
        s = small_gridfile.stats()
        assert s.n_records == 1000
        assert s.n_buckets == small_gridfile.n_buckets
        assert s.n_nonempty_buckets <= s.n_buckets
        assert s.n_merged_buckets <= s.n_nonempty_buckets
        assert s.max_occupancy <= s.capacity or s.n_overflowed > 0

    def test_invariants(self, small_gridfile):
        small_gridfile.check_invariants()

    def test_bucket_regions_tile_domain(self, small_gridfile):
        lo, hi = small_gridfile.bucket_regions()
        vol = np.prod(hi - lo, axis=1).sum()
        dom = np.prod(small_gridfile.scales.lengths)
        assert vol == pytest.approx(dom, rel=1e-9)

    def test_bucket_cell_boxes_match_directory(self, small_gridfile):
        lo, hi = small_gridfile.bucket_cell_boxes()
        for bid in range(small_gridfile.n_buckets):
            region = small_gridfile.directory.region_of(bid)
            assert region.lo.tolist() == lo[bid].tolist()
            assert region.hi.tolist() == hi[bid].tolist()

    def test_cached_boxes_track_structural_changes(self, rng):
        """The cached boxes and regions equal a fresh stack after every
        insert split, scale refinement, merge and bucket removal."""

        class Events(set):
            def __getattr__(self, name):  # any ``on_<event>`` listener hook
                return lambda gf, *args: self.add(name[3:])

        gf = GridFile.empty([0, 0], [100, 100], capacity=4)
        events = Events()
        gf.add_listener(events)

        def mutate_then_check(op, *args):
            cached = gf.bucket_cell_boxes(), gf.bucket_regions()  # prime the cache
            op(*args)
            lo = np.stack([b.cellbox.lo for b in gf.buckets])
            hi = np.stack([b.cellbox.hi for b in gf.buckets])
            fresh = (lo, hi), gf.scales.box_bounds(lo, hi)
            for got, want in zip((gf.bucket_cell_boxes(), gf.bucket_regions()), fresh):
                assert all(map(np.array_equal, got, want))
            assert all(not a.flags.writeable for pair in cached for a in pair)

        for p in rng.uniform(0, 100, size=(150, 2)):
            mutate_then_check(gf.insert_point, p)
        for rid in range(150):
            mutate_then_check(gf.delete_record, rid)
        assert {"split", "refine", "merge", "remove"} <= events
        gf.check_invariants()

    def test_every_record_in_its_cell_bucket(self, small_gridfile):
        gf = small_gridfile
        cells = gf.scales.locate(gf.coords())
        owners = gf.directory.buckets_at(cells)
        for bid in range(gf.n_buckets):
            rec = gf.records_in_bucket(bid)
            assert (owners[rec] == bid).all()

    def test_nonempty_bucket_ids(self, small_gridfile):
        sizes = small_gridfile.bucket_sizes()
        ne = small_gridfile.nonempty_bucket_ids()
        assert (sizes[ne] > 0).all()
        assert sizes.sum() == small_gridfile.n_records


class TestQueries:
    def test_query_records_matches_brute_force(self, small_gridfile, rng):
        gf = small_gridfile
        for _ in range(30):
            c = rng.uniform(0, 2000, 2)
            half = rng.uniform(10, 400, 2)
            lo = np.clip(c - half, 0, 2000)
            hi = np.clip(c + half, 0, 2000)
            got = gf.query_records(lo, hi)
            want = brute_force_query(gf.coords(), lo, hi)
            assert np.array_equal(got, want)

    def test_full_domain_query(self, small_gridfile):
        gf = small_gridfile
        got = gf.query_records(gf.scales.domain_lo, gf.scales.domain_hi)
        assert got.size == gf.n_records

    def test_degenerate_query(self, small_gridfile):
        gf = small_gridfile
        p = gf.coords()[0]
        got = gf.query_records(p, p)
        assert 0 in got

    def test_empty_region_query(self, small_gridfile):
        got = small_gridfile.query_records([1999.9, 0.0], [2000.0, 0.1])
        want = brute_force_query(small_gridfile.coords(), [1999.9, 0.0], [2000.0, 0.1])
        assert np.array_equal(got, want)

    def test_query_buckets_excludes_empty_by_default(self, small_gridfile):
        gf = small_gridfile
        lo, hi = gf.scales.domain_lo, gf.scales.domain_hi
        bids = gf.query_buckets(lo, hi)
        sizes = gf.bucket_sizes()
        assert (sizes[bids] > 0).all()
        with_empty = gf.query_buckets(lo, hi, include_empty=True)
        assert with_empty.size == gf.n_buckets

    def test_query_buckets_cover_result_records(self, small_gridfile, rng):
        gf = small_gridfile
        lo, hi = np.array([500.0, 500.0]), np.array([1500.0, 1500.0])
        bids = set(gf.query_buckets(lo, hi).tolist())
        recs = gf.query_records(lo, hi)
        cells = gf.scales.locate(gf.coords()[recs])
        owners = gf.directory.buckets_at(cells)
        assert set(owners.tolist()) <= bids

    def test_query_bounds_validation(self, small_gridfile):
        with pytest.raises(ValueError):
            small_gridfile.query_buckets([0.0], [1.0])


class TestPartialMatch:
    def test_pinned_dimension(self, small_gridfile):
        gf = small_gridfile
        q = PartialMatchQuery({0: 1000.0}).as_range(gf.scales.domain_lo, gf.scales.domain_hi)
        # Equivalent degenerate range query.
        want = gf.query_buckets([1000.0, 0.0], [1000.0, 2000.0])
        assert np.array_equal(gf.query_buckets(q.lo, q.hi), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=3, max_value=12))
def test_random_builds_keep_invariants(seed, capacity):
    """Property: any random insertion sequence yields a valid grid file whose
    queries agree with brute force."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    # Mix of continuous and heavily tied coordinates to stress refinement.
    pts = np.round(rng.uniform(0, 100, size=(n, 2)), decimals=int(rng.integers(0, 3)))
    gf = GridFile.from_points(pts, [0, 0], [100, 100], capacity)
    gf.check_invariants()
    lo = rng.uniform(0, 50, 2)
    hi = lo + rng.uniform(0, 50, 2)
    got = gf.query_records(lo, hi)
    want = brute_force_query(gf.coords(), lo, hi)
    assert np.array_equal(got, want)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_builds_3d(seed):
    """Same property in three dimensions."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(80, 3))
    gf = GridFile.from_points(pts, [-1, -1, -1], [1, 1, 1], capacity=6)
    gf.check_invariants()
    got = gf.query_records([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
    want = brute_force_query(gf.coords(), [-0.5] * 3, [0.5] * 3)
    assert np.array_equal(got, want)
