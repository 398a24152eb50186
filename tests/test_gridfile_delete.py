"""Tests for grid-file deletion and buddy merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridfile import GridFile
from tests.conftest import brute_force_query


def build(points, capacity=8):
    return GridFile.from_points(points, [0, 0], [100, 100], capacity)


class TestDeleteBasics:
    def test_delete_removes_from_queries(self, rng):
        pts = rng.uniform(0, 100, size=(50, 2))
        gf = build(pts)
        gf.delete_record(7)
        got = gf.query_records([0, 0], [100, 100])
        assert 7 not in got
        assert got.size == 49
        gf.check_invariants()

    def test_counts(self, rng):
        pts = rng.uniform(0, 100, size=(30, 2))
        gf = build(pts)
        gf.delete_records([0, 1, 2])
        assert gf.n_records == 27
        assert gf.n_deleted == 3
        assert gf.stats().n_records == 27

    def test_live_record_ids(self, rng):
        pts = rng.uniform(0, 100, size=(10, 2))
        gf = build(pts)
        gf.delete_record(4)
        live = gf.live_record_ids()
        assert 4 not in live
        assert live.size == 9

    def test_double_delete_rejected(self, rng):
        pts = rng.uniform(0, 100, size=(10, 2))
        gf = build(pts)
        gf.delete_record(3)
        with pytest.raises(KeyError):
            gf.delete_record(3)

    def test_unknown_record_rejected(self, rng):
        gf = build(rng.uniform(0, 100, size=(5, 2)))
        with pytest.raises(KeyError):
            gf.delete_record(99)
        with pytest.raises(KeyError):
            gf.delete_record(-1)

    def test_reinsert_after_delete(self, rng):
        pts = rng.uniform(0, 100, size=(20, 2))
        gf = build(pts)
        gf.delete_record(0)
        rid = gf.insert_point([50.0, 50.0])
        assert rid == 20
        assert gf.n_records == 20
        gf.check_invariants()

    def test_overflow_flag_cleared(self):
        gf = GridFile.empty([0, 0], [10, 10], capacity=2)
        for _ in range(5):
            gf.insert_point([5.0, 5.0])
        assert gf.stats().n_overflowed == 1
        # Deleting below capacity clears the overflow flag.
        for rid in (0, 1, 2):
            gf.delete_record(rid)
        assert gf.stats().n_overflowed == 0
        gf.check_invariants()


class TestBuddyMerge:
    def test_mass_delete_shrinks_buckets(self, rng):
        pts = rng.uniform(0, 100, size=(400, 2))
        gf = build(pts, capacity=10)
        before = gf.stats().n_nonempty_buckets
        gf.delete_records(range(360))
        after = gf.stats().n_nonempty_buckets
        assert after < before / 2
        gf.check_invariants()

    def test_merge_preserves_queries(self, rng):
        pts = rng.uniform(0, 100, size=(300, 2))
        gf = build(pts, capacity=10)
        deleted = set(range(0, 300, 2))
        gf.delete_records(sorted(deleted))
        gf.check_invariants()
        for _ in range(15):
            lo = rng.uniform(0, 60, 2)
            hi = lo + rng.uniform(5, 40, 2)
            want = np.array(
                [r for r in brute_force_query(pts, lo, hi) if r not in deleted]
            )
            got = gf.query_records(lo, hi)
            assert np.array_equal(got, want)

    def test_merged_regions_stay_boxes(self, rng):
        pts = rng.uniform(0, 100, size=(250, 2))
        gf = build(pts, capacity=10)
        gf.delete_records(range(200))
        # check_invariants verifies every bucket's region is exactly a box
        # in the directory.
        gf.check_invariants()

    def test_merge_respects_fill_hysteresis(self, rng):
        """Merging never produces an over-capacity bucket, and buckets left
        underfull have no willing buddy (either no box-forming neighbour or
        the union would exceed the fill target)."""
        pts = rng.uniform(0, 100, size=(200, 2))
        gf = build(pts, capacity=10)
        gf.delete_records(range(100))
        for b in gf.buckets:
            assert b.n_records <= gf.capacity or b.overflowed
        # Merging is reactive: an underfull bucket with a willing buddy is
        # absorbed as soon as one more of *its* records is deleted.
        target = next(
            (
                b
                for b in gf.buckets
                if 0 < b.n_records < gf.merge_trigger * gf.capacity
                and gf._find_buddy(b) is not None
            ),
            None,
        )
        if target is not None:
            n_before = gf.n_buckets
            gf.delete_record(int(target.record_ids[0]))
            assert gf.n_buckets < n_before
            gf.check_invariants()

    def test_delete_everything(self, rng):
        pts = rng.uniform(0, 100, size=(120, 2))
        gf = build(pts, capacity=6)
        gf.delete_records(range(120))
        assert gf.n_records == 0
        gf.check_invariants()
        assert gf.query_records([0, 0], [100, 100]).size == 0
        # Empty file is still insertable.
        gf.insert_point([1.0, 1.0])
        gf.check_invariants()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_insert_delete_interleaving(seed):
    """Property: any interleaving of inserts and deletes keeps the grid file
    valid and its queries exact."""
    rng = np.random.default_rng(seed)
    gf = GridFile.empty([0, 0], [1, 1], capacity=5)
    live: dict[int, np.ndarray] = {}
    for _ in range(120):
        if live and rng.random() < 0.4:
            rid = int(rng.choice(list(live)))
            gf.delete_record(rid)
            del live[rid]
        else:
            p = rng.uniform(0, 1, 2)
            rid = gf.insert_point(p)
            live[rid] = p
    gf.check_invariants()
    assert gf.n_records == len(live)
    lo = rng.uniform(0, 0.5, 2)
    hi = lo + rng.uniform(0, 0.5, 2)
    want = sorted(
        rid for rid, p in live.items() if np.all(p >= lo) and np.all(p <= hi)
    )
    assert gf.query_records(lo, hi).tolist() == want
