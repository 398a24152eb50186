"""Parallel sweep engine and vectorized-kernel parity tests.

Pins the PR's two contracts: ``sweep_methods(jobs=N)`` is bit-for-bit
identical to the serial path, and the vectorized CSR response-time kernel
matches the per-query reference loop exactly.  Also covers the
:class:`BucketListSet` packing, batch query resolution, and the
bucket-size cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.minimax import minimax_partition
from repro.core.proximity import FactoredProximity
from repro.gridfile import GridFile
from repro.sim import square_queries, sweep_methods
from repro.sim.diskmodel import (
    BucketListSet,
    query_buckets,
    resolve_query_buckets,
    response_times,
)
from tests.oracles import response_times_reference

FIG6_METHODS = ["dm/D", "fx/D", "hcam/D", "ssp", "minimax"]
DISKS_QUICK = [4, 8, 16, 24, 32]


class TestParallelSweepParity:
    def test_jobs4_bitwise_identical_to_serial(self, hot_gridfile):
        """The fig6 quick profile gives identical results for jobs=1 and jobs=4."""
        ds, gf = hot_gridfile
        queries = square_queries(250, 0.01, ds.domain_lo, ds.domain_hi, rng=1996)

        serial = sweep_methods(
            gf, FIG6_METHODS, DISKS_QUICK, queries, rng=1996, keep_assignments=True
        )
        parallel = sweep_methods(
            gf, FIG6_METHODS, DISKS_QUICK, queries, rng=1996,
            keep_assignments=True, jobs=4,
        )

        assert serial.disks == parallel.disks
        assert serial.optimal == parallel.optimal
        assert serial.mean_buckets_touched == parallel.mean_buckets_touched
        assert set(serial.curves) == set(parallel.curves)
        for name, s_curve in serial.curves.items():
            p_curve = parallel.curves[name]
            assert s_curve.response == p_curve.response, name
            assert s_curve.balance == p_curve.balance, name
            for s_ev, p_ev in zip(s_curve.evaluations, p_curve.evaluations):
                assert np.array_equal(s_ev.response, p_ev.response)
                assert np.array_equal(s_ev.optimal, p_ev.optimal)
            for s_a, p_a in zip(s_curve.assignments, p_curve.assignments):
                assert np.array_equal(s_a, p_a)

    def test_jobs_validation(self, hot_gridfile):
        ds, gf = hot_gridfile
        queries = square_queries(5, 0.05, ds.domain_lo, ds.domain_hi, rng=0)
        with pytest.raises(ValueError, match="jobs"):
            sweep_methods(gf, ["dm/D"], [4], queries, rng=0, jobs=-1)


class TestResponseTimeKernel:
    @pytest.mark.parametrize("n_disks", [1, 3, 16])
    def test_matches_reference_on_random_csr(self, rng, n_disks):
        """Vectorized kernel equals the per-query loop on randomized inputs."""
        n_buckets = 500
        assignment = rng.integers(0, n_disks, size=n_buckets)
        lists = []
        for _ in range(300):
            k = int(rng.integers(0, 40))
            lists.append(rng.integers(0, n_buckets, size=k))
        # Sprinkle guaranteed-empty queries, including at both ends.
        lists[0] = np.empty(0, dtype=np.int64)
        lists[-1] = np.empty(0, dtype=np.int64)
        bls = BucketListSet.from_lists(lists)
        assert np.array_equal(
            response_times(bls, assignment, n_disks),
            response_times_reference(bls, assignment, n_disks),
        )

    def test_matches_reference_across_blocks(self, rng, monkeypatch):
        """The blocked path (tiny cell budget) changes nothing."""
        import repro.sim.diskmodel as dm

        n_disks, n_buckets = 7, 200
        assignment = rng.integers(0, n_disks, size=n_buckets)
        lists = [rng.integers(0, n_buckets, size=int(rng.integers(0, 20)))
                 for _ in range(97)]
        bls = BucketListSet.from_lists(lists)
        expect = response_times_reference(bls, assignment, n_disks)
        monkeypatch.setattr(dm, "_KERNEL_CELL_BUDGET", 64)
        assert np.array_equal(response_times(bls, assignment, n_disks), expect)

    def test_accepts_plain_lists_and_empty_workload(self):
        assignment = np.array([0, 1, 0, 1])
        out = response_times([[0, 1, 2], [], [3]], assignment, 2)
        assert out.tolist() == [2, 0, 1]
        empty = response_times([], assignment, 2)
        assert empty.shape == (0,)


class TestBucketListSet:
    def test_from_lists_roundtrip(self):
        lists = [np.array([3, 1]), np.array([], dtype=np.int64), np.array([7])]
        bls = BucketListSet.from_lists(lists)
        assert len(bls) == 3
        assert bls.n_queries == 3
        assert bls.counts.tolist() == [2, 0, 1]
        assert [b.tolist() for b in bls] == [[3, 1], [], [7]]
        assert bls[1].size == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            BucketListSet(ids=np.array([1]), offsets=np.array([1, 1]))
        with pytest.raises(ValueError, match="non-decreasing"):
            BucketListSet(ids=np.array([1, 2]), offsets=np.array([0, 2, 1]))
        with pytest.raises(ValueError, match="len\\(ids\\)"):
            BucketListSet(ids=np.array([1, 2]), offsets=np.array([0, 1]))

    def test_resolve_matches_per_query_lists(self, small_gridfile):
        class _Q:
            def __init__(self, lo, hi):
                self.lo, self.hi = lo, hi

        rng = np.random.default_rng(7)
        queries = []
        for _ in range(50):
            lo = rng.uniform(0, 1800, size=2)
            queries.append(_Q(lo, lo + rng.uniform(10, 400, size=2)))
        bls = resolve_query_buckets(small_gridfile, queries)
        for got, expect in zip(bls, query_buckets(small_gridfile, queries)):
            assert np.array_equal(np.sort(got), np.sort(expect))


class TestBucketSizesCache:
    def test_not_rebuilt_per_query(self, points_2d):
        gf = GridFile.from_points(points_2d, [0, 0], [2000, 2000], capacity=30)
        gf.bucket_sizes()
        before = gf._sizes_rebuilds
        rng = np.random.default_rng(3)
        for _ in range(100):
            lo = rng.uniform(0, 1500, size=2)
            gf.query_buckets(lo, lo + 300)
        lo = np.tile(rng.uniform(0, 1500, size=2), (20, 1))
        gf.batch_query_buckets(lo, lo + 250)
        assert gf._sizes_rebuilds == before  # served from cache throughout

    def test_insert_invalidates(self, points_2d):
        gf = GridFile.from_points(points_2d, [0, 0], [2000, 2000], capacity=30)
        sizes_before = gf.bucket_sizes()
        rebuilds = gf._sizes_rebuilds
        gf.insert_point([1000.5, 999.5])
        sizes_after = gf.bucket_sizes()
        assert gf._sizes_rebuilds == rebuilds + 1
        assert sizes_after.sum() == sizes_before.sum() + 1


class TestMinimaxPrecomputeParity:
    def test_precompute_modes_identical(self, rng, monkeypatch):
        """Factored and full-formula rows give one partition.

        Random float boxes fail the factored size rule and take formula
        rows either way; grid-aligned boxes take factored rows unless the
        table build is disabled, which forces the formula.
        """
        n = 120
        lengths = np.array([10.0, 10.0, 10.0])
        lo = rng.uniform(0, 9, size=(n, 3))
        hi = np.minimum(lo + rng.uniform(0.05, 0.5, size=(n, 3)), 10.0)
        cuts = np.linspace(0.0, 10.0, 9)
        cell = rng.integers(0, 8, size=(n, 3))
        grid_lo = cuts[cell]
        grid_hi = cuts[np.minimum(cell + rng.integers(1, 3, size=(n, 3)), 8)]
        seeds = rng.choice(n, size=8, replace=False)
        boxes = ((lo, hi), (grid_lo, grid_hi))
        assert FactoredProximity.build(grid_lo, grid_hi, lengths) is not None
        fast = [minimax_partition(b_lo, b_hi, lengths, 8, seeds=seeds) for b_lo, b_hi in boxes]
        monkeypatch.setattr(FactoredProximity, "build", classmethod(lambda cls, *a: None))
        for (b_lo, b_hi), got in zip(boxes, fast):
            slow = minimax_partition(b_lo, b_hi, lengths, 8, seeds=seeds)
            assert np.array_equal(got, slow)
