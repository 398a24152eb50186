"""Tests for the simulated shared-nothing cluster (ParallelGridFile)."""

import numpy as np
import pytest

from repro.core import Minimax
from repro.parallel import ClusterParams, LoadReport, ParallelGridFile
from repro.sim import square_queries


@pytest.fixture
def deployed(small_gridfile):
    gf = small_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    return gf, assignment


def run(gf, assignment, n_disks, queries, **params):
    pgf = ParallelGridFile(gf, assignment, n_disks, ClusterParams(**params))
    return pgf.run_queries(queries)


class TestBasics:
    def test_report_fields(self, deployed, rng):
        gf, a = deployed
        queries = square_queries(20, 0.05, [0, 0], [2000, 2000], rng=rng)
        rep = run(gf, a, 8, queries)
        assert rep.n_queries == 20
        assert rep.n_nodes == 8
        assert rep.blocks_fetched > 0
        assert rep.elapsed_time > 0
        assert rep.comm_time > 0
        assert rep.completion_times.shape == (20,)
        assert (np.diff(rep.completion_times) >= 0).all()  # sequential
        assert rep.records_returned > 0

    def test_blocks_fetched_matches_sim_definition(self, deployed, rng):
        """The cluster's headline metric equals the §2.2 simulator's."""
        from repro.sim import evaluate_queries

        gf, a = deployed
        queries = square_queries(30, 0.05, [0, 0], [2000, 2000], rng=rng)
        rep = run(gf, a, 8, queries)
        ev = evaluate_queries(gf, a, queries, 8)
        assert rep.blocks_fetched == ev.total_blocks

    def test_records_returned_exact(self, deployed, rng):
        gf, a = deployed
        queries = square_queries(15, 0.05, [0, 0], [2000, 2000], rng=rng)
        rep = run(gf, a, 8, queries)
        want = sum(int(q.contains(gf.coords()).sum()) for q in queries)
        assert rep.records_returned == want

    def test_empty_workload(self, deployed):
        gf, a = deployed
        rep = run(gf, a, 8, [])
        assert rep.elapsed_time == 0.0
        assert rep.blocks_fetched == 0

    def test_deterministic(self, deployed, rng):
        gf, a = deployed
        queries = square_queries(10, 0.05, [0, 0], [2000, 2000], rng=3)
        r1 = run(gf, a, 8, queries)
        r2 = run(gf, a, 8, queries)
        assert r1.elapsed_time == r2.elapsed_time
        assert r1.comm_time == r2.comm_time


class TestScaling:
    def test_more_nodes_faster(self, small_gridfile):
        gf = small_gridfile
        queries = square_queries(30, 0.1, [0, 0], [2000, 2000], rng=5)
        elapsed = []
        for m in (2, 4, 8):
            a = Minimax().assign(gf, m, rng=0)
            elapsed.append(run(gf, a, m, queries, cache_blocks=0).elapsed_time)
        assert elapsed[2] < elapsed[0]

    def test_sublinear_speedup(self, small_gridfile):
        """Fixed costs (coordination, comm) keep speedup below ideal."""
        gf = small_gridfile
        queries = square_queries(30, 0.1, [0, 0], [2000, 2000], rng=5)
        a2 = Minimax().assign(gf, 2, rng=0)
        a16 = Minimax().assign(gf, 16, rng=0)
        t2 = run(gf, a2, 2, queries, cache_blocks=0).elapsed_time
        t16 = run(gf, a16, 16, queries, cache_blocks=0).elapsed_time
        assert 1.0 < t2 / t16 < 8.0

    def test_caching_reduces_disk_reads(self, deployed):
        gf, a = deployed
        queries = square_queries(20, 0.05, [0, 0], [2000, 2000], rng=7)
        repeated = queries + queries  # second pass hits the caches
        cold = run(gf, a, 8, repeated, cache_blocks=0)
        warm = run(gf, a, 8, repeated, cache_blocks=512)
        assert warm.blocks_read < cold.blocks_read
        assert warm.cache_hit_rate > 0.3
        assert warm.elapsed_time < cold.elapsed_time
        # The declustering metric is unaffected by caching.
        assert warm.blocks_fetched == cold.blocks_fetched

    def test_comm_time_grows_with_query_size(self, deployed):
        gf, a = deployed
        small = square_queries(20, 0.01, [0, 0], [2000, 2000], rng=2)
        big = square_queries(20, 0.1, [0, 0], [2000, 2000], rng=2)
        assert run(gf, a, 8, big).comm_time > run(gf, a, 8, small).comm_time

    def test_pipelining_reduces_elapsed(self, deployed):
        gf, a = deployed
        queries = square_queries(30, 0.05, [0, 0], [2000, 2000], rng=4)
        seq = run(gf, a, 8, queries, cache_blocks=0, pipeline_depth=1)
        pipe = run(gf, a, 8, queries, cache_blocks=0, pipeline_depth=4)
        assert pipe.elapsed_time < seq.elapsed_time
        assert pipe.blocks_fetched == seq.blocks_fetched

    def test_disks_per_node(self, small_gridfile):
        """8 disks on 4 nodes: valid topology, parallel local disks."""
        gf = small_gridfile
        a = Minimax().assign(gf, 8, rng=0)
        queries = square_queries(20, 0.1, [0, 0], [2000, 2000], rng=6)
        rep = run(gf, a, 8, queries, disks_per_node=2, cache_blocks=0)
        assert rep.n_nodes == 4
        assert rep.n_disks == 8
        assert rep.disk_utilization.shape == (4,)

    def test_disk_utilization_bounded(self, deployed, rng):
        gf, a = deployed
        queries = square_queries(20, 0.05, [0, 0], [2000, 2000], rng=rng)
        rep = run(gf, a, 8, queries)
        assert (rep.disk_utilization >= 0).all()
        assert (rep.disk_utilization <= 1.0 + 1e-9).all()


class TestSimulateLoad:
    def test_report_fields(self, deployed):
        gf, a = deployed
        rep = ParallelGridFile(gf, a, 8).simulate_load()
        assert rep.n_nodes == 8
        assert rep.elapsed_time > rep.build_time > 0
        assert rep.bytes_per_node.shape == (8,)
        assert rep.bytes_per_node.sum() > 0
        # minimax keeps the byte distribution near-even.
        assert rep.imbalance < 1.2

    def test_more_nodes_load_faster_until_nic_bound(self, small_gridfile):
        """Node disks write in parallel, so load time falls with nodes —
        but the serialized coordinator NIC puts a floor under it."""
        gf = small_gridfile
        times = {}
        for m in (4, 16):
            a = Minimax().assign(gf, m, rng=0)
            times[m] = ParallelGridFile(gf, a, m).simulate_load().elapsed_time
        assert times[16] < times[4]
        # The NIC floor: total transfer time through the coordinator.
        pgf = ParallelGridFile(gf, Minimax().assign(gf, 16, rng=0), 16)
        n_pages = gf.nonempty_bucket_ids().size
        nic_floor = n_pages * pgf.params.network.transfer_time(
            pgf.params.disk.block_bytes
        )
        assert times[16] >= nic_floor

    def test_parallel_input_scales(self, small_gridfile):
        gf = small_gridfile
        a4 = Minimax().assign(gf, 4, rng=0)
        a16 = Minimax().assign(gf, 16, rng=0)
        t4 = ParallelGridFile(gf, a4, 4).simulate_load(parallel_input=True).elapsed_time
        t16 = ParallelGridFile(gf, a16, 16).simulate_load(parallel_input=True).elapsed_time
        assert t16 < t4

    def test_rejects_negative_cpu(self, deployed):
        gf, a = deployed
        with pytest.raises(ValueError):
            ParallelGridFile(gf, a, 8).simulate_load(cpu_build_per_record=-1.0)

    def test_parallel_input_beats_serialized_coordinator(self, deployed):
        """Pre-partitioned input bypasses the coordinator NIC bottleneck,
        never loads slower, and ships exactly the same bytes."""
        gf, a = deployed
        serial = ParallelGridFile(gf, a, 8).simulate_load()
        parallel = ParallelGridFile(gf, a, 8).simulate_load(parallel_input=True)
        assert parallel.elapsed_time <= serial.elapsed_time
        np.testing.assert_array_equal(parallel.bytes_per_node, serial.bytes_per_node)
        assert parallel.n_pages == serial.n_pages
        assert parallel.build_time == serial.build_time


class TestLoadReportImbalance:
    def _report(self, bytes_per_node):
        arr = np.asarray(bytes_per_node, dtype=float)
        return LoadReport(
            n_pages=int(arr.sum()),
            n_nodes=arr.size,
            elapsed_time=1.0,
            build_time=0.5,
            bytes_per_node=arr,
        )

    def test_even_load_is_one(self):
        assert self._report([4096, 4096, 4096]).imbalance == 1.0

    def test_zero_byte_nodes_inflate_imbalance(self):
        # Two idle nodes: max/mean = 4096 / (4096*2/4) = 2.0.
        rep = self._report([4096, 4096, 0, 0])
        assert rep.imbalance == pytest.approx(2.0)

    def test_single_node_is_always_balanced(self):
        assert self._report([12288]).imbalance == 1.0

    def test_all_zero_bytes_defined_as_one(self):
        # Degenerate store (every page empty): defined, not a ZeroDivisionError.
        assert self._report([0, 0, 0]).imbalance == 1.0

    def test_single_zero_node(self):
        assert self._report([0]).imbalance == 1.0


class TestGeometryValidation:
    """Bad cluster geometry or cost constants fail at construction, naming
    the field, instead of deep inside a run."""

    @pytest.mark.parametrize("dpn", [0, -1])
    def test_rejects_disks_per_node_below_one(self, deployed, dpn):
        gf, assignment = deployed
        with pytest.raises(ValueError, match="disks_per_node"):
            ParallelGridFile(gf, assignment, 8, ClusterParams(disks_per_node=dpn))

    @pytest.mark.parametrize(
        "field",
        [
            "lookup_time",
            "plan_time_per_bucket",
            "cpu_filter_per_record",
            "record_bytes",
            "header_bytes",
            "bucket_id_bytes",
            "retry_backoff",
            "heartbeat_delay",
        ],
    )
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_rejects_negative_cost_and_size_constants(self, deployed, field, value):
        gf, assignment = deployed
        with pytest.raises(ValueError, match=field):
            ParallelGridFile(gf, assignment, 8, ClusterParams(**{field: value}))

    @pytest.mark.parametrize("depth", [0, -3])
    def test_rejects_pipeline_depth_below_one(self, deployed, depth):
        gf, assignment = deployed
        with pytest.raises(ValueError, match="pipeline_depth"):
            ParallelGridFile(gf, assignment, 8, ClusterParams(pipeline_depth=depth))

    @pytest.mark.parametrize("field", ["pipeline_depth", "max_retries"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_rejects_non_integer_counts(self, deployed, field, value):
        gf, assignment = deployed
        with pytest.raises(ValueError, match=field):
            ParallelGridFile(gf, assignment, 8, ClusterParams(**{field: value}))

    def test_numpy_integer_counts_are_allowed(self, deployed, rng):
        queries = square_queries(5, 0.1, [0, 0], [2000, 2000], rng=rng)
        perf = run(*deployed, 8, queries, pipeline_depth=np.int64(2), max_retries=np.int32(0))
        assert perf.n_queries == 5

    def test_zero_constants_are_allowed(self, deployed, rng):
        gf, assignment = deployed
        queries = square_queries(5, 0.1, [0, 0], [2000, 2000], rng=rng)
        perf = run(gf, assignment, 8, queries, lookup_time=0.0, cpu_filter_per_record=0.0,
                   record_bytes=0, header_bytes=0, bucket_id_bytes=0, plan_time_per_bucket=0.0)
        assert perf.n_queries == 5

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"disks_per_node": -1}, "disks_per_node"),
            ({"disks_per_node": 0}, "disks_per_node"),
            ({"lookup_time": -1e-3}, "lookup_time"),
            ({"plan_time_per_bucket": -1e-6}, "plan_time_per_bucket"),
        ],
    )
    def test_coordinator_rejects_bad_geometry(self, deployed, kwargs, field):
        from repro.parallel.coordinator import Coordinator

        gf, assignment = deployed
        with pytest.raises(ValueError, match=field):
            Coordinator(gf, assignment, 4 if "disks_per_node" in kwargs else 8, **kwargs)
