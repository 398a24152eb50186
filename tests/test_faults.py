"""Tests for mid-run fault injection and coordinator failover."""

import numpy as np
import pytest

from repro.core import Minimax
from repro.parallel import (
    ClusterParams,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    ParallelGridFile,
)
from repro.sim import square_queries


@pytest.fixture
def deployed16(small_gridfile):
    gf = small_gridfile
    assignment = Minimax().assign(gf, 16, rng=0)
    return gf, assignment


def crash_plan(t=0.05, node=3):
    return FaultPlan().node_crash(t, node=node)


class TestFaultPlan:
    def test_builder_chains(self):
        plan = (
            FaultPlan()
            .node_crash(0.5, node=3)
            .node_recover(2.0, node=3)
            .disk_slowdown(1.0, node=5, factor=4.0)
            .disk_restore(1.5, node=5)
            .link_loss(1.0, node=2, loss_prob=0.1)
            .link_restore(3.0, node=2)
        )
        assert len(plan.events) == 6
        assert [e.time for e in plan.sorted_events()] == [0.5, 1.0, 1.0, 1.5, 2.0, 3.0]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor_strike", 0)
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "node_crash", 0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "disk_slowdown", 0, factor=0.0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "link_loss", 0, loss_prob=1.5)
        for time in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="time"):
                FaultEvent(time, "node_crash", 0)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(1.0, "disk_slowdown", 0, factor=float("nan"))

    def test_plan_validate_node_range(self):
        plan = crash_plan(node=9)
        with pytest.raises(ValueError):
            plan.validate(n_nodes=8)

    def test_plan_validate_disk_range(self):
        plan = FaultPlan().disk_slowdown(0.1, node=0, factor=2.0, disk=3)
        with pytest.raises(ValueError):
            plan.validate(n_nodes=8, disks_per_node=2)

    def test_injector_single_use(self, deployed16):
        gf, a = deployed16
        queries = square_queries(5, 0.05, [0, 0], [2000, 2000], rng=1)
        inj = FaultInjector(crash_plan(), 16)
        pgf = ParallelGridFile(gf, a, 16, ClusterParams(replication="chained"))
        pgf.run_queries(queries, faults=inj)
        with pytest.raises(RuntimeError):
            pgf.run_queries(queries, faults=inj)


class TestNullFaultPath:
    """With no faults, the engine reproduces the pre-fault-layer numbers."""

    # Captured from the engine before the fault layer existed (same workload
    # as below): the null path must stay bit-for-bit identical.
    CLOSED_ELAPSED = 0.19457622857142898
    CLOSED_COMM = 0.01028274285714284
    CLOSED_LATENCY_SUM = 0.19457622857142895
    OPEN_ELAPSED = 0.47523315708321817
    OPEN_LATENCY_SUM = 0.25930411765787215

    @pytest.fixture
    def workload(self, small_gridfile):
        gf = small_gridfile
        a = Minimax().assign(gf, 8, rng=0)
        queries = square_queries(25, 0.05, [0, 0], [2000, 2000], rng=7)
        return gf, a, queries

    def test_closed_mode_bit_for_bit(self, workload):
        gf, a, queries = workload
        rep = ParallelGridFile(gf, a, 8).run_queries(queries)
        assert rep.elapsed_time == self.CLOSED_ELAPSED
        assert rep.comm_time == self.CLOSED_COMM
        assert float(rep.latencies.sum()) == self.CLOSED_LATENCY_SUM
        assert (rep.blocks_fetched, rep.blocks_read, rep.records_returned) == (31, 49, 1285)
        assert rep.timeouts == rep.retries == rep.failovers == 0
        assert rep.aborted_queries == 0 and rep.availability == 1.0

    def test_open_mode_bit_for_bit(self, workload):
        gf, a, queries = workload
        rep = ParallelGridFile(gf, a, 8).run_open(queries, arrival_rate=50.0, rng=99)
        assert rep.elapsed_time == self.OPEN_ELAPSED
        assert float(rep.latencies.sum()) == self.OPEN_LATENCY_SUM

    def test_timeouts_alone_do_not_perturb(self, workload):
        """Armed-then-cancelled timeout events leave the run bit-for-bit
        identical: cancellation never touches the clock or resources."""
        gf, a, queries = workload
        params = ClusterParams(request_timeout=0.05, replication="chained")
        rep = ParallelGridFile(gf, a, 8, params).run_queries(queries)
        assert rep.elapsed_time == self.CLOSED_ELAPSED
        assert rep.comm_time == self.CLOSED_COMM
        assert rep.timeouts == 0

    def test_empty_fault_plan_no_op(self, workload):
        gf, a, queries = workload
        rep = ParallelGridFile(gf, a, 8).run_queries(queries, faults=FaultPlan())
        assert rep.elapsed_time == self.CLOSED_ELAPSED
        assert rep.comm_time == self.CLOSED_COMM


class TestCrashFailover:
    @pytest.fixture
    def workload16(self, deployed16):
        gf, a = deployed16
        queries = square_queries(200, 0.05, [0, 0], [2000, 2000], rng=7)
        return gf, a, queries

    @pytest.mark.parametrize("scheme", ["chained", "mirrored"])
    def test_single_crash_served_through(self, workload16, scheme):
        """The headline acceptance: one crash mid-run, every query answered
        from replicas, latency degraded by less than 2x."""
        gf, a, queries = workload16
        healthy = ParallelGridFile(gf, a, 16).run_queries(queries)
        params = ClusterParams(replication=scheme)
        rep = ParallelGridFile(gf, a, 16, params).run_queries(
            queries, faults=crash_plan(t=0.05, node=3)
        )
        assert rep.aborted_queries == 0
        assert rep.availability == 1.0
        assert rep.failovers > 0
        assert rep.timeouts > 0
        # Every record still returned, despite the crash.
        assert rep.records_returned == healthy.records_returned
        assert rep.mean_latency < 2.0 * healthy.mean_latency
        assert rep.mean_latency > healthy.mean_latency

    def test_cascaded_chained_failover(self, workload16):
        """Two adjacent nodes down: the chain walk skips both."""
        gf, a, queries = workload16
        params = ClusterParams(replication="chained")
        plan = FaultPlan().node_crash(0.05, node=3).node_crash(0.06, node=4)
        rep = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan)
        assert rep.aborted_queries == 0
        assert rep.failovers > 0

    def test_mirrored_pair_crash_aborts(self, small_gridfile):
        """Both mirror partners down: affected queries abort, others serve."""
        gf = small_gridfile
        a = Minimax().assign(gf, 8, rng=0)
        queries = square_queries(60, 0.2, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="mirrored")
        plan = FaultPlan().node_crash(0.01, node=4).node_crash(0.012, node=5)
        rep = ParallelGridFile(gf, a, 8, params).run_queries(queries, faults=plan)
        assert rep.aborted_queries > 0
        assert rep.availability < 1.0
        # The run still terminates and completes the unaffected queries.
        assert rep.n_queries == 60

    def test_no_replication_aborts_on_crash(self, deployed16):
        """Without a replication scheme there is nowhere to fail over."""
        gf, a = deployed16
        queries = square_queries(80, 0.05, [0, 0], [2000, 2000], rng=7)
        rep = ParallelGridFile(gf, a, 16).run_queries(queries, faults=crash_plan())
        assert rep.aborted_queries > 0
        assert rep.availability < 1.0

    def test_recovery_restores_routing(self, deployed16):
        """After recovery + heartbeat the node serves primaries again."""
        gf, a = deployed16
        queries = square_queries(200, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        plan = FaultPlan().node_crash(0.02, node=3).node_recover(0.1, node=3)
        rep = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan)
        assert rep.aborted_queries == 0
        # The recovered node ends up serving requests again.
        recovered = FaultPlan().node_crash(0.02, node=3)
        rep_norec = ParallelGridFile(gf, a, 16, params).run_queries(
            queries, faults=recovered
        )
        assert rep.failovers < rep_norec.failovers

    def test_open_mode_with_crash(self, deployed16):
        gf, a = deployed16
        queries = square_queries(100, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        rep = ParallelGridFile(gf, a, 16, params).run_open(
            queries, arrival_rate=200.0, rng=11, faults=crash_plan(t=0.05)
        )
        assert rep.aborted_queries == 0
        assert rep.failovers > 0


class TestLossAndSlowdown:
    def test_lossy_link_recovered_by_retries(self, deployed16):
        gf, a = deployed16
        queries = square_queries(100, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        plan = FaultPlan(seed=42).link_loss(0.0, node=2, loss_prob=0.3)
        rep = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan)
        assert rep.messages_lost > 0
        assert rep.retries > 0
        assert rep.aborted_queries == 0
        healthy = ParallelGridFile(gf, a, 16).run_queries(queries)
        assert rep.records_returned == healthy.records_returned

    def test_disk_slowdown_degrades_latency(self, deployed16):
        gf, a = deployed16
        queries = square_queries(100, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        healthy = ParallelGridFile(gf, a, 16, params).run_queries(queries)
        plan = FaultPlan().disk_slowdown(0.0, node=1, factor=8.0)
        rep = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan)
        assert rep.mean_latency > healthy.mean_latency
        assert rep.aborted_queries == 0

    def test_slowdown_restore_returns_to_healthy(self, deployed16):
        gf, a = deployed16
        queries = square_queries(60, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        slow_forever = FaultPlan().disk_slowdown(0.0, node=1, factor=8.0)
        restored = FaultPlan().disk_slowdown(0.0, node=1, factor=8.0).disk_restore(
            0.05, node=1
        )
        r_slow = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=slow_forever)
        r_rest = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=restored)
        assert r_rest.elapsed_time < r_slow.elapsed_time


class TestDeterminism:
    def test_same_plan_identical_report(self, deployed16):
        """Same seed/plan => identical PerfReport, even with timeout events
        scheduled and later cancelled along the way."""
        gf, a = deployed16
        queries = square_queries(120, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        def plan():
            return (
                FaultPlan(seed=9)
                .node_crash(0.03, node=3)
                .node_recover(0.2, node=3)
                .link_loss(0.0, node=5, loss_prob=0.2)
            )
        r1 = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan())
        r2 = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan())
        assert r1.elapsed_time == r2.elapsed_time
        assert r1.comm_time == r2.comm_time
        assert np.array_equal(r1.completion_times, r2.completion_times)
        assert np.array_equal(r1.latencies, r2.latencies)
        assert np.array_equal(r1.disk_utilization, r2.disk_utilization)
        assert (r1.timeouts, r1.retries, r1.failovers, r1.messages_lost) == (
            r2.timeouts,
            r2.retries,
            r2.failovers,
            r2.messages_lost,
        )

    def test_loss_seed_changes_run(self, deployed16):
        gf, a = deployed16
        queries = square_queries(120, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        reps = [
            ParallelGridFile(gf, a, 16, params).run_queries(
                queries, faults=FaultPlan(seed=s).link_loss(0.0, node=5, loss_prob=0.3)
            )
            for s in (1, 2)
        ]
        assert reps[0].messages_lost != reps[1].messages_lost or (
            reps[0].elapsed_time != reps[1].elapsed_time
        )


class TestAliveWindowUtilization:
    def test_crashed_node_not_diluted(self, deployed16):
        """Utilization is computed over the alive window, so a node crashed
        halfway through does not report artificially low utilization."""
        gf, a = deployed16
        queries = square_queries(200, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        rep = ParallelGridFile(gf, a, 16, params).run_queries(
            queries, faults=crash_plan(t=0.05, node=3)
        )
        busy = rep.disk_utilization[3]
        # Node 3 was only alive for ~0.05s of a much longer run; normalizing
        # by its alive window keeps its utilization in the same band as its
        # healthy peers rather than collapsing toward zero.
        assert 0.0 < busy <= 1.0 + 1e-9
        naive = busy * 0.05 / rep.elapsed_time  # what elapsed-normalizing gives
        assert busy > 2 * naive

    def test_all_utilizations_bounded(self, deployed16):
        gf, a = deployed16
        queries = square_queries(100, 0.05, [0, 0], [2000, 2000], rng=7)
        params = ClusterParams(replication="chained")
        plan = FaultPlan().node_crash(0.02, node=3).node_recover(0.15, node=3)
        rep = ParallelGridFile(gf, a, 16, params).run_queries(queries, faults=plan)
        assert (rep.disk_utilization >= 0).all()
        assert (rep.disk_utilization <= 1.0 + 1e-9).all()


class TestParamValidation:
    def test_bad_scheme_rejected_eagerly(self, deployed16):
        gf, a = deployed16
        with pytest.raises(ValueError):
            ParallelGridFile(gf, a, 16, ClusterParams(replication="raid6"))

    def test_mirrored_needs_even_disks(self, small_gridfile):
        gf = small_gridfile
        # 8 disks on 8 nodes is fine; force an odd farm via 5 disks.
        a = Minimax().assign(gf, 5, rng=0)
        with pytest.raises(ValueError):
            ParallelGridFile(gf, a, 5, ClusterParams(replication="mirrored"))

    def test_negative_timeout_rejected(self, deployed16):
        gf, a = deployed16
        with pytest.raises(ValueError):
            ParallelGridFile(gf, a, 16, ClusterParams(request_timeout=-0.1))

    def test_negative_retries_rejected(self, deployed16):
        gf, a = deployed16
        with pytest.raises(ValueError):
            ParallelGridFile(gf, a, 16, ClusterParams(max_retries=-1))
