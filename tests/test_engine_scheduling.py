"""The request pipeline's pluggable seams: scheduling, replicas, admission.

Unit-level tests drive the :class:`~repro.parallel.engine.scheduling.
DiskQueue` disciplines on a bare simulator; integration tests run whole
cluster workloads and check the invariants each policy must keep (work
conservation, completion, balance) plus the properties it exists to
provide (reordering, read spreading, bounded tails / shedding).
"""

import numpy as np
import pytest

from repro.core import make_method
from repro.gridfile import GridFile
from repro.parallel import (
    REPLICA_POLICIES,
    SCHEDULERS,
    ClusterParams,
    FaultPlan,
    OnlineCluster,
    ParallelGridFile,
    Resource,
    Simulator,
    make_replica_policy,
    make_scheduler,
)
from repro.parallel.engine.scheduling import FairDiskQueue, FifoDiskQueue, SjfDiskQueue
from repro.sim import square_queries

DOMAIN = ([0.0, 0.0], [1000.0, 1000.0])


@pytest.fixture(scope="module")
def deployed():
    rng = np.random.default_rng(42)
    gf = GridFile.from_points(rng.uniform(0, 1000, (600, 2)), *DOMAIN, capacity=20)
    assignment = make_method("minimax").assign(gf, 8, rng=42)
    return gf, assignment


@pytest.fixture(scope="module")
def queries():
    return square_queries(40, 0.06, *DOMAIN, rng=42)


# -- registries ---------------------------------------------------------------


class TestRegistries:
    def test_scheduler_names(self):
        assert set(SCHEDULERS) == {"fifo", "sjf", "fair"}
        for name, cls in SCHEDULERS.items():
            assert make_scheduler(name) is cls

    def test_replica_policy_names(self):
        assert set(REPLICA_POLICIES) == {
            "primary-only",
            "least-loaded-alive",
            "fastest-estimated",
        }
        for name in REPLICA_POLICIES:
            assert make_replica_policy(name).name == name

    def test_unknown_scheduler_lists_choices(self):
        with pytest.raises(ValueError, match="fifo"):
            make_scheduler("elevator")

    def test_unknown_replica_policy_lists_choices(self):
        with pytest.raises(ValueError, match="primary-only"):
            make_replica_policy("random")

    def test_unknown_scheduler_error_names_every_option(self):
        """The error is a usable menu: the bad name plus every registered
        discipline, so a typo at the CLI never requires reading source."""
        with pytest.raises(ValueError) as exc:
            make_scheduler("elevator")
        msg = str(exc.value)
        assert "elevator" in msg
        for name in sorted(SCHEDULERS):
            assert name in msg

    def test_unknown_replica_policy_error_names_every_option(self):
        with pytest.raises(ValueError) as exc:
            make_replica_policy("random")
        msg = str(exc.value)
        assert "random" in msg
        for name in sorted(REPLICA_POLICIES):
            assert name in msg

    def test_bad_names_rejected_at_construction(self, deployed):
        gf, a = deployed
        with pytest.raises(ValueError, match="unknown scheduler"):
            ParallelGridFile(gf, a, 8, ClusterParams(scheduler="elevator"))
        with pytest.raises(ValueError, match="unknown replica policy"):
            ParallelGridFile(
                gf, a, 8,
                ClusterParams(replication="chained", replica_policy="random"),
            )

    def test_param_validation(self, deployed):
        gf, a = deployed
        with pytest.raises(ValueError, match="max_inflight"):
            ParallelGridFile(gf, a, 8, ClusterParams(max_inflight=0))
        with pytest.raises(ValueError, match="deadline"):
            ParallelGridFile(gf, a, 8, ClusterParams(deadline=0.0))
        for kw in (
            dict(deadline=float("nan")),
            dict(request_timeout=float("nan")),
            dict(max_inflight=1.5),
            dict(cache_blocks=-1),
        ):
            with pytest.raises(ValueError, match=next(iter(kw))):
                ParallelGridFile(gf, a, 8, ClusterParams(**kw))
        with pytest.raises(ValueError, match="requires ClusterParams.replication"):
            ParallelGridFile(
                gf, a, 8, ClusterParams(replica_policy="least-loaded-alive")
            )


# -- disk queue unit tests ----------------------------------------------------


def _drain(queue_cls, jobs):
    """Submit ``jobs`` = [(qid, n_blocks, service)] at t=0; completion order."""
    sim = Simulator()
    q = queue_cls(sim, Resource("disk"))
    finished = []
    for qid, n_blocks, service in jobs:
        q.submit(
            0.0, service, qid, n_blocks,
            lambda s, e, qid=qid: finished.append((qid, s, e)),
        )
    sim.run()
    return finished


class TestDiskQueues:
    def test_fifo_is_synchronous_reservation(self):
        sim = Simulator()
        res = Resource("disk")
        q = FifoDiskQueue(sim, res)
        seen = []
        q.submit(0.0, 2.0, 0, 4, lambda s, e: seen.append((s, e)))
        q.submit(0.0, 1.0, 1, 2, lambda s, e: seen.append((s, e)))
        # Both completed inline, no simulator events needed.
        assert seen == [(0.0, 2.0), (2.0, 3.0)]
        assert sim.pending == 0
        assert res.busy_time == pytest.approx(3.0)

    def test_sjf_small_overtakes_large(self):
        done = _drain(SjfDiskQueue, [(0, 10, 1.0), (1, 8, 0.8), (2, 1, 0.1)])
        # Job 0 starts immediately (queue idle); among the waiters the
        # 1-block job overtakes the 8-block one.
        assert [qid for qid, _, _ in done] == [0, 2, 1]
        # Work conservation: back-to-back service, no idle gaps.
        assert done[-1][2] == pytest.approx(1.9)

    def test_sjf_ties_break_by_arrival(self):
        done = _drain(SjfDiskQueue, [(0, 4, 0.4), (1, 2, 0.2), (2, 2, 0.2)])
        assert [qid for qid, _, _ in done] == [0, 1, 2]

    def test_fair_round_robins_across_queries(self):
        # Query 0 floods the disk; query 1's single job must not wait for
        # all four of query 0's jobs under round-robin.
        jobs = [(0, 1, 0.1)] * 4 + [(1, 1, 0.1)]
        done = _drain(FairDiskQueue, [(qid, n, s) for qid, n, s in jobs])
        order = [qid for qid, _, _ in done]
        assert order.index(1) <= 2
        assert sorted(order) == [0, 0, 0, 0, 1]

    def test_estimated_free_accounts_for_backlog(self):
        sim = Simulator()
        q = SjfDiskQueue(sim, Resource("disk"))
        assert q.estimated_free(0.0) == 0.0
        q.submit(0.0, 1.0, 0, 1, lambda s, e: None)   # starts immediately
        q.submit(0.0, 0.5, 1, 1, lambda s, e: None)   # waits behind it
        assert q.estimated_free(0.0) == pytest.approx(1.5)
        sim.run()
        assert q.estimated_free(2.0) == pytest.approx(2.0)


# -- scheduling disciplines, whole-cluster -----------------------------------


class TestSchedulingDisciplines:
    @pytest.mark.parametrize("scheduler", ["sjf", "fair"])
    def test_work_conserving_and_complete(self, deployed, queries, scheduler):
        gf, a = deployed
        base = ParallelGridFile(gf, a, 8).run_open(queries, arrival_rate=400.0, rng=9)
        rep = ParallelGridFile(
            gf, a, 8, ClusterParams(scheduler=scheduler)
        ).run_open(queries, arrival_rate=400.0, rng=9)
        # Reordering reads never changes *what* is read or returned.
        assert rep.blocks_fetched == base.blocks_fetched
        assert rep.records_returned == base.records_returned
        assert rep.blocks_read == base.blocks_read
        assert (rep.latencies > 0).all()
        assert rep.aborted_queries == 0

    def test_disciplines_change_the_latency_profile(self, deployed, queries):
        gf, a = deployed
        reps = {
            s: ParallelGridFile(gf, a, 8, ClusterParams(scheduler=s)).run_open(
                queries, arrival_rate=400.0, rng=9
            )
            for s in ("fifo", "sjf", "fair")
        }
        # Under contention the disciplines must be distinguishable.
        assert reps["sjf"].mean_latency != reps["fifo"].mean_latency
        assert reps["fair"].mean_latency != reps["fifo"].mean_latency

    def test_deterministic(self, deployed, queries):
        gf, a = deployed
        p = ClusterParams(scheduler="sjf")
        r1 = ParallelGridFile(gf, a, 8, p).run_open(queries, arrival_rate=400.0, rng=9)
        r2 = ParallelGridFile(gf, a, 8, p).run_open(queries, arrival_rate=400.0, rng=9)
        np.testing.assert_array_equal(r1.latencies, r2.latencies)


# -- replica selection --------------------------------------------------------


class TestReplicaPolicies:
    @pytest.mark.parametrize("policy", ["least-loaded-alive", "fastest-estimated"])
    def test_same_answers_as_primary_only(self, deployed, queries, policy):
        gf, a = deployed
        base = ParallelGridFile(
            gf, a, 8, ClusterParams(replication="chained")
        ).run_queries(queries)
        rep = ParallelGridFile(
            gf, a, 8, ClusterParams(replication="chained", replica_policy=policy)
        ).run_queries(queries)
        # Replica copies hold the same buckets: identical logical answers.
        assert rep.records_returned == base.records_returned
        assert rep.blocks_requested_total == base.blocks_requested_total
        assert rep.aborted_queries == 0

    def test_least_loaded_spreads_reads(self, deployed, queries):
        gf, a = deployed
        rep = ParallelGridFile(
            gf, a, 8,
            ClusterParams(replication="chained", replica_policy="least-loaded-alive"),
        ).run_queries(queries)
        base = ParallelGridFile(
            gf, a, 8, ClusterParams(replication="chained")
        ).run_queries(queries)
        # Under primary-only each read hits the one primary copy; the
        # balancing policy must actually use the replicas (different
        # per-node request distribution and disk busy pattern).
        assert not np.array_equal(rep.disk_utilization, base.disk_utilization)

    def test_dead_node_absorbed_without_aborts(self, deployed, queries):
        gf, a = deployed
        plan = FaultPlan(seed=5).node_crash(0.0, node=2)
        p = ClusterParams(
            replication="chained",
            replica_policy="least-loaded-alive",
            request_timeout=0.05,
        )
        rep = ParallelGridFile(gf, a, 8, p).run_queries(queries, faults=plan)
        # After suspicion, routing avoids the dead node's disks entirely.
        assert rep.aborted_queries == 0
        assert (rep.latencies > 0).all()
        assert rep.failovers > 0

    def test_mirrored_scheme_supported(self, deployed, queries):
        gf, a = deployed
        rep = ParallelGridFile(
            gf, a, 8,
            ClusterParams(replication="mirrored", replica_policy="fastest-estimated"),
        ).run_queries(queries)
        assert rep.aborted_queries == 0
        assert (rep.latencies > 0).all()


# -- admission control --------------------------------------------------------


class TestAdmission:
    RATE = 2000.0

    def _run(self, deployed, queries, **kw):
        gf, a = deployed
        return ParallelGridFile(gf, a, 8, ClusterParams(**kw)).run_open(
            queries, arrival_rate=self.RATE, rng=9
        )

    @pytest.fixture(scope="class")
    def big_queries(self):
        return square_queries(120, 0.06, *DOMAIN, rng=7)

    def test_unbounded_default_sheds_nothing(self, deployed, big_queries):
        rep = self._run(deployed, big_queries)
        assert rep.shed_queries == 0
        assert rep.shed_mask is None
        assert rep.served_latencies.shape == rep.latencies.shape

    def test_max_inflight_queues_arrivals(self, deployed, big_queries):
        base = self._run(deployed, big_queries)
        rep = self._run(deployed, big_queries, max_inflight=4)
        # Everything still runs; admission waiting shows up in latency.
        assert rep.shed_queries == 0
        assert rep.records_returned == base.records_returned
        assert rep.mean_latency > base.mean_latency

    def test_deadline_sheds_under_saturation(self, deployed, big_queries):
        base = self._run(deployed, big_queries)
        rep = self._run(deployed, big_queries, max_inflight=8, deadline=0.03)
        assert rep.shed_queries > 0
        assert rep.shed_fraction == rep.shed_queries / rep.n_queries
        assert rep.shed_mask.sum() == rep.shed_queries
        assert rep.served_latencies.size == rep.n_queries - rep.shed_queries
        # Shed queries do no work: strictly less data fetched and returned.
        assert rep.blocks_fetched < base.blocks_fetched
        assert rep.records_returned < base.records_returned
        # The point of shedding: the served tail stays below the unbounded one.
        assert rep.p99_latency < base.p99_latency
        # Shed entries still carry their time-in-queue (positive latency).
        assert (rep.latencies > 0).all()
        assert rep.metrics["counters"]["queries.shed"] == rep.shed_queries

    def test_deadline_implies_inflight_bound(self, deployed, big_queries):
        rep = self._run(deployed, big_queries, deadline=0.003)
        assert rep.shed_queries > 0

    def test_online_rejects_admission_control(self, deployed):
        gf, a = deployed
        with pytest.raises(ValueError, match="open-system"):
            OnlineCluster(gf, a, 8, params=ClusterParams(max_inflight=4))
        with pytest.raises(ValueError, match="open-system"):
            OnlineCluster(gf, a, 8, params=ClusterParams(deadline=0.1))
