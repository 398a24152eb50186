"""Tests for the online mixed read/write engine (`repro.parallel.online`).

The headline pin: a write-free online run with reorganization disabled is
**byte-identical** (canonical-JSON sha256 of the full report) to a static
:meth:`ParallelGridFile.run_queries` over the same workload and seed — the
online machinery must cost nothing when unused.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import make_method, make_placement
from repro.gridfile import GridFile
from repro.parallel import (
    ClusterParams,
    DegradationMonitor,
    OnlineCluster,
    ParallelGridFile,
)
from repro.rtree import RTree
from repro.sim import Operation, mixed_workload, square_queries

DOMAIN = ([0.0, 0.0], [1.0, 1.0])


def _build(seed=7, n=3000, capacity=32) -> GridFile:
    rng = np.random.default_rng(seed)
    return GridFile.from_points(
        rng.uniform(0, 1, size=(n, 2)), *DOMAIN, capacity=capacity
    )


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=float)


def _digest(p) -> str:
    """sha256 over every field of a PerfReport (arrays included)."""
    d = dict(
        n_queries=p.n_queries,
        n_nodes=p.n_nodes,
        n_disks=p.n_disks,
        blocks_fetched=p.blocks_fetched,
        blocks_requested_total=p.blocks_requested_total,
        blocks_read=p.blocks_read,
        comm_time=p.comm_time,
        elapsed_time=p.elapsed_time,
        records_returned=p.records_returned,
        cache_hit_rate=p.cache_hit_rate,
        completion=p.completion_times.tolist(),
        latencies=p.latencies.tolist(),
        utilization=p.disk_utilization.tolist(),
        timeouts=p.timeouts,
        retries=p.retries,
        failovers=p.failovers,
        messages_lost=p.messages_lost,
        aborted=p.aborted_queries,
        metrics=p.metrics,
    )
    return hashlib.sha256(_canon(d).encode()).hexdigest()


class TestNeutralityPin:
    def test_readonly_run_matches_static_cluster_exactly(self):
        """Golden pin: write ratio 0 + no monitor ≡ the static engine."""
        gf_static, gf_online = _build(), _build()
        method = make_method("minimax")
        a1 = method.assign(gf_static, 8, rng=3)
        a2 = method.assign(gf_online, 8, rng=3)
        assert np.array_equal(a1, a2)
        ops = mixed_workload(120, 0.0, *DOMAIN, rng=11)
        queries = square_queries(120, 0.05, *DOMAIN, rng=11)
        static = ParallelGridFile(gf_static, a1, 8).run_queries(queries)
        online = OnlineCluster(gf_online, a2, 8).run(ops)
        assert _digest(static) == _digest(online.perf)
        # The online side also reports zero write-path activity.
        assert online.n_inserts == online.n_deletes == 0
        assert online.buckets_moved == 0 and online.n_reorgs == 0
        assert online.cache_invalidations == 0
        assert online.last_write_end == 0.0
        assert online.elapsed_time == static.elapsed_time

    def test_write_free_workload_is_exactly_square_queries(self):
        ops = mixed_workload(60, 0.0, *DOMAIN, rng=5)
        queries = square_queries(60, 0.05, *DOMAIN, rng=5)
        assert all(op.kind == "query" for op in ops)
        for op, q in zip(ops, queries):
            assert np.array_equal(op.query.lo, q.lo)
            assert np.array_equal(op.query.hi, q.hi)


class TestMixedWorkload:
    def test_composition_and_determinism(self):
        a = mixed_workload(400, 0.3, *DOMAIN, rng=2)
        b = mixed_workload(400, 0.3, *DOMAIN, rng=2)
        kinds = [op.kind for op in a]
        assert kinds == [op.kind for op in b]
        n_writes = sum(k != "query" for k in kinds)
        assert 0.2 < n_writes / 400 < 0.4
        assert any(k == "delete" for k in kinds)
        for x, y in zip(a, b):
            if x.kind == "query":
                assert np.array_equal(x.query.lo, y.query.lo)
            elif x.kind == "insert":
                assert np.array_equal(x.point, y.point)
            else:
                assert x.delete_rank == y.delete_rank

    def test_points_inside_domain_and_ranks_unit(self):
        ops = mixed_workload(300, 0.5, *DOMAIN, rng=9, centers=np.array([[0.9, 0.9]]))
        for op in ops:
            if op.kind == "insert":
                assert (op.point >= 0.0).all() and (op.point <= 1.0).all()
            elif op.kind == "delete":
                assert 0.0 <= op.delete_rank < 1.0

    def test_arrival_times_monotone(self):
        ops = mixed_workload(100, 0.2, *DOMAIN, rng=4, arrival_rate=50.0)
        times = [op.time for op in ops]
        assert all(t is not None for t in times)
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_workload(10, -0.1, *DOMAIN)
        with pytest.raises(ValueError):
            mixed_workload(10, 1.5, *DOMAIN)


@pytest.mark.parametrize(
    "kw", [dict(threshold=float("nan")), dict(budget=float("nan")), dict(threshold=0.5)]
)
def test_degradation_monitor_rejects_bad_values(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        DegradationMonitor(**kw)


class TestOnlineEngine:
    @pytest.fixture
    def deployed(self):
        gf = _build(seed=1, n=1500, capacity=16)
        a = make_method("minimax").assign(gf, 8, rng=1)
        return gf, a

    @pytest.mark.parametrize(
        "policy", ["rr-least-loaded", "proximity-steal", "recompute-threshold"]
    )
    def test_mixed_run_stays_correct(self, deployed, policy):
        gf, a = deployed
        ops = mixed_workload(
            300, 0.4, *DOMAIN, rng=5, centers=np.array([[0.2, 0.3], [0.7, 0.6]])
        )
        cluster = OnlineCluster(gf, a, 8, placement=policy)
        rep = cluster.run(ops)
        gf.check_invariants()
        # Assignment tracked every split/merge/renumber.
        assert cluster.pgf.coordinator.assignment.shape[0] == gf.n_buckets
        assert rep.n_inserts + rep.n_deletes + rep.n_noop_deletes == sum(
            op.kind != "query" for op in ops
        )
        assert rep.perf.n_queries == sum(op.kind == "query" for op in ops)
        assert rep.final_records == gf.n_records
        # Post-churn queries still return exact answers.
        live = gf.live_record_ids()
        lo, hi = np.array([0.15, 0.2]), np.array([0.65, 0.75])
        pts = gf.points[live]
        expected = np.sort(live[((pts >= lo) & (pts <= hi)).all(axis=1)])
        assert np.array_equal(gf.query_records(lo, hi), expected)

    def test_splits_are_placed_and_caches_invalidated(self, deployed):
        gf, a = deployed
        n_before = gf.n_buckets
        # Insert-heavy hot-spot workload to force splits.
        ops = mixed_workload(
            400, 0.9, *DOMAIN, rng=6, delete_fraction=0.0,
            centers=np.array([[0.5, 0.5]]),
        )
        rep = OnlineCluster(gf, a, 8).run(ops)
        assert rep.n_splits > 0
        assert gf.n_buckets == n_before + rep.n_splits - rep.n_merges
        assert rep.cache_invalidations > 0
        m = rep.perf.metrics["counters"]
        assert m["online.splits"] == rep.n_splits
        assert m["online.inserts.completed"] == rep.n_inserts

    def test_deletes_merge_and_renumber(self):
        gf = _build(seed=3, n=800, capacity=16)
        a = make_method("minimax").assign(gf, 4, rng=3)
        n_before = gf.n_buckets
        ops = mixed_workload(500, 0.9, *DOMAIN, rng=7, delete_fraction=1.0)
        cluster = OnlineCluster(gf, a, 4)
        rep = cluster.run(ops)
        assert rep.n_deletes > 0 and rep.n_merges > 0
        assert gf.n_buckets < n_before
        gf.check_invariants()
        assert cluster.pgf.coordinator.assignment.shape[0] == gf.n_buckets

    def test_monitor_triggers_bounded_reorg(self, deployed):
        gf, a = deployed
        # Pathological start: everything on disk 0 — the monitor must react.
        bad = np.zeros_like(a)
        monitor = DegradationMonitor(window=8, threshold=1.2, cooldown=8, budget=0.25)
        ops = mixed_workload(120, 0.0, *DOMAIN, rng=8)
        rep = OnlineCluster(gf, bad, 8, monitor=monitor).run(ops)
        assert rep.n_reorgs >= 1
        assert rep.reorg_moves > 0
        # Each reorg moves at most budget * non-empty buckets.
        nonempty = int((gf.bucket_sizes() > 0).sum())
        assert rep.reorg_moves <= rep.n_reorgs * int(0.25 * nonempty)
        # Quality after reorganizing beats never reorganizing.
        gf2 = _build(seed=1, n=1500, capacity=16)
        ops2 = mixed_workload(120, 0.0, *DOMAIN, rng=8)
        base = OnlineCluster(gf2, np.zeros_like(a), 8).run(ops2)
        assert rep.mean_rq_ratio < base.mean_rq_ratio

    def test_arrival_process_is_honored(self, deployed):
        gf, a = deployed
        ops = mixed_workload(50, 0.2, *DOMAIN, rng=9, arrival_rate=200.0)
        rep = OnlineCluster(gf, a, 8).run(ops)
        assert rep.elapsed_time >= max(op.time for op in ops)

    def test_report_properties(self, deployed):
        gf, a = deployed
        ops = mixed_workload(200, 0.5, *DOMAIN, rng=10)
        rep = OnlineCluster(gf, a, 8, placement="proximity-steal").run(ops)
        assert rep.n_ops == 200
        assert rep.buckets_moved == rep.policy_moves + rep.reorg_moves
        assert rep.movement_fraction == rep.buckets_moved / rep.final_buckets
        n_writes = rep.n_inserts + rep.n_deletes + rep.n_noop_deletes
        assert rep.mean_write_latency == pytest.approx(rep.write_time / n_writes)
        assert rep.mean_rq_ratio >= 1.0

    def test_validation(self, deployed):
        gf, a = deployed
        with pytest.raises(ValueError):
            OnlineCluster(gf, a, 8, placement="no-such-policy")
        with pytest.raises(ValueError):
            OnlineCluster(gf, a, 8, params=ClusterParams(replication="chained"))
        pts = np.random.default_rng(0).uniform(0, 1, size=(100, 2))
        tree = RTree.bulk_load(pts, max_entries=16)
        with pytest.raises(TypeError, match="live GridFile"):
            OnlineCluster(tree, np.zeros(tree.n_leaves, dtype=int), 4)
        cluster = OnlineCluster(gf, a, 8)
        with pytest.raises(ValueError):
            cluster.run([Operation(kind="compact")])
        with pytest.raises(ValueError):
            cluster.run([Operation(kind="insert")])  # missing point
        with pytest.raises(ValueError):
            cluster.run([Operation(kind="query")])  # missing query

    def test_noop_delete_on_empty_gridfile(self):
        gf = GridFile.empty(*DOMAIN, capacity=8)
        a = np.zeros(gf.n_buckets, dtype=np.int64)
        ops = [Operation(kind="delete", delete_rank=0.5)]
        rep = OnlineCluster(gf, a, 1).run(ops)
        assert rep.n_noop_deletes == 1 and rep.n_deletes == 0

    def test_policy_instances_accepted(self, deployed):
        gf, a = deployed
        policy = make_placement("rr-least-loaded")
        rep = OnlineCluster(gf, a, 8, placement=policy).run(
            mixed_workload(50, 0.5, *DOMAIN, rng=12)
        )
        assert rep.n_ops == 50


class TestOnlineDeterminism:
    def test_same_seed_same_report(self):
        digests = []
        for _ in range(2):
            gf = _build(seed=2, n=1200, capacity=16)
            a = make_method("minimax").assign(gf, 8, rng=2)
            ops = mixed_workload(250, 0.4, *DOMAIN, rng=13)
            monitor = DegradationMonitor(window=16, threshold=1.3, cooldown=16)
            rep = OnlineCluster(
                gf, a, 8, placement="proximity-steal", monitor=monitor
            ).run(ops)
            digests.append(
                (
                    _digest(rep.perf),
                    rep.n_splits,
                    rep.n_merges,
                    rep.buckets_moved,
                    rep.n_reorgs,
                    rep.cache_invalidations,
                    rep.write_time,
                )
            )
        assert digests[0] == digests[1]


class TestDurableStoreNeutrality:
    def test_file_store_run_matches_memory_run(self, tmp_path):
        """The durable store adds I/O, never simulated time or behaviour."""
        from repro.parallel import make_store
        from repro.storage import DurableGridFile

        ops = mixed_workload(
            200, 0.4, *DOMAIN, rng=5, centers=np.array([[0.2, 0.3], [0.7, 0.6]])
        )
        reports = []
        for backend in ("memory", "file"):
            gf = _build(seed=1, n=800, capacity=16)
            a = make_method("minimax").assign(gf, 8, rng=1)
            store = make_store(gf, backend=backend, path=tmp_path / "store")
            rep = OnlineCluster(store, a, 8, placement="rr-least-loaded").run(ops)
            reports.append(rep)
            if backend == "file":
                store.close()
        mem, dur = reports
        # every simulated quantity is identical...
        assert mem.perf.elapsed_time == dur.perf.elapsed_time
        assert mem.perf.records_returned == dur.perf.records_returned
        assert mem.perf.blocks_fetched == dur.perf.blocks_fetched
        np.testing.assert_array_equal(mem.perf.latencies, dur.perf.latencies)
        np.testing.assert_array_equal(
            mem.perf.completion_times, dur.perf.completion_times
        )
        assert (mem.n_splits, mem.n_merges, mem.final_records) == (
            dur.n_splits, dur.n_merges, dur.final_records
        )
        # ...and the metrics differ only by the new storage.* counters
        mem_counters = mem.perf.metrics["counters"]
        dur_counters = dur.perf.metrics["counters"]
        extra = set(dur_counters) - set(mem_counters)
        assert extra and all(k.startswith("storage.") for k in extra)
        assert dur_counters["storage.commits"] > 0
        same = {k: v for k, v in dur_counters.items() if k in mem_counters}
        assert same == mem_counters
        assert dur.perf.metrics["histograms"] == mem.perf.metrics["histograms"]
        final = (dur.n_splits, dur.n_merges, dur.final_records)

        # the run's end state survived: reopen and compare record counts
        back = DurableGridFile.open(tmp_path / "store")
        assert back.gf.n_records == final[2]
        back.gf.check_invariants()
        back.close()
