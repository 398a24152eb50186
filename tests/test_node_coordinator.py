"""Tests for worker nodes and the coordinator's query planning.

``serve_reference`` (:mod:`tests.oracles`) is the worker stage written as
one loop; the engine's FIFO worker stage must reserve the same disk windows
and count the same blocks and records for any request stream.
"""

import numpy as np
import pytest

from repro.core import Minimax
from repro.gridfile import RangeQuery
from repro.obs import Tracer
from repro.parallel import ClusterParams, ParallelGridFile, RequestPipeline
from repro.parallel.coordinator import Coordinator
from repro.parallel.disk import DiskModel
from repro.parallel.message import BlockRequest
from repro.parallel.node import WorkerNode
from repro.sim import square_queries
from tests.oracles import serve_reference


class TestWorkerNode:
    def make_node(self, cache_blocks=8, disks=1):
        return WorkerNode.create(0, DiskModel(), cache_blocks, disks_per_node=disks)

    def test_serve_counts(self):
        node = self.make_node()
        req = BlockRequest(0, 0, np.array([1, 2, 3]))
        ready, reply = serve_reference(node, 0.0, req, lambda b: 0, candidates=100, qualified=10)
        assert reply.n_blocks == 3
        assert reply.n_cache_misses == 3
        assert reply.n_candidates == 100
        assert reply.n_qualified == 10
        assert ready > 0.0

    def test_cache_hits_skip_disk(self):
        node = self.make_node()
        req = BlockRequest(0, 0, np.array([1, 2]))
        t1, _ = serve_reference(node, 0.0, req, lambda b: 0, 10, 1)
        busy_after_first = node.disks[0].busy_time
        t2, reply = serve_reference(node, t1, BlockRequest(1, 0, np.array([1, 2])), lambda b: 0, 10, 1)
        assert reply.n_cache_misses == 0
        assert node.disks[0].busy_time == busy_after_first  # no new disk work

    def test_multiple_disks_parallel(self):
        """Blocks split over two disks finish earlier than on one disk."""
        one = self.make_node(cache_blocks=0, disks=1)
        two = self.make_node(cache_blocks=0, disks=2)
        req = BlockRequest(0, 0, np.arange(8))
        t_one, _ = serve_reference(one, 0.0, req, lambda b: 0, 0, 0)
        t_two, _ = serve_reference(two, 0.0, BlockRequest(0, 0, np.arange(8)), lambda b: b % 2, 0, 0)
        assert t_two < t_one

    def test_stats_accumulate(self):
        node = self.make_node()
        serve_reference(node, 0.0, BlockRequest(0, 0, np.array([1])), lambda b: 0, 5, 2)
        serve_reference(node, 1.0, BlockRequest(1, 0, np.array([2])), lambda b: 0, 7, 3)
        assert node.blocks_requested == 2
        assert node.records_filtered == 12
        assert node.records_qualified == 5


def _disk_windows(tracer) -> list:
    return [
        (r["entity"], r["attrs"]["n_blocks"], r["attrs"]["start"], r["attrs"]["end"])
        for r in tracer.records
        if r["name"] == "disk.read"
    ]


@pytest.mark.parametrize("disks_per_node,cache_blocks", [(1, 6), (2, 6), (4, 0)])
def test_fifo_worker_stage_matches_serve_reference(small_gridfile, disks_per_node, cache_blocks):
    """Replay every request the engine delivered through the reference loop
    on fresh nodes: same disk windows, ready times, counters and cache."""
    gf = small_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    params = ClusterParams(
        disks_per_node=disks_per_node, cache_blocks=cache_blocks, pipeline_depth=3
    )
    pgf = ParallelGridFile(gf, assignment, 8, params)
    queries = square_queries(40, 0.15, [0, 0], [2000, 2000], rng=4)
    tracer = Tracer()
    pipe = RequestPipeline(pgf, queries, tracer=tracer)
    delivered = []
    receive = pipe.worker.receive

    def logged(state):
        delivered.append((pipe.sim.now, state.req))
        receive(state)

    pipe.worker.receive = logged
    pipe.run_closed()

    nodes = [
        WorkerNode.create(i, params.disk, cache_blocks, disks_per_node=disks_per_node)
        for i in range(pgf.n_nodes)
    ]
    ref = Tracer()
    ready = []
    for arrival, req in delivered:
        t, reply = serve_reference(
            nodes[req.node_id],
            arrival,
            req,
            lambda b: int(assignment[b]) % disks_per_node,
            req.candidates,
            req.qualified,
            tracer=ref,
        )
        ready.append(t)
        assert reply.n_blocks == req.n_blocks
    assert len(delivered) > 40
    assert _disk_windows(tracer) == _disk_windows(ref)
    assert ready == [r["attrs"]["ready"] for r in tracer.records if r["name"] == "reply.send"]
    for got, want in zip(pipe.nodes, nodes):
        assert (
            got.blocks_requested, got.blocks_read, got.records_filtered, got.records_qualified
        ) == (
            want.blocks_requested, want.blocks_read, want.records_filtered, want.records_qualified
        )
        assert (got.cache.hits, got.cache.misses) == (want.cache.hits, want.cache.misses)
        assert list(got.cache._blocks) == list(want.cache._blocks)
        assert [d.busy_time for d in got.disks] == [d.busy_time for d in want.disks]
        assert got.cpu.busy_until == want.cpu.busy_until


@pytest.fixture
def coordinator(small_gridfile):
    gf = small_gridfile
    assignment = Minimax().assign(gf, 8, rng=0)
    return gf, Coordinator(gf, assignment, 8, disks_per_node=2)


class TestCoordinator:
    def test_topology(self, coordinator):
        gf, coord = coordinator
        assert coord.n_nodes == 4
        for b in range(gf.n_buckets):
            assert coord.node_of_bucket(b) == coord.assignment[b] // 2

    def test_rejects_indivisible_disks(self, small_gridfile):
        a = np.zeros(small_gridfile.n_buckets, dtype=np.int64)
        with pytest.raises(ValueError):
            Coordinator(small_gridfile, a, 7, disks_per_node=2)

    def test_plan_covers_query_buckets(self, coordinator):
        gf, coord = coordinator
        q = RangeQuery(np.array([200.0, 200.0]), np.array([1400.0, 1400.0]))
        plan = coord.plan(0, q)
        want = set(gf.query_buckets(q.lo, q.hi).tolist())
        got = set()
        for req in plan.requests:
            got |= set(int(b) for b in req.bucket_ids)
            assert req.node_id == coord.node_of_bucket(int(req.bucket_ids[0]))
        assert got == want

    def test_response_by_definition(self, coordinator):
        gf, coord = coordinator
        q = RangeQuery(np.array([0.0, 0.0]), np.array([2000.0, 2000.0]))
        plan = coord.plan(0, q)
        bids = gf.query_buckets(q.lo, q.hi)
        counts = np.bincount(coord.assignment[bids], minlength=8)
        assert plan.response_by_definition == counts.max()

    def test_qualified_counts_exact(self, coordinator):
        gf, coord = coordinator
        q = RangeQuery(np.array([500.0, 500.0]), np.array([900.0, 900.0]))
        plan = coord.plan(0, q)
        want = int(q.contains(gf.coords()).sum())
        assert plan.total_qualified == want

    def test_empty_query_plan(self, coordinator):
        gf, coord = coordinator
        # A sliver in a data-free corner may touch one merged bucket or none;
        # candidates >= qualified always.
        q = RangeQuery(np.array([0.0, 1999.9]), np.array([0.1, 2000.0]))
        plan = coord.plan(0, q)
        for node, cand in plan.candidates_per_node.items():
            assert plan.qualified_per_node[node] <= cand

    def test_plan_cpu_time_grows_with_buckets(self, coordinator):
        gf, coord = coordinator
        small = coord.plan(0, RangeQuery(np.array([0.0, 0.0]), np.array([100.0, 100.0])))
        big = coord.plan(1, RangeQuery(np.array([0.0, 0.0]), np.array([2000.0, 2000.0])))
        assert coord.plan_cpu_time(big) > coord.plan_cpu_time(small)
