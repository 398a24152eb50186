"""Tests for the open-arrival (queueing) mode of the cluster simulator."""

import numpy as np
import pytest

from repro.core import Minimax
from repro.datasets import build_gridfile, load
from repro.parallel import ClusterParams, ParallelGridFile
from repro.sim import square_queries


@pytest.fixture(scope="module")
def system():
    ds = load("hot.2d", rng=1, n=4000)
    gf = build_gridfile(ds, capacity=40)
    a = Minimax().assign(gf, 8, rng=0)
    pgf = ParallelGridFile(gf, a, 8, ClusterParams(cache_blocks=0))
    queries = square_queries(150, 0.05, ds.domain_lo, ds.domain_hi, rng=2)
    return pgf, queries


class TestRunOpen:
    def test_report_consistency(self, system):
        pgf, queries = system
        rep = pgf.run_open(queries, arrival_rate=10.0, rng=3)
        assert rep.n_queries == len(queries)
        assert (rep.latencies > 0).all()
        assert rep.mean_latency <= rep.p95_latency
        assert rep.elapsed_time >= rep.completion_times.max() - 1e-12

    def test_blocks_independent_of_mode(self, system):
        """The declustering metric does not depend on how queries arrive."""
        pgf, queries = system
        open_rep = pgf.run_open(queries, arrival_rate=5.0, rng=3)
        closed_rep = pgf.run_queries(queries)
        assert open_rep.blocks_fetched == closed_rep.blocks_fetched

    def test_latency_grows_with_load(self, system):
        pgf, queries = system
        low = pgf.run_open(queries, arrival_rate=5.0, rng=3)
        high = pgf.run_open(queries, arrival_rate=400.0, rng=3)
        assert high.mean_latency > low.mean_latency

    def test_overload_queues_unboundedly(self, system):
        """Far beyond saturation, late queries wait much longer than early
        ones (the queue keeps growing)."""
        pgf, queries = system
        rep = pgf.run_open(queries, arrival_rate=2000.0, rng=3)
        first = rep.latencies[: len(queries) // 4].mean()
        last = rep.latencies[-len(queries) // 4 :].mean()
        assert last > 2 * first

    def test_throughput_tracks_rate_below_saturation(self, system):
        pgf, queries = system
        rep = pgf.run_open(queries, arrival_rate=10.0, rng=3)
        assert 6.0 < rep.throughput < 14.0

    def test_deterministic(self, system):
        pgf, queries = system
        a = pgf.run_open(queries, arrival_rate=20.0, rng=9)
        b = pgf.run_open(queries, arrival_rate=20.0, rng=9)
        assert np.array_equal(a.latencies, b.latencies)

    def test_rejects_bad_rate(self, system):
        pgf, queries = system
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="arrival_rate"):
                pgf.run_open(queries, arrival_rate=rate)

    def test_closed_mode_latencies_filled(self, system):
        pgf, queries = system
        rep = pgf.run_queries(queries)
        assert rep.latencies.shape == (len(queries),)
        assert (rep.latencies > 0).all()
