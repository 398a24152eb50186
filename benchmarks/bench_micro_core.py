"""Microbenchmarks of the performance-critical kernels.

These are real pytest-benchmark timings (multiple rounds) of the inner
loops that dominate end-to-end declustering cost: Hilbert indexing,
proximity rows, minimax partitioning, grid file bulk loading, and query
evaluation throughput.
"""

import time

import numpy as np
import pytest

from repro.core import proximity_index
from repro.core.minimax import minimax_partition
from repro.datasets import load
from repro.gridfile import bulk_load
from repro.sfc import HilbertCurve
from repro.sim import square_queries
from repro.sim.diskmodel import (
    query_buckets,
    resolve_query_buckets,
    response_times,
)
from tests.oracles import response_times_reference


@pytest.fixture(scope="module")
def boxes():
    rng = np.random.default_rng(0)
    lo = rng.uniform(0, 9, size=(2000, 3))
    hi = lo + rng.uniform(0.05, 0.5, size=(2000, 3))
    return lo, np.minimum(hi, 10.0), np.array([10.0, 10.0, 10.0])


def test_hilbert_index_throughput(benchmark):
    """Hilbert-index one million 3-d cells."""
    curve = HilbertCurve(dims=3, bits=10)
    cells = np.random.default_rng(1).integers(0, 1 << 10, size=(1_000_000, 3))
    out = benchmark(curve.index, cells)
    assert out.shape == (1_000_000,)


def test_proximity_row_throughput(benchmark, boxes):
    """One bucket against 2,000 others (the minimax inner step)."""
    lo, hi, lengths = boxes
    out = benchmark(proximity_index, lo[0], hi[0], lo, hi, lengths)
    assert out.shape == (2000,)


def test_minimax_partition_2000_buckets(benchmark, boxes):
    """Full O(N^2) minimax run on 2,000 buckets, 16 disks."""
    lo, hi, lengths = boxes
    out = benchmark.pedantic(
        minimax_partition, args=(lo, hi, lengths, 16), kwargs={"rng": 0},
        rounds=3, iterations=1,
    )
    assert np.bincount(out).max() <= 125


def test_bulk_load_50k_records(benchmark):
    """Bulk-load the DSMC.3d surrogate (52,857 records)."""
    ds = load("dsmc.3d", rng=0)
    gf = benchmark.pedantic(
        bulk_load,
        args=(ds.points, ds.domain_lo, ds.domain_hi, 170),
        kwargs={"resolution": (16, 12, 8)},
        rounds=3,
        iterations=1,
    )
    assert gf.n_records == 52_857


def test_query_evaluation_throughput(benchmark):
    """Resolve 1,000 range queries against a 1,500-bucket grid file."""
    ds = load("stock.3d", rng=0)
    gf = bulk_load(ds.points, ds.domain_lo, ds.domain_hi, 150, resolution=(32, 22, 9))
    queries = square_queries(1000, 0.05, ds.domain_lo, ds.domain_hi, rng=1)
    lists = benchmark.pedantic(query_buckets, args=(gf, queries), rounds=3, iterations=1)
    assert len(lists) == 1000


def test_response_times_vectorized_speedup(benchmark, report_sink):
    """Acceptance gate: the CSR response-time kernel beats the per-query loop >= 5x.

    Fig-6-scale setup — the stock.3d grid file (~1,500 buckets) under 10,000
    random square queries at r = 0.01.  Both kernels consume the same
    CSR-packed bucket lists, so the comparison isolates the evaluation loop
    itself; timings and the speedup land in results/micro_response_speedup.json.
    """
    ds = load("stock.3d", rng=0)
    gf = bulk_load(ds.points, ds.domain_lo, ds.domain_hi, 150, resolution=(32, 22, 9))
    queries = square_queries(10_000, 0.01, ds.domain_lo, ds.domain_hi, rng=1)
    bls = resolve_query_buckets(gf, queries)
    n_disks = 16
    assignment = np.random.default_rng(2).integers(0, n_disks, size=gf.n_buckets)

    def best_of(fn, rounds):
        best, out = np.inf, None
        for _ in range(rounds):
            t0 = time.perf_counter()
            out = fn(bls, assignment, n_disks)
            best = min(best, time.perf_counter() - t0)
        return best, out

    t_vec, vec = best_of(response_times, rounds=5)
    t_ref, ref = best_of(response_times_reference, rounds=2)
    assert np.array_equal(vec, ref)

    out = benchmark.pedantic(
        response_times, args=(bls, assignment, n_disks), rounds=3, iterations=1
    )
    assert out.shape == (10_000,)

    speedup = t_ref / t_vec
    text = (
        f"response_times kernel, stock.3d ({gf.n_buckets} buckets), "
        f"10,000 queries r=0.01, M={n_disks}\n"
        f"  per-query loop : {t_ref * 1e3:9.2f} ms\n"
        f"  vectorized CSR : {t_vec * 1e3:9.2f} ms\n"
        f"  speedup        : {speedup:9.2f}x (acceptance floor: 5x)"
    )
    report_sink(
        "micro_response_speedup",
        text,
        data={
            "n_queries": 10_000,
            "n_buckets": int(gf.n_buckets),
            "n_disks": n_disks,
            "ratio": 0.01,
            "loop_seconds": t_ref,
            "vectorized_seconds": t_vec,
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0, f"vectorized kernel only {speedup:.2f}x faster"


def test_knn_query_throughput(benchmark):
    """1,000 kNN(10) queries against a 50k-record grid file."""
    from repro.gridfile import knn_query

    ds = load("dsmc.3d", rng=0)
    gf = bulk_load(ds.points, ds.domain_lo, ds.domain_hi, 170, resolution=(16, 12, 8))
    rng = np.random.default_rng(1)
    probes = rng.uniform(0, 1, size=(1000, 3))

    def run():
        return [knn_query(gf, p, 10)[0] for p in probes]

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(out) == 1000 and all(ids.size == 10 for ids in out)


def test_kl_refinement_1500_buckets(benchmark):
    """One KL refinement on the stock.3d-scale bucket population."""
    from repro.core.kl import kl_refine
    from repro.core.proximity import proximity_matrix

    rng = np.random.default_rng(2)
    n = 1500
    lo = rng.uniform(0, 9, size=(n, 3))
    hi = np.minimum(lo + rng.uniform(0.05, 0.5, size=(n, 3)), 10.0)
    w = proximity_matrix(lo, hi, np.array([10.0, 10.0, 10.0]))
    initial = np.arange(n) % 16

    out, _ = benchmark.pedantic(
        kl_refine, args=(w, initial, 16), kwargs={"passes": 1}, rounds=1, iterations=1
    )
    assert out.shape == (n,)


def test_minimax_expand_2000_buckets(benchmark):
    """Incremental 16 -> 20 disk expansion over 2,000 buckets."""
    from repro.core import minimax_expand

    rng = np.random.default_rng(3)
    n = 2000
    lo = rng.uniform(0, 9, size=(n, 3))
    hi = np.minimum(lo + rng.uniform(0.05, 0.5, size=(n, 3)), 10.0)
    initial = np.arange(n) % 16
    out = benchmark.pedantic(
        minimax_expand,
        args=(lo, hi, np.array([10.0, 10.0, 10.0]), initial, 16, 20),
        kwargs={"rng": 0},
        rounds=3,
        iterations=1,
    )
    assert np.bincount(out, minlength=20).max() <= 100
