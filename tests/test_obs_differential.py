"""Differential test: traces reconstruct the paper's response-time metric.

A healthy (fault-free, unreplicated) cluster run requests exactly the
buckets each query touches, on the disks the assignment dictates.  The
``request.send`` trace events carry the effective global disk of every
requested block, so per-query disk-access counts — and hence the paper's
``max_i N_i(q)`` response time — are reconstructible from the trace alone.

For every declustering method in the registry, on random small grid
files, the reconstruction must equal both the vectorized
:func:`repro.sim.response_times` kernel and its per-query reference
oracle.  This pins the cluster protocol, the planner, and both §2.2
kernels to one another through the observability layer.
"""

import numpy as np
import pytest

from repro.core import available_methods, make_method
from repro.gridfile import GridFile
from repro.obs import Tracer
from repro.parallel import ParallelGridFile
from repro.sim import resolve_query_buckets, square_queries
from repro.sim.diskmodel import response_times
from tests.oracles import response_times_reference

N_DISKS = 4


def _reconstruct_from_trace(records, n_queries, n_disks):
    """Per-query ``max_i N_i(q)`` from first-attempt ``request.send`` events."""
    counts = np.zeros((n_queries, n_disks), dtype=np.int64)
    for rec in records:
        if rec.get("name") != "request.send":
            continue
        attrs = rec["attrs"]
        if attrs["attempt"] != 0:
            continue
        for disk in attrs["disks"]:
            counts[attrs["qid"], disk] += 1
    return counts.max(axis=1)


@pytest.mark.parametrize("spec", available_methods())
@pytest.mark.parametrize("seed", [3, 17])
def test_trace_reconstruction_matches_both_kernels(spec, seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 500, size=(250, 2))
    gf = GridFile.from_points(points, [0, 0], [500, 500], capacity=12)
    method = make_method(spec)
    assignment = method.assign(gf, N_DISKS, rng=seed)
    queries = square_queries(10, 0.1, [0, 0], [500, 500], rng=seed)

    tracer = Tracer()
    ParallelGridFile(gf, assignment, N_DISKS).run_queries(queries, tracer=tracer)
    from_trace = _reconstruct_from_trace(tracer.records, len(queries), N_DISKS)

    bls = resolve_query_buckets(gf, queries)
    vectorized = response_times(bls, assignment, N_DISKS)
    reference = response_times_reference(bls, assignment, N_DISKS)

    np.testing.assert_array_equal(vectorized, reference)
    np.testing.assert_array_equal(from_trace, vectorized)


def test_reconstruction_counts_blocks_not_requests():
    """Multi-bucket requests contribute every block to their disk's count."""
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 500, size=(400, 2))
    gf = GridFile.from_points(points, [0, 0], [500, 500], capacity=10)
    # All buckets on one disk: response must equal buckets touched.
    assignment = np.zeros(gf.n_buckets, dtype=np.int64)
    queries = square_queries(5, 0.2, [0, 0], [500, 500], rng=rng)

    tracer = Tracer()
    ParallelGridFile(gf, assignment, 2).run_queries(queries, tracer=tracer)
    from_trace = _reconstruct_from_trace(tracer.records, len(queries), 2)

    bls = resolve_query_buckets(gf, queries)
    np.testing.assert_array_equal(from_trace, np.asarray(bls.counts))
