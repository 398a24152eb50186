"""Extension: quality frontier of the scalable minimax path.

The exact minimax declusterer (`repro.core.minimax`) evaluates all O(N²)
pairwise proximities; the scalable path (`repro.core.scalable`) replaces
that with a sparse SFC-window k-NN graph and a coarsen-partition-refine
hierarchy, trading a bounded amount of partition quality for near-linear
time and O(N·k) memory.  This bench maps the quality side of that trade on
synthetic box sets: for each N it reports the sparse path's partition
quality as summed query response time ``Σ_q max_i N_i(q)`` against a fixed
random square workload, and — while the dense oracle is still affordable —
the quality ratio against the exact algorithm.

Quality numbers (response sums, ratios, graph edge counts) are fully
deterministic, so ``tools/bench_compare.py --exact`` against the committed
baseline acts as a behavioural regression gate in CI, and the table has no
wall-clock column, so a regenerated table equals the committed one byte
for byte.  The ``decluster`` workload of ``bench/`` measures wall time.

``REPRO_BENCH_FULL=1`` extends the sweep to 100k and 1M buckets — the
million-bucket row is the paper-scale headline (completes in minutes on a
laptop; the dense path would need ~4 TB for its weight matrix alone).
"""

import numpy as np
from conftest import FULL, SEED, once

from repro._util import format_table
from repro.core.minimax import minimax_partition
from repro.core.scalable import knn_graph, scalable_minimax_partition
from repro.sim import square_queries

DISKS = 16
N_QUERIES = 64
QUERY_RATIO = 0.002
#: Largest N at which the dense exact oracle is still run for the ratio.
ORACLE_MAX = 6000
NS = (2000, 6000, 20000, 100_000, 1_000_000) if FULL else (2000, 6000, 20000)
LENGTHS = np.array([100.0, 100.0])

#: Hard quality gate: the sparse path must stay within this factor of the
#: exact oracle on summed response time wherever the oracle is computed.
MAX_ORACLE_RATIO = 1.35


def _boxes(n, rng):
    lo = rng.uniform(0, 99, size=(n, 2))
    hi = np.minimum(lo + rng.uniform(0.05, 0.5, size=(n, 2)), 100.0)
    return lo, hi


def _response_sum(lo, hi, assignment, queries):
    """Σ_q max_i N_i(q) plus the optimal Σ_q ⌈touched/M⌉ for box data."""
    total = 0
    optimal = 0
    for q in queries:
        mask = np.all(lo <= q.hi, axis=1) & np.all(hi >= q.lo, axis=1)
        touched = int(mask.sum())
        if touched == 0:
            continue
        counts = np.bincount(assignment[mask], minlength=DISKS)
        total += int(counts.max())
        optimal += -(-touched // DISKS)
    return total, optimal


def _run():
    queries = square_queries(
        N_QUERIES, QUERY_RATIO, [0.0, 0.0], [100.0, 100.0], rng=SEED
    )
    rows, data = [], {}
    for n in NS:
        rng = np.random.default_rng(SEED)
        lo, hi = _boxes(n, rng)

        sparse = scalable_minimax_partition(
            lo, hi, LENGTHS, DISKS, rng=0, dense_threshold=0
        )

        graph = knn_graph(lo, hi, LENGTHS)
        resp, opt = _response_sum(lo, hi, sparse, queries)
        cell = {
            "response_blocks": resp,
            "optimal_blocks": opt,
            "ratio_vs_optimal": round(resp / opt, 4) if opt else 1.0,
            "edges": int(graph.n_edges),
            "avg_degree": round(2.0 * graph.n_edges / n, 3),
            "max_load": int(np.bincount(sparse, minlength=DISKS).max()),
        }

        if n <= ORACLE_MAX:
            dense = minimax_partition(lo, hi, LENGTHS, DISKS, rng=0)
            oracle_resp, _ = _response_sum(lo, hi, dense, queries)
            cell["oracle_blocks"] = oracle_resp
            cell["ratio_vs_oracle"] = (
                round(resp / oracle_resp, 4) if oracle_resp else 1.0
            )

        data[str(n)] = cell
        rows.append(
            [
                n,
                cell["response_blocks"],
                cell.get("oracle_blocks", "-"),
                cell.get("ratio_vs_oracle", "-"),
                cell["ratio_vs_optimal"],
                cell["avg_degree"],
            ]
        )
    return rows, data


def test_ext_scale_frontier(benchmark, report_sink):
    rows, data = once(benchmark, _run)
    report_sink(
        "ext_scale",
        format_table(
            [
                "N buckets",
                "blocks",
                "exact blocks",
                "vs exact",
                "vs optimal",
                "avg deg",
            ],
            rows,
            title=(
                "Extension: scalable-minimax quality frontier "
                f"(synthetic 2-d boxes, {DISKS} disks, {N_QUERIES} queries)"
            ),
        ),
        data=data,
    )

    for n in NS:
        cell = data[str(n)]
        # Balance cap ⌈N/M⌉ + slack holds at every size.
        assert cell["max_load"] <= -(-n // DISKS) + 1
        # The sparse graph stays sparse: bounded average degree.
        assert cell["avg_degree"] < 2 * len(("hilbert", "zorder")) * 4 + 2
        if "ratio_vs_oracle" in cell:
            assert cell["ratio_vs_oracle"] <= MAX_ORACLE_RATIO, cell
