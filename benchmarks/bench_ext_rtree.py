"""Extension: grid file vs parallel R-tree under declustering.

The paper's §1 weighs grid files against tree-based structures; Kamel &
Faloutsos' parallel R-trees decluster R-tree leaf pages with a Hilbert
round robin.  Head-to-head on the DSMC.3d surrogate, same page capacity,
same workload: which structure + declustering combination answers range
queries with the least disk traffic?
"""

from conftest import SEED, once

from repro._util import format_table
from repro.core import Minimax
from repro.datasets import build_gridfile, load
from repro.rtree import (
    RTree,
    evaluate_rtree_queries,
    hilbert_leaf_assignment,
    minimax_leaf_assignment,
)
from repro.sim import evaluate_queries, square_queries

DISKS = (8, 16, 32)


def _run():
    ds = load("dsmc.3d", rng=SEED)
    gf = build_gridfile(ds)  # capacity 170 records / page
    rt = RTree.bulk_load(ds.points, max_entries=ds.capacity)
    queries = square_queries(400, 0.01, ds.domain_lo, ds.domain_hi, rng=SEED)

    rows = []
    for m in DISKS:
        gfa = Minimax().assign(gf, m, rng=SEED)
        gv = evaluate_queries(gf, gfa, queries, m)
        rows.append(["grid file", "minimax", m, round(gv.mean_response, 3), round(gv.mean_optimal, 3)])
        rth = evaluate_rtree_queries(rt, hilbert_leaf_assignment(rt, m), queries, m)
        rows.append(["r-tree", "hilbertRR", m, round(rth.mean_response, 3), round(rth.mean_optimal, 3)])
        rtm = evaluate_rtree_queries(rt, minimax_leaf_assignment(rt, m, rng=SEED), queries, m)
        rows.append(["r-tree", "minimax", m, round(rtm.mean_response, 3), round(rtm.mean_optimal, 3)])
    stats = {
        "gf_pages": int(gf.nonempty_bucket_ids().size),
        "rt_pages": rt.n_leaves,
    }
    return rows, stats


def test_ext_rtree_vs_gridfile(benchmark, report_sink):
    rows, stats = once(benchmark, _run)
    text = format_table(
        ["structure", "declustering", "disks", "mean response", "optimal"],
        rows,
        title="Extension: grid file vs parallel R-tree (DSMC.3d, r=0.01)",
    )
    text += f"\npages: grid file {stats['gf_pages']}, r-tree {stats['rt_pages']}"
    report_sink("ext_rtree", text)

    by = {(r[0], r[1], r[2]): r[3] for r in rows}
    for m in DISKS:
        # minimax beats the Hilbert round robin on R-tree leaves as well.
        assert by[("r-tree", "minimax", m)] <= by[("r-tree", "hilbertRR", m)] * 1.05
        # The two structures land in the same band under their best
        # declustering (both are page-granular box partitions of the data).
        a = by[("grid file", "minimax", m)]
        b = by[("r-tree", "minimax", m)]
        assert min(a, b) > 0
        assert max(a, b) / min(a, b) < 1.6
