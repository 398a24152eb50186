"""End-to-end lifecycle test: the whole system in one story.

Generate a dataset, build and persist the grid file, pick a method with the
advisor, decluster, serve queries on the simulated cluster, survive a disk
failure, expand the farm, and re-verify — the workflow a real deployment
would follow, exercising every package boundary in one pass.
"""

from repro.core import Minimax, recommend
from repro.core.redistribute import minimax_expand, movement_fraction
from repro.datasets import build_gridfile, load
from repro.parallel import ClusterParams, ParallelGridFile, apply_failures
from repro.sim import evaluate_queries, square_queries
from repro.storage import DurableGridFile


def test_full_lifecycle(tmp_path):
    # 1. Dataset and grid file.
    ds = load("dsmc.3d", rng=7, n=12_000)
    gf = build_gridfile(ds, capacity=60)
    gf.check_invariants()

    # 2. Persist and reload (the file outlives the process).
    DurableGridFile.create(gf, tmp_path / "dsmc").close()
    store = DurableGridFile.open(tmp_path / "dsmc")
    gf = store.gf
    store.close()
    gf.check_invariants()

    # 3. Advisor picks a method on a training sample.
    train = square_queries(120, 0.02, ds.domain_lo, ds.domain_hi, rng=1)
    recs = recommend(gf, train, 8, candidates=["dm/D", "hcam/D", "minimax"], rng=7)
    assert recs[0].name in ("MiniMax", "HCAM/D", "DM/D")

    # 4. Deploy with minimax on the simulated cluster; serve a fresh workload.
    m = 8
    assignment = Minimax().assign(gf, m, rng=7)
    cluster = ParallelGridFile(gf, assignment, m, ClusterParams())
    load_rep = cluster.simulate_load()
    assert load_rep.imbalance < 1.3
    test_q = square_queries(80, 0.02, ds.domain_lo, ds.domain_hi, rng=2)
    healthy = cluster.run_queries(test_q)
    want_records = sum(int(q.contains(gf.coords()).sum()) for q in test_q)
    assert healthy.records_returned == want_records

    # 5. A disk fails; chained replication keeps serving, degraded.
    degraded_assignment = apply_failures(assignment, m, [3], "chained")
    degraded = ParallelGridFile(gf, degraded_assignment, m, ClusterParams()).run_queries(test_q)
    assert degraded.records_returned == want_records
    assert degraded.blocks_fetched >= healthy.blocks_fetched

    # 6. Capacity relief: expand 8 -> 10 disks with minimal movement.
    lo, hi = gf.bucket_regions()
    expanded = minimax_expand(lo, hi, gf.scales.lengths, assignment, 8, 10, rng=7)
    assert movement_fraction(assignment, expanded, gf.bucket_sizes()) <= 0.25
    ev_old = evaluate_queries(gf, assignment, test_q, 10)
    ev_new = evaluate_queries(gf, expanded, test_q, 10)
    assert ev_new.mean_response <= ev_old.mean_response
    assert ev_new.mean_response >= ev_new.mean_optimal
