"""Differential execution tests: the planner-chosen engine result must be
identical (record ids AND projected rows) to the brute-force oracle, across
all three access paths, empty results, boundary-inclusive predicates, and
the durable file-store write path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import ClusterParams
from repro.sql import NaiveDatabase, SqlEngine, SqlError, parse_script

pytestmark = pytest.mark.sql


def run_both(script: str, **engine_kwargs):
    """Execute a script on the engine and the oracle; compare every statement."""
    eng = SqlEngine(**engine_kwargs)
    db = NaiveDatabase()
    results = eng.execute_script(script)
    oracle = db.execute_script(script)
    assert len(results) == len(oracle)
    for res, ref in zip(results, oracle):
        assert res.kind == ref.kind
        assert list(res.record_ids) == list(ref.record_ids), (
            f"{res.kind}: engine={list(res.record_ids)} oracle={list(ref.record_ids)}"
        )
        if res.kind == "select":
            assert res.rows == ref.rows
            assert res.rowcount == ref.rowcount
    return eng, results


SETUP = (
    "CREATE TABLE pts (x REAL(0, 100), y REAL(0, 100)) "
    "USING GRIDFILE, RTREE CAPACITY 8;"
)


def _values(n=400, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, 2))
    return ", ".join(f"({float(x)!r}, {float(y)!r})" for x, y in pts)


@pytest.fixture(scope="module")
def filled():
    return SETUP + f"INSERT INTO pts VALUES {_values()};"


def test_range_select_matches_oracle(filled):
    run_both(filled + "SELECT * FROM pts WHERE x BETWEEN 20 AND 30 AND y <= 50;")


def test_partial_match_and_strict_ops_match_oracle(filled):
    run_both(
        filled
        + "SELECT * FROM pts WHERE x > 25 AND x < 26;"
        + "SELECT y FROM pts WHERE y >= 99;"
        + "SELECT * FROM pts WHERE x != 50;"
    )


def test_equality_empty_result_matches_oracle(filled):
    # Continuous uniform data: an exact-match plane holds nothing.
    eng, results = run_both(filled + "SELECT * FROM pts WHERE x = 55.5;")
    assert results[-1].rowcount == 0
    assert results[-1].plan.page_ids.size == 0


def test_unsatisfiable_conjunction_matches_oracle(filled):
    eng, results = run_both(filled + "SELECT * FROM pts WHERE x < 10 AND x > 90;")
    assert results[-1].rowcount == 0


def test_boundary_inclusive_between(filled):
    # BETWEEN is closed on both ends; plant exact boundary points.
    script = (
        SETUP
        + "INSERT INTO pts VALUES (10.0, 10.0), (20.0, 20.0), (10.0, 20.0);"
        + "SELECT * FROM pts WHERE x BETWEEN 10 AND 20 AND y BETWEEN 10 AND 20;"
        + "SELECT * FROM pts WHERE x <= 10;"
        + "SELECT * FROM pts WHERE x >= 20;"
    )
    eng, results = run_both(script)
    assert results[2].rowcount == 3
    assert results[3].rowcount == 2
    assert results[4].rowcount == 1


def test_nearest_matches_oracle_in_order(filled):
    eng, results = run_both(
        filled
        + "SELECT * FROM pts NEAREST 7 TO (50, 50);"
        + "SELECT * FROM pts NEAREST 1 TO (0, 0);"
        + "SELECT * FROM pts NEAREST 10000 TO (99, 1);"
    )
    # k larger than the table clips to every record, ordered by distance.
    assert results[-1].rowcount == 400


def test_delete_then_select_matches_oracle(filled):
    run_both(
        filled
        + "DELETE FROM pts WHERE x < 30;"
        + "SELECT * FROM pts;"
        + "DELETE FROM pts WHERE y BETWEEN 0 AND 100;"
        + "SELECT * FROM pts;"
        + "DELETE FROM pts;"  # empty table, no-op
    )


def test_insert_after_delete_keeps_rid_discipline(filled):
    # Record ids are never reused — both executors must agree.
    run_both(
        filled
        + "DELETE FROM pts WHERE x <= 50;"
        + "INSERT INTO pts VALUES (1.0, 1.0), (99.0, 99.0);"
        + "SELECT * FROM pts WHERE x <= 2 AND y <= 2;"
        + "SELECT * FROM pts NEAREST 3 TO (99, 99);"
    )


def test_scan_path_select_star_matches_oracle(filled):
    eng, results = run_both(filled + "SELECT * FROM pts;")
    assert results[-1].plan.chosen == "scan"
    assert results[-1].rowcount == 400


def test_projection_and_column_order(filled):
    eng, results = run_both(filled + "SELECT y, x FROM pts WHERE x BETWEEN 40 AND 45;")
    sel = results[-1]
    pts = eng.tables["pts"].gf.points
    for rid, row in zip(sel.record_ids, sel.rows):
        assert row == (float(pts[rid, 1]), float(pts[rid, 0]))


def test_multi_statement_errors_match(filled):
    for bad in (
        "SELECT * FROM nope;",
        "INSERT INTO pts VALUES (1, 2, 3);",
        "INSERT INTO pts VALUES (1000, 0);",  # out of domain
        "SELECT z FROM pts;",
        "CREATE TABLE pts (x REAL(0, 1)) USING GRIDFILE;",  # duplicate
    ):
        eng = SqlEngine()
        db = NaiveDatabase()
        script = filled + bad
        with pytest.raises(SqlError):
            eng.execute_script(script)
        with pytest.raises(SqlError):
            db.execute_script(script)


def test_writes_travel_online_engine(filled):
    eng, results = run_both(filled + "DELETE FROM pts WHERE x < 5;")
    ins = results[1]
    assert ins.online is not None
    assert ins.online.n_inserts == 400
    assert ins.online.n_splits > 0  # capacity 8: the load forces splits
    assert ins.online.mean_write_latency > 0
    dele = results[-1]
    assert dele.online is not None
    assert dele.online.n_deletes == dele.rowcount


def test_selects_route_through_cluster(filled):
    eng, results = run_both(filled + "SELECT * FROM pts WHERE x BETWEEN 10 AND 20;")
    sel = results[-1]
    assert sel.perf is not None
    assert sel.perf.n_queries == 1
    assert sel.perf.blocks_requested_total == sel.plan.page_ids.size
    assert sel.perf.elapsed_time > 0


def test_consecutive_selects_share_one_report(filled):
    eng, results = run_both(
        filled
        + "SELECT * FROM pts WHERE x <= 10;"
        + "SELECT * FROM pts WHERE x >= 90;"
        + "SELECT * FROM pts NEAREST 2 TO (1, 1);"
    )
    selects = [r for r in results if r.kind == "select"]
    assert len(selects) == 3
    assert selects[0].perf is selects[1].perf is selects[2].perf
    assert selects[0].perf.n_queries == 3


def test_durable_file_store_backend(tmp_path):
    script = (
        "CREATE TABLE d (x REAL(0, 10), y REAL(0, 10)) USING GRIDFILE CAPACITY 4;"
        "INSERT INTO d VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), "
        "(6, 6), (7, 7), (8, 8), (9, 9);"
        "DELETE FROM d WHERE x > 8;"
        "SELECT * FROM d WHERE x BETWEEN 2 AND 4;"
    )
    eng, results = run_both(script, store_backend="file", store_path=str(tmp_path))
    assert (tmp_path / "d.gfdb").exists()
    # The durable run behaves identically to the memory-store run.
    mem_eng, mem_results = run_both(script)
    for a, b in zip(results, mem_results):
        assert list(a.record_ids) == list(b.record_ids)
        assert a.rows == b.rows
    # Storage counters landed in the write-side run metrics.
    ins = results[1]
    storage_counters = {
        k: v
        for k, v in ins.online.perf.metrics["counters"].items()
        if k.startswith("storage.")
    }
    assert storage_counters


def test_multi_table_scripts(filled):
    run_both(
        filled
        + "CREATE TABLE other (a REAL(0, 1)) USING GRIDFILE;"
        + "INSERT INTO other VALUES (0.25), (0.75);"
        + "SELECT * FROM other WHERE a <= 0.5;"
        + "SELECT * FROM pts WHERE x <= 1;"
        + "DELETE FROM other WHERE a > 0.5;"
        + "SELECT * FROM other;"
    )


def test_single_statement_execute_equals_script(filled):
    eng = SqlEngine()
    for stmt in parse_script(filled):
        eng.execute(stmt)
    res = eng.execute(parse_script("SELECT * FROM pts WHERE x <= 33;")[0])
    eng2, results2 = run_both(filled + "SELECT * FROM pts WHERE x <= 33;")
    assert list(res.record_ids) == list(results2[-1].record_ids)


class TestMethodOverride:
    """--method re-declusters tables with a registry spec after writes."""

    SCRIPT = (
        "CREATE TABLE m (x REAL(0, 100), y REAL(0, 100)) USING GRIDFILE;"
        f"INSERT INTO m VALUES {_values(200, seed=9)};"
        "SELECT * FROM m WHERE x <= 40;"
    )

    def test_results_identical_to_default(self):
        _, default = run_both(self.SCRIPT)
        _, overridden = run_both(self.SCRIPT, method="lsq/D")
        for a, b in zip(default, overridden):
            assert list(a.record_ids) == list(b.record_ids)

    def test_assignment_is_the_registry_methods(self):
        from repro.core.registry import make_method

        eng, _ = run_both(self.SCRIPT, method="lsq/D")
        table = eng.tables["m"]
        expected = make_method("lsq/D").assign(table.gf, eng.n_disks, rng=eng.seed)
        assert np.array_equal(table.assignment, expected)

    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ValueError, match="choose from"):
            SqlEngine(method="nope")
        with pytest.raises(ValueError, match="bad method spec"):
            SqlEngine(method="lsq//")


@pytest.mark.parametrize(
    "kw, match",
    [
        (dict(store_backend="tape"), "store backend"),
        (dict(store_backend="file"), "store_path"),
        (dict(wal_sync="sometimes"), "wal_sync"),
        (dict(params=ClusterParams(deadline=float("nan"))), "deadline"),
        (dict(params=ClusterParams(scheduler="elevator")), "scheduler"),
        (dict(params=ClusterParams(replica_policy="psychic")), "replica policy"),
    ],
)
def test_bad_settings_rejected_at_construction(kw, match):
    with pytest.raises(ValueError, match=match):
        SqlEngine(**kw)
