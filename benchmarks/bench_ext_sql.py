"""Extension benchmark: SQL planner pick rates and cost vs workload shape.

Drives four SQL workload shapes through :class:`repro.sql.SqlEngine` over
one GRIDFILE+RTREE table and reports, per shape, which access path the
cost model picked and what the cluster actually paid:

* ``range-small``    — tight boxes (~0.1% of the domain volume): the grid
  directory touches a handful of cells, so ``gridfile`` should dominate;
* ``partial-match``  — equality on one dimension: the grid directory must
  fetch a whole slab while the R-tree descends to the few buckets holding
  actual matches, so ``rtree`` should dominate;
* ``range-wide``     — boxes covering most of the domain: every path
  fetches nearly everything, so zero-lookup-CPU ``scan`` should dominate;
* ``knn``            — ``NEAREST k`` probes.

The regressable payload (pick counts, pages requested, rows returned,
simulated elapsed time) is fully deterministic — the CI gate diffs it
against the committed baseline with ``--exact``, and the table carries no
wall-clock column, so a regenerated table equals the committed one byte
for byte.  The ``sql`` workload of ``bench/`` measures wall time.
"""

from __future__ import annotations

import numpy as np
from conftest import FULL, SEED, once

from repro._util import format_table
from repro.sql import SqlEngine

N_RECORDS = 4000 if FULL else 1500
N_QUERIES = 120 if FULL else 40
CAPACITY = 8
N_DISKS = 8
DOMAIN = 100.0


def _build_engine(rng) -> SqlEngine:
    eng = SqlEngine(n_disks=N_DISKS)
    pts = rng.uniform(0.0, DOMAIN, size=(N_RECORDS, 2))
    rows = ", ".join(f"({float(x)!r}, {float(y)!r})" for x, y in pts)
    eng.execute_script(
        f"CREATE TABLE pts (x REAL(0.0, {DOMAIN!r}), y REAL(0.0, {DOMAIN!r})) "
        f"USING GRIDFILE, RTREE CAPACITY {CAPACITY};"
        f"INSERT INTO pts VALUES {rows};"
    )
    return eng


def _shape_scripts(rng) -> dict:
    shapes: dict[str, list[str]] = {"range-small": [], "partial-match": [], "range-wide": [], "knn": []}
    side = DOMAIN * 0.001 ** 0.5  # ~0.1% of the domain volume
    for _ in range(N_QUERIES):
        cx, cy = rng.uniform(0.0, DOMAIN - side, size=2)
        shapes["range-small"].append(
            f"SELECT * FROM pts WHERE x BETWEEN {float(cx)!r} AND {float(cx + side)!r} "
            f"AND y BETWEEN {float(cy)!r} AND {float(cy + side)!r}"
        )
        shapes["partial-match"].append(
            f"SELECT * FROM pts WHERE x = {float(rng.uniform(0.0, DOMAIN))!r}"
        )
        # Offsets stay inside the first grid cell, so the directory can
        # prune nothing and the zero-lookup scan wins on CPU.
        lo = rng.uniform(0.0, DOMAIN * 0.01, size=2)
        shapes["range-wide"].append(
            f"SELECT * FROM pts WHERE x >= {float(lo[0])!r} AND y >= {float(lo[1])!r}"
        )
        px, py = rng.uniform(0.0, DOMAIN, size=2)
        shapes["knn"].append(
            f"SELECT * FROM pts NEAREST 5 TO ({float(px)!r}, {float(py)!r})"
        )
    return shapes


def _run():
    rng = np.random.default_rng(SEED)
    eng = _build_engine(rng)
    shapes = _shape_scripts(rng)
    rows, series = [], []
    for shape, selects in shapes.items():
        script = ";\n".join(selects) + ";"
        results = eng.execute_script(script)
        picks = {"gridfile": 0, "rtree": 0, "scan": 0}
        pages = rows_out = 0
        for res in results:
            picks[res.plan.chosen] += 1
            pages += int(res.plan.page_ids.size)
            rows_out += res.rowcount
        perf = results[0].perf  # the whole shape batch shares one run
        rows.append(
            [
                shape,
                len(results),
                picks["gridfile"],
                picks["rtree"],
                picks["scan"],
                pages,
                rows_out,
                f"{perf.elapsed_time:.4f}",
            ]
        )
        series.append(
            {
                "shape": shape,
                "n_queries": len(results),
                "pick_gridfile": picks["gridfile"],
                "pick_rtree": picks["rtree"],
                "pick_scan": picks["scan"],
                "pages_requested": pages,
                "rows_returned": rows_out,
                "sim_elapsed": perf.elapsed_time,
            }
        )
    return rows, series


def test_ext_sql_planner(benchmark, report_sink):
    rows, series = once(benchmark, _run)
    report_sink(
        "ext_sql",
        format_table(
            [
                "shape",
                "queries",
                "gridfile",
                "rtree",
                "scan",
                "pages",
                "rows",
                "sim elapsed (s)",
            ],
            rows,
            title="Extension: SQL planner picks and cost vs workload shape",
        ),
        data={"series": series},
    )
    by = {s["shape"]: s for s in series}
    # Each shape lands on the path the R(q) cost model predicts cheapest.
    assert by["range-small"]["pick_gridfile"] == N_QUERIES
    assert by["partial-match"]["pick_rtree"] == N_QUERIES
    assert by["range-wide"]["pick_scan"] == N_QUERIES
    assert by["knn"]["pick_scan"] == 0
    # Partial-match over continuous data: almost no rows, almost no pages.
    assert by["partial-match"]["pages_requested"] < by["range-wide"]["pages_requested"]
    assert by["knn"]["rows_returned"] == 5 * N_QUERIES
