"""Finished runs are freed by reference counting alone.

A cluster run builds a web of objects (the request pipeline, its stages,
worker nodes with LRU caches, plans and block requests).  If any of them
point back at each other strongly, the whole run stays in memory until
the cyclic garbage collector happens to pass, and peak memory grows with
the number of runs made between collections.  Each test below runs one
kind of workload with the collector disabled, then asks it (under
``DEBUG_SAVEALL``) what it would have had to free: no object of this
package may be among it.
"""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.core import make_method
from repro.gridfile import GridFile
from repro.parallel import ClusterParams, FaultPlan, OnlineCluster, ParallelGridFile
from repro.sim import mixed_workload, square_queries
from repro.sql import SqlEngine

DOMAIN = ([0.0, 0.0], [1000.0, 1000.0])


def _is_ours(obj) -> bool:
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        module = getattr(obj, "__module__", None) or ""
    else:
        module = type(obj).__module__
    return module == "repro" or module.startswith("repro.")


def _cyclic_garbage(run) -> list:
    """Objects of this package that only the cyclic collector would free
    after ``run()`` returns (its result is dropped first)."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({type(o).__qualname__ for o in gc.garbage if _is_ours(o)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture(scope="module")
def deployment():
    rng = np.random.default_rng(42)
    gf = GridFile.from_points(rng.uniform(0, 1000, size=(600, 2)), *DOMAIN, capacity=20)
    assignment = make_method("minimax").assign(gf, 8, rng=42)
    queries = square_queries(30, 0.06, *DOMAIN, rng=42)
    return gf, assignment, queries


def test_closed_run_leaves_no_cycles(deployment):
    gf, assignment, queries = deployment
    pgf = ParallelGridFile(gf, assignment, 8)
    assert _cyclic_garbage(lambda: pgf.run_queries(queries)) == []


def test_open_run_leaves_no_cycles(deployment):
    gf, assignment, queries = deployment
    pgf = ParallelGridFile(gf, assignment, 8, ClusterParams(max_inflight=4))
    assert _cyclic_garbage(lambda: pgf.run_open(queries, arrival_rate=150.0, rng=9)) == []


def test_faulted_run_leaves_no_cycles(deployment):
    gf, assignment, queries = deployment
    plan = (
        FaultPlan(seed=5)
        .node_crash(0.02, node=2)
        .node_recover(0.25, node=2)
        .link_loss(0.0, node=0, loss_prob=0.1)
    )
    pgf = ParallelGridFile(gf, assignment, 8, ClusterParams(replication="chained"))
    assert _cyclic_garbage(lambda: pgf.run_queries(queries, faults=plan)) == []


def test_online_run_leaves_no_cycles():
    rng = np.random.default_rng(7)
    gf = GridFile.from_points(rng.uniform(0, 1000, size=(300, 2)), *DOMAIN, capacity=20)
    assignment = make_method("minimax").assign(gf, 8, rng=42)
    ops = mixed_workload(80, 0.3, *DOMAIN, rng=13)
    cluster = OnlineCluster(gf, assignment, 8, placement="rr-least-loaded", seed=42)
    assert _cyclic_garbage(lambda: cluster.run(ops)) == []


def test_sql_statements_leave_no_cycles():
    """INSERT and DELETE dirty the table's R-tree; the SELECTs after them
    rebuild it, so the replaced trees must die by reference count too."""
    eng = SqlEngine(n_disks=4)
    eng.execute_script(
        "CREATE TABLE pts (x REAL(0.0, 100.0), y REAL(0.0, 100.0)) "
        "USING GRIDFILE, RTREE CAPACITY 8;"
    )
    rng = np.random.default_rng(3)
    rows = ", ".join(f"({x!r}, {y!r})" for x, y in rng.uniform(0, 100, (120, 2)).tolist())
    script = (
        f"INSERT INTO pts VALUES {rows};"
        "SELECT * FROM pts WHERE x BETWEEN 10.0 AND 60.0 AND y BETWEEN 20.0 AND 70.0;"
        "SELECT * FROM pts NEAREST 5 TO (50.0, 50.0);"
        "DELETE FROM pts WHERE x BETWEEN 0.0 AND 30.0;"
        "SELECT * FROM pts WHERE x BETWEEN 0.0 AND 100.0 AND y BETWEEN 0.0 AND 50.0;"
        "SELECT * FROM pts NEAREST 5 TO (20.0, 80.0);"
    )
    assert _cyclic_garbage(lambda: eng.execute_script(script)) == []
