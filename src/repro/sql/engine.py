"""The SQL execution engine: statements in, cluster traffic out.

Every table is a *live* declustered grid file.  Reads and writes travel
the same simulated paths as every other workload in the repo:

* Each ``SELECT`` becomes one routed range query through the static
  cluster engine (:class:`repro.parallel.engine.runners.ParallelGridFile` /
  :class:`repro.parallel.engine.pipeline.RequestPipeline`) — consecutive
  ``SELECT``\\ s on the same table are batched into one run, so a SQL
  script produces the *same* :class:`PerfReport` as the equivalent
  hand-built query workload (the neutrality pin of
  ``tests/test_sql_neutrality.py``).
* Each ``INSERT``/``DELETE`` flows through the online engine's write path
  (:class:`repro.parallel.online.OnlineCluster`): coordinator CPU, NIC
  transfer, a one-block disk read-modify-write, split placement — and,
  when the table was created over the ``file`` store backend, one WAL
  transaction per applied operation.

``USING`` declares which *access paths* the planner may score (``scan``
is always available): ``USING GRIDFILE`` resolves queries against the
grid directory; ``USING RTREE`` additionally maintains a secondary STR
R-tree (rebuilt lazily after writes) whose descent fetches only the
buckets holding actual matches.  The cost model lives in
:mod:`repro.sql.plan`.

SQL-layer observability (statement/pick counters) lands in the *engine's
own* :class:`~repro.obs.metrics.MetricsRegistry` — never in the
pipeline's per-run registry — so SQL execution adds zero drift to
``PerfReport``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.gridfile.gridfile import GridFile
from repro.obs import PROFILER, MetricsRegistry
from repro.parallel.engine import ClusterParams, ParallelGridFile, PerfReport, validate_params
from repro.parallel.online import OnlineCluster, OnlineReport
from repro.parallel.stores import make_store
from repro.rtree.rtree import RTree
from repro.sim.workload import Operation
from repro.sql.ast import CreateTable, Delete, Explain, Insert, Select, unparse
from repro.sql.errors import SqlError
from repro.sql.parser import parse_script
from repro.sql.plan import SelectPlan, plan_select, predicate_mask

__all__ = ["StatementResult", "SqlTable", "SqlEngine", "DEFAULT_CAPACITY"]

#: Bucket capacity when ``CREATE TABLE`` has no ``CAPACITY`` clause.
DEFAULT_CAPACITY = 8


@dataclass
class StatementResult:
    """Outcome of one executed statement."""

    kind: str  # "create" | "insert" | "delete" | "select" | "explain"
    table: "str | None" = None
    record_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    rows: list = field(default_factory=list)  # projected value tuples
    rowcount: int = 0
    plan: "SelectPlan | None" = None
    text: str = ""  # EXPLAIN rendering / human-readable status
    #: Query-side report; shared by all SELECTs batched into one run.
    perf: "PerfReport | None" = None
    #: Write-side report (INSERT/DELETE runs through the online engine).
    online: "OnlineReport | None" = None


class SqlTable:
    """One table: a live grid file plus optional secondary R-tree."""

    def __init__(self, stmt: CreateTable, store_backend: str, store_path, wal_sync: str):
        self.name = stmt.name
        self.columns = stmt.columns
        self.indexes = stmt.indexes
        self.capacity = stmt.capacity or DEFAULT_CAPACITY
        self.gf = GridFile.empty(
            [c.lo for c in self.columns],
            [c.hi for c in self.columns],
            capacity=self.capacity,
        )
        path = None
        if store_backend != "memory":
            path = os.path.join(store_path, f"{self.name}.gfdb")
        self.store = make_store(
            self.gf, backend=store_backend, path=path, durability=wal_sync
        )
        #: Bucket -> disk; maintained across online runs by the placement
        #: policy (read back from the coordinator after every write batch).
        self.assignment = np.zeros(self.gf.n_buckets, dtype=np.int64)
        self._tree: "RTree | None" = None
        self._tree_rids: "np.ndarray | None" = None
        self._tree_dirty = True

    @property
    def allowed_paths(self) -> tuple:
        return self.indexes + ("scan",)

    def tree_info(self):
        """``(RTree, rid_map)`` rebuilt lazily after writes; None if unused."""
        if "rtree" not in self.indexes:
            return None
        if self._tree_dirty:
            rids = self.gf.live_record_ids()
            self._tree = RTree.bulk_load(
                self.gf.points[rids], max_entries=self.capacity
            )
            self._tree_rids = rids
            self._tree_dirty = False
        return self._tree, self._tree_rids

    def mark_dirty(self) -> None:
        self._tree_dirty = True


class SqlEngine:
    """Execute parsed statements against declustered live tables.

    Parameters
    ----------
    n_disks:
        Cluster size every table is declustered over.
    params:
        Cluster cost model / pipeline seams (defaults mirror the repo).
    placement:
        Online placement policy name for buckets born from splits.
    method:
        Optional declustering method spec (any string accepted by
        :func:`repro.core.registry.make_method`, e.g. ``"lsq/D"``).  When
        set, every table is re-declustered with that method after each
        write batch, instead of keeping the placement policy's incremental
        assignment.  Default None preserves the incremental behavior
        bit-for-bit.  Invalid specs are rejected here, at engine
        construction.
    store_backend, store_path, wal_sync:
        Storage backend per table (``memory`` / ``file``; ``file``
        persists under ``store_path/<table>.gfdb``, which it requires) and
        its WAL durability mode (one of
        :data:`repro.storage.DURABILITY_MODES`).

    Every setting is checked here, at construction, so a bad one fails
    before the first statement runs.
    """

    def __init__(
        self,
        n_disks: int = 4,
        params: "ClusterParams | None" = None,
        placement: str = "rr-least-loaded",
        method: "str | None" = None,
        store_backend: str = "memory",
        store_path=None,
        wal_sync: str = "commit",
        seed: int = 1996,
    ):
        from repro.core.placement import make_placement
        from repro.core.registry import make_method
        from repro.storage import BLOCK_STORES, DURABILITY_MODES

        self.n_disks = int(n_disks)
        self.params = params or ClusterParams()
        validate_params(self.params)
        make_placement(placement)
        self.placement = placement
        self.method = method
        if method is not None:
            make_method(method)  # fail fast on a bad spec
        if store_backend not in BLOCK_STORES:
            raise ValueError(
                f"unknown store backend {store_backend!r}; choose from {sorted(BLOCK_STORES)}"
            )
        if store_backend != "memory" and store_path is None:
            raise ValueError(f"store backend {store_backend!r} requires a store_path")
        if wal_sync not in DURABILITY_MODES:
            raise ValueError(f"unknown wal_sync {wal_sync!r}; choose from {DURABILITY_MODES}")
        self.store_backend = store_backend
        self.store_path = store_path
        self.wal_sync = wal_sync
        self.seed = seed
        self.tables: dict[str, SqlTable] = {}
        #: SQL-layer metrics; deliberately separate from pipeline registries.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------ helpers
    def _table(self, name: str, line: int, col: int) -> SqlTable:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlError(f"unknown table {name!r}", line, col) from None

    def _project(self, table: SqlTable, select: Select, rids: np.ndarray) -> list:
        names = [c.name for c in table.columns]
        if select.columns:
            try:
                dims = [names.index(c) for c in select.columns]
            except ValueError:
                bad = next(c for c in select.columns if c not in names)
                raise SqlError(
                    f"unknown column {bad!r} in SELECT list",
                    select.line,
                    select.column_no,
                ) from None
        else:
            dims = list(range(len(names)))
        pts = table.gf.points[rids]
        return [tuple(float(pts[i, k]) for k in dims) for i in range(rids.size)]

    def _run_online(self, table: SqlTable, ops) -> OnlineReport:
        cluster = OnlineCluster(
            table.store,
            table.assignment,
            self.n_disks,
            params=self.params,
            placement=self.placement,
            seed=self.seed,
        )
        report = cluster.run(ops)
        table.assignment = np.asarray(
            cluster.pgf.coordinator.assignment, dtype=np.int64
        )
        if self.method is not None:
            from repro.core.registry import make_method

            table.assignment = make_method(self.method).assign(
                table.gf, self.n_disks, rng=self.seed
            )
        table.mark_dirty()
        return report

    # ------------------------------------------------------------ execute
    def execute_script(self, text: str) -> list[StatementResult]:
        """Parse and execute a script.

        Consecutive ``SELECT`` statements on the same table are batched
        into a single cluster run and share one :class:`PerfReport` —
        exactly what a hand-built workload of the same queries produces.
        """
        with PROFILER.phase("sql.parse"):
            statements = parse_script(text)
        results: list[StatementResult] = []
        i = 0
        while i < len(statements):
            stmt = statements[i]
            if isinstance(stmt, Select):
                batch = [stmt]
                while (
                    i + len(batch) < len(statements)
                    and isinstance(statements[i + len(batch)], Select)
                    and statements[i + len(batch)].table == stmt.table
                ):
                    batch.append(statements[i + len(batch)])
                results.extend(self._execute_selects(batch))
                i += len(batch)
            else:
                results.append(self.execute(stmt))
                i += 1
        return results

    def execute(self, stmt) -> StatementResult:
        """Execute a single parsed statement."""
        if not isinstance(stmt, Select):
            self.metrics.counter("sql.statements").inc()
        if isinstance(stmt, CreateTable):
            return self._execute_create(stmt)
        if isinstance(stmt, Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, Delete):
            return self._execute_delete(stmt)
        if isinstance(stmt, Select):
            return self._execute_selects([stmt])[0]
        if isinstance(stmt, Explain):
            return self._execute_explain(stmt)
        raise SqlError(f"cannot execute {type(stmt).__name__}")

    # ------------------------------------------------------------ per-kind
    def _execute_create(self, stmt: CreateTable) -> StatementResult:
        if stmt.name in self.tables:
            raise SqlError(
                f"table {stmt.name!r} already exists", stmt.line, stmt.column_no
            )
        table = SqlTable(stmt, self.store_backend, self.store_path, self.wal_sync)
        self.tables[stmt.name] = table
        return StatementResult(
            kind="create",
            table=stmt.name,
            text=f"created table {stmt.name} "
            f"({len(stmt.columns)} columns, paths: {', '.join(table.allowed_paths)})",
        )

    def _execute_insert(self, stmt: Insert) -> StatementResult:
        table = self._table(stmt.table, stmt.line, stmt.column_no)
        d = len(table.columns)
        for row in stmt.rows:
            if len(row) != d:
                raise SqlError(
                    f"INSERT row has {len(row)} values, table {stmt.table!r} "
                    f"has {d} columns",
                    stmt.line,
                    stmt.column_no,
                )
            for col, v in zip(table.columns, row):
                if not col.lo <= v <= col.hi:
                    raise SqlError(
                        f"value {v!r} outside column {col.name!r} domain "
                        f"[{col.lo!r}, {col.hi!r}]",
                        stmt.line,
                        stmt.column_no,
                    )
        first_rid = table.gf.n_records + table.gf.n_deleted
        ops = [
            Operation(kind="insert", point=np.asarray(row, dtype=np.float64))
            for row in stmt.rows
        ]
        with PROFILER.phase("sql.exec"):
            report = self._run_online(table, ops)
        rids = np.arange(first_rid, first_rid + len(stmt.rows), dtype=np.int64)
        self.metrics.counter("sql.rows.inserted").inc(len(stmt.rows))
        return StatementResult(
            kind="insert",
            table=stmt.table,
            record_ids=rids,
            rowcount=len(stmt.rows),
            online=report,
            text=f"inserted {len(stmt.rows)} row(s)",
        )

    def _execute_delete(self, stmt: Delete) -> StatementResult:
        table = self._table(stmt.table, stmt.line, stmt.column_no)
        live = table.gf.live_record_ids()
        if live.size:
            mask = predicate_mask(stmt.where, table.columns, table.gf.points[live])
            victims = live[mask]
        else:
            victims = live
        report = None
        if victims.size:
            ops = [Operation(kind="delete", record_id=int(r)) for r in victims]
            with PROFILER.phase("sql.exec"):
                report = self._run_online(table, ops)
        self.metrics.counter("sql.rows.deleted").inc(int(victims.size))
        return StatementResult(
            kind="delete",
            table=stmt.table,
            record_ids=np.sort(victims).astype(np.int64),
            rowcount=int(victims.size),
            online=report,
            text=f"deleted {victims.size} row(s)",
        )

    def _plan(self, select: Select) -> tuple:
        table = self._table(select.table, select.line, select.column_no)
        with PROFILER.phase("sql.plan"):
            plan = plan_select(
                select,
                table.columns,
                table.gf,
                table.tree_info(),
                table.allowed_paths,
                self.params,
                self.n_disks,
            )
        self.metrics.counter(f"sql.plan.pick.{plan.chosen}").inc()
        return table, plan

    def _execute_selects(self, batch: list) -> list[StatementResult]:
        """Plan and run a batch of SELECTs on one table as one cluster run."""
        self.metrics.counter("sql.statements").inc(len(batch))
        if not batch or any(s.table != batch[0].table for s in batch):
            raise SqlError("internal: select batch must target one table")
        table = None
        plans: list[SelectPlan] = []
        for stmt in batch:
            table, plan = self._plan(stmt)
            plans.append(plan)
        with PROFILER.phase("sql.exec"):
            cluster = ParallelGridFile(
                table.store, table.assignment, self.n_disks, self.params
            )
            perf = cluster.run_queries([p.routed for p in plans])
        results = []
        for stmt, plan in zip(batch, plans):
            rows = self._project(table, stmt, plan.record_ids)
            results.append(
                StatementResult(
                    kind="select",
                    table=stmt.table,
                    record_ids=plan.record_ids,
                    rows=rows,
                    rowcount=int(plan.record_ids.size),
                    plan=plan,
                    perf=perf,
                )
            )
        return results

    def _execute_explain(self, stmt: Explain) -> StatementResult:
        _, plan = self._plan(stmt.select)
        text = f"EXPLAIN {unparse(stmt.select)}\n{plan.explain()}"
        return StatementResult(
            kind="explain",
            table=stmt.select.table,
            plan=plan,
            text=text,
        )
