"""The benchmark's four workloads: ``decluster``, ``cluster``, ``online``, ``sql``.

Every workload is a closed loop with one client.  The constructor generates
every input before anything is timed; :meth:`Workload.setup` builds the
program-side state and is timed (and repeated) by the caller;
:meth:`Workload.steps` yields the timed calls, each with the number of
operations it performs; :meth:`Workload.check` is the oracle, run after the
timed loop.  The benchmark calls only the public API of ``repro``.

Each data set, and each layout the declustering methods build from it,
comes from the constant :data:`DATA_SEED`: it fixes the workload's size
(bucket counts, table contents) and the program-side state, and a data set
drawn per seed would move the cost of a run by up to 30 %.  The run's seed
draws the requests: query boxes, op streams and statement text.

Input streams are several times longer than a run on a 2-core x86 machine
consumes, so the loop ends on its time budget, but never before
:attr:`Workload.FIXED_CALLS` calls: ``response_blocks`` is measured over
those, so it repeats exactly for a seed however fast the machine is.  The
``smoke`` profile uses about a tenth of the sizes and ends when its short
stream runs out, which makes every count of a smoke run repeat exactly.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import shutil
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import make_method
from repro.datasets import build_gridfile, load
from repro.parallel import OnlineCluster, ParallelGridFile, make_store
from repro.sim import evaluate_queries, mixed_workload, resolve_query_buckets, square_queries
from repro.sql import SqlEngine, parse_script
from repro.sql.ast import Between, Delete, Insert, Select
from repro.storage import DEFAULT_PAGE_SIZE, DurableGridFile, StorageError

__all__ = ["WORKLOADS", "Workload", "fs_type"]

DATA_SEED = 1996


def fs_type(path) -> str:
    """Filesystem type of the mount holding ``path`` (``"unknown"`` off Linux)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def _live_digest(gf) -> str:
    """sha256 of a grid file's live record ids and their points."""
    rids = gf.live_record_ids()
    h = hashlib.sha256(np.ascontiguousarray(rids).tobytes())
    h.update(np.ascontiguousarray(gf.points[rids]).tobytes())
    return h.hexdigest()


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    #: The timed loop runs at least this many calls; ``response_blocks`` is
    #: measured over them.  Workloads set it to about half of what a 20 s run
    #: completes on a 2-core x86 machine, so the clock still ends the loop.
    FIXED_CALLS = 1
    #: Percentile of per-op call time reported as ``latency_tail_ms``: fixed
    #: per workload, so that runs making more or fewer calls report the same
    #: percentile.  p90 leaves >= 10 calls beyond it in a ``cluster`` or
    #: ``online`` run; ``decluster`` makes too few calls for any tail.
    TAIL_PERCENTILE = 90

    def __init__(self, seed: int, smoke: bool, workdir: Path, rec):
        self.rec = rec
        #: Totals over the reports of the timed calls (see :meth:`add_perf`).
        self.totals: Counter = Counter()
        #: Read queries and blocks fetched over the first FIXED_CALLS calls.
        self.fixed: Counter = Counter()
        self.n_calls = 0

    def add_perf(self, perf) -> None:
        """Account one timed call's ``PerfReport`` (``None``: the call read nothing)."""
        self.n_calls += 1
        if perf is None:
            return
        if self.n_calls <= self.FIXED_CALLS:
            self.fixed.update(queries=perf.n_queries, blocks_fetched=perf.blocks_fetched)
        self.totals.update(
            queries=perf.n_queries,
            blocks_fetched=perf.blocks_fetched,
            blocks_requested_total=perf.blocks_requested_total,
            aborted=perf.aborted_queries,
        )
        self.totals.update((perf.metrics or {}).get("counters", {}))

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed calls that fill lazy state before the loop (none by default)."""

    def steps(self):
        raise NotImplementedError

    def after(self, out, seconds: float) -> None:
        """Untimed bookkeeping of one timed call's result."""

    def check(self) -> tuple:
        """``(attempted, failed)`` operations, from the workload's oracle."""
        raise NotImplementedError

    def response_blocks(self) -> float:
        """Mean ``max_i N_i(q)`` over the read queries of the first FIXED_CALLS calls."""
        return self.fixed["blocks_fetched"] / self.fixed["queries"]

    def counts(self, global_delta: dict, n_ops: int) -> dict:
        """Per-layer count metrics of the timed loop (absent ones read as 0)."""
        return {}

    def detail(self) -> dict:
        """Workload-specific numbers for the result file (not declared metrics)."""
        return {}

    def close(self) -> None:
        """Release files and directories the workload created."""


class Decluster(Workload):
    """dsmc.4d at capacity 40 (~6,000 buckets), 4,000 queries at r=0.01.

    One op is one pass: resolve the queries, then assign and evaluate
    ``minimax``, ``sminimax`` and ``hcam/D`` at M=16.  Above ~5,800 buckets
    minimax's dense weight matrix exceeds its 256 MiB cache, so the
    streamed-row path runs; above 4,096 buckets sminimax runs its sparse
    coarsen-partition-refine path instead of delegating to minimax.
    """

    name = "decluster"
    METHODS = (("minimax", "minimax"), ("sminimax", "sminimax"), ("hcam", "hcam/D"))
    DISKS = 16

    def __init__(self, seed, smoke, workdir, rec):
        super().__init__(seed, smoke, workdir, rec)
        self.ds = load("dsmc.4d", rng=DATA_SEED, n=15_000 if smoke else 150_000)
        self.queries = square_queries(
            400 if smoke else 4000, 0.01, self.ds.domain_lo, self.ds.domain_hi, rng=seed
        )
        self.n_passes = 2 if smoke else 1000
        self.passes: list = []

    def setup(self):
        self.gf = build_gridfile(self.ds, capacity=40)

    def warmup(self):
        make_method("hcam/D").assign(self.gf, self.DISKS, rng=DATA_SEED)

    def steps(self):
        for _ in range(self.n_passes):
            yield 1, self._pass

    def _pass(self):
        bls = resolve_query_buckets(self.gf, self.queries)
        cells = []
        for k, (label, spec) in enumerate(self.METHODS):
            # A fresh instance per pass: Minimax memoizes its weight rows.
            method = make_method(spec)
            with self.rec.span(f"core.assign.{label}"):
                assignment = method.assign(self.gf, self.DISKS, rng=DATA_SEED + k)
            with self.rec.span("sim.evaluate"):
                ev = evaluate_queries(self.gf, assignment, None, self.DISKS, bucket_lists=bls)
            cells.append((assignment, ev))
        return bls, cells

    def after(self, out, seconds):
        # Every pass resolves the same queries: keep one copy of the bucket
        # lists, so memory does not grow with the number of passes run.
        bls, cells = out
        if not self.passes:
            self.bls = bls
        same = np.array_equal(bls.ids, self.bls.ids) and np.array_equal(bls.offsets, self.bls.offsets)
        self.passes.append((same, [(a, ev.response, ev.mean_response) for a, ev in cells]))

    def check(self):
        failed = 0
        for same, cells in self.passes:
            ok = same
            for assignment, response, _ in cells:
                a = np.asarray(assignment)
                if (
                    a.shape != (self.gf.n_buckets,)
                    or not np.issubdtype(a.dtype, np.integer)
                    or a.min() < 0
                    or a.max() >= self.DISKS
                ):
                    ok = False
                    continue
                brute = [
                    np.bincount(a[ids], minlength=self.DISKS).max() if ids.size else 0
                    for ids in self.bls
                ]
                ok &= np.array_equal(np.asarray(brute), response)
            failed += not ok
        return len(self.passes), failed

    def response_blocks(self):
        _, cells = self.passes[0]
        return float(np.mean([mean for _, _, mean in cells]))

    def counts(self, global_delta, n_ops):
        hits = global_delta.get("minimax.cache.hits", 0)
        misses = global_delta.get("minimax.cache.misses", 0)
        return {
            "core.minimax.weight_rows": global_delta.get("minimax.weight_rows", 0) / n_ops,
            "core.minimax.cache_hit_rate": hits / (hits + misses),
            "core.sminimax.refine_moves": global_delta.get("minimax.sparse.refine_moves", 0)
            / n_ops,
        }

    def detail(self):
        return {"buckets": self.gf.n_buckets, "nonempty": int(self.gf.nonempty_bucket_ids().size)}


class Cluster(Workload):
    """stock.3d (~1,490 buckets) under a minimax M=16 layout built in set-up.

    One call is ``ParallelGridFile.run_queries`` on a batch of 50 closed,
    depth-1 queries at r=0.05; one op is one query.  Each batch starts with
    cold node caches (512 blocks, ~93 blocks per node); about two thirds of
    the block reads of a batch hit them.  Batches of 50 rather than 100 give
    twice the samples for the tail, whose spread over ten seeds halved.
    """

    name = "cluster"
    DISKS = 16
    BATCH = 50
    FIXED_CALLS = 100

    def __init__(self, seed, smoke, workdir, rec):
        super().__init__(seed, smoke, workdir, rec)
        self.ds = load("stock.3d", rng=DATA_SEED)
        n_batches = 22 if smoke else 800
        queries = square_queries(
            self.BATCH * (n_batches + 1), 0.05, self.ds.domain_lo, self.ds.domain_hi, rng=seed
        )
        batches = [queries[i : i + self.BATCH] for i in range(0, len(queries), self.BATCH)]
        self.warm, self.batches = batches[0], batches[1:]

    def setup(self):
        self.gf = build_gridfile(self.ds)
        with self.rec.span("core.assign.minimax"):
            self.assignment = make_method("minimax").assign(self.gf, self.DISKS, rng=DATA_SEED)
        self.pgf = ParallelGridFile(self.gf, self.assignment, self.DISKS)

    def warmup(self):
        perf = self.pgf.run_queries(self.warm)
        #: (blocks fetched, queries aborted) per executed batch, warm-up first.
        self.outcomes = [(perf.blocks_fetched, perf.aborted_queries)]

    def steps(self):
        for batch in self.batches:
            yield len(batch), partial(self._run, batch)

    def _run(self, batch):
        # Looked up per call, so a wrapper installed for this call is seen.
        return self.pgf.run_queries(batch)

    def after(self, out, seconds):
        self.add_perf(out)
        self.outcomes.append((out.blocks_fetched, out.aborted_queries))

    def check(self):
        failed = attempted = 0
        for batch, (blocks, aborted) in zip([self.warm] + self.batches, self.outcomes):
            brute = sum(
                int(np.bincount(self.assignment[ids], minlength=self.DISKS).max()) if ids.size else 0
                for ids in (self.gf.query_buckets(q.lo, q.hi) for q in batch)
            )
            attempted += len(batch)
            failed += len(batch) if brute != blocks else aborted
        return attempted, failed


class Online(Workload):
    """dsmc.3d on the ``file`` store, ``wal_sync=commit``, hcam/D at M=8.

    A rep replays the same 3,000 ops of
    ``mixed_workload(.., write_ratio=0.5, ratio=0.01)`` on a fresh store
    built by :meth:`setup` (untimed).  Every commit rewrites the store's
    catalog, which lists the deleted records, so ops slow down as a store
    ages; on one long-lived store a faster host would reach older, slower
    states.  One call is ``OnlineCluster.run`` on 50 ops and ends with a
    checkpoint.  Every write is one WAL transaction with an fsync, and half
    the ops take the ``cluster`` read path.
    """

    name = "online"
    DISKS = 8
    CHUNK = 50
    FIXED_CALLS = 60  # one rep

    def __init__(self, seed, smoke, workdir, rec):
        super().__init__(seed, smoke, workdir, rec)
        kind = fs_type(workdir)
        if kind in ("tmpfs", "ramfs"):
            raise SystemExit(
                f"online: refusing work directory {workdir} on {kind}: fsync costs nothing there"
            )
        self.ds = load("dsmc.3d", rng=DATA_SEED)
        self.ops = mixed_workload(
            300 if smoke else 3000, 0.5, self.ds.domain_lo, self.ds.domain_hi, ratio=0.01, rng=seed
        )
        self.n_reps = 2 if smoke else 100
        self.path = workdir / f"online-{os.getpid()}"
        self.store = None
        #: (ops executed, live-record digests in memory and reopened from disk) per rep.
        self.reps: list = []

    def setup(self):
        self.close()
        gf = build_gridfile(self.ds)
        self.assignment = make_method("hcam/D").assign(gf, self.DISKS, rng=DATA_SEED)
        self.store = make_store(gf, "file", self.path, durability="commit")
        self.cluster = OnlineCluster(self.store, self.assignment.copy(), self.DISKS)
        self.executed = 0

    def warmup(self):
        self.cluster.run(self.ops[: self.CHUNK])

    def steps(self):
        for _ in range(self.n_reps):
            self.setup()
            for i in range(0, len(self.ops), self.CHUNK):
                yield self.CHUNK, partial(self._run, self.ops[i : i + self.CHUNK])
            self._end_rep()

    def _run(self, ops):
        return self.cluster.run(ops)

    def after(self, out, seconds):
        self.add_perf(out.perf)
        self.totals.update(inserts=out.n_inserts, deletes=out.n_deletes)
        self.executed += out.n_ops

    def _end_rep(self) -> None:
        """Close the rep's store and reopen it from disk (untimed, for the oracle)."""
        live = _live_digest(self.store.gf)
        if not self.reps:
            # Every chunk ends in a checkpoint, so the first rep's store is
            # measured in the same state on every run of a seed.
            self.store_bytes = sum(f.stat().st_size for f in self.path.iterdir())
            self.live_records = self.store.gf.live_record_ids().size
        self.store.close()
        self.store = None
        try:
            reopened = DurableGridFile.open(self.path)
        except StorageError:
            durable = None
        else:
            durable = _live_digest(reopened.gf)
            reopened.close()
        self.reps.append((self.executed, live, durable))

    def check(self):
        if self.store is not None:
            self._end_rep()  # the rep the clock ended
        twins: dict = {}  # ops executed -> digest of a memory-store twin
        attempted = failed = 0
        for executed, live, durable in self.reps:
            if executed not in twins:
                twin_gf = build_gridfile(self.ds)
                OnlineCluster(twin_gf, self.assignment.copy(), self.DISKS).run(self.ops[:executed])
                twins[executed] = _live_digest(twin_gf)
            attempted += executed
            failed += executed if not live == durable == twins[executed] else 0
        return attempted, failed + self.totals["aborted"]

    def counts(self, global_delta, n_ops):
        t = self.totals
        record_bytes = self.ds.dims * 8
        user_bytes = t["inserts"] * record_bytes
        storage_bytes = (
            global_delta.get("storage.wal.bytes", 0) + t["storage.pages_written"] * DEFAULT_PAGE_SIZE
        )
        return {
            "storage.fsyncs_per_write": global_delta.get("storage.wal.fsyncs", 0)
            / (t["inserts"] + t["deletes"]),
            "storage.write_amp": storage_bytes / user_bytes,
            "storage.space_amp": self.store_bytes / (self.live_records * record_bytes),
        }

    def close(self):
        if self.store is not None:
            self.store.close()
            self.store = None
        shutil.rmtree(self.path, ignore_errors=True)


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}


class _SqlOracle:
    """Vectorized reference for the statements the ``sql`` workload issues.

    Same semantics as :class:`repro.sql.NaiveDatabase` (sequential record
    ids, closed ``BETWEEN``, ``NEAREST k`` by ``math.dist`` with ties broken
    by record id), but fast enough to check every statement of a run; the
    benchmark's self-test holds it equal to ``NaiveDatabase``.
    """

    def __init__(self, columns, capacity: int):
        self.names = [c.name for c in columns]
        self.pts = np.empty((capacity, len(columns)))
        self.alive = np.zeros(capacity, dtype=bool)
        self.n = 0

    def _mask(self, where) -> np.ndarray:
        mask = self.alive[: self.n].copy()
        for pred in where:
            v = self.pts[: self.n, self.names.index(pred.column)]
            if isinstance(pred, Between):
                mask &= (v >= pred.lo) & (v <= pred.hi)
            else:
                mask &= _OPS[pred.op](v, pred.value)
        return mask

    def execute(self, stmt) -> list:
        """Record ids the statement inserts, deletes or returns, in result order."""
        if isinstance(stmt, Insert):
            rids = list(range(self.n, self.n + len(stmt.rows)))
            self.pts[self.n : self.n + len(rids)] = stmt.rows
            self.alive[self.n : self.n + len(rids)] = True
            self.n += len(rids)
            return rids
        if isinstance(stmt, Delete):
            rids = np.flatnonzero(self._mask(stmt.where))
            self.alive[rids] = False
            return rids.tolist()
        if stmt.nearest is None:
            return np.flatnonzero(self._mask(stmt.where)).tolist()
        live = np.flatnonzero(self.alive[: self.n])
        point = stmt.nearest.point
        dist = np.sqrt(((self.pts[live] - np.asarray(point)) ** 2).sum(axis=1))
        # Pre-select with numpy, then rank exactly as NaiveDatabase does; the
        # margin absorbs last-ulp differences between the two distances.
        keep = min(live.size, stmt.nearest.k + 8)
        cand = live[np.argpartition(dist, keep - 1)[:keep]] if keep else live
        cand = sorted(cand.tolist(), key=lambda r: (math.dist(self.pts[r].tolist(), point), r))
        return cand[: stmt.nearest.k]


class Sql(Workload):
    """``SqlEngine`` with 8 disks on the memory store.

    Table ``pts(x, y REAL(0,1000), z REAL(0,99))`` with integer-valued ``z``,
    ``USING GRIDFILE, RTREE CAPACITY 32``, loaded with 20,000 rows in
    set-up.  One op is one statement, parsed and executed on its own: 40 %
    range SELECT (~50 rows), 10 % partial match ``z = k`` (~200 rows), 40 %
    ``NEAREST 10``, 7 % 10-row INSERT, 3 % DELETE (~23 rows).  Each write
    marks the secondary R-tree dirty and the next SELECT rebuilds it.
    """

    name = "sql"
    CREATE = (
        "CREATE TABLE pts (x REAL(0, 1000), y REAL(0, 1000), z REAL(0, 99)) "
        "USING GRIDFILE, RTREE CAPACITY 32;"
    )
    KINDS = ("range", "match", "knn", "insert", "delete")
    MIX = (0.40, 0.10, 0.40, 0.07, 0.03)
    FIXED_CALLS = 2500
    # About 9 % of statements wait for an R-tree rebuild, so p95 is a typical
    # rebuild.  p99, the slowest rebuilds, follows the host's stalls: over
    # ten seeds it spread 0.26-0.49 where p95 spread 0.12-0.25.
    TAIL_PERCENTILE = 95

    def __init__(self, seed, smoke, workdir, rec):
        super().__init__(seed, smoke, workdir, rec)
        data = np.random.default_rng(DATA_SEED)
        n_rows = 2_000 if smoke else 20_000
        self.rows = np.column_stack(
            [data.uniform(0, 1000, (n_rows, 2)), data.integers(0, 100, n_rows)]
        )
        self.load_script = self.CREATE + "".join(
            "INSERT INTO pts VALUES "
            + ", ".join(f"({x!r}, {y!r}, {z!r})" for x, y, z in self.rows[i : i + 1000].tolist())
            + ";"
            for i in range(0, n_rows, 1000)
        )
        self.n_warm = 20 if smoke else 200
        n_stmts = self.n_warm + (400 if smoke else 40_000)
        rng = np.random.default_rng(seed)
        kinds = rng.choice(len(self.KINDS), size=n_stmts, p=self.MIX)
        self.stmts = [(self.KINDS[k], self._statement_text(self.KINDS[k], rng)) for k in kinds]
        #: (digest of record ids and rows, rowcount) per executed statement, in order.
        self.results: list = []
        self.rows_returned = 0
        self.latency: dict = {k: [] for k in self.KINDS}

    @staticmethod
    def _statement_text(kind: str, rng) -> str:
        def box(x: float, y: float, side: float) -> str:
            return f"x BETWEEN {x!r} AND {x + side!r} AND y BETWEEN {y!r} AND {y + side!r}"

        if kind == "range":
            x, y = rng.uniform(0, 950, 2).tolist()
            return f"SELECT * FROM pts WHERE {box(x, y, 50)}"
        if kind == "match":
            return f"SELECT * FROM pts WHERE z = {int(rng.integers(0, 100))}"
        if kind == "knn":
            x, y = rng.uniform(0, 1000, 2).tolist()
            return f"SELECT * FROM pts NEAREST 10 TO ({x!r}, {y!r}, {int(rng.integers(0, 100))})"
        if kind == "insert":
            rows = zip(rng.uniform(0, 1000, 10).tolist(), rng.uniform(0, 1000, 10).tolist(),
                       rng.integers(0, 100, 10).tolist())
            return "INSERT INTO pts VALUES " + ", ".join(f"({x!r}, {y!r}, {z}.0)" for x, y, z in rows)
        x, y = rng.uniform(0, 966, 2).tolist()
        return f"DELETE FROM pts WHERE {box(x, y, 34)}"

    def setup(self):
        self.engine = SqlEngine(n_disks=8)
        self.engine.execute_script(self.load_script)

    def _run(self, kind: str, text: str):
        with self.rec.span("sql.parse"):
            (stmt,) = parse_script(text)
        return kind, stmt, self.engine.execute(stmt)

    @staticmethod
    def _digest(record_ids, rows) -> bytes:
        h = hashlib.sha256(np.asarray(record_ids, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
        return h.digest()

    def _keep(self, stmt, res) -> None:
        # A digest, so a run's peak memory does not grow with the number of
        # statements it managed to execute; the oracle parses the text again.
        rows = res.rows if isinstance(stmt, Select) else ()
        self.results.append((self._digest(res.record_ids, rows), res.rowcount))

    def warmup(self):
        for kind, text in self.stmts[: self.n_warm]:
            _, stmt, res = self._run(kind, text)
            self._keep(stmt, res)
        self.picks0 = self._picks()

    def steps(self):
        for kind, text in self.stmts[self.n_warm :]:
            yield 1, partial(self._run, kind, text)

    def after(self, out, seconds):
        kind, stmt, res = out
        self._keep(stmt, res)
        self.latency[kind].append(seconds)
        self.add_perf(res.perf)
        if res.perf is not None:
            self.rows_returned += res.rowcount

    def _picks(self) -> dict:
        counters = self.engine.metrics.snapshot().get("counters", {})
        return {p: counters.get(f"sql.plan.pick.{p}", 0) for p in ("gridfile", "rtree", "scan")}

    def check(self):
        (create,) = parse_script(self.CREATE)
        oracle = _SqlOracle(create.columns, self.rows.shape[0] + 10 * len(self.stmts))
        for stmt in parse_script(self.load_script)[1:]:
            oracle.execute(stmt)
        failed = 0
        for (_, text), (digest, rowcount) in zip(self.stmts, self.results):
            (stmt,) = parse_script(text)
            rids = oracle.execute(stmt)
            rows = oracle.pts[rids] if isinstance(stmt, Select) else ()
            failed += digest != self._digest(rids, rows) or rowcount != len(rids)
        return len(self.results), failed

    def counts(self, global_delta, n_ops):
        picks = {p: n - self.picks0[p] for p, n in self._picks().items()}
        selects = sum(picks.values())
        out = {f"sql.pick.{p}": n / selects for p, n in picks.items()}
        out["sql.blocks_per_row"] = self.totals["blocks_requested_total"] / self.rows_returned
        return out

    def detail(self):
        out = {}
        for kind, lat in self.latency.items():
            if lat:
                p50, p95, p99 = np.percentile(lat, [50, 95, 99]) * 1e3
                out[kind] = {"n": len(lat), "p50_ms": p50, "p95_ms": p95, "p99_ms": p99}
        return out


WORKLOADS = {w.name: w for w in (Decluster, Cluster, Online, Sql)}
