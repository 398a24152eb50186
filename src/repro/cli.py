"""Command-line interface: ``repro-decluster`` / ``python -m repro.cli``.

Subcommands
-----------
``list``
    Show available datasets and declustering methods.
``dataset NAME``
    Generate a dataset, build its grid file, print the structure.
``decluster NAME --method M --disks K``
    Decluster a dataset and report balance / response-time statistics.
``experiment ID``
    Regenerate a paper figure/table (fig2..fig7, table1..table5).
``run NAME``
    One simulated cluster run of square queries, closed-loop unless
    ``--rate`` (open system), ``--write-ratio`` (live grid file, see
    ``docs/online.md``) or ``--autoscale`` (flash crowd, see
    ``docs/autoscale.md``) picks another engine; ``--crash-node`` /
    ``--slow-node`` inject faults and ``--trace OUT`` records a JSONL trace.
``trace summarize FILE`` / ``trace diff A B``
    Fold a recorded trace into per-disk utilization / per-phase timings /
    event counts, or diff two traces (see ``docs/observability.md``).
``fsck PATH``
    Walk a durable store's pages, verify every CRC and the allocator
    free-list, and report (with ``--repair``: repair from the WAL)
    corrupt pages (see ``docs/storage.md``).
``bounds``
    Bounds-tightness report: measure each scheme's exact worst-case
    additive error over every box query of a Cartesian grid and place it
    between its theory ceiling and the best known lower bound (see
    ``docs/methods.md``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import available_methods, make_method
from repro.datasets import DATASETS, build_gridfile, load
from repro.experiments import (
    fig2_gridfiles,
    fig3_conflict,
    fig4_index_based,
    fig6_minimax,
    fig7_querysize,
    render_sweep,
    series_text,
    table1_balance,
    table23_closest_pairs,
    table4_animation,
    table5_random,
)
from repro.experiments.report import render_cluster_rows
from repro.obs import PROFILER
from repro.sim import degree_of_data_balance, evaluate_queries, square_queries
from repro.storage import BLOCK_STORES, DURABILITY_MODES, StorageError

__all__ = ["main"]


def _cmd_list(args) -> int:
    print("datasets:")
    for name in sorted(DATASETS):
        print(f"  {name}")
    print("methods:")
    for spec in available_methods():
        print(f"  {spec}")
    print("experiments: fig2 fig3 fig4 fig6 fig7 table1 table2 table3 table4 table5")
    return 0


def _cmd_dataset(args) -> int:
    ds = load(args.name, rng=args.seed)
    gf = build_gridfile(ds)
    print(f"{ds.name}: {ds.description}")
    print(gf.stats())
    return 0


def _deploy(args):
    """Load ``args.name``, build its grid file and decluster it onto
    ``args.disks`` with ``args.method``: ``(ds, gf, method, assignment)``."""
    ds = load(args.name, rng=args.seed)
    gf = build_gridfile(ds)
    method = make_method(args.method)
    with PROFILER.phase(f"assign.{method.name}"):
        assignment = method.assign(gf, args.disks, rng=args.seed)
    return ds, gf, method, assignment


def _square_queries(args, ds):
    return square_queries(
        args.queries, args.ratio, ds.domain_lo, ds.domain_hi, rng=args.seed
    )


def _cmd_decluster(args) -> int:
    ds, gf, method, assignment = _deploy(args)
    queries = _square_queries(args, ds)
    ev = evaluate_queries(gf, assignment, queries, args.disks)
    balance = degree_of_data_balance(assignment, args.disks, gf.bucket_sizes())
    print(f"dataset            : {ds.name} ({gf.stats()})")
    print(f"method             : {method.name}")
    print(f"disks              : {args.disks}")
    print(f"mean response time : {ev.mean_response:.3f} buckets (optimal {ev.mean_optimal:.3f})")
    print(f"degree of balance  : {balance:.3f}")
    if args.out:
        from repro.gridfile import export_declustered

        paths = export_declustered(gf, assignment, args.out)
        print(f"declustered layout : {len(paths) - 1} disk files + catalog in {args.out}")
    return 0


def _maybe_plot(args, sweep, title: str) -> None:
    if getattr(args, "plot", False):
        from repro._util import line_chart

        print(line_chart(sweep.disks, sweep.response_series(), title=title))
        print()


def _cmd_experiment(args) -> int:
    exp = args.id.lower()
    quick = args.quick
    seed = args.seed
    jobs = args.jobs
    if exp == "fig2":
        if getattr(args, "plot", False):
            from repro.datasets import build_gridfile as _build, load as _load
            from repro.experiments.report import ascii_gridfile_map

            for name in ("uniform.2d", "hot.2d", "correl.2d"):
                gf = _build(_load(name, rng=seed))
                print(f"--- {name} ---")
                print(ascii_gridfile_map(gf, max_width=60))
                print()
        else:
            for name, stats in fig2_gridfiles(rng=seed).items():
                print(f"{name}: {stats}")
    elif exp == "fig3":
        for base, sweep in fig3_conflict(rng=seed, quick=quick, jobs=jobs).items():
            print(render_sweep(sweep, f"Figure 3 ({base}, hot.2d, r=0.05)"))
            print()
    elif exp == "fig4":
        for name, sweep in fig4_index_based(rng=seed, quick=quick, jobs=jobs).items():
            print(render_sweep(sweep, f"Figure 4 ({name}, r=0.05)"))
            _maybe_plot(args, sweep, f"Figure 4 ({name})")
            print()
    elif exp == "fig6":
        for name, sweep in fig6_minimax(rng=seed, quick=quick, jobs=jobs).items():
            print(render_sweep(sweep, f"Figure 6 ({name}, r=0.01)"))
            _maybe_plot(args, sweep, f"Figure 6 ({name})")
            print()
    elif exp == "fig7":
        res = fig7_querysize(rng=seed, quick=quick, jobs=jobs)
        resp = {f"{m} r={r}": v for (m, r), v in res.response.items()}
        spd = {f"{m} r={r}": list(v) for (m, r), v in res.speedup.items()}
        print(series_text("disks", res.disks, resp, title="Figure 7 (response, stock.3d)"))
        print()
        print(series_text("disks", res.disks, spd, title="Figure 7 (speedup, stock.3d)"))
    elif exp == "table1":
        sweep = table1_balance(rng=seed, quick=quick, jobs=jobs)
        print(render_sweep(sweep, "Table 1 (degree of data balance, hot.2d)", metric="balance"))
    elif exp in ("table2", "table3"):
        dataset = "dsmc.3d" if exp == "table2" else "stock.3d"
        sweep = table23_closest_pairs(dataset, rng=seed, quick=quick, jobs=jobs)
        print(render_sweep(sweep, f"Table {exp[-1]} (closest pairs on same disk, {dataset})", metric="pairs"))
    elif exp == "table4":
        n = 60_000 if quick else 300_000
        rows = table4_animation(n_records=n, rng=seed)
        print(render_cluster_rows(rows, "Table 4 (animation queries, simulated SP-2)"))
    elif exp == "table5":
        n = 60_000 if quick else 300_000
        rows = table5_random(n_records=n, rng=seed)
        print(render_cluster_rows(rows, "Table 5 (random range queries, simulated SP-2)"))
    else:
        raise ValueError(f"unknown experiment {args.id!r}")
    return 0


def _given(**kwargs) -> dict:
    """The keyword arguments whose flag was set: an unset flag (``None``)
    leaves the receiving record's own default in force."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _engine_params(args, **extra):
    """ClusterParams from the engine flags, each named after its field."""
    from repro.parallel import ClusterParams

    fields = {f: getattr(args, f, None) for f in _dests(_ENGINE_FLAGS, _PIPELINE_FLAGS)}
    return ClusterParams(**_given(**fields, **extra))


def _print_perf(rep, *, show_shed: bool = False) -> None:
    print(f"elapsed time       : {rep.elapsed_time * 1e3:.2f} ms")
    print(f"mean latency       : {rep.mean_latency * 1e3:.3f} ms")
    print(f"p95 / p99 latency  : {rep.p95_latency * 1e3:.3f} / {rep.p99_latency * 1e3:.3f} ms")
    print(f"blocks fetched     : {rep.blocks_fetched} (read {rep.blocks_read}, "
          f"cache hit rate {rep.cache_hit_rate:.3f})")
    print(f"records returned   : {rep.records_returned}")
    print(f"comm time          : {rep.comm_time * 1e3:.2f} ms")
    if show_shed:
        print(f"throughput         : {rep.throughput:.1f} queries/s")
        print(f"shed queries       : {rep.shed_queries} "
              f"(fraction {rep.shed_fraction:.3f})")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _pick_engine(args) -> str:
    """The engine ``run``'s flags ask for: ``--write-ratio`` picks the online
    engine, ``--autoscale`` the autoscaler, ``--rate`` an open-system run,
    and none of them a closed-system run.  A flag that engine does not take,
    or a fault's node, time and factor given only in part, raises
    ``ValueError``."""
    engine = (
        "online" if args.write_ratio is not None
        else "autoscale" if args.autoscale is not None
        else "open-system" if args.rate is not None
        else "closed-system"
    )
    for engines, dests in _ENGINE_ONLY.items():
        for dest in dests:
            if getattr(args, dest) is not None and engine not in engines:
                raise ValueError(f"{_flag(dest)} applies only to "
                                 f"{' and '.join(engines)} runs, not to {engine} runs")
    for dests in (("crash_node", "crash_time"), ("slow_node", "slow_time", "slow_factor")):
        if len({getattr(args, dest) is None for dest in dests}) > 1:
            raise ValueError(f"{' / '.join(map(_flag, dests))} must be given together")
    return engine


def _fault_plan(args):
    """The FaultPlan of the ``--crash-*`` / ``--slow-*`` flags (None without
    a fault); FaultEvent and FaultPlan.validate check the values."""
    from repro.parallel import FaultPlan

    plan = FaultPlan()
    if args.crash_node is not None:
        plan.node_crash(args.crash_time, node=args.crash_node)
    if args.recover_time is not None:
        if args.crash_node is None or args.recover_time <= args.crash_time:
            raise ValueError("--recover-time must be after a --crash-node / --crash-time crash")
        plan.node_recover(args.recover_time, node=args.crash_node)
    if args.slow_node is not None:
        plan.disk_slowdown(args.slow_time, node=args.slow_node, factor=args.slow_factor)
    return plan if plan.events else None


def _run_static(args, ds, gf, assignment, tracer) -> None:
    """Closed-system (``run_queries``) or open-system (``run_open``) run."""
    from repro.parallel import ParallelGridFile

    params = _engine_params(args, replication=args.scheme)
    plan = _fault_plan(args)
    pgf = ParallelGridFile(gf, assignment, args.disks, params)
    queries = _square_queries(args, ds)
    if args.rate is None:
        rep = pgf.run_queries(queries, faults=plan, tracer=tracer)
        arrivals = "closed loop"
    else:
        rep = pgf.run_open(
            queries, arrival_rate=args.rate, rng=args.seed, faults=plan, tracer=tracer
        )
        arrivals = (f"Poisson arrivals at {args.rate:g}/s, max-inflight="
                    f"{params.max_inflight}, deadline={params.deadline}")
    print(f"engine             : scheduler={params.scheduler}, "
          f"replica-policy={params.replica_policy}, scheme={params.replication}")
    print(f"workload           : {args.queries} queries (r={args.ratio}), {arrivals}")
    _print_perf(rep, show_shed=args.rate is not None)
    if plan is not None:
        events = ", ".join(f"{e.kind} node {e.node} at t={e.time:g}"
                           for e in plan.sorted_events())
        print(f"fault plan         : {events}")
        print(f"timeouts / retries : {rep.timeouts} / {rep.retries}")
        print(f"failovers          : {rep.failovers}")
        print(f"messages lost      : {rep.messages_lost}")
        print(f"aborted queries    : {rep.aborted_queries}")
        print(f"availability       : {rep.availability:.4f}")


def _run_online(args, ds, gf, assignment, tracer) -> None:
    """Mixed read/write run of ``OnlineCluster`` over ``mixed_workload``."""
    from repro.parallel import DegradationMonitor, OnlineCluster, make_store
    from repro.sim import mixed_workload

    ops = mixed_workload(args.queries, args.write_ratio, ds.domain_lo, ds.domain_hi,
                         ratio=args.ratio, rng=args.seed)
    monitor = None if args.no_reorg else DegradationMonitor(
        **_given(threshold=args.reorg_threshold, budget=args.reorg_budget)
    )
    params = _engine_params(args, replication=args.scheme)
    store = make_store(gf, **_given(
        backend=args.store, path=args.store_path, durability=args.wal_sync
    ))
    durable = getattr(store, "durable", None)
    before = gf.n_buckets
    try:
        cluster = OnlineCluster(
            store, assignment, args.disks, params=params, monitor=monitor,
            seed=args.seed, **_given(placement=args.placement),
        )
        rep = cluster.run(ops, tracer=tracer)
    finally:
        if durable is not None:
            durable.close()
    reorg = "disabled" if monitor is None else (
        f"threshold={monitor.threshold}, budget={monitor.budget}"
    )
    storage = "memory (no durability)" if durable is None else (
        f"file at {args.store_path} (wal sync: {durable.engine.durability})"
    )
    print(f"placement          : {cluster.placement.name}, scheduler={params.scheduler}")
    print(f"storage            : {storage}")
    print(f"workload           : {args.queries} ops, write ratio {args.write_ratio}, "
          f"r={args.ratio}")
    print(f"reorganization     : {reorg}")
    print(f"writes             : {rep.n_inserts} inserts, {rep.n_deletes} deletes "
          f"({rep.n_noop_deletes} no-op)")
    print(f"structure churn    : {rep.n_splits} splits, {rep.n_merges} merges, "
          f"{rep.n_refines} refines ({before} -> {rep.final_buckets} buckets)")
    print(f"maintenance        : {rep.policy_moves} policy moves, {rep.reorg_moves} "
          f"reorg moves in {rep.n_reorgs} reorgs (movement fraction "
          f"{rep.movement_fraction:.3f})")
    print(f"cache invalidations: {rep.cache_invalidations}")
    print(f"mean R(q) ratio    : {rep.mean_rq_ratio:.3f} (1.0 = balanced optimum)")
    print(f"mean query latency : {rep.perf.mean_latency * 1e3:.3f} ms")
    print(f"mean write latency : {rep.mean_write_latency * 1e3:.3f} ms")
    print(f"elapsed time       : {rep.elapsed_time * 1e3:.2f} ms")


def _run_autoscale(args, ds, gf, assignment, tracer) -> None:
    """Flash-crowd run of ``AutoscaleCluster`` over ``flash_crowd_queries``."""
    from repro.parallel import AutoscaleCluster, AutoscaleParams, ScalePlan
    from repro.sim import flash_crowd_queries

    autoscale = AutoscaleParams(**_given(
        policy=args.autoscale, budget=args.budget, alpha=args.alpha,
        interval=args.interval, add_heat=args.add_heat,
        evict_heat=args.evict_heat, min_dwell=args.min_dwell,
    ))
    params = _engine_params(args, replication=args.scheme, autoscale=autoscale)
    plan = ScalePlan()
    for t in args.join or []:
        plan.join(t)
    for t in args.leave or []:
        plan.leave(t)
    queries = flash_crowd_queries(
        args.queries, args.ratio, ds.domain_lo, ds.domain_hi, rng=args.seed,
        **_given(start=args.crowd_start, duration=args.crowd_duration,
                 intensity=args.crowd_intensity, width=args.crowd_width),
    )
    rep = AutoscaleCluster(
        gf, assignment, args.disks, params, plan=plan,
        pool_disks=args.pool_disks, seed=args.seed,
    ).run(queries, tracer=tracer)
    print(f"policy             : {autoscale.policy}, budget={autoscale.budget}, "
          f"alpha={autoscale.alpha}, interval={autoscale.interval}")
    print(f"workload           : {args.queries} queries (r={args.ratio}), flash crowd")
    print(f"membership         : {rep.n_disks_start} -> {rep.n_disks_end} disks "
          f"({rep.joins} joins, {rep.leaves} leaves; pool {rep.pool_disks})")
    print(f"replication        : {rep.replicas_created} created, "
          f"{rep.replicas_evicted} evicted, peak {rep.peak_replicas}, "
          f"final {rep.final_replicas}")
    print(f"movement           : {rep.moves} bucket moves, {rep.promotions} "
          f"promotions, {rep.blocks_copied} blocks copied")
    print(f"control steps      : {rep.control_steps}")
    print(f"availability       : {rep.perf.availability:.4f}")
    _print_perf(rep.perf)


def _cmd_run(args) -> int:
    engine = _pick_engine(args)
    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer(path=args.trace)
        # Recording implies profiling: capture phase timings for this run only.
        was_enabled = PROFILER.enabled
        PROFILER.enabled = True
        PROFILER.reset()
    try:
        ds, gf, method, assignment = _deploy(args)
        print(f"dataset            : {ds.name} ({gf.stats()})")
        print(f"method             : {method.name}, disks={args.disks}")
        run = {"online": _run_online, "autoscale": _run_autoscale}.get(engine, _run_static)
        run(args, ds, gf, assignment, tracer)
    finally:
        if tracer is not None:
            PROFILER.enabled = was_enabled
    if tracer is not None:
        tracer.phases(PROFILER.snapshot())
        tracer.close()
        print(f"wrote {args.trace} ({len(tracer.records)} records)")
    return 0


def _cmd_fsck(args) -> int:
    from pathlib import Path

    from repro.storage import DATA_FILE, StorageEngine

    path = Path(args.path)
    if not (path / DATA_FILE).exists():
        print(f"error: no store at {path} (missing {DATA_FILE})", file=sys.stderr)
        return 2
    try:
        eng = StorageEngine(path, page_size=args.page_size)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = eng.fsck(repair=args.repair)
    finally:
        eng.close()
    print(f"store          : {path} (page_size={args.page_size})")
    print(f"pages checked  : {report.pages_checked}")
    print(f"pages repaired : {report.pages_repaired}")
    for problem in report.problems:
        print(f"  - {problem}")
    if args.dump and report.dumps:
        out = Path(args.dump)
        out.mkdir(parents=True, exist_ok=True)
        for pid, dump in sorted(report.dumps.items()):
            (out / f"page-{pid}.hexdump.txt").write_text(dump + "\n")
        print(f"hexdumps       : {len(report.dumps)} corrupt page(s) -> {out}")
    print(f"status         : {'clean' if report.ok else 'CORRUPT'}")
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    from repro.obs import diff_summaries, read_trace, render_summary, summarize

    if args.trace_command == "summarize":
        print(render_summary(summarize(read_trace(args.file))))
    else:
        print(diff_summaries(summarize(read_trace(args.a)), summarize(read_trace(args.b))))
    return 0


def _cmd_bounds(args) -> int:
    from repro._util.tables import format_table
    from repro.theory import tightness_report

    def parse_shape(text: str) -> tuple:
        try:
            shape = tuple(int(p) for p in text.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad shape {text!r}; use e.g. 16x16 or 8x8x8")
        if not shape or any(n < 1 for n in shape):
            raise ValueError(f"bad shape {text!r}; sides must be >= 1")
        return shape

    shapes = [parse_shape(s) for s in (args.shape or ["16x16"])]
    specs = args.methods.split(",") if args.methods else None
    rows = tightness_report(
        specs=specs,
        shapes=shapes,
        disks=args.disks or [16],
        rng=args.seed,
        lower_bound=args.lower,
    )
    table = [
        [
            r.spec,
            "x".join(str(n) for n in r.shape),
            r.n_disks,
            r.error,
            "-" if r.bound is None else f"{r.bound:g}",
            r.bound_family or "-",
            f"{r.lower:.2f}",
            "yes" if r.within_bound else "VIOLATED",
        ]
        for r in rows
    ]
    print(format_table(
        ["method", "grid", "disks", "error", "bound", "family", "lower", "within"],
        table,
        title=f"Additive-error tightness (all box queries, lower bound: {args.lower})",
    ))
    if not all(r.within_bound for r in rows):
        print("error: a scheme exceeded its theory bound", file=sys.stderr)
        return 1
    return 0


def _cmd_sql(args) -> int:
    from repro.sql import SqlEngine, SqlError

    engine = SqlEngine(
        params=_engine_params(args),
        seed=args.seed,
        **_given(
            n_disks=args.disks,
            placement=args.placement,
            method=args.method,
            store_backend=args.store,
            store_path=args.store_path,
            wal_sync=args.wal_sync,
        ),
    )

    def run(text: str) -> int:
        try:
            results = engine.execute_script(text)
        except SqlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for res in results:
            if res.kind == "select":
                for row in res.rows:
                    print("\t".join(repr(v) for v in row))
                print(f"-- {res.rowcount} row(s)")
                if args.verbose and res.plan is not None:
                    print(res.plan.explain(), file=sys.stderr)
            else:
                print(f"-- {res.text}" if res.text else f"-- {res.kind} ok")
        return 0

    if args.execute is not None:
        return run(args.execute)
    if args.file is not None:
        try:
            text = open(args.file, encoding="utf-8").read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run(text)

    # REPL: accumulate lines until a statement-terminating semicolon.
    interactive = sys.stdin.isatty()
    if interactive:
        print("repro sql — end statements with ';', Ctrl-D to exit")
    buffer = ""
    while True:
        if interactive:
            sys.stderr.write("sql> " if not buffer else "...> ")
            sys.stderr.flush()
        line = sys.stdin.readline()
        if not line:
            break
        buffer += line
        if ";" in line:
            run(buffer)  # errors are reported and the session continues
            buffer = ""
    if buffer.strip():
        run(buffer)
    return 0


# Flag groups of ``run`` and ``sql``: ``(flag, type or add_argument kwargs,
# help)``.  Every flag that feeds a record defaults to None, so the record's
# own default applies when it is unset, and the record (not the CLI) checks
# the value; the registries check the names.
_RUN_FLAGS = (
    ("--ratio", dict(type=float, default=0.05), "query volume ratio r"),
    ("--queries", dict(type=int, default=200), "workload length (ops of an online run)"),
    ("--scheme", dict(choices=["chained", "mirrored"]),
     "replication scheme (enables failover; balancing replica policies need it)"),
    ("--rate", float, "open-system run: Poisson arrivals at this rate (queries/s)"),
    ("--trace", dict(metavar="OUT"), "record the run, with phase timings, to this JSONL trace"),
)
_DEPLOY_FLAGS = (
    ("--method", str, "declustering method spec (see `list`); `sql` re-declusters"
     " every table with it after each write batch"),
    ("--disks", int, "cluster size (disks)"),
    ("--placement", str, "online placement policy for buckets born from splits"
     " (rr-least-loaded | proximity-steal | recompute-threshold)"),
)
_ENGINE_FLAGS = (
    ("--scheduler", str, "disk queue discipline (fifo | sjf | fair)"),
    ("--replica-policy", str, "replica selection (primary-only | least-loaded-alive"
     " | fastest-estimated); balancing policies need --scheme"),
    ("--max-inflight", int, "bound concurrently admitted queries (open runs)"),
    ("--deadline", float, "shed queries that wait longer than this (s, open runs)"),
    ("--retry-jitter", float, "full-jitter fraction on retry backoff (0 = deterministic"
     " delays, 1 = full jitter)"),
)
#: ClusterParams fields that only ``run`` sets.
_PIPELINE_FLAGS = (
    ("--cache-blocks", int, "per-node LRU cache (blocks; 0 disables caching)"),
    ("--pipeline-depth", int, "closed-loop concurrency (queries in flight)"),
)
_STORE_FLAGS = (
    ("--store", dict(choices=sorted(BLOCK_STORES)),
     "storage backend (file persists every committed operation through the WAL)"),
    ("--store-path", str, "directory for the durable store (required unless memory)"),
    ("--wal-sync", dict(choices=DURABILITY_MODES),
     "fsync the WAL on every commit, only at checkpoints, or never"),
)
_FAULT_FLAGS = (
    ("--crash-node", int, "node to crash"),
    ("--crash-time", float, "crash time (s)"),
    ("--recover-time", float, "recovery time of the crashed node (s)"),
    ("--slow-node", int, "node whose disk 0 is slowed"),
    ("--slow-factor", float, "service-time multiplier of the slowed disk"),
    ("--slow-time", float, "slowdown start time (s)"),
)
_ONLINE_FLAGS = (
    ("--write-ratio", float, "fraction of ops that are writes (0..1): run the online"
     " engine over a live grid file"),
    ("--no-reorg", dict(action="store_true", default=None), "disable the degradation monitor"),
    ("--reorg-threshold", float, "windowed R(q) ratio that triggers reorganization"),
    ("--reorg-budget", float, "movement budget per reorganization (fraction of buckets)"),
)
_AUTOSCALE_FLAGS = (
    ("--autoscale", dict(metavar="POLICY"), "run a flash crowd under this autoscale"
     " policy (null | static | heat-replicate)"),
    ("--budget", int, "replica storage budget (buckets)"),
    ("--alpha", float, "EWMA smoothing for the heat tracker (0, 1]"),
    ("--interval", int, "control-loop period (completed queries per tick)"),
    ("--add-heat", float, "replicate buckets whose score exceeds this watermark"),
    ("--evict-heat", float, "evict replicas whose score falls below this watermark"),
    ("--min-dwell", int, "ticks a replica survives after creation (anti-thrash)"),
    ("--join", dict(type=float, action="append", metavar="T"),
     "activate one pool disk at time T (repeatable)"),
    ("--leave", dict(type=float, action="append", metavar="T"),
     "drain one active disk at time T (repeatable)"),
    ("--pool-disks", int, "provisioned pool (>= --disks; default: sized to the plan)"),
    ("--crowd-start", float, "crowd onset (fraction of the query stream)"),
    ("--crowd-duration", float, "crowd length (fraction of the query stream)"),
    ("--crowd-intensity", float, "fraction of crowd-window queries aimed at the hot spot"),
    ("--crowd-width", float, "hot-spot spread (fraction of the domain extent)"),
)


def _dests(*groups) -> list:
    """The argparse dests of the flags in ``groups``."""
    return [flag[2:].replace("-", "_") for group in groups for flag, _, _ in group]


#: ``run`` flags (by dest) that only some engines take: the library entry
#: point of every other engine has no input for them.
_ENGINE_ONLY = {
    ("open-system",): ["rate", "max_inflight", "deadline"],
    ("closed-system", "open-system"): _dests(_FAULT_FLAGS),
    ("closed-system", "autoscale"): ["pipeline_depth"],
    ("online",): ["placement", *_dests(_STORE_FLAGS, _ONLINE_FLAGS)],
    ("autoscale",): _dests(_AUTOSCALE_FLAGS),
}


def _add_flags(sp, *groups) -> None:
    for group in groups:
        for flag, kind, text in group:
            sp.add_argument(flag, help=text, **(kind if isinstance(kind, dict) else {"type": kind}))


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-decluster",
        description="Declustering algorithms for parallel grid files (IPPS'96 reproduction)",
    )
    p.add_argument("--seed", type=int, default=1996, help="base RNG seed")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list datasets, methods and experiments")

    d = sub.add_parser("dataset", help="build a dataset's grid file and print stats")
    d.add_argument("name", choices=sorted(DATASETS))

    dec = sub.add_parser("decluster", help="decluster a dataset and evaluate")
    dec.add_argument("name", choices=sorted(DATASETS))
    dec.add_argument("--method", default="minimax", help="method spec (see `list`)")
    dec.add_argument("--disks", type=int, default=16)
    dec.add_argument("--ratio", type=float, default=0.05, help="query volume ratio r")
    dec.add_argument("--queries", type=int, default=1000)
    dec.add_argument("--out", default=None, help="export per-disk files to this directory")

    e = sub.add_parser("experiment", help="regenerate a paper figure/table")
    e.add_argument("id", help="fig2|fig3|fig4|fig6|fig7|table1..table5")
    e.add_argument("--quick", action="store_true", help="reduced sweep for a fast run")
    e.add_argument("--plot", action="store_true", help="also render ASCII charts")
    e.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep cells (0 = all cores); results are "
        "bit-for-bit identical to --jobs 1",
    )

    run = sub.add_parser(
        "run",
        help="one simulated cluster run: closed, open (--rate), online"
        " (--write-ratio) or autoscaled (--autoscale), optionally faulted"
        " and traced",
    )
    run.add_argument("name", choices=sorted(DATASETS))
    _add_flags(run, _RUN_FLAGS, _DEPLOY_FLAGS, _ENGINE_FLAGS, _PIPELINE_FLAGS,
               _STORE_FLAGS, _FAULT_FLAGS, _ONLINE_FLAGS, _AUTOSCALE_FLAGS)
    run.set_defaults(disks=16, method="minimax")

    fs = sub.add_parser(
        "fsck", help="verify (and optionally repair) a durable store's pages"
    )
    fs.add_argument("path", help="store directory (holds pages.dat / wal.log)")
    fs.add_argument("--repair", action="store_true",
                    help="rewrite corrupt pages from their committed WAL images")
    fs.add_argument("--page-size", type=int, default=4096,
                    help="page size the store was written with (bytes)")
    fs.add_argument("--dump", default=None,
                    help="directory to write hexdumps of corrupt pages into")

    t = sub.add_parser("trace", help="summarize or diff recorded run traces")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    tsum = tsub.add_parser("summarize", help="summarize a recorded trace")
    tsum.add_argument("file", help="trace path (JSONL)")
    tdiff = tsub.add_parser("diff", help="diff two recorded traces")
    tdiff.add_argument("a", help="baseline trace path")
    tdiff.add_argument("b", help="comparison trace path")

    q = sub.add_parser(
        "sql",
        help="SQL front end: REPL, one-shot (-e) or script (-f) over live "
        "declustered tables",
    )
    q.add_argument("-e", "--execute", default=None, metavar="SQL",
                   help="execute one SQL string and exit")
    q.add_argument("-f", "--file", default=None, metavar="PATH",
                   help="execute a ;-separated SQL script file and exit")
    q.add_argument("-v", "--verbose", action="store_true",
                   help="print each SELECT's plan (EXPLAIN) to stderr")
    _add_flags(q, _DEPLOY_FLAGS, _ENGINE_FLAGS, _STORE_FLAGS)

    b = sub.add_parser(
        "bounds",
        help="measure schemes' worst-case additive error against theory bounds",
    )
    b.add_argument("--methods", default=None,
                   help="comma-separated method specs (default: every"
                   " registered scheme)")
    b.add_argument("--shape", action="append", metavar="NxN",
                   help="Cartesian grid shape, e.g. 16x16 or 8x8x8"
                   " (repeatable; default 16x16)")
    b.add_argument("--disks", type=int, action="append", metavar="M",
                   help="disk count (repeatable; default 16)")
    b.add_argument("--lower", default="dhw",
                   help="lower-bound family to report against (trivial | dhw)")

    r = sub.add_parser("report", help="run every experiment into a markdown report")
    r.add_argument("output", help="output .md path")
    r.add_argument("--full", action="store_true", help="full (paper-scale) profile")
    r.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep cells (0 = all cores); results are "
        "bit-for-bit identical to --jobs 1",
    )

    return p


def main(argv=None) -> int:
    """CLI entry point.

    Malformed input — a ``ValueError`` or ``StorageError`` from any command
    — prints ``error: <message>`` to stderr and exits 2, never a traceback.
    """
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_report(args) -> int:
    from repro.experiments.runall import write_full_report

    path = write_full_report(args.output, rng=args.seed, quick=not args.full, jobs=args.jobs)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "dataset": _cmd_dataset,
    "decluster": _cmd_decluster,
    "experiment": _cmd_experiment,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "fsck": _cmd_fsck,
    "sql": _cmd_sql,
    "bounds": _cmd_bounds,
    "report": _cmd_report,
}


if __name__ == "__main__":
    raise SystemExit(main())
