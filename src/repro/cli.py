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
``cluster-sim NAME --scheduler S --replica-policy P``
    Run the closed-loop cluster simulator with the request-pipeline
    engine knobs exposed: disk scheduling discipline, replica-selection
    policy and admission control (see ``docs/architecture.md``).
``open-sim NAME --rate R --max-inflight K --deadline D``
    Open-system run: Poisson arrivals at R queries/s, optional bounded
    admission and deadline shedding; reports latency percentiles and
    the shed fraction.
``fault-sim NAME --scheme S --crash-node N --crash-time T``
    Run the simulated cluster with a mid-run node crash and report the
    degraded-mode statistics (timeouts, retries, failovers, availability).
``online-sim NAME --write-ratio W --placement P``
    Drive a mixed read/write workload against a *live* grid file: writes
    split/merge buckets online, a placement policy assigns new buckets to
    disks, and a degradation monitor triggers bounded reorganizations
    (see ``docs/online.md``).
``trace record NAME OUT`` / ``trace summarize FILE`` / ``trace diff A B``
    Record a traced (optionally fault-injected) cluster run to a JSONL
    file, fold a trace into per-disk utilization / per-phase timings /
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


def _engine_params(args, **extra):
    """Build ClusterParams from the shared engine knobs, validating names.

    Unknown ``--scheduler`` / ``--replica-policy`` names and out-of-range
    admission settings raise ``ValueError`` at ``ParallelGridFile``
    construction, which :func:`main` turns into a clean CLI error.
    """
    from repro.parallel import ClusterParams

    return ClusterParams(
        scheduler=args.scheduler,
        replica_policy=args.replica_policy,
        max_inflight=args.max_inflight,
        deadline=args.deadline,
        retry_jitter=args.retry_jitter,
        **extra,
    )


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


def _cmd_cluster_sim(args) -> int:
    from repro.parallel import ParallelGridFile

    ds, gf, method, assignment = _deploy(args)
    params = _engine_params(args, replication=args.scheme)
    pgf = ParallelGridFile(gf, assignment, args.disks, params)
    rep = pgf.run_queries(_square_queries(args, ds))
    print(f"dataset            : {ds.name} ({gf.stats()})")
    print(f"method             : {method.name}, disks={args.disks}")
    print(f"engine             : scheduler={args.scheduler}, "
          f"replica-policy={args.replica_policy}, scheme={args.scheme}")
    print(f"queries            : {args.queries} (r={args.ratio}, closed loop)")
    _print_perf(rep)
    return 0


def _cmd_open_sim(args) -> int:
    from repro.parallel import ParallelGridFile

    if args.rate <= 0:
        raise ValueError("--rate must be positive")
    ds, gf, method, assignment = _deploy(args)
    params = _engine_params(args, replication=args.scheme)
    pgf = ParallelGridFile(gf, assignment, args.disks, params)
    rep = pgf.run_open(_square_queries(args, ds), arrival_rate=args.rate, rng=args.seed)
    admission = "unbounded"
    if args.max_inflight is not None or args.deadline is not None:
        admission = f"max-inflight={args.max_inflight}, deadline={args.deadline}"
    print(f"dataset            : {ds.name} ({gf.stats()})")
    print(f"method             : {method.name}, disks={args.disks}")
    print(f"engine             : scheduler={args.scheduler}, "
          f"replica-policy={args.replica_policy}, admission={admission}")
    print(f"workload           : {args.queries} queries (r={args.ratio}), "
          f"Poisson arrivals at {args.rate:g}/s")
    _print_perf(rep, show_shed=True)
    return 0


def _cmd_fault_sim(args) -> int:
    from repro.parallel import ClusterParams, FaultPlan, ParallelGridFile

    if args.crash_node >= args.disks:
        raise ValueError(f"--crash-node must be < --disks ({args.disks})")
    if args.crash_time < 0:
        raise ValueError("--crash-time must be non-negative")
    if args.recover_time is not None and args.recover_time <= args.crash_time:
        raise ValueError("--recover-time must be after --crash-time")
    plan = FaultPlan().node_crash(args.crash_time, node=args.crash_node)
    if args.recover_time is not None:
        plan = plan.node_recover(args.recover_time, node=args.crash_node)
    ds, gf, method, assignment = _deploy(args)
    queries = _square_queries(args, ds)

    params = ClusterParams(replication=args.scheme)
    healthy = ParallelGridFile(gf, assignment, args.disks, params).run_queries(queries)
    rep = ParallelGridFile(gf, assignment, args.disks, params).run_queries(queries, faults=plan)

    recover = f", recover at t={args.recover_time}" if args.recover_time is not None else ""
    print(f"dataset            : {ds.name} ({gf.stats()})")
    print(f"method             : {method.name}, disks={args.disks}, scheme={args.scheme}")
    print(f"fault plan         : crash node {args.crash_node} at t={args.crash_time}{recover}")
    print(f"queries            : {args.queries} (r={args.ratio})")
    print(f"elapsed time       : {rep.elapsed_time * 1e3:.2f} ms (healthy {healthy.elapsed_time * 1e3:.2f} ms)")
    print(f"mean latency       : {rep.mean_latency * 1e3:.3f} ms (healthy {healthy.mean_latency * 1e3:.3f} ms)")
    print(f"timeouts / retries : {rep.timeouts} / {rep.retries}")
    print(f"failovers          : {rep.failovers}")
    print(f"messages lost      : {rep.messages_lost}")
    print(f"aborted queries    : {rep.aborted_queries}")
    print(f"availability       : {rep.availability:.4f}")
    return 0


def _cmd_online_sim(args) -> int:
    from repro.core import make_placement
    from repro.parallel import DegradationMonitor, OnlineCluster, make_store
    from repro.sim import mixed_workload

    if not 0.0 <= args.write_ratio <= 1.0:
        raise ValueError("--write-ratio must be in [0, 1]")
    if args.store != "memory" and args.store_path is None:
        raise ValueError(f"--store {args.store} requires --store-path")
    ds, gf, method, assignment = _deploy(args)
    store = make_store(
        gf, backend=args.store, path=args.store_path, durability=args.wal_sync
    )
    ops = mixed_workload(
        args.ops,
        args.write_ratio,
        ds.domain_lo,
        ds.domain_hi,
        ratio=args.ratio,
        rng=args.seed,
    )
    monitor = None
    if not args.no_reorg:
        monitor = DegradationMonitor(
            threshold=args.reorg_threshold, budget=args.reorg_budget
        )
    policy = make_placement(args.placement)
    before = gf.n_buckets
    try:
        cluster = OnlineCluster(
            store, assignment, args.disks, params=_engine_params(args),
            placement=policy, monitor=monitor, seed=args.seed,
        )
        rep = cluster.run(ops)
    finally:
        if args.store != "memory":
            store.close()
    reorg = "disabled" if monitor is None else (
        f"threshold={monitor.threshold}, budget={monitor.budget}"
    )
    storage = "memory (no durability)" if args.store == "memory" else (
        f"{args.store} at {args.store_path} (wal sync: {args.wal_sync})"
    )
    print(f"dataset            : {ds.name} ({gf.stats()})")
    print(f"method / placement : {method.name} / {policy.name}, disks={args.disks}, "
          f"scheduler={args.scheduler}")
    print(f"storage            : {storage}")
    print(f"workload           : {args.ops} ops, write ratio {args.write_ratio}, r={args.ratio}")
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
    return 0


def _cmd_autoscale_sim(args) -> int:
    from repro.parallel import AutoscaleCluster, AutoscaleParams, ScalePlan
    from repro.sim import flash_crowd_queries

    ds, gf, method, assignment = _deploy(args)
    queries = flash_crowd_queries(
        args.queries, args.ratio, ds.domain_lo, ds.domain_hi,
        start=args.crowd_start, duration=args.crowd_duration,
        intensity=args.crowd_intensity, width=args.crowd_width,
        rng=args.seed,
    )
    plan = ScalePlan()
    for t in args.join or []:
        plan.join(t)
    for t in args.leave or []:
        plan.leave(t)
    autoscale = AutoscaleParams(
        policy=args.policy,
        budget=args.budget,
        alpha=args.alpha,
        interval=args.interval,
        add_heat=args.add_heat,
        evict_heat=args.evict_heat,
        min_dwell=args.min_dwell,
    )
    params = _engine_params(
        args, autoscale=autoscale,
        cache_blocks=args.cache_blocks, pipeline_depth=args.pipeline_depth,
    )
    cluster = AutoscaleCluster(
        gf, assignment, args.disks, params,
        plan=plan if plan.sorted_events() else None,
        pool_disks=args.pool_disks,
        seed=args.seed,
    )
    rep = cluster.run(queries)
    print(f"dataset            : {ds.name} ({gf.stats()})")
    print(f"method             : {method.name}, disks={args.disks} "
          f"(pool {rep.pool_disks})")
    print(f"policy             : {args.policy}, budget={args.budget}, "
          f"alpha={args.alpha}, interval={args.interval}")
    print(f"workload           : {args.queries} queries (r={args.ratio}), "
          f"flash crowd [{args.crowd_start}, "
          f"{args.crowd_start + args.crowd_duration}) "
          f"intensity {args.crowd_intensity}")
    print(f"membership         : {rep.n_disks_start} -> {rep.n_disks_end} disks "
          f"({rep.joins} joins, {rep.leaves} leaves)")
    print(f"replication        : {rep.replicas_created} created, "
          f"{rep.replicas_evicted} evicted, peak {rep.peak_replicas}, "
          f"final {rep.final_replicas}")
    print(f"movement           : {rep.moves} bucket moves, {rep.promotions} "
          f"promotions, {rep.blocks_copied} blocks copied")
    print(f"control steps      : {rep.control_steps}")
    print(f"availability       : {rep.perf.availability:.4f}")
    _print_perf(rep.perf)
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
        return 0
    if args.trace_command == "diff":
        a = summarize(read_trace(args.a))
        b = summarize(read_trace(args.b))
        print(diff_summaries(a, b))
        return 0

    # record
    from repro.obs import Tracer
    from repro.parallel import ClusterParams, FaultPlan, ParallelGridFile

    plan = None
    if args.crash_node is not None:
        if not 0 <= args.crash_node < args.disks:
            raise ValueError(f"--crash-node must be in [0, {args.disks})")
        plan = FaultPlan().node_crash(args.crash_time, node=args.crash_node)
        if args.recover_time is not None:
            if args.recover_time <= args.crash_time:
                raise ValueError("--recover-time must be after --crash-time")
            plan.node_recover(args.recover_time, node=args.crash_node)
    if args.slow_node is not None:
        if not 0 <= args.slow_node < args.disks:
            raise ValueError(f"--slow-node must be in [0, {args.disks})")
        plan = plan if plan is not None else FaultPlan()
        plan.disk_slowdown(args.slow_time, node=args.slow_node, factor=args.slow_factor)

    tracer = Tracer(path=args.out)
    # Recording implies profiling: capture phase timings for this run only.
    was_enabled = PROFILER.enabled
    PROFILER.enabled = True
    PROFILER.reset()
    try:
        ds, gf, _, assignment = _deploy(args)
        params = ClusterParams(replication=args.scheme) if args.scheme else ClusterParams()
        rep = ParallelGridFile(gf, assignment, args.disks, params).run_queries(
            _square_queries(args, ds), faults=plan, tracer=tracer
        )
    finally:
        PROFILER.enabled = was_enabled
    tracer.phases(PROFILER.snapshot())
    tracer.close()
    print(
        f"wrote {args.out} ({len(tracer.records)} records, "
        f"elapsed {rep.elapsed_time * 1e3:.2f} ms sim)"
    )
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

    if args.store != "memory" and args.store_path is None:
        raise ValueError(f"--store {args.store} requires --store-path")
    engine = SqlEngine(
        n_disks=args.disks,
        params=_engine_params(args),
        placement=args.placement,
        method=args.method,
        store_backend=args.store,
        store_path=args.store_path,
        wal_sync=args.wal_sync,
        seed=args.seed,
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


def _add_engine_flags(sp) -> None:
    """Attach the request-pipeline engine knobs to a subparser.

    Name validation happens in the engine registries (they raise
    ``ValueError`` listing the valid choices), so new disciplines and
    policies show up here without touching the CLI.
    """
    sp.add_argument("--scheduler", default="fifo",
                    help="disk queue discipline (fifo | sjf | fair)")
    sp.add_argument("--replica-policy", default="primary-only",
                    help="replica selection (primary-only | least-loaded-alive"
                    " | fastest-estimated); balancing policies need replication")
    sp.add_argument("--max-inflight", type=int, default=None,
                    help="bound concurrently admitted queries (open runs)")
    sp.add_argument("--deadline", type=float, default=None,
                    help="shed queries that wait longer than this (s, open runs)")
    sp.add_argument("--retry-jitter", type=float, default=0.0,
                    help="full-jitter fraction on retry backoff (0 = deterministic"
                    " legacy delays, 1 = full jitter)")


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

    cs = sub.add_parser("cluster-sim", help="closed-loop cluster run with engine knobs")
    cs.add_argument("name", choices=sorted(DATASETS))
    cs.add_argument("--method", default="minimax", help="method spec (see `list`)")
    cs.add_argument("--disks", type=int, default=16)
    cs.add_argument("--scheme", default=None, choices=["chained", "mirrored"],
                    help="optional replication scheme (required by balancing policies)")
    cs.add_argument("--ratio", type=float, default=0.05, help="query volume ratio r")
    cs.add_argument("--queries", type=int, default=200)
    _add_engine_flags(cs)

    os_ = sub.add_parser("open-sim", help="open-system run: Poisson arrivals, admission control")
    os_.add_argument("name", choices=sorted(DATASETS))
    os_.add_argument("--method", default="minimax", help="method spec (see `list`)")
    os_.add_argument("--disks", type=int, default=16)
    os_.add_argument("--scheme", default=None, choices=["chained", "mirrored"],
                     help="optional replication scheme (required by balancing policies)")
    os_.add_argument("--rate", type=float, default=400.0, help="arrival rate (queries/s)")
    os_.add_argument("--ratio", type=float, default=0.05, help="query volume ratio r")
    os_.add_argument("--queries", type=int, default=200)
    _add_engine_flags(os_)

    f = sub.add_parser("fault-sim", help="simulate a node crash mid-run and report failover")
    f.add_argument("name", choices=sorted(DATASETS))
    f.add_argument("--method", default="minimax", help="method spec (see `list`)")
    f.add_argument("--disks", type=int, default=16)
    f.add_argument("--scheme", default="chained", choices=["chained", "mirrored"])
    f.add_argument("--crash-node", type=int, default=3, help="node to crash")
    f.add_argument("--crash-time", type=float, default=0.05, help="crash time (s)")
    f.add_argument("--recover-time", type=float, default=None, help="optional recovery time (s)")
    f.add_argument("--ratio", type=float, default=0.05, help="query volume ratio r")
    f.add_argument("--queries", type=int, default=200)

    o = sub.add_parser(
        "online-sim",
        help="drive a mixed read/write workload against a live grid file",
    )
    o.add_argument("name", choices=sorted(DATASETS))
    o.add_argument("--method", default="minimax", help="initial assignment method")
    o.add_argument("--disks", type=int, default=16)
    o.add_argument("--ops", type=int, default=500, help="total operations")
    o.add_argument("--write-ratio", type=float, default=0.3,
                   help="fraction of ops that are writes (0..1)")
    o.add_argument("--placement", default="rr-least-loaded",
                   help="online placement policy (rr-least-loaded | proximity-steal"
                   " | recompute-threshold)")
    o.add_argument("--ratio", type=float, default=0.05, help="query volume ratio r")
    o.add_argument("--no-reorg", action="store_true",
                   help="disable the degradation monitor")
    o.add_argument("--reorg-threshold", type=float, default=1.5,
                   help="windowed R(q) ratio that triggers reorganization")
    o.add_argument("--reorg-budget", type=float, default=0.2,
                   help="movement budget per reorganization (fraction of buckets)")
    o.add_argument("--store", default="memory", choices=["memory", "file"],
                   help="storage backend for the live grid file (file persists"
                   " every committed operation through the WAL)")
    o.add_argument("--store-path", default=None,
                   help="directory for the durable store (required unless memory)")
    o.add_argument("--wal-sync", default="commit", choices=["commit", "checkpoint"],
                   help="fsync the WAL on every commit, or only at checkpoints")
    _add_engine_flags(o)

    a = sub.add_parser(
        "autoscale-sim",
        help="flash-crowd run with popularity-driven replication and "
        "elastic membership",
    )
    a.add_argument("name", choices=sorted(DATASETS))
    a.add_argument("--method", default="minimax", help="method spec (see `list`)")
    a.add_argument("--disks", type=int, default=8, help="active disks at start")
    a.add_argument("--pool-disks", type=int, default=None,
                   help="provisioned pool (>= --disks; default: sized to the plan)")
    a.add_argument("--policy", default="heat-replicate",
                   help="autoscale policy (null | static | heat-replicate)")
    a.add_argument("--budget", type=int, default=8,
                   help="replica storage budget (buckets)")
    a.add_argument("--alpha", type=float, default=0.6,
                   help="EWMA smoothing for the heat tracker (0, 1]")
    a.add_argument("--interval", type=int, default=4,
                   help="control-loop period (completed queries per tick)")
    a.add_argument("--add-heat", type=float, default=2.0,
                   help="replicate buckets whose score exceeds this watermark")
    a.add_argument("--evict-heat", type=float, default=0.25,
                   help="evict replicas whose score falls below this watermark")
    a.add_argument("--min-dwell", type=int, default=4,
                   help="ticks a replica survives after creation (anti-thrash)")
    a.add_argument("--join", type=float, action="append", metavar="T",
                   help="activate one pool disk at time T (repeatable)")
    a.add_argument("--leave", type=float, action="append", metavar="T",
                   help="drain one active disk at time T (repeatable)")
    a.add_argument("--ratio", type=float, default=0.01, help="query volume ratio r")
    a.add_argument("--queries", type=int, default=500)
    a.add_argument("--crowd-start", type=float, default=0.2,
                   help="crowd onset (fraction of the query stream)")
    a.add_argument("--crowd-duration", type=float, default=0.6,
                   help="crowd length (fraction of the query stream)")
    a.add_argument("--crowd-intensity", type=float, default=0.95,
                   help="fraction of crowd-window queries aimed at the hot spot")
    a.add_argument("--crowd-width", type=float, default=0.01,
                   help="hot-spot spread (fraction of the domain extent)")
    a.add_argument("--cache-blocks", type=int, default=0,
                   help="per-node LRU cache (blocks); 0 keeps the crowd disk-bound")
    a.add_argument("--pipeline-depth", type=int, default=8,
                   help="closed-loop concurrency (queries in flight)")
    _add_engine_flags(a)

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

    t = sub.add_parser("trace", help="record, summarize or diff cluster run traces")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    trec = tsub.add_parser(
        "record", help="run a cluster workload with tracing on, write a JSONL trace"
    )
    trec.add_argument("name", choices=sorted(DATASETS))
    trec.add_argument("out", help="output trace path (JSONL)")
    trec.add_argument("--method", default="minimax", help="method spec (see `list`)")
    trec.add_argument("--disks", type=int, default=16)
    trec.add_argument("--scheme", default=None, choices=["chained", "mirrored"],
                      help="optional replication scheme (enables failover)")
    trec.add_argument("--ratio", type=float, default=0.05, help="query volume ratio r")
    trec.add_argument("--queries", type=int, default=100)
    trec.add_argument("--crash-node", type=int, default=None, help="optional node to crash")
    trec.add_argument("--crash-time", type=float, default=0.05, help="crash time (s)")
    trec.add_argument("--recover-time", type=float, default=None, help="optional recovery time (s)")
    trec.add_argument("--slow-node", type=int, default=None,
                      help="optional node whose disk 0 is slowed")
    trec.add_argument("--slow-factor", type=float, default=4.0, help="slowdown multiplier")
    trec.add_argument("--slow-time", type=float, default=0.0, help="slowdown start time (s)")
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
    q.add_argument("--disks", type=int, default=4, help="cluster size (disks)")
    q.add_argument("--placement", default="rr-least-loaded",
                   help="online placement policy for buckets born from splits")
    q.add_argument("--method", default=None,
                   help="re-decluster tables with this method spec after every"
                   " write batch (default: keep the placement policy's"
                   " incremental assignment)")
    q.add_argument("--store", default="memory", choices=["memory", "file"],
                   help="per-table storage backend")
    q.add_argument("--store-path", default=None,
                   help="directory for file table stores")
    q.add_argument("--wal-sync", default="commit",
                   choices=["commit", "checkpoint", "off"],
                   help="WAL durability mode for file stores")
    q.add_argument("-v", "--verbose", action="store_true",
                   help="print each SELECT's plan (EXPLAIN) to stderr")
    _add_engine_flags(q)

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
    from repro.storage import StorageError

    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    try:
        return _dispatch(args)
    except (ValueError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "dataset":
        return _cmd_dataset(args)
    if args.command == "decluster":
        return _cmd_decluster(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "cluster-sim":
        return _cmd_cluster_sim(args)
    if args.command == "open-sim":
        return _cmd_open_sim(args)
    if args.command == "fault-sim":
        return _cmd_fault_sim(args)
    if args.command == "online-sim":
        return _cmd_online_sim(args)
    if args.command == "autoscale-sim":
        return _cmd_autoscale_sim(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "sql":
        return _cmd_sql(args)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "report":
        from repro.experiments.runall import write_full_report

        path = write_full_report(args.output, rng=args.seed, quick=not args.full, jobs=args.jobs)
        print(f"wrote {path}")
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
