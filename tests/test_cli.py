"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_decluster_defaults(self):
        args = build_parser().parse_args(["decluster", "hot.2d"])
        assert args.method == "minimax"
        assert args.disks == 16

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "imagenet"])

    def test_fault_sim_rejects_bad_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "hot.2d", "--scheme", "raid6"])

    @pytest.mark.parametrize("flag", ["--cache-blocks", "--pipeline-depth"])
    def test_sql_has_no_run_only_flags(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sql", flag, "4"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fault_sim_defaults(self):
        """Without a fault flag a run has no fault plan.  The CLI has no
        fault time or slowdown factor of its own: a fault's node, time and
        factor are given together."""
        from repro.cli import _fault_plan, _pick_engine

        args = build_parser().parse_args(["run", "hot.2d"])
        assert args.scheme is None
        assert args.crash_node is None and args.crash_time is None
        assert args.slow_time is None and args.slow_factor is None
        assert args.recover_time is None
        assert _fault_plan(args) is None
        for argv in (["--slow-node", "1"], ["--slow-node", "1", "--slow-time", "0"],
                     ["--crash-node", "1"], ["--crash-time", "0.1"]):
            args = build_parser().parse_args(["run", "hot.2d", *argv])
            with pytest.raises(ValueError, match="given together"):
                _pick_engine(args)


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps a callable so that the arguments of each
    call are kept in the returned dict under ``name``."""
    import inspect

    seen = {}

    def wrap(module, name):
        real = getattr(module, name)

        def record(*args, **kwargs):
            seen[name] = inspect.signature(real).bind(*args, **kwargs).arguments
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    wrap.seen = seen
    return wrap


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "minimax" in out and "uniform.2d" in out

    def test_dataset(self, capsys):
        assert main(["--seed", "3", "dataset", "dsmc.3d"]) == 0
        out = capsys.readouterr().out
        assert "buckets" in out

    def test_decluster_with_export(self, capsys, tmp_path):
        rc = main(
            [
                "--seed", "3",
                "decluster", "uniform.2d",
                "--method", "dm/D",
                "--disks", "4",
                "--queries", "50",
                "--out", str(tmp_path / "layout"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean response time" in out
        assert (tmp_path / "layout" / "catalog.json").exists()

    def test_experiment_fig2(self, capsys):
        assert main(["--seed", "3", "experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "uniform.2d" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_experiment_table1_quick(self, capsys):
        assert main(["--seed", "3", "experiment", "table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "data balance" in out

    def test_fault_sim(self, capsys):
        rc = main(
            [
                "--seed", "3",
                "run", "uniform.2d",
                "--disks", "8",
                "--scheme", "chained",
                "--crash-node", "2",
                "--crash-time", "0.02",
                "--queries", "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "failovers" in out
        assert "availability" in out
        assert "aborted queries    : 0" in out

    def test_fault_sim_crash_node_out_of_range(self, capsys):
        rc = main(["run", "uniform.2d", "--disks", "4", "--crash-time", "0.01",
                   "--crash-node", "7"])
        assert rc == 2


class TestEngineCommands:
    """Closed and open ``run``s and the shared engine knobs."""

    def test_cluster_sim_defaults(self, capsys):
        """Unset engine flags pass nothing, so ClusterParams' own defaults
        apply."""
        args = build_parser().parse_args(["run", "hot.2d"])
        assert args.scheduler is None and args.replica_policy is None
        assert args.max_inflight is None and args.deadline is None
        rc = main(["--seed", "3", "run", "uniform.2d", "--disks", "4", "--queries", "8"])
        assert rc == 0
        assert "scheduler=fifo, replica-policy=primary-only" in capsys.readouterr().out

    def test_online_sim_has_engine_flags(self):
        args = build_parser().parse_args(
            ["run", "hot.2d", "--write-ratio", "0.1", "--scheduler", "fair"]
        )
        assert args.scheduler == "fair"

    def test_cluster_sim_runs(self, capsys):
        rc = main(
            ["--seed", "3", "run", "uniform.2d",
             "--disks", "8", "--queries", "30", "--scheduler", "sjf"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler=sjf" in out
        assert "p95 / p99 latency" in out

    def test_cluster_sim_unknown_scheduler(self, capsys):
        rc = main(["run", "uniform.2d", "--scheduler", "elevator"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scheduler" in err and "fifo" in err

    def test_cluster_sim_replica_policy_needs_replication(self, capsys):
        rc = main(
            ["run", "uniform.2d", "--replica-policy", "least-loaded-alive"]
        )
        assert rc == 2
        assert "replication" in capsys.readouterr().err

    def test_cluster_sim_balancing_policy_with_scheme(self, capsys):
        rc = main(
            ["--seed", "3", "run", "uniform.2d",
             "--disks", "8", "--queries", "20",
             "--scheme", "chained", "--replica-policy", "least-loaded-alive"]
        )
        assert rc == 0
        assert "replica-policy=least-loaded-alive" in capsys.readouterr().out

    def test_open_sim_runs_with_admission(self, capsys):
        rc = main(
            ["--seed", "3", "run", "uniform.2d",
             "--disks", "8", "--queries", "60", "--rate", "2000",
             "--max-inflight", "8", "--deadline", "0.03"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shed queries" in out
        assert "throughput" in out

    def test_open_sim_unknown_replica_policy(self, capsys):
        rc = main(["run", "uniform.2d", "--replica-policy", "psychic"])
        assert rc == 2
        assert "unknown replica policy" in capsys.readouterr().err

    def test_open_sim_rejects_nonpositive_rate(self, capsys):
        rc = main(["run", "uniform.2d", "--rate", "0"])
        assert rc == 2

    def test_online_sim_rejects_admission(self, capsys):
        rc = main(
            ["run", "uniform.2d", "--write-ratio", "0.3", "--queries", "20",
             "--max-inflight", "4"]
        )
        assert rc == 2
        assert "open-system" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_record_defaults(self):
        args = build_parser().parse_args(["run", "uniform.2d", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"
        assert args.disks == 16
        assert args.scheme is None
        assert args.crash_node is None

    def test_record_and_summarize(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        rc = main(
            [
                "--seed", "3",
                "run", "uniform.2d", "--trace", str(path),
                "--disks", "8",
                "--scheme", "chained",
                "--queries", "30",
                "--crash-node", "2",
                "--crash-time", "0.01",
                "--recover-time", "0.06",
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert path.exists()

        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        # The acceptance bar: per-disk utilization and per-phase timings
        # for a fault-injected run.
        assert "disk utilization" in out
        assert "phase timings" in out
        assert "cluster.run" in out
        assert "fault" in out

    def test_record_healthy_and_diff(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        base = ["--seed", "3", "run", "uniform.2d", "--trace"]
        opts = ["--disks", "8", "--scheme", "chained", "--queries", "20"]
        assert main(base + [str(a)] + opts) == 0
        assert (
            main(
                base + [str(b)] + opts
                + ["--crash-node", "1", "--crash-time", "0.005", "--recover-time", "0.08"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "fault.node_crash" in out

    def test_diff_identical_traces_is_clean(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cmd = ["--seed", "3", "run", "uniform.2d", "--trace"]
        opts = ["--disks", "4", "--queries", "10"]
        assert main(cmd + [str(a)] + opts) == 0
        assert main(cmd + [str(b)] + opts) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_record_rejects_bad_crash_node(self, capsys, tmp_path):
        rc = main(
            ["run", "uniform.2d", "--trace", str(tmp_path / "x.jsonl"),
             "--disks", "4", "--crash-time", "0.01", "--crash-node", "9"]
        )
        assert rc == 2

    def test_record_slowdown_only(self, capsys, tmp_path):
        path = tmp_path / "slow.jsonl"
        rc = main(
            ["--seed", "3", "run", "uniform.2d", "--trace", str(path),
             "--disks", "4", "--queries", "10",
             "--slow-node", "1", "--slow-time", "0", "--slow-factor", "3.0"]
        )
        assert rc == 0
        assert main(["trace", "summarize", str(path)]) == 0
        assert "disk_slowdown=1" in capsys.readouterr().out


class TestAutoscaleSimCommand:
    def test_defaults(self, spy):
        """An unset autoscaler or flash-crowd flag leaves AutoscaleParams'
        and flash_crowd_queries' own defaults."""
        import repro.parallel as parallel
        import repro.sim as sim

        spy(parallel, "ClusterParams")
        spy(parallel, "AutoscaleParams")
        spy(sim, "flash_crowd_queries")
        rc = main(["--seed", "3", "run", "uniform.2d", "--disks", "4",
                   "--queries", "8", "--autoscale", "null"])
        assert rc == 0
        assert set(spy.seen["ClusterParams"]) == {"autoscale"}
        assert set(spy.seen["AutoscaleParams"]) == {"policy"}
        assert set(spy.seen["flash_crowd_queries"]) == {
            "n", "ratio", "domain_lo", "domain_hi", "rng"
        }

    def test_runs_with_elastic_plan(self, capsys):
        rc = main(
            ["--seed", "3", "run", "uniform.2d", "--autoscale", "heat-replicate",
             "--disks", "6", "--queries", "80", "--join", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "membership         : 6 -> 7 disks (1 joins, 0 leaves" in out
        assert "availability" in out and "blocks copied" in out

    def test_null_policy_runs(self, capsys):
        rc = main(
            ["--seed", "3", "run", "uniform.2d",
             "--disks", "4", "--queries", "40", "--autoscale", "null"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication        : 0 created" in out

    def test_unknown_policy(self, capsys):
        rc = main(["run", "uniform.2d", "--autoscale", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown autoscale policy" in err
        for name in ("null", "static", "heat-replicate"):
            assert name in err

    def test_null_policy_rejects_plan(self, capsys):
        rc = main(
            ["run", "uniform.2d", "--autoscale", "null", "--join", "0.5"]
        )
        assert rc == 2
        assert "no controller" in capsys.readouterr().err

    def test_bad_hysteresis_rejected(self, capsys):
        rc = main(
            ["run", "uniform.2d", "--autoscale", "heat-replicate",
             "--add-heat", "0.5", "--evict-heat", "0.9"]
        )
        assert rc == 2
        assert "hysteresis" in capsys.readouterr().err


class TestFsckCommand:
    def _make_store(self, tmp_path, checkpoint=False):
        from repro.storage import default_workload, run_workload

        store_dir = tmp_path / "store"
        durable = run_workload(
            default_workload(n_ops=30), store_dir, page_size=512
        )
        if not checkpoint:
            # run_workload checkpoints; dirty the WAL again so fsck --repair
            # has committed images to restore from
            import numpy as np

            durable.insert(np.array([0.5, 0.5]))
        durable.close()
        return store_dir

    def test_fsck_parser_defaults(self):
        args = build_parser().parse_args(["fsck", "/tmp/x"])
        assert args.page_size == 4096
        assert not args.repair

    def test_fsck_missing_store(self, capsys, tmp_path):
        rc = main(["fsck", str(tmp_path / "nowhere")])
        assert rc == 2
        assert "pages.dat" in capsys.readouterr().err

    def test_fsck_clean_store(self, capsys, tmp_path):
        store_dir = self._make_store(tmp_path)
        rc = main(["fsck", str(store_dir), "--page-size", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_fsck_detects_and_repairs(self, capsys, tmp_path):
        from repro.storage import WriteAheadLog

        store_dir = self._make_store(tmp_path)
        # corrupt a page the WAL still holds an image of (so repair can work)
        wal = WriteAheadLog(store_dir / "wal.log")
        pid = max(wal.replay().images)
        wal.close()
        data = store_dir / "pages.dat"
        blob = bytearray(data.read_bytes())
        blob[pid * 512 + 8] ^= 0xFF
        data.write_bytes(bytes(blob))

        rc = main(["fsck", str(store_dir), "--page-size", "512"])
        assert rc == 1
        assert "CORRUPT" in capsys.readouterr().out

        rc = main(["fsck", str(store_dir), "--page-size", "512", "--repair"])
        assert rc == 0
        assert "repaired from WAL" in capsys.readouterr().out

        rc = main(["fsck", str(store_dir), "--page-size", "512"])
        assert rc == 0

    def test_fsck_dump_writes_hexdumps(self, capsys, tmp_path):
        store_dir = self._make_store(tmp_path)
        data = store_dir / "pages.dat"
        blob = bytearray(data.read_bytes())
        blob[512 + 8] ^= 0xFF
        data.write_bytes(bytes(blob))

        dump_dir = tmp_path / "dumps"
        rc = main(
            ["fsck", str(store_dir), "--page-size", "512", "--dump", str(dump_dir)]
        )
        assert rc == 1
        assert (dump_dir / "page-1.hexdump.txt").exists()
        assert "hexdumps" in capsys.readouterr().out

    def test_fsck_wrong_page_size_is_corrupt_not_crash(self, capsys, tmp_path):
        store_dir = self._make_store(tmp_path)
        rc = main(["fsck", str(store_dir), "--page-size", "4096"])
        assert rc == 1  # misparsed pages fail their CRC; no traceback


class TestOnlineSimStorage:
    def test_online_sim_defaults(self, spy):
        """An unset online flag leaves ClusterParams', DegradationMonitor's,
        make_store's and OnlineCluster's own defaults."""
        import repro.parallel as parallel

        for name in ("ClusterParams", "DegradationMonitor", "make_store",
                     "OnlineCluster"):
            spy(parallel, name)
        rc = main(["--seed", "3", "run", "uniform.2d", "--disks", "4",
                   "--queries", "8", "--write-ratio", "0.2"])
        assert rc == 0
        assert set(spy.seen["ClusterParams"]) == set()
        assert set(spy.seen["DegradationMonitor"]) == set()
        assert set(spy.seen["make_store"]) == {"gf"}
        assert "placement" not in spy.seen["OnlineCluster"]

    def test_store_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "hot.2d", "--write-ratio", "0.3", "--store", "file",
             "--store-path", "/tmp/s", "--wal-sync", "checkpoint"]
        )
        assert args.store == "file"
        assert args.wal_sync == "checkpoint"
        assert args.retry_jitter is None

    def test_retry_jitter_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "hot.2d", "--retry-jitter", "0.5"]
        )
        assert args.retry_jitter == 0.5

    def test_file_store_requires_path(self, capsys):
        rc = main(["run", "uniform.2d", "--write-ratio", "0.3", "--store", "file"])
        assert rc == 2
        assert "requires a path" in capsys.readouterr().err

    def test_online_sim_with_file_store(self, capsys, tmp_path):
        store_dir = tmp_path / "olstore"
        rc = main(
            ["--seed", "3", "run", "uniform.2d", "--write-ratio", "0.3",
             "--disks", "4", "--queries", "20", "--no-reorg",
             "--store", "file", "--store-path", str(store_dir)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "storage" in out and "file at" in out
        assert (store_dir / "pages.dat").exists()
        # the persisted store passes fsck after the run
        assert main(["fsck", str(store_dir)]) == 0

    def test_online_sim_refuses_existing_store(self, capsys, tmp_path):
        store_dir = tmp_path / "olstore"
        args = ["--seed", "3", "run", "uniform.2d", "--write-ratio", "0.3",
                "--disks", "4", "--queries", "10", "--no-reorg",
                "--store", "file", "--store-path", str(store_dir)]
        assert main(args) == 0
        capsys.readouterr()
        rc = main(args)  # second run over the same directory
        assert rc == 2
        assert "existing store" in capsys.readouterr().err


#: One ``run`` row per float flag: NaN is refused by the record it feeds.
_NAN_ROWS = [
    ["--ratio"],
    ["--rate"],
    ["--rate", "10", "--deadline"],
    ["--retry-jitter"],
    ["--crash-node", "1", "--crash-time"],
    ["--crash-node", "1", "--crash-time", "0.01", "--recover-time"],
    ["--slow-node", "1", "--slow-time", "0", "--slow-factor"],
    ["--slow-node", "1", "--slow-factor", "2", "--slow-time"],
    ["--write-ratio"],
    ["--write-ratio", "0.3", "--reorg-threshold"],
    ["--write-ratio", "0.3", "--reorg-budget"],
    ["--autoscale", "heat-replicate", "--alpha"],
    ["--autoscale", "heat-replicate", "--add-heat"],
    ["--autoscale", "heat-replicate", "--evict-heat"],
    ["--autoscale", "heat-replicate", "--join"],
    ["--autoscale", "heat-replicate", "--leave"],
    ["--autoscale", "heat-replicate", "--crowd-start"],
    ["--autoscale", "heat-replicate", "--crowd-duration"],
    ["--autoscale", "heat-replicate", "--crowd-intensity"],
    ["--autoscale", "heat-replicate", "--crowd-width"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "uniform.2d", "--disks", "5", "--scheme", "mirrored"],
        ["run", "uniform.2d", "--trace", "{tmp}/t.jsonl", "--scheme", "mirrored", "--disks", "5"],
        ["run", "uniform.2d", "--method", "bogus"],
        ["run", "uniform.2d", "--disks", "0"],
        ["decluster", "uniform.2d", "--disks", "0"],
        ["run", "uniform.2d", "--write-ratio", "0.3", "--disks", "-2"],
        ["run", "uniform.2d", "--crash-time", "0.01", "--crash-node", "-1"],
        ["run", "uniform.2d", "--autoscale", "null", "--queries", "-3"],
        ["run", "uniform.2d", "--pipeline-depth", "0"],
        ["run", "uniform.2d", "--rate", "0"],
        ["experiment", "fig99"],
        ["run", "uniform.2d", "--write-ratio", "2"],
        ["run", "uniform.2d", "--write-ratio", "0.3", "--store", "file"],
        ["sql", "--store", "file", "-e", "select 1"],
        ["run", "uniform.2d", "--crash-time", "0.01", "--crash-node", "16"],
        ["run", "uniform.2d", "--trace", "{tmp}/t.jsonl", "--slow-time", "0",
         "--slow-factor", "2", "--slow-node", "99"],
        ["run", "uniform.2d", "--crash-node", "2", "--crash-time", "0.5", "--recover-time", "0.1"],
        ["run", "uniform.2d", "--cache-blocks", "-1"],
        ["run", "uniform.2d", "--autoscale", "heat-replicate", "--budget", "-1"],
        # Flags the chosen engine does not take: one row per combination.
        ["run", "uniform.2d", "--write-ratio", "0.3", "--rate", "10"],
        ["run", "uniform.2d", "--write-ratio", "0.3", "--autoscale", "null"],
        ["run", "uniform.2d", "--rate", "10", "--autoscale", "static"],
        ["run", "uniform.2d", "--write-ratio", "0.3", "--crash-node", "1"],
        ["run", "uniform.2d", "--autoscale", "null", "--slow-node", "1"],
        ["run", "uniform.2d", "--max-inflight", "4"],
        ["run", "uniform.2d", "--autoscale", "null", "--deadline", "0.1"],
        ["run", "uniform.2d", "--store-path", "{tmp}/s"],
        ["run", "uniform.2d", "--rate", "10", "--reorg-budget", "0.1"],
        ["run", "uniform.2d", "--join", "0.5"],
        ["run", "uniform.2d", "--rate", "10", "--crowd-width", "0.1"],
        # A flag set to 0 is set: node 0 is a node, 0 a value to refuse.
        ["run", "uniform.2d", "--write-ratio", "0.3", "--crash-node", "0"],
        ["run", "uniform.2d", "--autoscale", "heat-replicate", "--slow-node", "0"],
        ["run", "uniform.2d", "--rate", "10", "--crowd-start", "0"],
        ["run", "uniform.2d", "--budget", "0"],
        ["run", "uniform.2d", "--max-inflight", "0"],
        # Fault flags apply to closed and open runs only.
        ["run", "uniform.2d", "--write-ratio", "0.3", "--recover-time", "1"],
        ["run", "uniform.2d", "--autoscale", "null", "--slow-factor", "2"],
        ["run", "uniform.2d", "--write-ratio", "0.3", "--crash-time", "0.1"],
        ["run", "uniform.2d", "--autoscale", "null", "--slow-time", "0.1"],
        # --pipeline-depth applies to closed and autoscale runs only.
        ["run", "uniform.2d", "--rate", "10", "--pipeline-depth", "4"],
        ["run", "uniform.2d", "--write-ratio", "0.3", "--pipeline-depth", "2"],
        # A fault's node, time and factor are given together.
        ["run", "uniform.2d", "--crash-node", "3"],
        ["run", "uniform.2d", "--slow-node", "1", "--slow-time", "0"],
        ["run", "uniform.2d", "--slow-factor", "9"],
        ["run", "uniform.2d", "--recover-time", "3"],
    ]
    + [["run", "uniform.2d", "--queries", "5", *row, "nan"] for row in _NAN_ROWS],
    ids=lambda argv: " ".join(argv[:2]) + " " + " ".join(argv[-2:]),
)
def test_malformed_input_exits_2_without_traceback(argv, tmp_path, capsys):
    """One error boundary: bad values fail with ``error:`` and exit 2."""
    rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    if argv[-1] == "nan":  # the record that refused the value echoes it
        assert "nan" in err
