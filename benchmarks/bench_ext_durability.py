"""Extension benchmark: write counts vs durability mode for the storage engine.

Runs the crash-harness workload through :class:`DurableGridFile` on the
``file`` backend under the three durability modes:

* ``off``        — no WAL at all (fastest, loses everything on crash);
* ``checkpoint`` — WAL appended but fsynced only at checkpoints (a crash
  loses recent commits yet always recovers to a consistent prefix);
* ``commit``     — WAL fsynced on every commit (the durable default).

The payload is made of *deterministic* storage counters only (commits,
pages written, WAL appends/bytes/fsyncs): they depend only on the
workload and the commit protocol, so the CI gate diffs them exactly.
Wall-clock throughput of durable writes is measured by ``bench/`` (its
``online`` workload), with repeats and spread, not here.
"""

from __future__ import annotations

from conftest import FULL, SEED, once

from repro._util import format_table
from repro.obs import MetricsRegistry
from repro.storage import DurableGridFile, default_workload, run_workload

MODES = ["off", "checkpoint", "commit"]

N_OPS = 1200 if FULL else 300
CAPACITY = 8
PAGE_SIZE = 1024


def _run(workdir):
    ops = default_workload(n_ops=N_OPS, capacity=CAPACITY, seed=SEED)
    rows, series = [], []
    final_bytes = {}
    for mode in MODES:
        directory = workdir / mode
        metrics = MetricsRegistry()
        durable = run_workload(
            ops,
            directory,
            capacity=CAPACITY,
            page_size=PAGE_SIZE,
            durability=mode,
            metrics=metrics,
        )
        n_records = durable.gf.n_records
        durable.close()
        final_bytes[mode] = (directory / "pages.dat").read_bytes()
        counters = {
            name: metrics.counter(name).value
            for name in (
                "storage.commits",
                "storage.pages_written",
                "storage.wal.appends",
                "storage.wal.bytes",
                "storage.wal.fsyncs",
                "storage.checkpoints",
            )
        }
        rows.append(
            [
                mode,
                counters["storage.commits"],
                counters["storage.pages_written"],
                counters["storage.wal.appends"],
                counters["storage.wal.fsyncs"],
            ]
        )
        series.append(
            {
                "mode": mode,
                "n_ops": len(ops),
                "n_records": n_records,
                **counters,
            }
        )
    # Durability changes *when* bytes become safe, never *which* bytes are
    # written: after the final checkpoint all modes hold identical devices.
    assert final_bytes["checkpoint"] == final_bytes["commit"]
    assert final_bytes["off"] == final_bytes["commit"]
    # Reopening the most durable store yields the same record count.
    reopened = DurableGridFile.open(workdir / "commit", page_size=PAGE_SIZE)
    assert reopened.gf.n_records == series[-1]["n_records"]
    reopened.close()
    return rows, series


def test_ext_durability_modes(benchmark, report_sink, tmp_path):
    rows, series = once(benchmark, _run, tmp_path)
    report_sink(
        "ext_durability",
        format_table(
            ["mode", "commits", "pages written", "wal appends", "wal fsyncs"],
            rows,
            title="Extension: storage write counts vs durability mode",
        ),
        data={"series": series},
    )
    by = {s["mode"]: s for s in series}
    # Same workload -> same commit/page counts in every mode.
    assert len({s["storage.commits"] for s in series}) == 1
    assert len({s["storage.pages_written"] for s in series}) == 1
    # "off" writes no WAL; the other modes log every commit.
    assert by["off"]["storage.wal.appends"] == 0
    assert by["commit"]["storage.wal.appends"] == by["checkpoint"]["storage.wal.appends"]
    assert by["commit"]["storage.wal.appends"] > by["commit"]["storage.commits"]
    # fsync-per-commit is the price of durability; checkpoint mode syncs
    # only at durability points.
    assert by["commit"]["storage.wal.fsyncs"] > by["commit"]["storage.commits"]
    assert by["checkpoint"]["storage.wal.fsyncs"] < by["commit"]["storage.wal.fsyncs"]
    assert by["off"]["storage.wal.fsyncs"] == 0
