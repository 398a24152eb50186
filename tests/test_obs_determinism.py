"""Determinism and neutrality regressions for the observability layer.

Three guarantees:

* **Trace determinism** — the same seed yields bit-identical trace
  records (wall-clock appears only in the JSONL ``meta`` header and in
  ``phase`` records, never in the causal portion).
* **Tracing neutrality** — a traced run and an untraced run produce the
  same :class:`~repro.parallel.engine.stats.PerfReport`, number for number.
* **Golden outputs** — with tracing disabled (the default), the fig6 /
  fig7 / table2 experiment data and a replicated fault-injected cluster
  run hash to the exact values captured before the observability layer
  existed.  Any drift in these hashes means instrumentation leaked into
  the simulated results.
"""

import dataclasses
import hashlib
import json

import numpy as np

from repro.core import make_method
from repro.gridfile import GridFile
from repro.obs import Tracer, read_trace
from repro.parallel import ClusterParams, FaultPlan, ParallelGridFile
from repro.sim import square_queries


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=float)


def _sha(obj) -> str:
    return hashlib.sha256(_canon(obj).encode()).hexdigest()


def _faulty_setup(seed=7):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1000, size=(500, 2))
    gf = GridFile.from_points(points, [0, 0], [1000, 1000], capacity=20)
    assignment = make_method("minimax").assign(gf, 8, rng=seed)
    queries = square_queries(30, 0.08, [0, 0], [1000, 1000], rng=seed)
    params = ClusterParams(replication="chained", request_timeout=0.05)
    return gf, assignment, queries, params


def _fault_plan():
    return (
        FaultPlan(seed=5)
        .node_crash(0.02, node=2)
        .node_recover(0.2, node=2)
        .disk_slowdown(0.01, node=1, factor=3.0)
        .link_loss(0.0, node=0, loss_prob=0.1)
    )


def _run(tracer=None, faults=True):
    gf, assignment, queries, params = _faulty_setup()
    pgf = ParallelGridFile(gf, assignment, 8, params)
    return pgf.run_queries(
        queries, faults=_fault_plan() if faults else None, tracer=tracer
    )


class TestTraceDeterminism:
    def test_same_seed_identical_records(self):
        t1, t2 = Tracer(), Tracer()
        _run(tracer=t1)
        _run(tracer=t2)
        assert t1.records == t2.records

    def test_saved_files_identical_modulo_wall_clock(self, tmp_path):
        t1 = Tracer(path=str(tmp_path / "a.jsonl"))
        t2 = Tracer(path=str(tmp_path / "b.jsonl"))
        _run(tracer=t1)
        _run(tracer=t2)
        t1.close()
        t2.close()
        a = read_trace(str(tmp_path / "a.jsonl"))
        b = read_trace(str(tmp_path / "b.jsonl"))
        assert a[0]["kind"] == "meta" and b[0]["kind"] == "meta"
        a[0].pop("wall")
        b[0].pop("wall")
        assert a == b

    def test_healthy_and_faulted_traces_both_deterministic(self):
        t1, t2 = Tracer(), Tracer()
        _run(tracer=t1, faults=False)
        _run(tracer=t2, faults=False)
        assert t1.records == t2.records


class TestTracingNeutrality:
    def _assert_reports_equal(self, a, b):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                np.testing.assert_array_equal(va, vb, err_msg=f.name)
            else:
                assert va == vb, f.name

    def test_traced_equals_untraced_faulted(self):
        self._assert_reports_equal(_run(tracer=None), _run(tracer=Tracer()))

    def test_traced_equals_untraced_healthy(self):
        self._assert_reports_equal(
            _run(tracer=None, faults=False), _run(tracer=Tracer(), faults=False)
        )

    def test_env_tracer_equals_untraced(self, monkeypatch, tmp_path):
        from repro.obs import reset_default_tracer

        baseline = _run(tracer=None)
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env.jsonl"))
        reset_default_tracer()
        try:
            traced = _run(tracer=None)  # picks up the env default tracer
        finally:
            reset_default_tracer()
            monkeypatch.delenv("REPRO_TRACE")
            reset_default_tracer()
        self._assert_reports_equal(baseline, traced)
        assert (tmp_path / "env.jsonl").exists()


# Captured from the pre-observability tree (commit 0959a89) with the exact
# recipes below; instrumentation must never move these.
GOLDEN_CLUSTER = "67477d30b5fb1ffccf67ec976019fcb2e18c300b6dabbac426dd8034eae39735"
GOLDEN_FIG6 = "9310dd884cbbf61eda00906ba03bd7fcbb97827a3eb2542900e6a8daa7c6460b"
GOLDEN_FIG7 = "16cd31dc131c025957408cd9a7103b846fd854faddc8733d015cdc37b89de834"
GOLDEN_TABLE2 = "8d2c5040d5bb6153b2fea2b27222d6b9f523fd436ddb69fad74779fe0d768c2f"


def _report_data(rep) -> dict:
    return {
        "blocks_fetched": rep.blocks_fetched,
        "blocks_requested_total": rep.blocks_requested_total,
        "blocks_read": rep.blocks_read,
        "comm_time": rep.comm_time,
        "elapsed_time": rep.elapsed_time,
        "records_returned": rep.records_returned,
        "cache_hit_rate": rep.cache_hit_rate,
        "completion": [float(v) for v in rep.completion_times],
        "latencies": [float(v) for v in rep.latencies],
        "disk_util": [float(v) for v in rep.disk_utilization],
        "timeouts": rep.timeouts,
        "retries": rep.retries,
        "failovers": rep.failovers,
        "messages_lost": rep.messages_lost,
        "aborted": rep.aborted_queries,
    }


class TestGoldenOutputs:
    def test_cluster_run_hash_unchanged(self):
        from repro.datasets import build_gridfile, load

        ds = load("uniform.2d", rng=7)
        gf = build_gridfile(ds)
        assignment = make_method("minimax").assign(gf, 8, rng=7)
        queries = square_queries(60, 0.05, ds.domain_lo, ds.domain_hi, rng=7)
        params = ClusterParams(replication="chained")
        # The golden plan: crash/recover node 2, slow node 1, lossless link 0.
        plan = (
            FaultPlan(seed=5)
            .node_crash(0.02, node=2)
            .node_recover(0.3, node=2)
            .disk_slowdown(0.01, node=1, factor=3.0)
            .link_loss(0.0, node=0, loss_prob=0.1)
        )
        healthy = ParallelGridFile(gf, assignment, 8, params).run_queries(queries)
        faulty = ParallelGridFile(gf, assignment, 8, params).run_queries(
            queries, faults=plan
        )
        open_rep = ParallelGridFile(gf, assignment, 8, params).run_open(
            queries, arrival_rate=200.0, rng=11
        )
        out = {
            "healthy": _report_data(healthy),
            "faulty": _report_data(faulty),
            "open": _report_data(open_rep),
        }
        assert _sha(out) == GOLDEN_CLUSTER

    def test_experiment_hashes_unchanged(self):
        from repro.experiments import fig6_minimax, fig7_querysize, table23_closest_pairs

        f6 = fig6_minimax(rng=1996, quick=True)
        fig6 = {
            name: {
                "disks": [int(d) for d in sw.disks],
                "optimal": [float(v) for v in sw.optimal],
                "response": {
                    n: [float(v) for v in c.response] for n, c in sw.curves.items()
                },
                "balance": {
                    n: [float(v) for v in c.balance] for n, c in sw.curves.items()
                },
            }
            for name, sw in f6.items()
        }
        assert _sha(fig6) == GOLDEN_FIG6

        f7 = fig7_querysize(rng=1996, quick=True)
        fig7 = {
            "disks": [int(d) for d in f7.disks],
            "response": {
                f"{m}|{r}": [float(v) for v in vs] for (m, r), vs in f7.response.items()
            },
            "speedup": {
                f"{m}|{r}": [float(v) for v in vs] for (m, r), vs in f7.speedup.items()
            },
        }
        assert _sha(fig7) == GOLDEN_FIG7

        t2 = table23_closest_pairs("dsmc.3d", rng=1996, quick=True)
        table2 = {
            "disks": [int(d) for d in t2.disks],
            "pairs": {
                n: [int(v) for v in c.closest_pairs] for n, c in t2.curves.items()
            },
            "response": {
                n: [float(v) for v in c.response] for n, c in t2.curves.items()
            },
        }
        assert _sha(table2) == GOLDEN_TABLE2
