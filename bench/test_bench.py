"""Self-test of the benchmark: ``python -m pytest bench -q`` from the repo root.

Runs the smoke profile (about a tenth of every size) as a subprocess, the
way the benchmark is used, and checks the declared contract of
``BENCHMARK.json`` against what the runs print.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import judge

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _bench(tmp_path_factory, *extra) -> dict:
    out = tmp_path_factory.mktemp("run") / "result.json"
    # A REPRO_* knob that would change minimax's behaviour must not leak in.
    env = dict(os.environ, REPRO_MINIMAX_CACHE_BYTES="0")
    done = _run("--out", str(out), *extra, env=env)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())["runs"][0]["workloads"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return [_bench(tmp_path_factory, "--smoke") for _ in range(2)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _bench(tmp_path_factory, "--smoke", "--trace", "1")


@pytest.fixture(scope="module")
def full_size(tmp_path_factory):
    """Two full-size runs on one seed; their loops end on the clock."""
    return [_bench(tmp_path_factory, "--seed", "3") for _ in range(2)]


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == ["decluster", "cluster", "online", "sql"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _check_declared(results: dict, declared) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    for workload, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, workload
        assert {k: m["unit"] for k, m in res["metrics"].items()} == units, workload


def test_untraced_run_reports_every_end_to_end_metric(untraced):
    for results in untraced:
        assert list(results) == [w["name"] for w in SPEC["workloads"]]
        _check_declared(results, SPEC["end_to_end"])
        for workload, res in results.items():
            assert all(m["value"] > 0 for m in res["metrics"].values()), workload


def test_traced_run_reports_every_per_layer_metric(traced):
    _check_declared(traced, SPEC["per_layer"])
    for workload, res in traced.items():
        assert res["metrics"]["trace.coverage"]["value"] > 0.9, workload


def test_children_see_no_repro_variables_and_start_no_threads(untraced, traced):
    for res in list(untraced[0].values()) + list(traced.values()):
        assert res["meta"]["repro_env"] == []
        assert res["meta"]["threads"] == 1


def test_deterministic_metrics_repeat_across_smoke_runs(untraced):
    first, second = untraced
    for workload in first:
        for key in ("attempted", "failed"):
            assert first[workload][key] == second[workload][key], workload
        blocks = [r[workload]["metrics"]["response_blocks"]["value"] for r in untraced]
        assert blocks[0] == blocks[1], workload


def test_response_blocks_repeat_across_full_size_runs(full_size):
    for workload in full_size[0]:
        blocks = [r[workload]["metrics"]["response_blocks"]["value"] for r in full_size]
        assert blocks[0] == blocks[1], workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = _run("--workload", "sql", "--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_run_length_is_fixed_by_the_spec():
    done = _run("--workload", "sql", "--seconds", str(SPEC["run_seconds"] + 1))
    assert done.returncode != 0
    assert "run_seconds" in done.stderr and not done.stdout.strip()


def test_sql_oracle_matches_naive_database(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sql import NaiveDatabase, parse_script
    from workloads import Sql, _SqlOracle

    wl = Sql(seed=7, smoke=True, workdir=tmp_path, rec=None)
    create, *load = parse_script(wl.load_script)
    naive, oracle = NaiveDatabase(), _SqlOracle(create.columns, 10 * len(wl.stmts) + 10_000)
    naive.execute(create)
    for stmt in load + [parse_script(text)[0] for _, text in wl.stmts]:
        assert oracle.execute(stmt) == naive.execute(stmt).record_ids


def test_online_refuses_tmpfs(monkeypatch, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    monkeypatch.setattr(workloads, "fs_type", lambda path: "tmpfs")
    with pytest.raises(SystemExit, match="tmpfs"):
        workloads.Online(seed=1, smoke=True, workdir=tmp_path, rec=None)


@pytest.mark.parametrize(
    "a, b, better, pairs, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.05, 10.0, 10.1, 9.95], "lower", False, "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", False, "regressed"),
        # Without --pairs a better median is never a gain.
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", False, "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", False, "regressed"),
        ([10.0, 14.0, 6.0, 10.0], [10.5, 9.0, 11.0, 10.0], "lower", False, "unresolved"),
        ([10.0, 14.0, 6.0, 10.0], [15.0, 15.5, 14.5, 15.2], "lower", False, "regressed"),
        ([10.0, 14.0, 6.0, 10.0], [5.0, 5.5, 4.0, 5.2], "lower", False, "unchanged"),
        ([10.0] * 10, [9.6] * 9 + [10.2], "lower", True, "improved"),
        ([10.0] * 10, [9.6] * 8 + [10.2] * 2, "lower", True, "unchanged"),
        # Nine wins, but the medians lie within A's quartile distance.
        ([9.0, 11.0] * 5, [8.9, 10.9] * 4 + [8.9, 11.1], "lower", True, "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, pairs, verdict):
    assert judge(a, b, better, 0.1, pairs)[0] == verdict
