"""Run the repro benchmark and print every metric by name with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--trace 0|1]
                         [--smoke] [--runs N] [--out PATH]

Each workload runs in a fresh child process (``bench/child.py``) with
``PYTHONPATH=src``, every ``REPRO_*`` variable removed and one BLAS thread.
With ``--trace 0`` the children report the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics (and write
their spans to ``bench/out/trace-<workload>.jsonl``).  ``--runs N`` repeats
the selected workloads with seeds ``seed .. seed+N-1``; ``--smoke`` runs
every workload at about a tenth of its size.  A run measures for the
``run_seconds`` of ``BENCHMARK.json``; ``--seconds S`` may state that
length, and any other value is refused, so both sides of a comparison
measure for the same time.

The full result, with run metadata, goes to ``--out`` (default
``bench/out/result.json``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; for more than one
workload or run its metric names are ``<workload>.<metric>`` and their
values medians over the runs.  The exit code is non-zero when a child fails
or an oracle check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def child_env() -> dict:
    """The parent's environment without ``REPRO_*``, importing ``repro`` from ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _git(*args) -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(workload: str, seed: int, args) -> dict:
    result_path = OUT / f"child-{workload}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(args.trace), "--result", str(result_path),
    ] + (["--smoke"] if args.smoke else [])
    timeout = 120 if args.smoke else 60 + 5 * SPEC["run_seconds"]
    try:
        # The child's stdout joins our stderr: only the result line may end ours.
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {timeout:.0f} s")
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {done.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="Run the repro benchmark.")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1996)
    ap.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="the run length; must equal BENCHMARK.json's run_seconds",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="about a tenth of every size")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", type=Path, default=OUT / "result.json")
    args = ap.parse_args()
    if args.seconds != SPEC["run_seconds"]:
        ap.error(f"--seconds must be {SPEC['run_seconds']}, BENCHMARK.json's run_seconds")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    runs = []
    for i in range(args.runs):
        seed = args.seed + i
        results = {}
        for w in workloads:
            res = results[w] = run_child(w, seed, args)
            for name, m in res["metrics"].items():
                print(f"{w:<10} {name:<32} {m['value']:>14.6g} {m['unit']}")
            detail = res["detail"]
            print(
                f"{w:<10} seed={seed} attempted={res['attempted']} failed={res['failed']} "
                f"calls={detail.get('calls', detail.get('traced_calls'))} "
                f"ops={detail['ops']} loop={detail['loop_wall_s']:.1f}s"
            )
        runs.append({"seed": seed, "workloads": results})

    meta = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "run_seconds": None if args.smoke else SPEC["run_seconds"],
        "trace": args.trace,
        "smoke": args.smoke,
        "argv": sys.argv[1:],
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1))

    all_results = [(w, res) for run in runs for w, res in run["workloads"].items()]
    if len(all_results) == 1:
        metrics = all_results[0][1]["metrics"]
    else:
        values: dict = {}
        for w, res in all_results:
            for name, m in res["metrics"].items():
                values.setdefault((f"{w}.{name}", m["unit"]), []).append(m["value"])
        metrics = {k: {"value": statistics.median(v), "unit": unit} for (k, unit), v in values.items()}
    correct = all(res["correct"] for _, res in all_results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(res["attempted"] for _, res in all_results),
                "failed": sum(res["failed"] for _, res in all_results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
