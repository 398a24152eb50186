"""Run one benchmark workload in this process and write its result as JSON.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH=src``
and no ``REPRO_*`` variables::

    python3 bench/child.py --workload NAME --seed N --trace 0|1 [--smoke] --result PATH

Set-up runs :data:`SETUPS` times; ``setup_s`` is the import time plus their
median.  The timed loop then runs calls until ``run_seconds`` of
``BENCHMARK.json`` have elapsed and at least the workload's ``FIXED_CALLS``
calls have run; a ``--smoke`` loop runs until its short input stream ends.
With ``--trace 1`` every second
call runs with the span recorder installed, so traced and untraced calls of
the same run give the tracing overhead; per-layer metrics come from the
traced calls, counts from all of them.  The oracle runs after the loop.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.obs import GLOBAL_METRICS  # noqa: E402
from trace import Recorder  # noqa: E402
from workloads import WORKLOADS, fs_type  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUPS = 3
#: Spans whose inclusive time per set-up is reported (``<name>_s``).
SETUP_SPANS = ("gridfile.build", "storage.create")


def _counters() -> dict:
    return dict(GLOBAL_METRICS.snapshot().get("counters", {}))


def _end_to_end(wl, calls, setup_times) -> tuple:
    per_op_ms = [dt / n * 1e3 for dt, n, _ in calls]
    p50, tail_ms = np.percentile(per_op_ms, [50, wl.TAIL_PERCENTILE])
    values = {
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "ops_per_s": sum(n for _, n, _ in calls) / sum(dt for dt, _, _ in calls),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "response_blocks": wl.response_blocks(),
    }
    return values, {"calls": len(calls), "tail_percentile": wl.TAIL_PERCENTILE}


def _per_layer(wl, rec, calls, counts) -> tuple:
    traced = [(dt, n) for dt, n, t in calls if t]
    untraced = [(dt, n) for dt, n, t in calls if not t]
    traced_wall = sum(dt for dt, _ in traced)
    traced_ops = sum(n for _, n in traced)
    values = dict(counts)
    shares: dict = {}
    top = 0.0
    rebuilds = 0
    for (name, start, end, parent, req), own in zip(rec.spans, rec.self_times()):
        if req == "setup":
            if name in SETUP_SPANS:
                values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + (end - start) / SETUPS
            continue
        key = f"{name}_ms"
        values[key] = values.get(key, 0.0) + own * 1e3 / traced_ops
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + own / traced_wall
        top += (end - start) if parent < 0 else 0.0
        rebuilds += name == "rtree.build"
    values.update({f"share.{layer}": s for layer, s in shares.items()})
    values["rtree.rebuilds"] = rebuilds / traced_ops
    values["trace.coverage"] = top / traced_wall
    untraced_per_op = sum(dt for dt, _ in untraced) / sum(n for _, n in untraced)
    values["trace.overhead_frac"] = traced_wall / traced_ops / untraced_per_op - 1.0
    t = wl.totals
    if t["queries"]:
        values["parallel.requests_per_query"] = t["requests.sent"] / t["queries"]
        values["parallel.blocks_read_per_query"] = t["blocks.read"] / t["queries"]
        values["parallel.cache_hit_rate"] = t["cache.hits"] / (t["cache.hits"] + t["cache.misses"])
    return values, {"traced_calls": len(traced), "untraced_calls": len(untraced)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = math.inf if args.smoke else spec["run_seconds"]
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    wl = WORKLOADS[args.workload](args.seed, args.smoke, work, rec)
    try:
        setup_times = []
        for _ in range(SETUPS):
            if args.trace:
                rec.install("setup")
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
            if args.trace:
                rec.uninstall()
        wl.warmup()

        calls = []  # (seconds, ops, traced)
        # GLOBAL_METRICS counters moved by the timed calls, not by untimed
        # work between them (such as a workload's per-rep set-up).
        delta: Counter = Counter()
        start = time.perf_counter()
        for i, (n_ops, call) in enumerate(wl.steps()):
            if i >= wl.FIXED_CALLS and time.perf_counter() - start >= seconds:
                break
            traced = bool(args.trace) and i % 2 == 1
            before = _counters()
            if traced:
                rec.install(i)
            t = time.perf_counter()
            out = call()
            dt = time.perf_counter() - t
            if traced:
                rec.uninstall()
            delta.update({k: v - before.get(k, 0) for k, v in _counters().items()})
            wl.after(out, dt)
            calls.append((dt, n_ops, traced))
        loop_wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        attempted, failed = wl.check()
        n_ops = sum(n for _, n, _ in calls)
        if args.trace:
            values, info = _per_layer(wl, rec, calls, wl.counts(delta, n_ops))
            rec.write_jsonl(OUT / f"trace-{args.workload}.jsonl")
        else:
            values, info = _end_to_end(wl, calls, setup_times)
            values["peak_rss_mb"] = peak_rss_mb
        names = {m["name"] for m in declared}
        unknown = sorted(set(values) - names)
        if unknown:
            raise SystemExit(f"{args.workload}: metrics not declared in BENCHMARK.json: {unknown}")
        result = {
            "workload": args.workload,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in declared
            },
            "detail": {
                **info,
                "ops": n_ops,
                "loop_wall_s": loop_wall,
                "import_s": IMPORT_S,
                "setup_times_s": setup_times,
                "call_s": [dt for dt, _, _ in calls],
                "fail_frac": failed / attempted,
                **wl.detail(),
            },
            "meta": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "workdir_fs": fs_type(work),
                "threads": threading.active_count(),
                "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
            },
        }
    finally:
        wl.close()
    Path(args.result).write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
