"""Compare two benchmark result files metric by metric and workload by workload.

    python3 bench/compare.py A.json B.json [--pairs]

``A`` is the base (the parent commit) and ``B`` the change; each is a file
written by ``bench/run.py --runs N --out ...``.  Every end-to-end metric of
``BENCHMARK.json`` gets one row per workload with each side's median and
quartiles, the change as a share of A's median (printed with that base),
and a verdict against the metric's bound:

* ``improved`` -- only with ``--pairs``: B wins at least nine tenths of the
  run pairs (run i of A against run i of B, ties count for neither) and its
  median differs from A's by more than A's quartile distance.  Without
  ``--pairs`` no row reads ``improved``;
* ``unresolved`` -- either side's spread (quartile distance over median) is
  wider than the bound, unless every run of B reads worse (``regressed``)
  or better (``unchanged``) than every run of A;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unchanged`` otherwise.

The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` by :func:`statistics.quantiles`; one value is its own quartiles."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def load_values(path) -> dict:
    """``{(workload, metric): [value per run]}`` from one result file."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, res in run["workloads"].items():
            for name, m in res["metrics"].items():
                out.setdefault((workload, name), []).append(m["value"])
    return out


def judge(a, b, better: str, bound: float, pairs: bool = False) -> tuple[str, str]:
    """``(verdict, note)`` for base runs ``a`` against change runs ``b``."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    worse = sign * (mb - ma) / abs(ma)  # > 0: B is worse, as a share of A's median
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb))
    note = ""
    if pairs:
        if len(a) != len(b):
            raise ValueError(f"--pairs needs equal run counts, got {len(a)} and {len(b)}")
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        note = f"B wins {wins}/{len(a)} pairs"
        if worse < 0 and wins >= PAIR_WIN_SHARE * len(a) and abs(mb - ma) > q3a - q1a:
            return "improved", note
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "regressed", note
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "unchanged", note
        return "unresolved", note
    return ("regressed" if worse > bound else "unchanged"), note


def main() -> int:
    ap = argparse.ArgumentParser(description="Compare two benchmark result files.")
    ap.add_argument("a", help="base result file (the parent commit)")
    ap.add_argument("b", help="change result file")
    ap.add_argument("--pairs", action="store_true", help="apply the 9-of-10 pair-win rule")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_values(args.a), load_values(args.b)
    regressed = False
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in a or key not in b:
                continue
            verdict, note = judge(a[key], b[key], m["better"], m["bound"], args.pairs)
            regressed |= verdict == "regressed"
            qa, qb = quartiles(a[key]), quartiles(b[key])
            change = (qb[1] - qa[1]) / abs(qa[1])
            print(
                f"{w:<10} {m['name']:<16} A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                f"B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                f"{change:+.1%} of A's median {qa[1]:.5g} {m['unit']} (bound {m['bound']:.0%})  "
                f"{verdict}" + (f"  ({note})" if note else "")
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
