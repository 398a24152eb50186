"""Smoke test: the R-tree comparison example runs end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rtree_comparison_example():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "rtree_comparison.py"), "--records", "5000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    for label in ("grid file + minimax", "r-tree    + Hilbert RR", "r-tree    + minimax"):
        pattern = rf"^  {re.escape(label)} +: +\d+\.\d{{3}} \(optimal \d+\.\d{{3}}\)$"
        assert re.search(pattern, out.stdout, re.MULTILINE), f"no {label!r} line:\n{out.stdout}"
