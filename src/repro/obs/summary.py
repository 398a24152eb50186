"""Trace-file analysis: summarize one run, diff two runs.

:func:`summarize` folds a record list (from :func:`repro.obs.read_trace` or
a live :class:`~repro.obs.Tracer`) into a plain-dict summary:

* per-name event counts and the simulated-time extent of the run;
* per-disk busy time and utilization, reconstructed from ``disk.read``
  events (their ``start``/``end`` attrs are the reservation window);
* query statistics from the ``query`` spans (completed, aborted, latency
  mean/max);
* fault, timeout/retry/failover and message-drop counts;
* phase timings (``phase`` records) and the final metrics snapshot.

:func:`diff_summaries` aligns two summaries key by key and reports deltas —
the regression-hunting workflow is ``repro run NAME --trace OUT`` before and
after a change, then ``repro trace diff old.jsonl new.jsonl``.
"""

from __future__ import annotations

__all__ = ["summarize", "render_summary", "diff_summaries"]


def summarize(records) -> dict:
    """Fold trace records into a summary dict (see module docs)."""
    names: dict[str, int] = {}
    disks: dict[str, dict] = {}
    phases: dict[str, dict] = {}
    metrics: dict = {}
    t_max = 0.0
    n_causal = 0
    queries = {"submitted": 0, "completed": 0, "aborted": 0}
    latencies: list[float] = []
    open_t: dict[int, float] = {}
    faults: dict[str, int] = {}

    for rec in records:
        kind = rec.get("kind")
        if kind == "meta":
            continue
        name = rec.get("name", "")
        attrs = rec.get("attrs", {})
        if kind == "phase":
            phases[name] = {
                "seconds": float(attrs.get("seconds", 0.0)),
                "calls": int(attrs.get("calls", 0)),
            }
            continue
        if kind == "metrics":
            metrics = attrs
            continue
        names[name] = names.get(name, 0) + 1
        n_causal += 1
        t = rec.get("t")
        if t is not None and t > t_max:
            t_max = t
        if name == "disk.read":
            entity = rec.get("entity", "?")
            slot = disks.setdefault(entity, {"busy": 0.0, "blocks": 0, "reads": 0})
            slot["busy"] += float(attrs.get("end", 0.0)) - float(attrs.get("start", 0.0))
            slot["blocks"] += int(attrs.get("n_blocks", 0))
            slot["reads"] += 1
        elif name.startswith("fault."):
            faults[name[len("fault."):]] = faults.get(name[len("fault."):], 0) + 1
        elif name == "query":
            if kind == "span_open":
                queries["submitted"] += 1
                open_t[rec["id"]] = rec.get("t", 0.0)
            elif kind == "span_close":
                queries["completed"] += 1
                if attrs.get("aborted"):
                    queries["aborted"] += 1
                opened = open_t.pop(rec.get("span"), None)
                if opened is not None:
                    latencies.append(rec.get("t", 0.0) - opened)

    for slot in disks.values():
        slot["utilization"] = slot["busy"] / t_max if t_max > 0 else 0.0

    out = {
        "records": n_causal,
        "elapsed": t_max,
        "events": dict(sorted(names.items())),
        "queries": queries,
        "disks": dict(sorted(disks.items())),
    }
    if latencies:
        out["latency"] = {
            "mean": sum(latencies) / len(latencies),
            "max": max(latencies),
        }
    if faults:
        out["faults"] = dict(sorted(faults.items()))
    if phases:
        out["phases"] = phases
    if metrics:
        out["metrics"] = metrics
    return out


def render_summary(summary: dict) -> str:
    """Human-readable rendering of a :func:`summarize` result."""
    lines = [
        f"records            : {summary['records']}",
        f"elapsed (sim)      : {summary['elapsed'] * 1e3:.3f} ms",
    ]
    q = summary["queries"]
    lines.append(
        f"queries            : {q['submitted']} submitted, "
        f"{q['completed']} completed, {q['aborted']} aborted"
    )
    if "latency" in summary:
        lat = summary["latency"]
        lines.append(
            f"latency            : mean {lat['mean'] * 1e3:.3f} ms, "
            f"max {lat['max'] * 1e3:.3f} ms"
        )
    if summary.get("faults"):
        fstr = ", ".join(f"{k}={v}" for k, v in summary["faults"].items())
        lines.append(f"faults applied     : {fstr}")
    if summary.get("disks"):
        lines.append("disk utilization   :")
        for entity, slot in summary["disks"].items():
            lines.append(
                f"  {entity:<16} busy {slot['busy'] * 1e3:9.3f} ms  "
                f"util {slot['utilization']:6.1%}  "
                f"reads {slot['reads']:5d}  blocks {slot['blocks']}"
            )
    if summary.get("phases"):
        lines.append("phase timings      :")
        for name, ph in sorted(summary["phases"].items()):
            lines.append(
                f"  {name:<28} {ph['seconds'] * 1e3:9.3f} ms  calls {ph['calls']}"
            )
    counters = summary.get("metrics", {}).get("counters")
    if counters:
        lines.append("counters           :")
        for name, value in counters.items():
            lines.append(f"  {name:<28} {value}")
    lines.append("event counts       :")
    for name, count in summary["events"].items():
        lines.append(f"  {name:<28} {count}")
    return "\n".join(lines)


def _diff_numeric(lines, label, a, b, fmt="{:g}"):
    if a != b:
        lines.append(f"  {label:<28} {fmt.format(a)} -> {fmt.format(b)}")


def diff_summaries(a: dict, b: dict) -> str:
    """Line-oriented diff of two :func:`summarize` results.

    Reports every event-count, query, disk-utilization, phase-timing and
    counter difference; returns ``"no differences"`` when the causal
    portions match.
    """
    lines: list[str] = []

    sec = ["events:"]
    for name in sorted(set(a["events"]) | set(b["events"])):
        _diff_numeric(sec, name, a["events"].get(name, 0), b["events"].get(name, 0))
    if len(sec) > 1:
        lines.extend(sec)

    sec = ["queries:"]
    for key in ("submitted", "completed", "aborted"):
        _diff_numeric(sec, key, a["queries"][key], b["queries"][key])
    if len(sec) > 1:
        lines.extend(sec)

    sec = ["elapsed:"]
    _diff_numeric(sec, "elapsed (s)", a["elapsed"], b["elapsed"], fmt="{:.6g}")
    if len(sec) > 1:
        lines.extend(sec)

    sec = ["disk utilization:"]
    for entity in sorted(set(a.get("disks", {})) | set(b.get("disks", {}))):
        ua = a.get("disks", {}).get(entity, {}).get("utilization", 0.0)
        ub = b.get("disks", {}).get(entity, {}).get("utilization", 0.0)
        if abs(ua - ub) > 1e-12:
            sec.append(f"  {entity:<28} {ua:.1%} -> {ub:.1%}")
    if len(sec) > 1:
        lines.extend(sec)

    sec = ["phases (wall-clock, informational):"]
    for name in sorted(set(a.get("phases", {})) | set(b.get("phases", {}))):
        pa = a.get("phases", {}).get(name, {"seconds": 0.0, "calls": 0})
        pb = b.get("phases", {}).get(name, {"seconds": 0.0, "calls": 0})
        if pa["calls"] != pb["calls"]:
            sec.append(f"  {name:<28} calls {pa['calls']} -> {pb['calls']}")
    if len(sec) > 1:
        lines.extend(sec)

    ca = a.get("metrics", {}).get("counters", {})
    cb = b.get("metrics", {}).get("counters", {})
    sec = ["counters:"]
    for name in sorted(set(ca) | set(cb)):
        _diff_numeric(sec, name, ca.get(name, 0), cb.get(name, 0))
    if len(sec) > 1:
        lines.extend(sec)

    return "\n".join(lines) if lines else "no differences"
