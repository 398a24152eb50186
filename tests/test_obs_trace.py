"""Unit tests for the observability subsystem (repro.obs).

Covers the tracer record model and JSONL persistence, the metrics
instruments and registry snapshots, the phase profiler, the env-driven
default tracer, and the trace summarize/diff analysis helpers.  The
causal invariants over whole cluster runs live in
``tests/test_obs_properties.py``.
"""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    GLOBAL_METRICS,
    NULL_TRACER,
    PROFILER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    PhaseProfiler,
    Tracer,
    default_tracer,
    diff_summaries,
    read_trace,
    render_summary,
    reset_default_tracer,
    summarize,
)


class TestTracer:
    def test_ids_strictly_increase(self):
        tr = Tracer()
        ids = [tr.event("a", 0.0), tr.event("b", 1.0), tr.span_open("s", 2.0)]
        ids.append(tr.span_close(ids[-1], 3.0))
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert [r["id"] for r in tr.records] == ids

    def test_event_record_shape(self):
        tr = Tracer()
        cause = tr.event("first", 0.5, entity="coord")
        tr.event("second", 1.5, entity="node0", cause=cause, n_blocks=3)
        rec = tr.records[-1]
        assert rec["kind"] == "event"
        assert rec["name"] == "second"
        assert rec["t"] == 1.5
        assert rec["entity"] == "node0"
        assert rec["cause"] == cause
        assert rec["attrs"] == {"n_blocks": 3}

    def test_numpy_attrs_are_json_safe(self):
        tr = Tracer()
        tr.event(
            "e",
            np.float64(0.25),
            entity="coord",
            count=np.int64(7),
            ratio=np.float32(0.5),
            disks=np.array([1, 2, 3], dtype=np.int64),
        )
        text = json.dumps(tr.records[-1])
        back = json.loads(text)
        assert back["attrs"]["count"] == 7
        assert back["attrs"]["disks"] == [1, 2, 3]
        assert back["t"] == 0.25

    def test_span_lifecycle(self):
        tr = Tracer()
        sid = tr.span_open("query", 0.0, entity="query0", qid=0)
        assert tr.open_spans == 1
        cid = tr.span_close(sid, 2.0, aborted=False)
        assert tr.open_spans == 0
        close = tr.records[-1]
        assert close["id"] == cid
        assert close["kind"] == "span_close"
        # The close inherits the open's name and entity and references it.
        assert close["name"] == "query"
        assert close["entity"] == "query0"
        assert close["span"] == sid

    def test_closing_unknown_span_raises(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="not open"):
            tr.span_close(42, 1.0)
        sid = tr.span_open("s", 0.0)
        tr.span_close(sid, 1.0)
        with pytest.raises(ValueError, match="not open"):
            tr.span_close(sid, 2.0)

    def test_phases_and_metrics_records_carry_no_sim_time(self):
        tr = Tracer()
        tr.phases({"assign": {"seconds": 0.5, "calls": 2}})
        tr.metrics({"counters": {"x": 1}})
        phase, metrics = tr.records
        assert phase["kind"] == "phase" and "t" not in phase
        assert phase["attrs"] == {"seconds": 0.5, "calls": 2}
        assert metrics["kind"] == "metrics" and "t" not in metrics
        assert metrics["attrs"] == {"counters": {"x": 1}}

    def test_save_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = Tracer(path=str(path))
        tr.event("a", 0.0, entity="sim")
        sid = tr.span_open("s", 0.5)
        tr.span_close(sid, 1.0)
        tr.close()
        back = read_trace(str(path))
        assert back[0]["kind"] == "meta"
        assert back[0]["schema"] == 1
        assert back[0]["n_records"] == 3
        assert back[1:] == tr.records

    def test_close_saves_once(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = Tracer(path=str(path))
        tr.event("a", 0.0)
        tr.close()
        first = path.read_text()
        tr.event("b", 1.0)  # after close: not persisted again
        tr.close()
        assert path.read_text() == first

    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        assert not nt.enabled
        assert nt.event("a", 0.0) is None
        assert nt.span_open("s", 0.0) is None
        assert nt.span_close(0, 1.0) is None
        assert nt.save() is None
        nt.phases({})
        nt.metrics({})
        nt.close()
        assert nt.records == []
        assert NULL_TRACER.enabled is False


class TestDefaultTracer:
    def test_unset_env_gives_null_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset_default_tracer()
        try:
            assert default_tracer() is NULL_TRACER
        finally:
            reset_default_tracer()

    def test_env_path_gives_shared_tracer(self, monkeypatch, tmp_path):
        path = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        reset_default_tracer()
        try:
            tr = default_tracer()
            assert isinstance(tr, Tracer)
            assert tr.enabled
            assert tr.path == str(path)
            assert default_tracer() is tr  # cached
            tr.event("x", 0.0)
        finally:
            reset_default_tracer()  # closes, persisting the file
        assert path.exists()
        assert read_trace(str(path))[0]["kind"] == "meta"


class TestMetrics:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="non-negative"):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_buckets(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # Inclusive upper edges, implicit +inf overflow bucket.
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(106.0 / 5)

    def test_histogram_values_on_a_bound_land_in_its_bucket(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (1.0, 2.0, 4.0, 4.000001, -math.inf, math.inf):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1, 2]
        assert h.min == -math.inf and h.max == math.inf

    def test_histogram_nan_goes_to_overflow(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(math.nan)
        assert h.bucket_counts == [1, 0, 1]
        assert h.count == 2 and math.isnan(h.total)
        assert h.min == 0.5 and h.max == 0.5  # NaN never compares less/greater

    def test_lazy_instruments_join_the_snapshot_on_first_update(self):
        reg = MetricsRegistry()
        sent = reg.lazy_counter("sent")
        lat = reg.lazy_histogram("lat", bounds=(1.0,))
        assert reg.snapshot() == {}
        sent.inc()
        sent.inc(2)
        assert reg.snapshot() == {"counters": {"sent": 3}}
        lat.observe(0.5)
        assert reg.histogram("lat", bounds=(1.0,)).bucket_counts == [1, 0]
        assert reg.counter("sent").value == 3

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(1.0, 1.0, 2.0))

    def test_registry_instruments_are_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_registry_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.gauge("depth").set(7)
        reg.histogram("lat", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 2}
        assert snap["gauges"] == {"depth": 7}
        h = snap["histograms"]["lat"]
        assert h["count"] == 1 and h["bucket_counts"] == [1, 0]
        json.dumps(snap)  # JSON-serializable
        reg.reset()
        assert reg.snapshot() == {}

    def test_empty_histogram_snapshot_has_null_extremes(self):
        reg = MetricsRegistry()
        reg.histogram("lat")
        h = reg.snapshot()["histograms"]["lat"]
        assert h["count"] == 0 and h["min"] is None and h["max"] is None

    def test_global_registry_exists(self):
        assert isinstance(GLOBAL_METRICS, MetricsRegistry)


class TestProfiler:
    def test_disabled_phase_is_shared_noop(self):
        prof = PhaseProfiler(enabled=False)
        assert prof.phase("a") is prof.phase("b")  # shared nullcontext
        with prof.phase("a"):
            pass
        assert prof.snapshot() == {}

    def test_enabled_accumulates(self):
        prof = PhaseProfiler(enabled=True)
        for _ in range(3):
            with prof.phase("work"):
                pass
        snap = prof.snapshot()
        assert snap["work"]["calls"] == 3
        assert snap["work"]["seconds"] >= 0.0
        prof.reset()
        assert prof.snapshot() == {}
        assert prof.enabled  # reset keeps the flag

    def test_global_profiler_disabled_by_default(self):
        # The test environment must not set REPRO_PROFILE/REPRO_TRACE, or
        # the neutrality guarantees under test here do not hold.
        assert not PROFILER.enabled


def _synthetic_records():
    tr = Tracer()
    s0 = tr.span_open("query", 0.0, entity="query0")
    tr.event("disk.read", 0.1, entity="node0.disk0", n_blocks=2, start=0.1, end=0.3)
    tr.event("disk.read", 0.3, entity="node0.disk0", n_blocks=1, start=0.3, end=0.4)
    tr.event("fault.node_crash", 0.35, entity="node1")
    tr.span_close(s0, 0.5)
    tr.phases({"cluster.run": {"seconds": 0.01, "calls": 1}})
    tr.metrics({"counters": {"requests.sent": 1}})
    return tr.records


class TestSummary:
    def test_summarize_folds_records(self):
        s = summarize(_synthetic_records())
        assert s["records"] == 5  # causal records only
        assert s["elapsed"] == 0.5
        assert s["events"]["disk.read"] == 2
        assert s["queries"] == {"submitted": 1, "completed": 1, "aborted": 0}
        disk = s["disks"]["node0.disk0"]
        assert disk["busy"] == pytest.approx(0.3)
        assert disk["blocks"] == 3 and disk["reads"] == 2
        assert disk["utilization"] == pytest.approx(0.6)
        assert s["latency"]["mean"] == pytest.approx(0.5)
        assert s["faults"] == {"node_crash": 1}
        assert s["phases"]["cluster.run"]["calls"] == 1
        assert s["metrics"]["counters"]["requests.sent"] == 1

    def test_summarize_skips_meta(self):
        recs = [{"kind": "meta", "schema": 1, "wall": 1.0, "n_records": 0}]
        s = summarize(recs)
        assert s["records"] == 0 and s["elapsed"] == 0.0

    def test_render_mentions_required_sections(self):
        text = render_summary(summarize(_synthetic_records()))
        assert "disk utilization" in text
        assert "phase timings" in text
        assert "node0.disk0" in text
        assert "fault" in text

    def test_diff_equal_is_clean(self):
        s = summarize(_synthetic_records())
        assert diff_summaries(s, s) == "no differences"

    def test_diff_reports_deltas(self):
        a = summarize(_synthetic_records())
        b_records = _synthetic_records() + [
            {"id": 99, "kind": "event", "name": "request.timeout", "t": 0.6}
        ]
        b = summarize(b_records)
        text = diff_summaries(a, b)
        assert "request.timeout" in text
        assert "0 -> 1" in text
