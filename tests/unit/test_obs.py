"""Unit tests for the observability package (repro.obs).

The registry, tracer, profiler and logging setup are stdlib-only and fully
deterministic, so these tests exercise them directly: metric math and
Prometheus text exposition, trace-id propagation and span emission,
profiler on/off semantics, and the byte-compatibility contract of the text
log format.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace


# ---------------------------------------------------------------------------
# metrics


def test_counter_and_gauge_math():
    registry = obs_metrics.MetricsRegistry()
    counter = registry.counter("hits_total", "hits")
    counter.inc()
    counter.inc(2, kind="space")
    gauge = registry.gauge("depth", "depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec()
    snap = registry.snapshot()
    series = {tuple(sorted(s["labels"].items())): s["value"]
              for s in snap["hits_total"]["series"]}
    assert series[()] == 1
    assert series[(("kind", "space"),)] == 2
    assert snap["depth"]["series"][0]["value"] == 6


def test_histogram_buckets_are_cumulative_in_exposition():
    registry = obs_metrics.MetricsRegistry()
    hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    text = registry.exposition()
    assert 'lat_bucket{le="0.1"} 1' in text
    assert 'lat_bucket{le="1"} 2' in text
    assert 'lat_bucket{le="+Inf"} 3' in text
    assert "lat_count 3" in text
    assert "lat_sum 5.55" in text


def test_kind_mismatch_rejected():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("x_total", "x")
    with pytest.raises(TypeError):
        registry.gauge("x_total", "x")


def test_totals_sum_series_per_label_value_including_pending_events():
    registry = obs_metrics.MetricsRegistry()
    counter = registry.counter("lookups_total", "l")
    counter.labels(kind="space", outcome="hit").inc()
    counter.labels(kind="model", outcome="hit").inc(2)
    counter.inc(kind="space", outcome="miss")
    counter.inc()  # no labels: left out of every per-label total
    assert counter.totals("outcome") == {"hit": 3, "miss": 1}
    assert counter.totals("kind") == {"space": 2, "model": 2}
    hist = registry.histogram("build_seconds", "b")
    hist.labels(kind="space").observe(0.5)
    hist.observe(0.25, kind="space")
    hist.observe(2.0, kind="model")
    assert hist.totals("kind") == {"space": 0.75, "model": 2.0}


def test_render_exposition_adds_worker_label():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("r_total", "r").inc(2, endpoint="/check")
    snapshot = registry.snapshot()
    text = obs_metrics.render_exposition(
        [("worker-0", snapshot), ("worker-1", snapshot)]
    )
    assert 'r_total{endpoint="/check",worker="worker-0"} 2' in text
    assert 'r_total{endpoint="/check",worker="worker-1"} 2' in text
    # HELP/TYPE headers appear once per metric, not once per worker.
    assert text.count("# TYPE r_total counter") == 1


def test_escaped_label_values():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("e_total", "e").inc(path='a"b\\c\nd')
    text = registry.exposition()
    assert '{path="a\\"b\\\\c\\nd"}' in text


# ---------------------------------------------------------------------------
# trace


def test_trace_honours_wellformed_incoming_id():
    token, trace_id = obs_trace.begin("abc-123.X_z")
    try:
        assert trace_id == "abc-123.X_z"
        assert obs_trace.current_trace_id() == trace_id
    finally:
        obs_trace.end(token)
    assert obs_trace.current_trace_id() is None


@pytest.mark.parametrize("bad", ["", "spaces here", "x" * 65, 'inj"ect', None])
def test_trace_generates_id_for_missing_or_malformed(bad):
    token, trace_id = obs_trace.begin(bad)
    try:
        assert trace_id != bad
        assert len(trace_id) == 32  # uuid4 hex
    finally:
        obs_trace.end(token)


def test_spans_emit_nested_json_records():
    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(json.loads(record.getMessage()))

    logger = logging.getLogger("repro.trace")
    handler = Capture(level=logging.DEBUG)
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with obs_trace.request_trace("req-1") as trace_id:
            with obs_trace.span("outer"):
                with obs_trace.span("inner", cells=3):
                    pass
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)
    assert trace_id == "req-1"
    inner, outer = records  # inner span closes (and logs) first
    assert inner["span"] == "inner" and inner["parent"] == "outer"
    # Field values are coerced to strings so arbitrary objects stay JSON-safe.
    assert inner["fields"] == {"cells": "3"}
    assert outer["span"] == "outer" and outer["parent"] is None
    assert all(r["trace_id"] == "req-1" for r in records)
    assert all(r["seconds"] >= 0 for r in records)


def test_span_is_noop_without_active_trace():
    logger = logging.getLogger("repro.trace")
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        with obs_trace.span("orphan"):
            pass
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    assert stream.getvalue() == ""


# ---------------------------------------------------------------------------
# profile


@pytest.fixture
def clean_profile():
    obs_profile.disable()
    yield
    obs_profile.disable()


def test_kernel_decorator_passthrough_when_off(clean_profile):
    @obs_profile.kernel("test.op")
    def op(x):
        return x * 2

    assert op(21) == 42
    assert obs_profile.summary() is None


def test_kernel_decorator_records_when_on(clean_profile):
    @obs_profile.kernel("test.op")
    def op(x):
        return x * 2

    obs_profile.enable()
    for value in range(5):
        op(value)
    summary = obs_profile.summary()
    stats = summary["kernels"]["test.op"]
    assert stats["calls"] == 5
    assert stats["total_seconds"] >= stats["max_seconds"] >= 0
    assert stats["median_seconds"] >= 0


def test_consume_summary_resets_but_stays_active(clean_profile):
    @obs_profile.kernel("test.op")
    def op():
        return None

    obs_profile.enable()
    op()
    first = obs_profile.consume_summary()
    assert first["kernels"]["test.op"]["calls"] == 1
    op()
    second = obs_profile.consume_summary()
    assert second["kernels"]["test.op"]["calls"] == 1


def test_maybe_enable_from_env(clean_profile, monkeypatch):
    monkeypatch.setenv(obs_profile.ENV_VAR, "0")
    obs_profile.maybe_enable_from_env()
    assert not obs_profile.active()
    monkeypatch.setenv(obs_profile.ENV_VAR, "1")
    obs_profile.maybe_enable_from_env()
    assert obs_profile.active()


def test_render_table_is_aligned(clean_profile):
    summary = {
        "kernels": {
            "bitset.exist_step": {"calls": 10, "total_seconds": 0.5,
                                  "median_seconds": 0.04, "max_seconds": 0.1},
        }
    }
    table = obs_profile.render_table(summary)
    lines = table.splitlines()
    assert lines[0].split() == ["kernel", "calls", "total_s", "median_s", "max_s"]
    assert "bitset.exist_step" in table and "0.500000" in table


# ---------------------------------------------------------------------------
# log


def test_log_setup_text_routes_info_to_stdout_and_warnings_to_stderr(capsys):
    obs_log.setup("text", logger_name="repro-obs-test")
    logger = logging.getLogger("repro-obs-test")
    logger.info("hello %s", "world")
    logger.warning("uh oh")
    captured = capsys.readouterr()
    assert captured.out == "hello world\n"  # bare message: byte-compatible
    assert captured.err == "uh oh\n"


def test_log_setup_json_emits_parseable_records(capsys):
    obs_log.setup("json", logger_name="repro-obs-test")
    logger = logging.getLogger("repro-obs-test")
    token, trace_id = obs_trace.begin(None)
    try:
        logger.info("listening on %s", "port 1")
    finally:
        obs_trace.end(token)
    record = json.loads(capsys.readouterr().out)
    assert record["message"] == "listening on port 1"
    assert record["level"] == "info"
    assert record["trace_id"] == trace_id
    assert "ts" in record


def test_log_setup_is_idempotent(capsys):
    obs_log.setup("text", logger_name="repro-obs-test")
    obs_log.setup("text", logger_name="repro-obs-test")
    logging.getLogger("repro-obs-test").info("once")
    assert capsys.readouterr().out == "once\n"


def test_log_setup_rejects_unknown_format():
    with pytest.raises(ValueError):
        obs_log.setup("xml", logger_name="repro-obs-test")


def test_active_format_tracks_setup():
    # The HTTP access log bypasses logging in text mode (byte-compatible
    # stock lines) and must be able to detect JSON mode to reroute.
    obs_log.setup("json", logger_name="repro-obs-test")
    assert obs_log.active_format() == "json"
    obs_log.setup("text", logger_name="repro-obs-test")
    assert obs_log.active_format() == "text"
