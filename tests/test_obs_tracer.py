"""Deterministic span tracer + export formats (repro.obs.tracer / .export)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    SpanTracer,
    TRACE_SCHEMA,
    chrome_trace,
    read_trace_jsonl,
    span_records,
    summarize_spans,
    trace_jsonl,
    write_chrome_trace,
    write_trace_jsonl,
)


def emit_sample(tracer):
    """A small deterministic span stream exercising nesting and overlap."""
    with tracer.span("run", "service", workload="zipf") as root:
        tracer.instant("checkpoint", "service", cycle=3)
        with tracer.span("batch", "service", size=4):
            tracer.instant("retry", "fault", shard=1)
        overlapping = tracer.begin("batch", "service", parent=root, size=2)
        tracer.instant("failover", "fault", shard=0)
        tracer.end(overlapping, served=2)
    return tracer


# ---------------------------------------------------------------------------
# tracer semantics
# ---------------------------------------------------------------------------


def test_span_nesting_and_parents():
    tracer = emit_sample(SpanTracer())
    spans = {(s.cat, s.name, s.span_id): s for s in tracer.finished()}
    by_name = {}
    for span in tracer.finished():
        by_name.setdefault(span.name, []).append(span)
    root = by_name["run"][0]
    assert root.parent_id is None
    # Context-manager nesting, explicit parents and instants all attach to
    # the root.
    for span in by_name["batch"] + by_name["checkpoint"]:
        assert span.parent_id == root.span_id
    # The instant inside the nested batch span attaches to that batch.
    nested_batch = by_name["batch"][0]
    retry = by_name["retry"][0]
    assert retry.parent_id == nested_batch.span_id
    assert retry.begin == retry.end
    assert spans  # sanity: ids are unique


def test_ticks_are_monotone_and_internal():
    tracer = emit_sample(SpanTracer())
    events = []
    for span in tracer.finished():
        events.append(span.begin)
        events.append(span.end)
    # Every begin/end consumed its own tick: all stamps distinct except
    # instants (begin == end), and bounded by the number of tick events.
    assert max(events) <= 2 * len(tracer.finished())
    for span in tracer.finished():
        assert span.end >= span.begin


def test_begin_end_args_merge():
    tracer = SpanTracer()
    span = tracer.begin("batch", "service", size=4)
    tracer.end(span, served=3)
    (finished,) = tracer.finished()
    assert finished.args == {"size": 4, "served": 3}


def test_ring_buffer_drops_oldest_and_counts():
    tracer = SpanTracer(capacity=3)
    for index in range(5):
        tracer.instant("event", "test", index=index)
    finished = tracer.finished()
    assert len(finished) == 3
    assert tracer.dropped == 2
    assert [span.args["index"] for span in finished] == [2, 3, 4]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        SpanTracer(capacity=0)


def test_same_operations_same_bytes():
    first = trace_jsonl(emit_sample(SpanTracer()))
    second = trace_jsonl(emit_sample(SpanTracer()))
    assert first == second
    assert first  # non-empty


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------


def test_span_records_sorted_and_schema_stamped():
    records = span_records(emit_sample(SpanTracer()))
    assert all(record["schema"] == TRACE_SCHEMA for record in records)
    keys = [(record["begin"], record["id"]) for record in records]
    assert keys == sorted(keys)


def test_jsonl_round_trip(tmp_path):
    tracer = emit_sample(SpanTracer())
    path = tmp_path / "t.jsonl"
    written = write_trace_jsonl(path, tracer)
    assert written == len(tracer.finished())
    loaded = read_trace_jsonl(path)
    assert loaded == span_records(tracer)
    # Loaded record dicts feed back through the same export paths.
    assert summarize_spans(loaded) == summarize_spans(tracer)
    assert chrome_trace(loaded) == chrome_trace(tracer)


def test_read_errors_are_one_line(tmp_path):
    with pytest.raises(ValueError, match="cannot read trace file"):
        read_trace_jsonl(tmp_path / "missing.jsonl")
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("not json\n")
    with pytest.raises(ValueError, match=r"corrupt\.jsonl:1: malformed"):
        read_trace_jsonl(corrupt)
    wrong_schema = tmp_path / "schema.jsonl"
    record = span_records(emit_sample(SpanTracer()))[0]
    record["schema"] = 99
    wrong_schema.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="trace schema 99"):
        read_trace_jsonl(wrong_schema)


def test_chrome_trace_shapes(tmp_path):
    tracer = emit_sample(SpanTracer())
    document = chrome_trace(tracer)
    assert set(document) == {"traceEvents", "displayTimeUnit", "metadata"}
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases == {"X", "i"}
    for event in document["traceEvents"]:
        assert {"pid", "tid", "name", "cat", "ts", "ph"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 1
        else:
            assert "dur" not in event
    path = tmp_path / "t.json"
    count = write_chrome_trace(path, tracer)
    assert count == len(document["traceEvents"])
    assert json.loads(path.read_text()) == document


def test_summarize_spans_aggregates_per_cat_name():
    rows = summarize_spans(emit_sample(SpanTracer()))
    by_key = {(row["cat"], row["name"]): row for row in rows}
    assert by_key[("service", "batch")]["count"] == 2
    assert by_key[("fault", "retry")]["ticks"] == 0
    assert by_key[("service", "run")]["max_ticks"] >= 1
    # Rows come out sorted by (cat, name).
    keys = [(row["cat"], row["name"]) for row in rows]
    assert keys == sorted(keys)
