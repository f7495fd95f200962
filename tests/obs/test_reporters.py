"""Tests for obs report rendering and JSONL trace validation."""

import json

from repro.obs import (
    Metrics,
    Tracer,
    render_report_human,
    render_report_json,
    validate_trace_file,
    validate_trace_line,
)
from repro.errors import RpcTimeoutError
from repro.net import ConstantLatency, Network
from repro.obs.reporters import JSON_SCHEMA_VERSION
from repro.sim import RngStreams, Simulator


def _sample_metrics():
    metrics = Metrics()
    metrics.inc("net.rpcs_sent", 3)
    metrics.set_gauge("sweep.workers", 2.0)
    metrics.observe("net.rpc_latency_s", 0.1)
    metrics.observe("net.rpc_latency_s", 0.3)
    return metrics


class TestJsonReport:
    def test_schema_and_sections(self):
        tracer = Tracer()
        tracer.emit("rpc", t=0.0)
        payload = json.loads(
            render_report_json(_sample_metrics(), tracer, experiment="E4")
        )
        assert payload["schema"] == JSON_SCHEMA_VERSION
        assert payload["experiment"] == "E4"
        assert payload["trace"] == {
            "events": 1, "dropped": 0, "by_kind": {"rpc": 1},
        }
        assert payload["metrics"]["counters"]["net.rpcs_sent"] == 3
        assert payload["metrics"]["histograms"]["net.rpc_latency_s"]["count"] == 2

    def test_sections_optional(self):
        payload = json.loads(render_report_json())
        assert payload == {"schema": JSON_SCHEMA_VERSION}


class TestHumanReport:
    def test_sections_rendered(self):
        tracer = Tracer()
        tracer.emit("msg_send", t=0.0)
        text = render_report_human(_sample_metrics(), tracer, experiment="E4")
        assert "experiment: E4" in text
        assert "trace: 1 event(s)" in text
        assert "msg_send" in text
        assert "counters:" in text
        assert "net.rpcs_sent" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "count=2" in text

    def test_empty_report_is_empty(self):
        assert render_report_human() == ""

    def test_dropped_records_surfaced(self):
        tracer = Tracer(capacity=1)
        tracer.emit("a")
        tracer.emit("b")
        assert "1 dropped" in render_report_human(tracer=tracer)


class TestValidateLine:
    def test_clean_line(self):
        line = {"schema": 1, "seq": 0, "kind": "rpc", "t": 1.5, "extra": "ok"}
        assert validate_trace_line(line) == []

    def test_non_object(self):
        assert validate_trace_line([1, 2]) == [
            "record is list, expected object"
        ]

    def test_bad_schema(self):
        errors = validate_trace_line({"schema": 2, "seq": 0, "kind": "x"})
        assert any("schema" in e for e in errors)

    def test_bad_seq(self):
        for seq in (None, -1, "0", True):
            errors = validate_trace_line({"schema": 1, "seq": seq, "kind": "x"})
            assert any("seq" in e for e in errors), seq

    def test_seq_regression_detected(self):
        errors = validate_trace_line(
            {"schema": 1, "seq": 3, "kind": "x"}, expected_seq=5
        )
        assert any("not increasing" in e for e in errors)

    def test_bad_kind(self):
        for kind in (None, "", 7, []):
            errors = validate_trace_line({"schema": 1, "seq": 0, "kind": kind})
            assert any("kind" in e for e in errors), kind

    def test_bad_timestamp(self):
        for t in (-1.0, float("nan"), float("inf"), "0", True):
            errors = validate_trace_line(
                {"schema": 1, "seq": 0, "kind": "x", "t": t}
            )
            assert any("t is" in e for e in errors), t

    def test_timestamp_optional(self):
        assert validate_trace_line({"schema": 1, "seq": 0, "kind": "x"}) == []


class TestValidateFile:
    def test_valid_file(self, tmp_path):
        tracer = Tracer()
        tracer.emit("a", t=0.0)
        tracer.emit("b", t=1.0)
        path = tmp_path / "ok.jsonl"
        tracer.write_jsonl(str(path))
        assert validate_trace_file(str(path)) == []

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema":1,"seq":0,"kind":"a"}\n'
            "not json at all\n"
            '{"schema":1,"seq":0,"kind":"a"}\n'  # seq regression
            '{"schema":9,"seq":3,"kind":""}\n'
        )
        errors = validate_trace_file(str(path))
        assert any(e.startswith("line 2: not JSON") for e in errors)
        assert any(e.startswith("line 3: seq 0 not increasing") for e in errors)
        assert any(e.startswith("line 4:") and "schema" in e for e in errors)
        assert any(e.startswith("line 4:") and "kind" in e for e in errors)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"schema":1,"seq":0,"kind":"a"}\n\n\n')
        assert validate_trace_file(str(path)) == []


def _event_trace(tmp_path, records):
    """A trace file of ``(kind, event_seq)`` records."""
    path = tmp_path / "events.jsonl"
    path.write_text("".join(
        json.dumps({"schema": 1, "seq": seq, "kind": kind, "t": 0.0,
                    "event_seq": event_seq}) + "\n"
        for seq, (kind, event_seq) in enumerate(records)))
    return str(path)


class TestValidateEventAccounting:
    def test_simulator_trace_is_valid(self, tmp_path):
        # Two events chained at 1.0, the second one cancelled.
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        path = tmp_path / "sim.jsonl"
        tracer.write_jsonl(str(path))
        assert validate_trace_file(str(path)) == []

    def test_restarted_seqs_count_as_a_multiset(self, tmp_path):
        # Two simulators in one sweep trace both number from 0.
        path = _event_trace(tmp_path, [
            ("event_scheduled", 0), ("event_scheduled", 0),
            ("event_fired", 0), ("event_cancelled", 0),
        ])
        assert validate_trace_file(path) == []

    def test_unannounced_seq_rejected(self, tmp_path):
        path = _event_trace(tmp_path, [
            ("event_scheduled", 0), ("event_fired", 1),
            ("event_scheduled", 1),
        ])
        assert validate_trace_file(path) == [
            "line 2: event_seq 1 fired or cancelled 1 time(s) but"
            " scheduled 0 time(s)",
        ]

    def test_seq_fired_twice_rejected(self, tmp_path):
        path = _event_trace(tmp_path, [
            ("event_scheduled", 0), ("event_fired", 0),
            ("event_cancelled", 0),
        ])
        assert validate_trace_file(path) == [
            "line 3: event_seq 0 fired or cancelled 2 time(s) but"
            " scheduled 1 time(s)",
        ]

    def test_event_record_needs_an_event_seq(self):
        for event_seq in (None, -1, "0", True):
            errors = validate_trace_line({
                "schema": 1, "seq": 0, "kind": "event_fired",
                "event_seq": event_seq,
            })
            assert any("event_seq" in e for e in errors), event_seq


def _leg_trace(tmp_path, records):
    """A trace file of ``(kind, src, dst, method, leg)`` records."""
    path = tmp_path / "legs.jsonl"
    lines = []
    for seq, (kind, src, dst, method, leg) in enumerate(records):
        record = {"schema": 1, "seq": seq, "kind": kind, "t": 0.0,
                  "src": src, "dst": dst, "method": method, "bytes": 512}
        if leg is not None:
            record["leg"] = leg
        lines.append(json.dumps(record) + "\n")
    path.write_text("".join(lines))
    return str(path)


def _lossy_rpc_trace(capacity=None):
    """A traced run of 40 echo RPCs and 40 one-way pings over a link
    that loses 30% of legs at send."""
    tracer = Tracer(capacity=capacity)
    sim = Simulator(tracer=tracer)
    network = Network(sim, RngStreams(2), latency=ConstantLatency(0.05),
                      loss_rate=0.3)
    network.create_node("a")
    server = network.create_node("b")
    server.register_handler("echo", lambda node, payload, sender: payload)
    server.register_handler("ping", lambda node, payload, sender: None)

    def client():
        for i in range(40):
            network.send("a", "b", "ping", i)
            try:
                yield from network.rpc("a", "b", "echo", i, timeout=1.0)
            except RpcTimeoutError:
                pass

    sim.run_process(client())
    return tracer


class TestValidateLegAccounting:
    def test_lossy_rpc_trace_is_valid(self, tmp_path):
        tracer = _lossy_rpc_trace()
        records = tracer.events
        # Both RPC legs are lost at send, and requests are delivered.
        for leg in ("rpc_request", "rpc_response"):
            assert any(r["kind"] == "msg_drop" and r["reason"] == "loss"
                       and r.get("leg") == leg for r in records), leg
        assert any(r["kind"] == "msg_deliver"
                   and r.get("leg") == "rpc_request" for r in records)
        path = tmp_path / "rpc.jsonl"
        tracer.write_jsonl(str(path))
        assert validate_trace_file(str(path)) == []

    def test_capacity_prefix_is_valid(self, tmp_path):
        tracer = _lossy_rpc_trace(capacity=301)
        assert tracer.dropped > 0
        path = tmp_path / "prefix.jsonl"
        tracer.write_jsonl(str(path))
        assert validate_trace_file(str(path)) == []

    def test_drop_with_no_send_rejected(self, tmp_path):
        path = _leg_trace(tmp_path, [
            ("msg_send", "a", "b", "echo", "rpc_request"),
            ("msg_deliver", "a", "b", "echo", "rpc_request"),
            ("msg_drop", "b", "a", "response", "rpc_response"),
            ("msg_drop", "a", "b", "ping", None),
        ])
        assert validate_trace_file(path) == [
            "line 3: 'response' rpc_response legs from 'b' to 'a'"
            " delivered or dropped 1 time(s) but sent 0 time(s)",
            "line 4: 'ping' legs from 'a' to 'b' delivered or dropped"
            " 1 time(s) but sent 0 time(s)",
        ]

    def test_repeated_flows_count_as_a_multiset(self, tmp_path):
        path = _leg_trace(tmp_path, [
            ("msg_send", "a", "b", "ping", None),
            ("msg_send", "a", "b", "ping", None),
            ("msg_drop", "a", "b", "ping", None),
            ("msg_deliver", "a", "b", "ping", None),
            ("msg_deliver", "a", "b", "ping", None),
        ])
        assert validate_trace_file(path) == [
            "line 5: 'ping' legs from 'a' to 'b' delivered or dropped"
            " 3 time(s) but sent 2 time(s)",
        ]

    def test_leg_record_needs_string_flow_fields(self):
        clean = {"schema": 1, "seq": 0, "kind": "msg_send", "src": "a",
                 "dst": "b", "method": "ping"}
        assert validate_trace_line(clean) == []
        for field, value in (("src", None), ("dst", 7), ("method", []),
                             ("leg", 1)):
            errors = validate_trace_line({**clean, field: value})
            assert any(e.startswith(f"{field} is") for e in errors), field
