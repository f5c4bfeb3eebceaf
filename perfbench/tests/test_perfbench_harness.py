"""Self-tests of the benchmark harness (not of the program it measures)."""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from layers import parse_prometheus
from loadgen import Client, Tally, WrongAnswer, attempt, closed_loop, expect_status, open_loop
from mix import delta_ops, read_ops
from spans import Recorder, self_times
from stats import percentile, samples_needed, supports, tail

# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------


def test_named_percentile_needs_ten_samples_beyond_it():
    assert samples_needed(50.0) == 20
    assert samples_needed(95.0) == 200
    assert samples_needed(99.0) == 1000
    assert not supports(999, 99.0) and supports(1000, 99.0)
    assert not supports(199, 95.0) and supports(200, 95.0)


def test_tail_refuses_an_unsupported_percentile():
    values = [float(i) for i in range(1, 201)]
    assert tail(values, 95.0) == 190.0
    assert tail(values[:199], 95.0) is None
    assert percentile(values, 50.0) == 100.0


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_from_the_due_time():
    clock = FakeClock()
    service = {2: 0.35}  # operation 2 stalls for 350 ms; the rest take 10 ms

    def operation(index: int) -> None:
        clock.now += service.get(index, 0.01)

    tally = Tally()
    open_loop(10.0, 0.0, 0.6, operation, tally, clock=clock, sleep=clock.sleep)
    assert tally.attempted == 6
    latencies = [round(value, 6) for value in tally.latencies]
    # Operation 3 was due at 0.3 but could only start at 0.55: its
    # latency charges the 250 ms it waited behind the stall.
    assert latencies == [0.01, 0.01, 0.35, 0.26, 0.17, 0.08]
    assert [round(value, 6) for value in tally.lateness] == [0.0, 0.0, 0.0, 0.25, 0.16, 0.07]


def test_open_loop_issues_nothing_due_after_stop():
    clock = FakeClock()
    issued = []
    open_loop(40.0, 1.0, 2.0, issued.append, None, clock=clock, sleep=clock.sleep)
    assert len(issued) == 40
    assert clock.now >= 1.0 + 39 / 40.0


def test_closed_loop_runs_while_asked():
    calls = []
    tally = Tally()
    closed_loop(lambda: len(calls) < 3, lambda: calls.append(1), tally)
    assert tally.attempted == 3 and tally.failed == 0


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


def _kinds_and_families(ops):
    return [(op.kind, op.family) for op in ops]


def test_same_seed_same_deltas_and_reads():
    def deltas(seed, writer):
        return take(delta_ops(seed, writer, 2, 100, 5, 4, with_classes=True), 60)

    first, again = deltas(7, 0), deltas(7, 0)
    assert _kinds_and_families(first) == _kinds_and_families(again)
    assert [op.delta for op in first] == [op.delta for op in again]
    assert _kinds_and_families(first) != _kinds_and_families(deltas(8, 0))
    assert take(read_ops(7, 100), 200) == take(read_ops(7, 100), 200)
    assert take(read_ops(7, 100), 200) != take(read_ops(8, 100), 200)


def test_writers_touch_disjoint_families_and_respect_the_add_budget():
    ops = [take(delta_ops(3, writer, 2, 100, 5, 2, with_classes=False), 300) for writer in (0, 1)]
    families = [{op.family for op in writer_ops} for writer_ops in ops]
    assert not families[0] & families[1]
    for writer_ops in ops:
        assert sum(op.kind == "add" for op in writer_ops) == 5
        retracted = set()
        for op in writer_ops:
            if op.kind == "retract":
                assert op.family not in retracted
                retracted.add(op.family)
            elif op.kind == "restore":
                retracted.remove(op.family)


# ----------------------------------------------------------------------
# failure accounting against a real socket
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *_args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/slow":
            threading.Event().wait(1.0)
        status = {"/429": 429, "/503": 503}.get(self.path, 200)
        body = b'{"answer": 41}' if self.path == "/wrong" else b'{"answer": 42}'
        if self.path == "/garbled":
            body = b"not json"
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except BrokenPipeError:
            pass  # the client gave up on /slow


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def test_refusals_timeouts_and_wrong_answers_count_as_failures(server):
    client = Client(server, timeout=0.2)

    def read(path):
        def operation():
            reply = client.request("GET", path)
            expect_status(reply)
            if reply.json()["answer"] != 42:
                raise WrongAnswer("bad answer")

        return operation

    tally = Tally()
    for path in ("/ok", "/429", "/503", "/slow", "/wrong", "/garbled", "/ok"):
        tally.record(0.001, attempt(read(path)))
    client.close()
    assert tally.attempted == 7
    assert tally.failed == 5
    assert len(tally.latencies) == 2
    assert any("429" in error for error in tally.errors)
    assert any(error == "timeout" for error in tally.errors)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_what_children_cover():
    spans = [
        ("outer", 1, None, 0.0, 10.0, "r", None),
        ("a", 2, 1, 1.0, 3.0, "r", None),
        ("b", 3, 1, 2.0, 5.0, "r", None),  # overlaps a: covered once
        ("leaf", 4, 3, 2.5, 3.0, "r", None),
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(6.0)
    assert times[3] == pytest.approx(2.5)
    assert times[4] == pytest.approx(0.5)


def test_recorded_spans_nest_and_inherit_the_request_id():
    recorder = Recorder()

    class Handler:
        # A keep-alive handler still holds the previous request's id
        # until it has parsed the next request.
        request_id = "previous"

    leaf = recorder.wrap("leaf", lambda: None)
    route = recorder.wrap("route", lambda _handler: leaf())

    def handle_one_request(handler):
        handler.request_id = "current"
        route(handler)

    recorder.wrap("handle", handle_one_request, per_connection=True)(Handler())
    by_name = {span[0]: span for span in recorder.spans}
    assert by_name["leaf"][2] == by_name["route"][1]
    assert by_name["route"][2] == by_name["handle"][1]
    assert {span[5] for span in recorder.spans} == {"current"}


def test_prometheus_counters_sum_over_labels():
    text = '# HELP x\nrepro_a_total{k="1"} 2\nrepro_a_total{k="2"} 3.5\nrepro_b 7\n'
    assert parse_prometheus(text) == {"repro_a_total": 5.5, "repro_b": 7.0}


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------


def test_manifest_lists_exactly_the_metrics_the_result_line_carries():
    import json
    from pathlib import Path

    from layers import LAYER_METRICS
    from run import END_TO_END

    manifest = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(END_TO_END)
    layered = list(LAYER_METRICS) + [(f"overhead.{name}", unit) for name, unit in END_TO_END]
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == layered


def test_untraced_result_carries_every_end_to_end_metric():
    from run import END_TO_END, end_to_end
    from workloads import Metric, Outcome

    outcome = Outcome(metrics={name: Metric(1.5, unit, 3) for name, unit in END_TO_END})
    outcome.metrics["read_p50_ms"] = Metric(2.0, "ms", 1000)
    assert end_to_end(outcome) == {
        name: {"value": 1.5, "unit": unit} for name, unit in END_TO_END
    }
    del outcome.metrics["op_ms"]
    with pytest.raises(KeyError):
        end_to_end(outcome)


def test_traced_result_carries_every_layer_and_the_overheads():
    from layers import LAYER_METRICS, empty
    from run import END_TO_END, traced_metrics
    from workloads import Metric, Outcome

    outcome = Outcome(metrics={name: Metric(2.0, unit, 3) for name, unit in END_TO_END})
    outcome.metrics["read_p50_ms"] = Metric(3.5, "ms", 1000)
    outcome.layers = {**empty(), "engine.apply_ms": 4.0}
    metrics = traced_metrics(outcome, {name: 1.5 for name, _unit in END_TO_END})
    assert len(metrics) == len(LAYER_METRICS) + len(END_TO_END)
    assert metrics["read_p50_ms"]["value"] == 3.5
    assert metrics["engine.apply_ms"]["value"] == 4.0
    assert metrics["overhead.op_ms"] == {"value": 0.5, "unit": "ms"}
