"""Per-layer metrics from the traced run's spans.

Times are means per operation of the layer (per call, per batch, or
totals per align on ``cold_align``; ``README.md`` says which) over the
spans that started inside the measured window; counts are taken over
that window.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Tuple

from spans import Span, self_times
from stats import tail

#: Every per-layer metric and its unit (``BENCHMARK.json`` lists the
#: same names; ``perfbench/README.md`` says what each should move).
LAYER_METRICS = (
    ("rdf.parse_s", "s"),
    ("core.relation_pass_s", "s"),
    ("core.instance_pass_s", "s"),
    ("core.kernel_build_s", "s"),
    ("core.kernel_prepare_s", "s"),
    ("core.kernel_score_s", "s"),
    ("core.kernel_merge_s", "s"),
    ("core.class_pass_s", "s"),
    ("core.view_s", "s"),
    ("core.iterations", "count"),
    ("core.warm_align_ms", "ms"),
    ("core.warm_passes", "count"),
    ("core.pairs_touched", "count"),
    ("core.snapshot_capture_ms", "ms"),
    ("core.assignment_diff_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.lock_wait_ms", "ms"),
    ("engine.lock_hold_ms", "ms"),
    ("query.apply_changes_ms", "ms"),
    ("subs.publish_ms", "ms"),
    ("query.read_ms", "ms"),
    ("batcher.queue_wait_ms", "ms"),
    ("batcher.deltas_per_batch", "count"),
    ("wal.append_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.fsyncs_per_delta", "count"),
    ("wal.bytes_per_delta", "B"),
    ("state.snapshot_ms", "ms"),
    ("state.snapshot_bytes", "B"),
    ("state.snapshots", "count"),
    ("server.handle_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("obs.request_overhead_ms", "ms"),
    ("audit.check_ms", "ms"),
    ("audit.checks", "count"),
    ("router.handle_ms", "ms"),
    ("router.backend_ms", "ms"),
    ("router.backend_connects", "count"),
    ("replica.fetch_ms", "ms"),
    ("replica.poll_ms", "ms"),
    ("replica.records_per_poll", "count"),
    ("replica.lag_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    # Measured on every run of the one workload that has them, but
    # reported here, unbounded, from the traced run (see README.md):
    # cold_align's precision and recall, ingest's ack tail, and
    # fleet_read's read latencies, whose spread on a 2-core machine is
    # wider than a bound may be.
    ("instance_precision", "ratio"),
    ("instance_recall", "ratio"),
    ("delta_ack_p95_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
)


def empty() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in LAYER_METRICS}


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _duration(span: Span) -> float:
    return span[4] - span[3]


def _named(spans: List[Span], *names: str) -> List[Span]:
    return [span for span in spans if span[0] in names]


# ----------------------------------------------------------------------
# cold_align: one span list per aligning process
# ----------------------------------------------------------------------


def core_layers(per_child: List[Tuple[List[Span], dict]]) -> Dict[str, float]:
    """Medians over the aligning processes of each layer's total time
    per align (``rdf.parse_s``: per parse of both inputs)."""
    rows = []
    for spans, result in per_child:
        by_id = {span[1]: span for span in spans}

        def total(*names):
            # Outermost spans only: read_ntriples calls itself on the
            # opened file.
            return sum(
                _duration(span)
                for span in _named(spans, *names)
                if span[2] not in by_id or by_id[span[2]][0] not in names
            )

        merge = total("core.kernel_entries") + sum(
            _duration(span)
            for span in _named(spans, "core.store_update")
            if span[2] in by_id and by_id[span[2]][0] == "core.instance_pass"
        )
        rows.append(
            {
                "rdf.parse_s": total("rdf.parse"),
                "core.relation_pass_s": total("core.relation_pass"),
                "core.instance_pass_s": total("core.instance_pass"),
                "core.kernel_build_s": total("core.kernel_build"),
                "core.kernel_prepare_s": total("core.kernel_prepare"),
                "core.kernel_score_s": total("core.kernel_score"),
                "core.kernel_merge_s": merge,
                "core.class_pass_s": total("core.class_pass"),
                "core.view_s": total("core.view"),
                "core.iterations": float(result["iterations"]),
                "core.snapshot_capture_ms": 1e3 * total("core.snapshot_capture"),
                "core.assignment_diff_ms": 1e3 * total("core.assignment_diff"),
            }
        )
    metrics = empty()
    for name in rows[0]:
        metrics[name] = statistics.median(row[name] for row in rows)
    return metrics


# ----------------------------------------------------------------------
# serving workloads: spans of every role, joined on request id
# ----------------------------------------------------------------------


class Trace:
    """The spans of all roles of one traced set-up; ``named`` returns
    those that started inside ``window``."""

    def __init__(self, by_pid: Dict[int, List[Span]], roles: Dict[str, int], window):
        self.spans: Dict[str, List[Span]] = {}
        self.self_time: Dict[str, Dict[int, float]] = {}
        self._children: Dict[str, Dict[int, List[Span]]] = {}
        for role, pid in roles.items():
            spans = by_pid.get(pid, [])
            self.self_time[role] = self_times(spans)
            self.spans[role] = [span for span in spans if window[0] <= span[3] < window[1]]
            children: Dict[int, List[Span]] = {}
            for span in spans:
                if span[2] is not None:
                    children.setdefault(span[2], []).append(span)
            self._children[role] = children

    def named(self, role: str, *names: str) -> List[Span]:
        return _named(self.spans.get(role, []), *names)

    def everywhere(self, *names: str) -> List[Span]:
        return [span for role in self.spans for span in self.named(role, *names)]

    def children(self, role: str, span: Span, *names: str) -> List[Span]:
        return _named(self._children[role].get(span[1], []), *names)


def counter_delta(before: Dict[str, float], after: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Metric name -> value summed over its label sets."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _sep, value = line.rpartition(" ")
        name = head.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


def _ms(values: Iterable[float]) -> float:
    return 1e3 * mean(values)


def engine_layers(trace: Trace, role: str, metrics: Dict[str, float]) -> None:
    """The engine, batcher, WAL, snapshot and audit layers of ``role``."""

    def per_call(name: str) -> float:
        return _ms(map(_duration, trace.named(role, name)))

    def per_batch(name: str) -> float:
        total = sum(map(_duration, trace.named(role, name)))
        return 1e3 * total / max(len(trace.named(role, "engine.apply")), 1)

    metrics["engine.apply_ms"] = per_call("engine.apply")
    metrics["core.warm_align_ms"] = per_call("core.warm_align")
    metrics["core.snapshot_capture_ms"] = per_batch("core.snapshot_capture")
    metrics["core.assignment_diff_ms"] = per_batch("core.assignment_diff")
    metrics["engine.lock_wait_ms"] = per_call("engine.lock_wait")
    metrics["engine.lock_hold_ms"] = per_call("engine.lock_hold")
    metrics["query.apply_changes_ms"] = per_call("query.apply_changes")
    metrics["subs.publish_ms"] = per_call("subs.publish")
    metrics["wal.append_ms"] = per_call("wal.append")
    metrics["wal.fsync_ms"] = per_call("wal.sync")
    snapshots = trace.named(role, "state.snapshot")
    metrics["state.snapshots"] = float(len(snapshots))
    metrics["state.snapshot_ms"] = per_call("state.snapshot")
    metrics["state.snapshot_bytes"] = mean(span[6]["bytes"] for span in snapshots)
    checks = trace.everywhere("audit.check")
    metrics["audit.checks"] = float(len(checks))
    metrics["audit.check_ms"] = _ms(map(_duration, checks))


def handler_layers(trace: Trace, front: str, metrics: Dict[str, float]) -> None:
    """``obs.request_overhead_ms``: the access-log/metrics wrapper's own
    time per request on the front role (its span minus the stdlib
    handler it wraps)."""
    self_time = trace.self_time[front]
    metrics["obs.request_overhead_ms"] = _ms(
        self_time[span[1]] for span in trace.named(front, "obs.handle") if span[5]
    )


def per_route(spans: List[Span], label: str) -> List[str]:
    """One line per route: mean handler time and request count."""
    routes: Dict[str, List[float]] = {}
    for span in spans:
        routes.setdefault(span[6]["route"], []).append(_duration(span))
    return [
        f"{label} {route:<12} {_ms(times):9.3f} ms mean over {len(times)} requests"
        for route, times in sorted(routes.items())
    ]


def transport_ms(
    trace: Trace, front: str, handler: str, client: Dict[str, Tuple[float, float]]
) -> float:
    """Client-observed latency minus the front role's handler time, per
    request, joined on the request id."""
    handled = {span[5]: _duration(span) for span in trace.named(front, handler) if span[5]}
    return _ms(
        (ended - started) - handled[rid]
        for rid, (started, ended) in client.items()
        if rid in handled
    )


def delta_path(
    trace: Trace, client: Dict[str, Tuple[float, float]]
) -> Tuple[List[Dict[str, float]], List[float]]:
    """The critical path of each acked delta on the primary, in seconds,
    and how long each waited in the batcher's queue.

    From the client's send to its ack: transport, the handler outside
    the batcher, the WAL append and the submitter's own fsync, the wait
    until its batch starts, the batch's work after that point (engine
    apply, snapshot, the batcher's WAL sync, the rest), and the wake-up
    back to the handler.  The queue wait runs from the enqueue (the end
    of the WAL append) to the start of the batch's apply; it overlaps
    the submitter's fsync, so the path only charges what is left of it.
    """
    posts = {span[5]: span for span in trace.named("primary", "server.handle_post") if span[5]}
    batches = {}
    for span in trace.named("primary", "batcher.apply"):
        for rid in span[6]["traces"]:
            batches[rid] = span
    rows = []
    queue_waits = []
    for rid, (sent, acked) in client.items():
        post = posts.get(rid)
        batch = batches.get(rid)
        if post is None or batch is None:
            continue
        submits = trace.children("primary", post, "batcher.submit")
        if len(submits) != 1:
            continue
        submit = submits[0]
        appends = trace.children("primary", submit, "wal.append")
        syncs = trace.children("primary", submit, "wal.sync")
        if not appends:
            continue
        enqueued = appends[0][4]
        durable = syncs[0][4] if syncs else enqueued
        resumed = max(batch[3], durable)

        def overlap(span):
            return max(0.0, min(span[4], batch[4]) - max(span[3], resumed))

        engine = sum(map(overlap, trace.children("primary", batch, "engine.apply")))
        snapshot = sum(map(overlap, trace.children("primary", batch, "state.snapshot")))
        batch_sync = sum(map(overlap, trace.children("primary", batch, "wal.sync")))
        batch_work = batch[4] - resumed
        rows.append(
            {
                "ack": acked - sent,
                "transport": (acked - sent) - _duration(post),
                "handler": _duration(post) - _duration(submit),
                "wal.append": _duration(appends[0]),
                "wal.fsync (submitter)": sum(map(_duration, syncs)),
                "submit, other": (durable - submit[3])
                - _duration(appends[0])
                - sum(map(_duration, syncs)),
                "batcher.queue_wait": max(0.0, batch[3] - durable),
                "engine.apply": engine,
                "state.snapshot": snapshot,
                "wal.fsync (batcher)": batch_sync,
                "batch, other": batch_work - engine - snapshot - batch_sync,
                "wake-up": submit[4] - batch[4],
            }
        )
        queue_waits.append(max(0.0, batch[3] - enqueued))
    return rows, queue_waits


def ingest_layers(
    trace, client, acks, before, after, wal_bytes
) -> Tuple[Dict[str, float], List[str]]:
    metrics = empty()
    engine_layers(trace, "primary", metrics)
    handler_layers(trace, "primary", metrics)
    metrics["server.handle_ms"] = _ms(map(_duration, trace.named("primary", "server.handle_post")))
    metrics["server.transport_ms"] = transport_ms(trace, "primary", "server.handle_post", client)
    metrics["core.warm_passes"] = mean(ack["passes"] for ack in acks)
    metrics["core.pairs_touched"] = mean(ack["pairs_touched"] for ack in acks)
    accepted = counter_delta(before, after, "repro_batcher_accepted_total")
    batches = counter_delta(before, after, "repro_batcher_batches_total")
    coalesced = counter_delta(before, after, "repro_batcher_coalesced_total")
    fsyncs = counter_delta(before, after, "repro_wal_fsyncs_total")
    metrics["batcher.deltas_per_batch"] = coalesced / batches if batches else 0.0
    metrics["wal.fsyncs_per_delta"] = fsyncs / accepted if accepted else 0.0
    metrics["wal.bytes_per_delta"] = wal_bytes / accepted if accepted else 0.0
    rows, queue_waits = delta_path(trace, client)
    metrics["batcher.queue_wait_ms"] = _ms(queue_waits)
    lines = per_route(trace.named("primary", "server.handle_get", "server.handle_post"), "server")
    lines.append(f"ingest critical path per acked delta (mean over {len(rows)} joined deltas):")
    if rows:
        ack = mean(row["ack"] for row in rows)
        for key in rows[0]:
            value = mean(row[key] for row in rows)
            lines.append(f"  {key:<24} {1e3 * value:9.3f} ms  {100 * value / ack:5.1f}%")
    return metrics, lines


def fleet_layers(trace, client_reads, lateness) -> Tuple[Dict[str, float], List[str]]:
    metrics = empty()
    # The replica serves the reads, so its engine owns the engine-side
    # metrics here; the primary only absorbs the writes.
    engine_layers(trace, "replica", metrics)
    handler_layers(trace, "router", metrics)

    def reads(role: str, name: str) -> List[Span]:
        return [span for span in trace.named(role, name) if span[5] in client_reads]

    backend_gets = reads("primary", "server.handle_get") + reads("replica", "server.handle_get")
    router_gets = reads("router", "router.handle_get")
    metrics["query.read_ms"] = _ms(map(_duration, trace.everywhere("query.read")))
    metrics["server.handle_ms"] = _ms(map(_duration, backend_gets))
    metrics["server.transport_ms"] = transport_ms(
        trace, "router", "router.handle_get", client_reads
    )
    metrics["router.handle_ms"] = _ms(map(_duration, router_gets))
    metrics["router.backend_ms"] = _ms(map(_duration, reads("router", "urlopen")))
    forwarded = [span for span in trace.named("router", "urlopen") if span[5] is not None]
    metrics["router.backend_connects"] = float(len(forwarded))
    metrics["replica.fetch_ms"] = _ms(map(_duration, trace.named("replica", "replica.fetch")))
    polls = trace.named("replica", "replica.poll")
    metrics["replica.poll_ms"] = _ms(map(_duration, polls))
    metrics["replica.records_per_poll"] = mean(
        span[6]["count"] for span in polls if span[6]["count"]
    )
    lags = [
        span[6]["value"]
        for span in trace.named("replica", "replica.lag")
        if span[6]["value"] is not None
    ]
    metrics["replica.lag_ms"] = statistics.median(lags) if lags else 0.0
    if lateness:
        late = tail(lateness, 99.0)
        metrics["loadgen.late_p99_ms"] = 1e3 * (max(lateness) if late is None else late)
    primary_applies = trace.named("primary", "engine.apply")
    lines = per_route(trace.named("router", "router.handle_get", "router.handle_post"), "router")
    lines += per_route(backend_gets, "backend")
    lines.append(
        f"primary: {len(primary_applies)} deltas applied, "
        f"{_ms(map(_duration, primary_applies)):.3f} ms mean; replica: {len(polls)} polls"
    )
    return metrics, lines
