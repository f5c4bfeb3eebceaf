"""The three workloads: ``cold_align``, ``ingest`` and ``fleet_read``.

Each function runs one workload once and returns a :class:`Outcome`:
its end-to-end metrics (with sample counts), the operations attempted
and failed, whether every correctness check passed, and, for a traced
run, the per-layer metrics and the table lines explaining them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import layers
import spans as spans_module
from loadgen import Client, Tally, WrongAnswer, closed_loop, expect_status, open_loop, run_threads
from mix import delta_ops, read_ops
from roles import (
    LOADGEN_CPU,
    PROGRAM_CPU,
    START_TIMEOUT,
    Fleet,
    Role,
    child_setup,
    http_json,
    http_text,
)
from stats import samples_needed, supports, tail

#: Seconds of ``--seconds`` per ``cold_align`` align (one align takes
#: 3 to 6 s on a 2-core machine, with 1 to 2 s of set-up around it).
#: The number of aligns follows from the arguments alone, so a seed
#: aligns the same pairs however fast the machine runs.
ALIGN_SECONDS = 5.0
#: Aligning processes at least, per ``cold_align`` run; each parses
#: its inputs, so ``setup_s`` is the median of as many set-ups.
MIN_ALIGNS = 3
#: Times the serving workloads start their roles from scratch per run.
#: Each start cold-aligns the corpus (about 8 s for ``ingest``), and the
#: whole benchmark has to fit the time the runs are given.
SETUPS = 2
#: Unmeasured load before each timed window.
WARMUP_SECONDS = 1.0
#: Longest a single aligning process may run.
ALIGN_TIMEOUT = 170.0

#: The ``docs/operations.md`` primary flags.
PRIMARY_FLAGS = ["--wal", "--wal-segment-bytes", "4194304", "--snapshot-every", "10"]


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    #: What ``op_ms`` and ``ops_per_s`` count on this workload.
    operation: str = ""
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.correct = False
            self.problems.append(problem)

    def count(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed
        for error in tally.errors:
            self.problems.append(error)


@dataclass
class Run:
    """What every workload receives from the command line."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    traced: bool

    def spans_path(self, name: str) -> Optional[Path]:
        return self.workdir / f"{name}.spans.json" if self.traced else None


def _write_pair(left, right, directory: Path) -> Tuple[Path, Path]:
    from repro.rdf import ntriples

    left_path, right_path = directory / "left.nt", directory / "right.nt"
    ntriples.write_ntriples(left, left_path)
    ntriples.write_ntriples(right, right_path)
    return left_path, right_path


# ----------------------------------------------------------------------
# cold_align
# ----------------------------------------------------------------------


def cold_align(run: Run) -> Outcome:
    """``ParisAligner(left, right, ParisConfig()).align()`` on
    YAGO/DBpedia-like pairs, one aligning process per pair.

    Each process parses both N-Triples files (its set-up) and aligns
    once; ``run.seconds / ALIGN_SECONDS`` processes run, at least
    ``MIN_ALIGNS``.  Every align gets its own pair, drawn from the
    run's seed: how many iterations the fixpoint needs (mostly 6, a few
    draws 7 to 10) depends on the draw, so a single pair would make
    ``op_ms`` mostly a function of the seed, and the median over the
    aligns keeps the rare slow draw from moving it.  Precision and
    recall pool every pair, so they are fixed per seed.

    An align is correct when its assignment meets the precision and
    recall floors.  A few draws in a hundred settle into a slow
    oscillation of about 1% of the assignment and stop at
    ``ParisConfig().max_iterations`` unconverged, with the same quality
    as the rest; the table reports them rather than failing the run.
    """
    from repro.datasets import yago_dbpedia_pair
    from repro.evaluation.metrics import evaluate_instances
    from repro.rdf.terms import Resource

    outcome = Outcome(operation="one align: aligner construction plus align()")
    results: List[dict] = []
    child_spans = []
    pooled = [0, 0, 0]  # true positives, false positives, false negatives

    # Index -1 is the unmeasured warm-up (imports, page cache, the
    # aligning CPU), on a pair a third the size.
    for index in range(-1, max(MIN_ALIGNS, round(run.seconds / ALIGN_SECONDS))):
        warm_up = index < 0
        scale = 3 if warm_up else 1
        pair_seed = random.Random(f"perfbench-cold/{run.seed}/{index}").getrandbits(31)
        pair = yago_dbpedia_pair(
            num_persons=3000 // scale, num_works=1500 // scale, seed=pair_seed
        )
        left_path, right_path = _write_pair(pair.ontology1, pair.ontology2, run.workdir)
        out_path = run.workdir / f"align{index}.json"
        span_path = None if warm_up else run.spans_path(f"align{index}")
        command = [sys.executable, str(run.root / "perfbench" / "align_child.py")]
        command += [str(left_path), str(right_path), str(out_path)]
        if span_path is not None:
            command.append(str(span_path))
        outcome.attempted += not warm_up
        completed = subprocess.run(
            command,
            cwd=str(run.workdir),
            env={**os.environ, "PYTHONPATH": str(run.root / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=ALIGN_TIMEOUT,
            preexec_fn=child_setup(PROGRAM_CPU),
        )
        if completed.returncode != 0:
            outcome.failed += not warm_up
            outcome.check(False, completed.stdout.decode(errors="replace")[-2000:])
            return outcome
        if warm_up:
            continue
        result = json.loads(out_path.read_text(encoding="utf-8"))
        assignment = {
            Resource(left): (Resource(right), 1.0) for left, right in result["assignment"]
        }
        prf = evaluate_instances(assignment, pair.gold)
        ok = prf.precision >= 0.8 and prf.recall >= 0.7
        outcome.check(
            ok,
            f"pair {index}: precision {prf.precision:.3f} (>= 0.8), "
            f"recall {prf.recall:.3f} (>= 0.7)",
        )
        outcome.failed += not ok
        if not result["converged"]:
            outcome.notes.append(
                f"pair {index} stopped unconverged after {result['iterations']} iterations "
                f"(precision {prf.precision:.3f}, recall {prf.recall:.3f})"
            )
        pooled[0] += prf.true_positives
        pooled[1] += prf.false_positives
        pooled[2] += prf.false_negatives
        results.append(result)
        if span_path is not None:
            (spans,) = spans_module.load([str(span_path)]).values()
            child_spans.append((spans, result))
    true_positives, false_positives, false_negatives = pooled
    count = len(results)
    align_times = [r["align_s"] for r in results]
    outcome.metrics = {
        "setup_s": Metric(median([r["parse_s"] for r in results]), "s", count),
        "op_ms": Metric(1e3 * median(align_times), "ms", count),
        "ops_per_s": Metric(1.0 / median(align_times), "1/s", count),
        "instance_precision": Metric(
            true_positives / (true_positives + false_positives),
            "ratio",
            true_positives + false_positives,
        ),
        "instance_recall": Metric(
            true_positives / (true_positives + false_negatives),
            "ratio",
            true_positives + false_negatives,
        ),
        "peak_rss_mb": Metric(median(r["peak_rss_kb"] for r in results) / 1024.0, "MB", count),
    }
    outcome.notes.append(f"iterations per align: {[r['iterations'] for r in results]}")
    if run.traced:
        outcome.layers = layers.core_layers(child_spans)
    return outcome


# ----------------------------------------------------------------------
# helpers shared by the serving workloads
# ----------------------------------------------------------------------


def _serve_args(left: Path, right: Path, state_dir: Path) -> List[str]:
    return ["serve", str(left), str(right), "--state-dir", str(state_dir), "--port", "0"]


def _timed_setups(run: Run, start_fleet) -> Tuple[Fleet, List[float]]:
    """Start the workload's roles ``SETUPS`` times from scratch; keep
    the last fleet running and return it with every set-up time."""
    times = []
    for index in range(SETUPS):
        fleet = Fleet()
        try:
            started = time.perf_counter()
            start_fleet(fleet, index, index == SETUPS - 1)
            times.append(time.perf_counter() - started)
        except BaseException:
            fleet.close()
            raise
        if index < SETUPS - 1:
            fleet.close()
    return fleet, times


def _check_ack(op, reply, acked: List, acks: Optional[List[dict]] = None) -> None:
    """Record ``op`` as acked if ``reply`` carries the batch's report."""
    expect_status(reply)
    payload = reply.json()
    if not isinstance(payload.get("version"), int) or "passes" not in payload:
        raise WrongAnswer(f"ack without a report: {payload}")
    acked.append(op)
    if acks is not None:
        acks.append(payload)


def _scrape(url: str) -> Dict[str, float]:
    return layers.parse_prometheus(http_text(url, "/metrics"))


def _expected_digest(left_path: Path, right_path: Path, acked) -> str:
    """Digest of a cold realign over the base corpus plus ``acked``."""
    from repro import ParisConfig
    from repro.obs.audit import format_digest
    from repro.rdf import ntriples
    from repro.service import AlignmentService
    from repro.service.delta import apply_delta

    left = ntriples.read_ntriples(left_path)
    right = ntriples.read_ntriples(right_path)
    for op in acked:
        apply_delta(left, right, op.delta)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    return format_digest(service.digests.digest)


def _digest(url: str) -> dict:
    status, payload = http_json(url, "/digest", timeout=60.0)
    if status != 200:
        raise WrongAnswer(f"/digest answered {status}")
    return payload


def _wal_size(state_dir: Path) -> int:
    return sum(path.stat().st_size for path in state_dir.glob("wal*.ndjson"))


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

INGEST_FAMILIES = 2400
INGEST_WRITERS = 2
#: Fresh families per writer and run: 2 x 55 = 110 < 5% of 2400.
INGEST_ADD_BUDGET = 55
INGEST_ADD_EVERY = 4


def ingest(run: Run) -> Outcome:
    """Closed loop: two writers, each on its own keep-alive connection,
    post 1-family deltas back to back to one WAL primary."""
    from repro.datasets.incremental import family_pair

    left, right = family_pair(INGEST_FAMILIES, with_classes=True)
    left_path, right_path = _write_pair(left, right, run.workdir)
    outcome = Outcome(operation="one delta: POST /delta to its ack")
    primary_holder = {}

    def start(fleet: Fleet, index: int, last: bool) -> None:
        state_dir = run.workdir / f"state{index}"
        primary = fleet.add(
            Role(
                "primary",
                _serve_args(left_path, right_path, state_dir) + PRIMARY_FLAGS,
                run.workdir,
                run.root,
                run.spans_path("primary") if last else None,
            )
        )
        primary.wait_healthy(time.monotonic() + START_TIMEOUT)
        primary_holder.update(role=primary, state_dir=state_dir)

    fleet, setup_times = _timed_setups(run, start)
    with fleet:
        primary = primary_holder["role"]
        sequences = [
            delta_ops(
                run.seed,
                writer,
                INGEST_WRITERS,
                INGEST_FAMILIES,
                INGEST_ADD_BUDGET,
                INGEST_ADD_EVERY,
                with_classes=True,
            )
            for writer in range(INGEST_WRITERS)
        ]
        clients = [Client(primary.url) for _ in range(INGEST_WRITERS)]
        acked: List[List] = [[] for _ in range(INGEST_WRITERS)]
        acks: List[dict] = []
        client_times: Dict[str, Tuple[float, float]] = {}
        seqs = [0] * INGEST_WRITERS
        tally = Tally()
        recording = threading.Event()

        def writer(index: int, keep_going, measured: Optional[Tally]):
            def operation():
                op = next(sequences[index])
                seqs[index] += 1
                rid = f"pb-{run.seed}-w{index}-{seqs[index]}"
                body = json.dumps(op.delta.to_json()).encode("utf-8")
                sent = time.perf_counter()
                reply = clients[index].request(
                    "POST",
                    f"/delta?source=w{index}&seq={seqs[index]}",
                    body=body,
                    headers={"Content-Type": "application/json", "X-Request-Id": rid},
                )
                if recording.is_set():
                    client_times[rid] = (sent, time.perf_counter())
                _check_ack(op, reply, acked[index], acks if recording.is_set() else None)

            closed_loop(keep_going, operation, measured)

        warm_stop = time.perf_counter() + WARMUP_SECONDS

        def warming() -> bool:
            return time.perf_counter() < warm_stop

        run_threads([lambda i=i: writer(i, warming, None) for i in range(INGEST_WRITERS)])
        before = _scrape(primary.url) if run.traced else {}
        wal_before = _wal_size(primary_holder["state_dir"])
        recording.set()
        window_start = time.perf_counter()
        window_stop = window_start + run.seconds
        hard_stop = window_start + 2 * run.seconds

        def measuring() -> bool:
            # The window outlasts ``run.seconds`` only until the named
            # tail percentile has the samples it needs.
            now = time.perf_counter()
            short = len(tally.latencies) < samples_needed(95.0)
            return now < window_stop or (short and now < hard_stop)

        run_threads([lambda i=i: writer(i, measuring, tally) for i in range(INGEST_WRITERS)])
        window_end = time.perf_counter()
        recording.clear()
        after = _scrape(primary.url) if run.traced else {}
        wal_after = _wal_size(primary_holder["state_dir"])
        peak_rss = primary.peak_rss_mb()
        for client in clients:
            client.close()
        served = _digest(primary.url)
    outcome.count(tally)
    all_acked = [op for ops in acked for op in ops]
    outcome.check(
        served["wal_offset"] == sum(seqs),
        f"primary applied offset {served['wal_offset']}, {sum(seqs)} deltas posted",
    )
    expected = _expected_digest(left_path, right_path, all_acked)
    outcome.check(
        served["digest"] == expected,
        f"primary digest {served['digest']} != cold realign {expected}",
    )
    latencies = tally.latencies
    outcome.metrics = {
        "setup_s": Metric(median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": Metric(peak_rss, "MB", 1),
        "op_ms": Metric(1e3 * median(latencies), "ms", len(latencies)),
        "ops_per_s": Metric(len(latencies) / (window_end - window_start), "1/s", len(latencies)),
        "delta_ack_p95_ms": _tail_metric(latencies, 95.0, outcome),
    }
    if run.traced:
        by_pid = spans_module.load([str(run.spans_path("primary"))])
        window = (window_start, window_end)
        trace = layers.Trace(by_pid, {"primary": primary.process.pid}, window)
        outcome.layers, outcome.notes = layers.ingest_layers(
            trace, client_times, acks, before, after, wal_after - wal_before
        )
    return outcome


def _tail_metric(latencies: List[float], pct: float, outcome: Outcome) -> Metric:
    value = tail(latencies, pct)
    if value is None:
        outcome.check(False, f"{len(latencies)} samples do not support a p{pct:g}")
        value = max(latencies) if latencies else 0.0
    return Metric(1e3 * value, "ms", len(latencies))


# ----------------------------------------------------------------------
# fleet_read
# ----------------------------------------------------------------------

FLEET_FAMILIES = 600
READ_RATE = 40.0
WRITE_RATE = 2.0
#: Fresh families per run: at most 25 (4% of 600).
FLEET_ADD_BUDGET = 25
FLEET_ADD_EVERY = 4
CATCH_UP_TIMEOUT = 60.0


def _check_read(op, reply, last_etag: Dict[str, str]) -> None:
    """Raise ``WrongAnswer`` unless ``reply`` answers ``op``."""
    if op.kind == "revalidate":
        expect_status(reply, (200, 304))
    else:
        expect_status(reply)
    if reply.status == 304:
        return
    etag = reply.headers.get("etag")
    if etag:
        last_etag["etag"] = etag
    payload = reply.json()
    left, right = f"p{op.family}{op.person}", f"q{op.family}{op.person}"
    if op.kind in ("pair", "revalidate"):
        best = payload.get("best_counterpart_of_left") or {}
        if best.get("right") != right or not payload.get("probability", 0) > 0.5:
            raise WrongAnswer(f"/pair {left}: {payload}")
    elif op.kind == "entity":
        best = payload.get("best_counterpart_as_left") or {}
        if best.get("right") != right:
            raise WrongAnswer(f"?entity={left}: {payload}")
    elif op.kind == "top":
        scores = [row["probability"] for row in payload["pairs"]]
        if len(scores) != 5 or scores != sorted(scores, reverse=True):
            raise WrongAnswer(f"?top=5 returned {scores}")
    elif len(payload["pairs"]) != 20:
        raise WrongAnswer(f"?limit=20 returned {len(payload['pairs'])} rows")


def fleet_read(run: Run) -> Outcome:
    """Open loop through the router: one reader at ``READ_RATE`` reads/s
    and one writer at ``WRITE_RATE`` deltas/s, over a WAL primary and
    one HTTP log-shipping replica."""
    from repro.datasets.incremental import family_pair

    left, right = family_pair(FLEET_FAMILIES)
    left_path, right_path = _write_pair(left, right, run.workdir)
    outcome = Outcome(operation="one delta through the router, beside the reads")
    found = {}

    def start(fleet: Fleet, index: int, last: bool) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        primary = fleet.add(
            Role(
                "primary",
                _serve_args(left_path, right_path, run.workdir / f"state{index}")
                + PRIMARY_FLAGS,
                run.workdir,
                run.root,
                run.spans_path("primary") if last else None,
            )
        )
        primary.wait_healthy(deadline)
        replica = fleet.add(
            Role(
                "replica",
                [
                    "replica",
                    primary.url,
                    "--port",
                    "0",
                    "--state-dir",
                    str(run.workdir / f"replica{index}"),
                ],
                run.workdir,
                run.root,
                run.spans_path("replica") if last else None,
            )
        )
        replica.wait_healthy(deadline)
        router = fleet.add(
            Role(
                "router",
                ["route", "--primary", primary.url, "--replica", replica.url, "--port", "0"],
                run.workdir,
                run.root,
                run.spans_path("router") if last else None,
                cpu=LOADGEN_CPU,
            )
        )
        router.wait_healthy(
            deadline,
            ready=lambda health: (
                health.get("primary_healthy") and health.get("replicas_healthy") == 1
            ),
        )
        found.update(primary=primary, replica=replica, router=router)

    fleet, setup_times = _timed_setups(run, start)
    with fleet:
        primary, replica, router = found["primary"], found["replica"], found["router"]
        reads = read_ops(run.seed, FLEET_FAMILIES)
        writes = delta_ops(
            run.seed, 0, 1, FLEET_FAMILIES, FLEET_ADD_BUDGET, FLEET_ADD_EVERY, with_classes=False
        )
        reader, writer = Client(router.url), Client(router.url)
        acked: List = []
        last_etag: Dict[str, str] = {}
        read_times: Dict[str, Tuple[float, float]] = {}
        counters = {"read": 0, "write": 0}
        recording = threading.Event()

        def read(_index: int) -> None:
            op = next(reads)
            counters["read"] += 1
            rid = f"pb-{run.seed}-r{counters['read']}"
            headers = {"X-Request-Id": rid}
            path = f"/pair/p{op.family}{op.person}/q{op.family}{op.person}"
            if op.kind == "entity":
                path = f"/alignment?entity=p{op.family}{op.person}"
            elif op.kind == "top":
                path = "/alignment?top=5"
            elif op.kind == "page":
                path = "/alignment?limit=20"
            elif op.kind == "revalidate" and "etag" in last_etag:
                headers["If-None-Match"] = last_etag["etag"]
            sent = time.perf_counter()
            reply = reader.request("GET", path, headers=headers)
            if recording.is_set():
                read_times[rid] = (sent, time.perf_counter())
            _check_read(op, reply, last_etag)
            if op.kind == "page":
                cursor = reply.json()["next_cursor"]
                rid = f"{rid}-next"
                sent = time.perf_counter()
                reply = reader.request(
                    "GET",
                    f"/alignment?limit=20&cursor={cursor}",
                    headers={"X-Request-Id": rid},
                )
                if recording.is_set():
                    read_times[rid] = (sent, time.perf_counter())
                _check_read(op, reply, last_etag)

        def write(_index: int) -> None:
            op = next(writes)
            counters["write"] += 1
            rid = f"pb-{run.seed}-d{counters['write']}"
            body = json.dumps(op.delta.to_json()).encode("utf-8")
            reply = writer.request(
                "POST",
                f"/delta?source=bench&seq={counters['write']}",
                body=body,
                headers={"Content-Type": "application/json", "X-Request-Id": rid},
            )
            _check_ack(op, reply, acked)

        read_tally, write_tally = Tally(), Tally()

        def load(seconds: float, reads_tally, writes_tally) -> Tuple[float, float, float]:
            """Offer load from ``start`` to ``stop``; return both and
            when the last operation finished."""
            start = time.perf_counter() + 0.05
            stop = start + seconds
            run_threads(
                [
                    lambda: open_loop(READ_RATE, start, stop, read, reads_tally),
                    lambda: open_loop(WRITE_RATE, start + 0.25, stop, write, writes_tally),
                ]
            )
            return start, stop, time.perf_counter()

        load(WARMUP_SECONDS, None, None)
        recording.set()
        window_start, window_stop, finished = load(run.seconds, read_tally, write_tally)
        window = (window_start, window_stop)
        recording.clear()
        reader.close()
        writer.close()
        peak_rss = fleet.peak_rss_mb()
        served = _digest(primary.url)
        deadline = time.monotonic() + CATCH_UP_TIMEOUT
        replica_digest = _digest(replica.url)
        while replica_digest["wal_offset"] < served["wal_offset"] and time.monotonic() < deadline:
            time.sleep(0.05)
            replica_digest = _digest(replica.url)
    outcome.count(read_tally)
    outcome.count(write_tally)
    outcome.check(
        served["wal_offset"] == counters["write"],
        f"primary applied offset {served['wal_offset']}, {counters['write']} deltas posted",
    )
    outcome.check(
        replica_digest["digest"] == served["digest"]
        and replica_digest["wal_offset"] == served["wal_offset"],
        f"replica {replica_digest} != primary {served}",
    )
    expected = _expected_digest(left_path, right_path, acked)
    outcome.check(
        served["digest"] == expected,
        f"primary digest {served['digest']} != cold realign {expected}",
    )
    reads_ms = read_tally.latencies
    done = len(reads_ms) + len(write_tally.latencies)
    outcome.metrics = {
        "setup_s": Metric(median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": Metric(peak_rss, "MB", 3),
        "op_ms": Metric(1e3 * median(write_tally.latencies), "ms", len(write_tally.latencies)),
        # Open loop: the offered rate, unless the fleet falls behind it.
        "ops_per_s": Metric(done / (finished - window_start), "1/s", done),
        "read_p50_ms": Metric(1e3 * median(reads_ms), "ms", len(reads_ms)),
        "read_p99_ms": _tail_metric(reads_ms, 99.0, outcome),
    }
    late = read_tally.lateness
    outcome.notes.append(
        f"open-loop lateness: p50 {1e3 * median(late):.3f} ms, max {1e3 * max(late):.3f} ms "
        f"over {len(late)} reads"
        + ("" if supports(len(late), 99.0) else " (p99 unsupported)")
    )
    if run.traced:
        pids = {name: found[name].process.pid for name in ("primary", "replica", "router")}
        by_pid = spans_module.load([str(run.spans_path(role)) for role in pids])
        trace = layers.Trace(by_pid, pids, window)
        outcome.layers, notes = layers.fleet_layers(trace, read_times, late)
        outcome.notes += notes
    return outcome


WORKLOADS = {"cold_align": cold_align, "ingest": ingest, "fleet_read": fleet_read}
