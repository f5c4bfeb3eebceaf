"""Command-line interface.

::

    python -m repro align left.nt right.nt --out result_dir [options]
    python -m repro stats onto1.nt onto2.nt ...
    python -m repro stats http://host:8765 [--watch SECS] [--raw]
    python -m repro demo {person,restaurant,kb,movies}
    python -m repro convert input.nt output.tsv
    python -m repro serve left.nt right.nt --state-dir dir --port 8765 \
        [--wal] [--watch deltas.ndjson] [--max-batch 32] [--max-lag-ms 50] \
        [--wal-segment-bytes 16777216] [--wal-group-commit-ms 5]
    python -m repro replay dir/wal.ndjson --state-dir dir
    python -m repro replica http://primary:8765 --port 8766 --state-dir rep1
    python -m repro route --primary http://primary:8765 \
        --replica http://rep1:8766 --replica http://rep2:8767 --port 8800
    python -m repro watch http://primary:8765 --entity Elvis --epsilon 0.05
    python -m repro trace http://primary:8765 TRACE_ID \
        [--replicas http://rep1:8766 ...] [--json]
    python -m repro wal compact --state-dir dir

``align`` loads two ontologies (N-Triples or TSV, by extension), runs
PARIS and writes the full result (instances/relations/classes) plus an
``owl:sameAs`` link file.  ``demo`` regenerates one of the paper's
experiments on its synthetic benchmark and prints the report tables.
``serve`` starts the long-running incremental alignment service
(:mod:`repro.service`): it cold-aligns the inputs once (or resumes the
newest snapshot in ``--state-dir``), then absorbs ``POST /delta``
batches via the warm-start fixpoint and answers ``GET /pair`` /
``GET /alignment`` queries from the live state.  ``--wal`` / ``--watch``
put the streaming ingestion pipeline (:mod:`repro.service.stream`) in
front of the engine: tailed NDJSON files or spool directories feed the
same admission-controlled queue as ``POST /delta``, accepted deltas are
write-ahead-logged before application, and the coalescing batcher
merges queued writes so one warm pass absorbs many of them.  ``replay``
is the matching offline recovery tool: it reapplies a WAL's
un-snapshotted suffix onto the newest snapshot and snapshots the
caught-up state.

``replica`` and ``route`` scale *reads* out (:mod:`repro.service.replica`):
a replica bootstraps from the primary's snapshot (shared state
directory, or over HTTP) and tails its WAL — the replication log — to
converge to the primary's scores; the router fans ``GET /pair`` /
``GET /alignment`` across replicas, forwards writes to the primary and
honors bounded-staleness reads (``?min_offset=`` / ``?max_lag_ms=``).
``wal compact`` reclaims sealed WAL segments a durable snapshot
already covers (the serve process also compacts automatically after
each snapshot when ``--wal-segment-bytes`` is set).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from . import __version__
from .core.aligner import align
from .core.config import ConfigError, ParisConfig
from .io.alignment_io import save_result, write_sameas_links
from .obs import get_event_logger
from .obs.logging import LOG_FORMATS, LOG_LEVELS, setup_logging
from .literals import (
    EditDistanceSimilarity,
    IdentitySimilarity,
    LiteralSimilarity,
    NormalizedIdentitySimilarity,
    tolerant_similarity,
)
from .rdf import ntriples, tsv
from .rdf.ontology import Ontology
from .rdf.stats import statistics_table

_log = get_event_logger("repro.cli")

#: Literal-similarity choices exposed on the command line.
SIMILARITIES = {
    "identity": IdentitySimilarity,
    "normalized": NormalizedIdentitySimilarity,
    "edit-distance": EditDistanceSimilarity,
    "tolerant": tolerant_similarity,
}


def load_ontology(path: str, name: Optional[str] = None) -> Ontology:
    """Load an ontology by extension (``.nt``/``.ntriples`` or ``.tsv``)."""
    file_path = Path(path)
    if not file_path.exists():
        raise SystemExit(f"error: no such file: {path}")
    suffix = file_path.suffix.lower()
    if suffix in (".nt", ".ntriples"):
        return ntriples.read_ntriples(file_path, name=name)
    if suffix == ".tsv":
        return tsv.read_tsv(file_path, name=name)
    raise SystemExit(f"error: unsupported extension {suffix!r} (use .nt or .tsv)")


def _load_pair(args: argparse.Namespace) -> tuple:
    """Load the two positional ontologies, disambiguating name collisions."""
    left = load_ontology(args.left, name=args.left_name)
    right = load_ontology(args.right, name=args.right_name)
    if left.name == right.name:
        # default stems collided; disambiguate instead of failing
        right = load_ontology(args.right, name=left.name + "-2")
    return left, right


def _build_config(args: argparse.Namespace) -> ParisConfig:
    similarity: LiteralSimilarity = SIMILARITIES[args.similarity]()
    return ParisConfig(
        theta=args.theta,
        literal_similarity=similarity,
        max_iterations=args.max_iterations,
        use_negative_evidence=args.negative_evidence,
        use_name_prior=args.name_prior,
        workers=args.workers,
    )


def cmd_align(args: argparse.Namespace) -> int:
    left, right = _load_pair(args)
    config = _build_config(args)
    _log.info("aligning", left=repr(left), right=repr(right))
    started = time.perf_counter()
    result = align(left, right, config)
    elapsed = time.perf_counter() - started
    _log.info("alignment done", seconds=round(elapsed, 1), summary=result.summary())
    out_dir = Path(args.out)
    save_result(result, out_dir)
    links = write_sameas_links(
        result.assignment12, out_dir / "sameas.nt", threshold=args.threshold
    )
    _log.info("result written", path=str(out_dir), sameas_links=links)
    if args.print_pairs:
        # Total order: probability ties sort by name, so the output does
        # not depend on store insertion order (sequential vs. sharded).
        for entity, counterpart, probability in sorted(
            result.instance_pairs(args.threshold),
            key=lambda p: (-p[2], str(p[0]), str(p[1])),
        ):
            print(f"{entity}\t{counterpart}\t{probability:.4f}")
    return 0


def _service_stats_once(base_url: str, raw: bool) -> None:
    """Fetch and print one ``/stats`` (or ``/metrics`` with ``raw``)."""
    from urllib.request import urlopen

    path = "/metrics" if raw else "/stats"
    with urlopen(base_url.rstrip("/") + path, timeout=30) as response:
        body = response.read().decode("utf-8")
    if raw:
        # Prometheus text: pass through verbatim (it is already lines).
        print(body, end="" if body.endswith("\n") else "\n")
    else:
        print(json.dumps(json.loads(body), indent=2, sort_keys=True))


def _watch_service_stats(
    base_url: str,
    raw: bool,
    interval: float,
    fetch=_service_stats_once,
    sleep=time.sleep,
    max_retry: float = 8.0,
) -> None:
    """The ``stats --watch`` loop: poll forever, riding out transient
    connection failures (a restarting primary, a dropped socket) with
    exponential backoff instead of dying on the first refused
    connection.  Only ``KeyboardInterrupt`` ends it; a healthy fetch
    resets the backoff.  ``fetch``/``sleep`` are injectable for tests.
    """
    import urllib.error

    delay = 0.5
    while True:
        try:
            fetch(base_url, raw)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as error:
            print(f"stats fetch failed ({error}); retrying in {delay:g}s")
            sleep(delay)
            delay = min(delay * 2, max_retry)
            continue
        delay = 0.5
        sleep(interval)


def cmd_stats(args: argparse.Namespace) -> int:
    is_url = [f.startswith(("http://", "https://")) for f in args.files]
    if any(is_url):
        if len(args.files) != 1:
            raise SystemExit("error: pass exactly one service URL to stats")
        if args.watch is None:
            _service_stats_once(args.files[0], raw=args.raw)
            return 0
        try:
            _watch_service_stats(args.files[0], args.raw, args.watch)
        except KeyboardInterrupt:  # pragma: no cover - interactive --watch
            pass
        return 0
    if args.watch is not None or args.raw:
        raise SystemExit("error: --watch/--raw require a service URL, not files")
    ontologies = [load_ontology(path) for path in args.files]
    print(statistics_table(ontologies))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    ontology = load_ontology(args.input)
    target = Path(args.output)
    suffix = target.suffix.lower()
    if suffix in (".nt", ".ntriples"):
        count = ntriples.write_ntriples(ontology, target)
    elif suffix == ".tsv":
        count = tsv.write_tsv(ontology, target)
    else:
        raise SystemExit(f"error: unsupported output extension {suffix!r}")
    _log.info("converted", statements=count, path=str(target))
    return 0


def cmd_multi(args: argparse.Namespace) -> int:
    from .core.multi import align_many

    if len(args.files) < 2:
        raise SystemExit("error: need at least two ontology files")
    ontologies = []
    for index, path in enumerate(args.files):
        ontology = load_ontology(path)
        if any(o.name == ontology.name for o in ontologies):
            ontology = load_ontology(path, name=f"{ontology.name}-{index}")
        ontologies.append(ontology)
    result = align_many(ontologies, _build_config(args))
    _log.info(
        "aligned ontologies",
        ontologies=len(ontologies),
        pairwise_runs=len(result.pairwise),
        clusters=len(result.clusters),
    )
    target = Path(args.out)
    with target.open("w", encoding="utf-8") as stream:
        stream.write("confidence\t" + "\t".join(o.name for o in ontologies) + "\n")
        for cluster in result.clusters:
            cells = [f"{cluster.confidence:.4f}"]
            for ontology in ontologies:
                member = cluster.members.get(ontology.name)
                cells.append(member.name if member else "-")
            stream.write("\t".join(cells) + "\n")
    _log.info("clusters written", path=str(target))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .analysis import explain_match, render_explanation
    from .rdf.terms import Resource

    left, right = _load_pair(args)
    config = _build_config(args)
    result = align(left, right, config)
    explanation = explain_match(
        left, right, result, Resource(args.entity), Resource(args.counterpart), config
    )
    print(render_explanation(explanation, limit=args.limit))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .datasets import (
        person_benchmark,
        restaurant_benchmark,
        yago_dbpedia_pair,
        yago_imdb_pair,
    )
    from .evaluation import (
        evaluate_instances,
        evaluate_relations,
        render_iteration_table,
        render_relation_alignments,
    )

    makers = {
        "person": person_benchmark,
        "restaurant": restaurant_benchmark,
        "kb": yago_dbpedia_pair,
        "movies": yago_imdb_pair,
    }
    pair = makers[args.benchmark]()
    config = ParisConfig(
        max_iterations=4,
        convergence_threshold=0.0,
        workers=args.workers,
    )
    result = align(pair.ontology1, pair.ontology2, config)
    print(render_iteration_table(result, pair.gold))
    print()
    print(render_relation_alignments(result, threshold=0.1, limit=15))
    instances = evaluate_instances(result.assignment12, pair.gold)
    relations = evaluate_relations(result.relation_pairs(), pair.gold)
    print(f"\ninstances: {instances}\nrelations: {relations}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import AlignmentService, latest_version, load_state
    from .service.server import run_server
    from .service.subs import SubscriptionManager

    from dataclasses import replace

    state_dir = Path(args.state_dir)
    resumable = state_dir.is_dir() and latest_version(state_dir) is not None
    if resumable:
        if args.left or args.right:
            _log.info(
                "resuming snapshot; ignoring ontology arguments",
                state_dir=str(state_dir),
            )
        state = load_state(state_dir)
        # Model knobs (theta, similarity, ...) are part of the snapshot
        # and must not drift under a resumed state; the runtime-only
        # worker count follows the command line, as for a cold start.
        state.config = replace(state.config, workers=args.workers)
        _log.info(
            "resumed alignment state (model settings come from the snapshot)",
            version=state.version,
        )
        service = AlignmentService.from_state(state)
    else:
        if not args.left or not args.right:
            raise SystemExit(
                "error: no snapshot to resume — pass two ontology files "
                "for the initial cold alignment"
            )
        left, right = _load_pair(args)
        config = _build_config(args)
        _log.info("cold-aligning", left=repr(left), right=repr(right))
        started = time.perf_counter()
        service = AlignmentService.cold_start(left, right, config)
        _log.info(
            "cold alignment done",
            seconds=round(time.perf_counter() - started, 1),
            instance_pairs=len(service.state.store),
        )
        service.snapshot(state_dir)
    # Attached before any WAL replay: replayed batches regenerate the
    # change log for persisted webhook subscribers, whose delivery
    # cursors (state versions) filter out what they already received.
    subs = SubscriptionManager(state_dir=state_dir)
    service.add_change_listener(subs.publish)
    subs.provenance = service.provenance
    subs.advance(service.state.version, service.state.wal_offset)
    stream = None
    if args.wal or args.watch:
        from .service.stream import (
            DeltaBatcher,
            StreamStack,
            WriteAheadLog,
            make_source,
            replay_wal,
        )

        wal = None
        if args.wal:
            wal = WriteAheadLog(
                state_dir / "wal.ndjson",
                segment_bytes=args.wal_segment_bytes,
                group_commit=args.wal_group_commit_ms / 1000.0,
            )
            # Wired before replay so replayed records land in the ring
            # (as non-live timelines) and later fsyncs stamp "durable".
            wal.provenance = service.provenance
            replayed = replay_wal(service, wal, max_batch=args.max_batch)
            if replayed:
                _log.info(
                    "replayed un-snapshotted WAL records",
                    records=replayed,
                    offset=service.state.wal_offset,
                )
        # The --snapshot-every policy is installed by build_server as
        # the batcher's on_batch_applied hook (once per applied batch).
        batcher = DeltaBatcher(
            service,
            wal=wal,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            max_lag=args.max_lag_ms / 1000.0,
        )
        sources = [make_source(batcher, path) for path in args.watch]
        for source in sources:
            _log.info("streaming deltas", source=source.source_id)
        stream = StreamStack(batcher=batcher, wal=wal, sources=sources)
    auditor = _build_auditor(args, lambda: service, role="primary")
    return run_server(
        service,
        args.host,
        args.port,
        state_dir=state_dir,
        snapshot_every=args.snapshot_every,
        stream=stream,
        subs=subs,
        auditor=auditor,
    )


def _add_audit_options(parser: argparse.ArgumentParser) -> None:
    from .service.audit import DEFAULT_INTERVAL_MS, DEFAULT_SAMPLE

    parser.add_argument("--audit-interval-ms", type=int,
                        default=DEFAULT_INTERVAL_MS,
                        help="background correctness-audit interval: every "
                             "interval, sample pairs are cold-recomputed "
                             "against the resident store and the state "
                             "digest is periodically re-derived in full "
                             f"(default {DEFAULT_INTERVAL_MS}; 0 disables)")
    parser.add_argument("--audit-sample", type=int, default=DEFAULT_SAMPLE,
                        help="matched pairs cold-verified per audit cycle "
                             f"(default {DEFAULT_SAMPLE})")


def _build_auditor(args: argparse.Namespace, get_service, role: str):
    """The background correctness auditor behind --audit-interval-ms
    (0 disables it)."""
    if args.audit_interval_ms <= 0:
        return None
    from .service.audit import StateAuditor

    return StateAuditor(
        get_service,
        interval_ms=args.audit_interval_ms,
        sample=args.audit_sample,
        role=role,
    )


def cmd_replay(args: argparse.Namespace) -> int:
    from .service import AlignmentService, load_state
    from .service.stream import WriteAheadLog, replay_wal

    state = load_state(args.state_dir)
    service = AlignmentService.from_state(state)
    wal = WriteAheadLog(args.wal, read_only=True)
    before = state.wal_offset
    _log.info(
        "replay starting",
        version=state.version,
        snapshot_offset=before,
        wal_records=wal.offset,
    )
    replayed = replay_wal(service, wal, max_batch=args.max_batch)
    if replayed:
        _log.info(
            "replayed records",
            records=replayed,
            first_offset=before + 1,
            last_offset=service.state.wal_offset,
        )
    else:
        _log.info("nothing to replay: snapshot already covers the log")
    if replayed and not args.no_snapshot:
        path = service.snapshot(args.state_dir)
        _log.info("caught-up state saved", path=str(path))
    return 0


def cmd_replica(args: argparse.Namespace) -> int:
    from .service.replica import ReplicaNode
    from .service.server import build_server

    replica = ReplicaNode(
        args.source,
        state_dir=args.state_dir,
        poll_interval=args.poll_ms / 1000.0,
        batch=args.replica_batch,
        snapshot_every=args.snapshot_every,
        config_overrides={"workers": args.workers},
    )
    _log.info(
        "replica bootstrapped",
        offset=replica.applied_offset,
        source=replica.follower.source_id,
    )
    # The auditor resolves the engine through the node per check, so
    # one auditor survives re-bootstraps (like the provenance ring).
    auditor = _build_auditor(args, lambda: replica.service, role="replica")
    replica.auditor = auditor
    server = build_server(
        None,
        args.host,
        args.port,
        state_dir=args.state_dir,
        replica=replica,
        auditor=auditor,
    )
    from .service.server import serve_until_signalled

    actual_host, actual_port = server.server_address[:2]
    _log.info("serving read replica", url=f"http://{actual_host}:{actual_port}")
    replica.start()
    if auditor is not None:
        auditor.start()
    try:
        serve_until_signalled(server)
    finally:
        if auditor is not None:
            auditor.stop()
        replica.stop()
        try:
            path = replica.snapshot()
        except RuntimeError as error:
            # Poisoned engine: leave the last good snapshot in place.
            _log.warning("not snapshotting replica state", error=str(error))
            path = None
        if path is not None:
            _log.info("replica state saved", path=str(path))
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    from .service.replica import ReadRouter, build_router_server

    router = ReadRouter(
        args.primary,
        args.replica,
        check_interval=args.check_interval_ms / 1000.0,
        retry_after=args.retry_after,
    )
    server = build_router_server(router, args.host, args.port)
    from .service.server import serve_until_signalled

    actual_host, actual_port = server.server_address[:2]
    _log.info(
        "routing reads",
        replicas=len(args.replica),
        primary=args.primary,
        url=f"http://{actual_host}:{actual_port}",
    )
    router.start()
    try:
        serve_until_signalled(server)
    finally:
        router.stop()
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Long-poll ``GET /watch`` and print one JSON line per collapsed
    notification; the served version is carried forward as the cursor,
    so no change is skipped between polls."""
    from urllib.parse import urlencode
    from urllib.request import urlopen

    base = args.url.rstrip("/")
    after = args.after
    delivered = 0
    try:
        while True:
            params = {
                "entity": args.entity,
                "epsilon": args.epsilon,
                "timeout": args.timeout,
            }
            if after is not None:
                params["after"] = after
            url = base + "/watch?" + urlencode(params)
            with urlopen(url, timeout=args.timeout + 30.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            after = payload.get("version", after)
            if payload.get("timeout"):
                continue
            print(json.dumps(payload, sort_keys=True), flush=True)
            delivered += 1
            if args.count and delivered >= args.count:
                return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _fetch_provenance(base_url: str, trace: str, timeout: float) -> Optional[dict]:
    """``GET /provenance?trace=`` from one node.

    Returns the decoded payload — a 404 carries ``{"found": false}``,
    which callers treat as a miss, not an error — or ``None`` when the
    node is unreachable or answers garbage, so a dead replica degrades
    the merged timeline instead of killing the whole trace."""
    from urllib.error import HTTPError, URLError
    from urllib.parse import urlencode
    from urllib.request import urlopen

    url = base_url.rstrip("/") + "/provenance?" + urlencode({"trace": trace})
    try:
        with urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except HTTPError as error:
        try:
            return json.loads(error.read().decode("utf-8"))
        except (ValueError, OSError):
            return None
    except (URLError, OSError, ValueError):
        return None


def _merge_timelines(nodes: List[dict]) -> List[dict]:
    """Fold per-node ``/provenance`` payloads into one stage timeline.

    Primary-origin stages (ingest/enqueue/durable/applied) are stamped
    once on the primary and *shipped* to replicas inside the WAL
    records, so every node reports the same values; we keep a single
    row, preferring the primary's own copy when it answered.  The
    per-node stages — ``replica_applied`` and ``notified`` — keep one
    row per node that reported them."""
    from .obs.provenance import STAGES

    per_node_stages = ("replica_applied", "notified")
    shared: dict = {}
    rows: List[dict] = []
    for node in nodes:
        url = node["url"]
        payload = node["payload"]
        role = payload.get("role", "?")
        timeline = payload.get("timeline") or {}
        for stage, ts in timeline.items():
            if ts is None:
                continue
            row = {"ts": float(ts), "stage": stage, "role": role, "node": url}
            if stage in per_node_stages:
                rows.append(row)
            else:
                kept = shared.get(stage)
                if kept is None or (role == "primary" and kept["role"] != "primary"):
                    shared[stage] = row
    rows.extend(shared.values())
    order = {stage: index for index, stage in enumerate(STAGES)}
    rows.sort(key=lambda row: (row["ts"], order.get(row["stage"], len(order))))
    return rows


def cmd_trace(args: argparse.Namespace) -> int:
    """Fan ``GET /provenance?trace=`` across the fleet and print one
    merged, time-sorted stage timeline for the delta."""
    targets = [args.url] + list(args.replicas)
    nodes = []
    for url in targets:
        payload = _fetch_provenance(url, args.trace_id, args.timeout)
        if payload is None:
            _log.warning("node unreachable", url=url)
            continue
        if payload.get("found"):
            nodes.append({"url": url, "payload": payload})
    if not nodes:
        print(
            f"trace {args.trace_id}: not found on any of "
            f"{len(targets)} node(s)"
        )
        return 1

    rows = _merge_timelines(nodes)
    first = nodes[0]["payload"]
    merged = next(
        (
            node["payload"]["merged_traces"]
            for node in nodes
            if node["payload"].get("merged_traces")
        ),
        [],
    )
    if args.json:
        print(
            json.dumps(
                {
                    "trace": args.trace_id,
                    "offset": first.get("offset"),
                    "source": first.get("source"),
                    "merged_traces": merged,
                    "timeline": rows,
                    "nodes": nodes,
                },
                sort_keys=True,
            )
        )
        return 0

    header = f"trace {args.trace_id}"
    if first.get("offset") is not None:
        header += f"  offset={first['offset']}"
    if first.get("source"):
        header += f"  source={first['source']}"
    if first.get("replayed"):
        header += "  (replayed)"
    print(header)
    if merged:
        others = [trace for trace in merged if trace != args.trace_id]
        if others:
            print(f"  coalesced with {len(others)} other delta(s): "
                  + ", ".join(others))
    if not rows:
        print("  (no stage timestamps recorded)")
        return 0
    start = rows[0]["ts"]
    for row in rows:
        stamp = time.strftime("%H:%M:%S", time.localtime(row["ts"]))
        stamp += f".{int(row['ts'] * 1000) % 1000:03d}"
        delta_ms = (row["ts"] - start) * 1000.0
        print(
            f"  {row['stage']:<16} {stamp}  +{delta_ms:9.1f}ms"
            f"  {row['role']:<8} {row['node']}"
        )
    return 0


def _get_json(url: str, timeout: float) -> Tuple[int, Optional[dict]]:
    """One GET returning ``(status, decoded-payload)``; status 0 means
    the node was unreachable (payload None)."""
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except HTTPError as error:
        try:
            return error.code, json.loads(error.read().decode("utf-8"))
        except (ValueError, OSError):
            return error.code, None
    except (URLError, OSError, ValueError):
        return 0, None


def _range_digests(
    primary_url: str, node_url: str, lo: str, hi: Optional[str], timeout: float
) -> Optional[Tuple[dict, dict]]:
    """Both nodes' sub-digest of the left-entity name range [lo, hi]."""
    from urllib.parse import urlencode

    params = {"lo": lo}
    if hi is not None:
        params["hi"] = hi
    query = "/digest?" + urlencode(params)
    status_p, payload_p = _get_json(primary_url + query, timeout)
    status_n, payload_n = _get_json(node_url + query, timeout)
    if status_p != 200 or status_n != 200:
        return None
    return payload_p["range"], payload_n["range"]


def _first_divergent_pair(
    primary_url: str, node_url: str, timeout: float
) -> Optional[dict]:
    """Binary-search the first divergent pair between two nodes.

    Each probe compares one entity-range sub-digest (``GET
    /digest?lo=&hi=``) on both nodes and descends into the half that
    disagrees, until a single left entity remains; then both nodes'
    views of that entity's best counterpart are fetched for the
    report.  O(log pairs) round trips."""
    from urllib.parse import urlencode

    lo: str = ""  # "" sorts before every (non-empty) name: unbounded
    hi: Optional[str] = None
    for _ in range(64):  # 2^64 names is not a real corpus
        ranges = _range_digests(primary_url, node_url, lo, hi, timeout)
        if ranges is None:
            return None
        primary_range, node_range = ranges
        if primary_range["digest"] == node_range["digest"]:
            return None  # the divergence was elsewhere (or healed)
        if max(primary_range["count"], node_range["count"]) <= 1:
            entity = primary_range.get("min") or node_range.get("min")
            break
        mid = primary_range.get("mid") or node_range.get("mid")
        left_half = _range_digests(primary_url, node_url, lo, mid, timeout)
        if left_half is None:
            return None
        if left_half[0]["digest"] != left_half[1]["digest"]:
            hi = mid
        else:
            # The halves are [lo, mid] and (mid, hi]: the smallest
            # string greater than mid opens the right half.
            lo = mid + "\x00"
    else:
        return None
    if entity is None:
        return None
    detail: dict = {"left": entity}
    query = "/alignment?" + urlencode({"entity": entity})
    for key, url in (("primary", primary_url), ("node", node_url)):
        status, payload = _get_json(url + query, timeout)
        if status == 200 and payload is not None:
            detail[key] = payload.get("best_counterpart_as_left")
    return detail


def cmd_doctor(args: argparse.Namespace) -> int:
    """Fleet correctness verdict: quiesce at a common durable offset,
    fan ``GET /digest`` across primary + replicas, compare offset-keyed
    digests, and localize any split to its first divergent pair."""
    primary_url = args.url.rstrip("/")
    replica_urls = [url.rstrip("/") for url in args.replicas]
    deadline = time.monotonic() + args.timeout

    # --- quiesce: primary drains its ingest queue ---------------------
    target_offset = None
    while time.monotonic() < deadline:
        status, stats = _get_json(primary_url + "/stats", args.timeout)
        if status == 200 and stats is not None:
            applied = int(stats.get("wal_offset", 0))
            appended = int(stats.get("ingest", {}).get("wal_appended", applied))
            if applied >= appended:
                target_offset = applied
                break
        time.sleep(0.2)
    if target_offset is None:
        print(f"doctor: primary {primary_url} unreachable or never quiesced")
        return 1

    # --- quiesce: replicas reach the primary's offset -----------------
    node_stats: dict = {}
    for url in replica_urls:
        while time.monotonic() < deadline:
            status, stats = _get_json(url + "/stats", args.timeout)
            if status == 200 and stats is not None:
                node_stats[url] = stats
                if int(stats.get("wal_offset", -1)) >= target_offset:
                    break
            time.sleep(0.2)

    # --- digests, offset-keyed ----------------------------------------
    status, primary_digest = _get_json(
        primary_url + "/digest?verify=1", args.timeout
    )
    if status != 200 or primary_digest is None:
        print(f"doctor: GET /digest failed on primary {primary_url}")
        return 1
    nodes = [
        {
            "url": primary_url,
            "role": "primary",
            "wal_offset": primary_digest["wal_offset"],
            "digest": primary_digest["digest"],
            "verified": primary_digest.get("verified"),
            "match": primary_digest.get("verified", True),
        }
    ]
    for url in replica_urls:
        node: dict = {"url": url, "role": "replica"}
        status, payload = _get_json(url + "/digest?verify=1", args.timeout)
        if status != 200 or payload is None:
            node.update(match=None, error=f"GET /digest failed (http {status})")
            nodes.append(node)
            continue
        node["wal_offset"] = payload["wal_offset"]
        node["digest"] = payload["digest"]
        node["verified"] = payload.get("verified")
        if payload["wal_offset"] == primary_digest["wal_offset"]:
            reference = primary_digest["digest"]
        else:
            # Compare at the replica's own offset via the primary's
            # checkpoint history; 409 = aged out -> verdict unknown.
            status, at = _get_json(
                primary_url + f"/digest?offset={payload['wal_offset']}",
                args.timeout,
            )
            if status != 200 or at is None:
                node.update(match=None, error="common offset aged out of history")
                nodes.append(node)
                continue
            reference = at.get("at_offset", at)["digest"]
        node["match"] = payload["digest"] == reference
        if node["match"] is False or node["verified"] is False:
            node["first_divergent_pair"] = _first_divergent_pair(
                primary_url, url, args.timeout
            )
        nodes.append(node)

    # --- audit counters + lag from /stats -----------------------------
    node_stats[primary_url] = _get_json(primary_url + "/stats", args.timeout)[1] or {}
    for node in nodes:
        stats = node_stats.get(node["url"]) or {}
        audit = stats.get("audit")
        if isinstance(audit, dict):
            node["audit_checks"] = audit.get("checks")
            node["audit_mismatches"] = audit.get("mismatches")
        replication = stats.get("replication")
        if isinstance(replication, dict):
            node["lag_ms"] = replication.get("lag_ms")

    def _verdict(node: dict) -> str:
        if node.get("match") is None:
            return "unknown"
        if (
            node["match"] is False
            or node.get("verified") is False
            or (node.get("audit_mismatches") or 0) > 0
        ):
            return "DIVERGED"
        return "ok"

    for node in nodes:
        node["verdict"] = _verdict(node)
    healthy = all(node["verdict"] == "ok" for node in nodes)

    if args.json:
        print(
            json.dumps(
                {
                    "target_offset": target_offset,
                    "consistent": healthy,
                    "nodes": nodes,
                },
                sort_keys=True,
            )
        )
        return 0 if healthy else 1

    print(f"fleet digest comparison at wal offset {target_offset}")
    header = (
        f"{'node':<28} {'role':<8} {'offset':>6} {'digest':<16} "
        f"{'lag_ms':>8} {'checks':>6} {'mism':>4}  verdict"
    )
    print(header)
    print("-" * len(header))
    for node in nodes:
        lag = node.get("lag_ms")
        print(
            f"{node['url']:<28} {node['role']:<8} "
            f"{node.get('wal_offset', '?'):>6} {node.get('digest', '?'):<16} "
            f"{(f'{lag:.1f}' if isinstance(lag, (int, float)) else '-'):>8} "
            f"{node.get('audit_checks', '-')!s:>6} "
            f"{node.get('audit_mismatches', '-')!s:>4}  {node['verdict']}"
        )
        if node.get("error"):
            print(f"  error: {node['error']}")
        pair = node.get("first_divergent_pair")
        if pair:
            print(f"  first divergent pair: left={pair['left']}")
            for side in ("primary", "node"):
                best = pair.get(side)
                if best:
                    print(
                        f"    {side}: ({pair['left']}, {best['right']}) "
                        f"p={best['probability']:.9f}"
                    )
                else:
                    print(f"    {side}: no counterpart")
    print("verdict:", "fleet consistent" if healthy else "DIVERGENCE DETECTED")
    return 0 if healthy else 1


def cmd_wal_compact(args: argparse.Namespace) -> int:
    from .service import latest_version, load_state
    from .service.stream import WriteAheadLog

    state_dir = Path(args.state_dir)
    version = latest_version(state_dir)
    if version is None:
        raise SystemExit(f"error: no snapshot under {state_dir} to compact against")
    covered = load_state(state_dir, version).wal_offset
    wal_path = Path(args.wal) if args.wal else state_dir / "wal.ndjson"
    # Read-only: compaction only unlinks covered sealed segments, and a
    # writer-mode open here would truncate a live primary's in-flight
    # tail and republish its durable marker — never safe from outside.
    wal = WriteAheadLog(wal_path, read_only=True)
    before = wal.size_bytes()
    reclaimed, deleted = wal.compact(covered)
    wal.close()
    _log.info(
        "compacted WAL",
        snapshot_version=version,
        covered_offset=covered,
        deleted_segments=len(deleted),
        reclaimed_bytes=reclaimed,
        bytes_before=before,
        bytes_after=wal.size_bytes(),
    )
    return 0


def add_workers_option(subparser: argparse.ArgumentParser) -> None:
    """``--workers``: processes for every pass (scores never depend on it)."""
    subparser.add_argument("--workers", type=int, default=1,
                           help="worker processes per pass (default 1: sequential)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARIS (VLDB 2011) ontology alignment — Python reproduction",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--log-level", choices=list(LOG_LEVELS), default="info",
                        help="minimum level for diagnostic output on stderr "
                             "(debug also emits one line per fixpoint-pass "
                             "span; default info)")
    parser.add_argument("--log-format", choices=list(LOG_FORMATS), default="text",
                        help="stderr log line format; json emits one JSON "
                             "object per line and no bare text (default text)")
    commands = parser.add_subparsers(dest="command", required=True)

    align_parser = commands.add_parser("align", help="align two ontologies")
    align_parser.add_argument("left", help="left ontology (.nt or .tsv)")
    align_parser.add_argument("right", help="right ontology (.nt or .tsv)")
    align_parser.add_argument("--out", default="alignment", help="output directory")
    align_parser.add_argument("--left-name", default=None)
    align_parser.add_argument("--right-name", default=None)
    align_parser.add_argument("--theta", type=float, default=0.1,
                              help="bootstrap/truncation value (default 0.1)")
    align_parser.add_argument("--max-iterations", type=int, default=10)
    align_parser.add_argument("--threshold", type=float, default=0.0,
                              help="minimum probability for exported links")
    align_parser.add_argument("--similarity", choices=sorted(SIMILARITIES),
                              default="identity",
                              help="literal similarity (default: identity)")
    align_parser.add_argument("--negative-evidence", action="store_true",
                              help="use Eq. 14 instead of Eq. 13")
    align_parser.add_argument("--name-prior", action="store_true",
                              help="seed relation priors from relation names")
    align_parser.add_argument("--print-pairs", action="store_true",
                              help="print matched instance pairs to stdout")
    add_workers_option(align_parser)
    align_parser.set_defaults(handler=cmd_align)

    def add_model_options(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--theta", type=float, default=0.1)
        subparser.add_argument("--max-iterations", type=int, default=10)
        subparser.add_argument("--similarity", choices=sorted(SIMILARITIES),
                               default="identity")
        subparser.add_argument("--negative-evidence", action="store_true")
        subparser.add_argument("--name-prior", action="store_true")
        add_workers_option(subparser)

    multi_parser = commands.add_parser(
        "multi", help="align three or more ontologies into entity clusters"
    )
    multi_parser.add_argument("files", nargs="+")
    multi_parser.add_argument("--out", default="clusters.tsv",
                              help="output TSV of entity clusters")
    add_model_options(multi_parser)
    multi_parser.set_defaults(handler=cmd_multi)

    explain_parser = commands.add_parser(
        "explain", help="show the evidence behind one instance match"
    )
    explain_parser.add_argument("left")
    explain_parser.add_argument("right")
    explain_parser.add_argument("entity", help="instance name in the left ontology")
    explain_parser.add_argument("counterpart",
                                help="instance name in the right ontology")
    explain_parser.add_argument("--left-name", default=None)
    explain_parser.add_argument("--right-name", default=None)
    explain_parser.add_argument("--limit", type=int, default=8,
                                help="max evidence items to print")
    add_model_options(explain_parser)
    explain_parser.set_defaults(handler=cmd_explain)

    stats_parser = commands.add_parser(
        "stats",
        help="print ontology statistics, or a running service's /stats "
             "(pass its base URL instead of files)",
    )
    stats_parser.add_argument("files", nargs="+", metavar="FILE_OR_URL",
                              help="ontology files, or exactly one http(s):// "
                                   "base URL of a serve/replica/route process")
    stats_parser.add_argument("--watch", type=float, default=None, metavar="SECS",
                              help="with a URL: refetch and reprint every "
                                   "SECS seconds until interrupted")
    stats_parser.add_argument("--raw", action="store_true",
                              help="with a URL: print GET /metrics "
                                   "(Prometheus text) instead of /stats JSON")
    stats_parser.set_defaults(handler=cmd_stats)

    convert_parser = commands.add_parser("convert", help="convert .nt <-> .tsv")
    convert_parser.add_argument("input")
    convert_parser.add_argument("output")
    convert_parser.set_defaults(handler=cmd_convert)

    demo_parser = commands.add_parser("demo", help="run a paper benchmark")
    demo_parser.add_argument("benchmark",
                             choices=["person", "restaurant", "kb", "movies"])
    add_workers_option(demo_parser)
    demo_parser.set_defaults(handler=cmd_demo)

    serve_parser = commands.add_parser(
        "serve", help="run the long-running incremental alignment service"
    )
    serve_parser.add_argument("left", nargs="?", default=None,
                              help="left ontology for the initial cold run "
                                   "(omit to resume a snapshot)")
    serve_parser.add_argument("right", nargs="?", default=None,
                              help="right ontology for the initial cold run")
    serve_parser.add_argument("--state-dir", required=True,
                              help="directory for versioned state snapshots")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="listen port (0 binds an ephemeral port)")
    serve_parser.add_argument("--snapshot-every", type=int, default=1,
                              help="snapshot state after every Nth delta "
                                   "(0: only on shutdown or POST /snapshot; "
                                   "the natural choice with --wal)")
    serve_parser.add_argument("--left-name", default=None)
    serve_parser.add_argument("--right-name", default=None)
    serve_parser.add_argument("--watch", action="append", default=[],
                              metavar="PATH",
                              help="stream deltas from PATH into the ingest "
                                   "queue: an existing directory is treated "
                                   "as a spool of NDJSON files, anything "
                                   "else is tailed as an append-only NDJSON "
                                   "file (may not exist yet); repeatable")
    serve_parser.add_argument("--wal", action="store_true",
                              help="write-ahead-log every accepted delta to "
                                   "STATE_DIR/wal.ndjson (fsync'd before "
                                   "application) and replay the "
                                   "un-snapshotted suffix on startup")
    serve_parser.add_argument("--max-batch", type=int, default=32,
                              help="most queued deltas the batcher coalesces "
                                   "into one warm pass (default 32)")
    serve_parser.add_argument("--max-lag-ms", type=float, default=50.0,
                              help="longest a queued delta waits before its "
                                   "batch is flushed regardless of size "
                                   "(default 50)")
    serve_parser.add_argument("--max-queue", type=int, default=256,
                              help="admission bound: deltas beyond this many "
                                   "queued are rejected with 429 + "
                                   "Retry-After (default 256)")
    serve_parser.add_argument("--wal-segment-bytes", type=int,
                              default=16 * 1024 * 1024,
                              help="rotate the WAL into sealed segment files "
                                   "once the active one holds this many bytes "
                                   "(default 16 MiB; 0: never rotate); "
                                   "enables automatic compaction of "
                                   "snapshot-covered segments and bounds "
                                   "what replicas re-read per poll")
    serve_parser.add_argument("--wal-group-commit-ms", type=float, default=0.0,
                              help="group-commit window: an fsync leader "
                                   "waits this long for concurrent writers "
                                   "to join its fsync (0: sync immediately; "
                                   "per-delta ack-after-fsync is preserved "
                                   "either way)")
    _add_audit_options(serve_parser)
    add_model_options(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    replica_parser = commands.add_parser(
        "replica",
        help="run a read replica: bootstrap from the primary's snapshot, "
             "tail its WAL, serve GET /pair and GET /alignment",
    )
    replica_parser.add_argument("source",
                                help="the primary: an http(s):// base URL "
                                     "(log shipping via GET /wal) or its "
                                     "state directory on shared storage")
    replica_parser.add_argument("--state-dir", default=None,
                                help="the replica's OWN snapshot directory "
                                     "(crash resume; never the primary's)")
    replica_parser.add_argument("--host", default="127.0.0.1")
    replica_parser.add_argument("--port", type=int, default=8766,
                                help="listen port (0 binds an ephemeral port)")
    replica_parser.add_argument("--poll-ms", type=float, default=50.0,
                                help="WAL tail poll interval (default 50)")
    replica_parser.add_argument("--replica-batch", type=int, default=256,
                                help="most WAL records coalesced into one "
                                     "warm pass per poll (default 256)")
    replica_parser.add_argument("--snapshot-every", type=int, default=0,
                                help="snapshot the replica's own state every "
                                     "Nth applied batch (0: only on shutdown; "
                                     "needs --state-dir)")
    _add_audit_options(replica_parser)
    add_workers_option(replica_parser)
    replica_parser.set_defaults(handler=cmd_replica)

    route_parser = commands.add_parser(
        "route",
        help="run the read router: fan reads across replicas, forward "
             "writes to the primary, honor bounded-staleness reads",
    )
    route_parser.add_argument("--primary", required=True,
                              help="the primary's base URL (all writes go here)")
    route_parser.add_argument("--replica", action="append", default=[],
                              metavar="URL",
                              help="a read replica's base URL; repeatable "
                                   "(none: all reads fall back to the primary)")
    route_parser.add_argument("--host", default="127.0.0.1")
    route_parser.add_argument("--port", type=int, default=8800,
                              help="listen port (0 binds an ephemeral port)")
    route_parser.add_argument("--check-interval-ms", type=float, default=1000.0,
                              help="health/offset probe interval (default 1000)")
    route_parser.add_argument("--retry-after", type=float, default=1.0,
                              help="Retry-After seconds on 503 when no "
                                   "replica satisfies a staleness bound")
    route_parser.set_defaults(handler=cmd_route)

    watch_parser = commands.add_parser(
        "watch",
        help="long-poll a serving process for changes to one entity's "
             "alignments (GET /watch) and print one JSON line per "
             "collapsed notification",
    )
    watch_parser.add_argument("url",
                              help="base URL of a serve/replica/route process")
    watch_parser.add_argument("--entity", required=True,
                              help="entity name to watch, either ontology")
    watch_parser.add_argument("--epsilon", type=float, default=0.0,
                              help="only notify when the net score movement "
                                   "exceeds this (counterpart changes always "
                                   "notify; default 0)")
    watch_parser.add_argument("--after", type=int, default=None,
                              help="resume cursor: only changes past this "
                                   "state version (default: from now)")
    watch_parser.add_argument("--timeout", type=float, default=25.0,
                              help="seconds each long-poll parks server-side "
                                   "before re-polling (default 25)")
    watch_parser.add_argument("--count", type=int, default=0,
                              help="exit after this many notifications "
                                   "(default 0: run until interrupted)")
    watch_parser.set_defaults(handler=cmd_watch)

    trace_parser = commands.add_parser(
        "trace",
        help="reconstruct one delta's end-to-end stage timeline "
             "(ingest -> durable -> applied -> replica_applied -> "
             "notified) from the fleet's GET /provenance endpoints",
    )
    trace_parser.add_argument("url", help="primary base URL")
    trace_parser.add_argument("trace_id",
                              help="X-Request-Id / trace id of the delta")
    trace_parser.add_argument("--replicas", action="append", default=[],
                              metavar="URL",
                              help="also query this replica (repeatable)")
    trace_parser.add_argument("--timeout", type=float, default=10.0,
                              help="per-node HTTP timeout in seconds")
    trace_parser.add_argument("--json", action="store_true",
                              help="print the merged timeline as JSON")
    trace_parser.set_defaults(handler=cmd_trace)

    doctor_parser = commands.add_parser(
        "doctor",
        help="fleet correctness verdict: quiesce at a common WAL offset, "
             "compare offset-keyed state digests (GET /digest) across "
             "primary + replicas, and name the first divergent pair",
    )
    doctor_parser.add_argument("url", help="primary base URL")
    doctor_parser.add_argument("--replicas", action="append", default=[],
                               metavar="URL",
                               help="also audit this replica (repeatable)")
    doctor_parser.add_argument("--timeout", type=float, default=30.0,
                               help="seconds to wait for the fleet to "
                                    "quiesce at a common offset (also the "
                                    "per-request HTTP timeout)")
    doctor_parser.add_argument("--json", action="store_true",
                               help="print the verdict as JSON")
    doctor_parser.set_defaults(handler=cmd_doctor)

    wal_parser = commands.add_parser(
        "wal", help="write-ahead-log maintenance (see: repro wal compact -h)"
    )
    wal_commands = wal_parser.add_subparsers(dest="wal_command", required=True)
    compact_parser = wal_commands.add_parser(
        "compact",
        help="delete sealed WAL segments the newest snapshot covers "
             "(run against a stopped primary; a live serve process "
             "compacts automatically after each snapshot)",
    )
    compact_parser.add_argument("--state-dir", required=True,
                                help="state directory holding snapshots "
                                     "and the WAL")
    compact_parser.add_argument("--wal", default=None,
                                help="active WAL segment path (default: "
                                     "STATE_DIR/wal.ndjson)")
    compact_parser.set_defaults(handler=cmd_wal_compact)

    replay_parser = commands.add_parser(
        "replay",
        help="offline recovery: reapply a serve WAL's un-snapshotted "
             "suffix onto the newest snapshot",
    )
    replay_parser.add_argument("wal", help="WAL file written by serve --wal")
    replay_parser.add_argument("--state-dir", required=True,
                               help="state directory holding the snapshots")
    replay_parser.add_argument("--max-batch", type=int, default=256,
                               help="records coalesced per replayed batch")
    replay_parser.add_argument("--no-snapshot", action="store_true",
                               help="do not snapshot the caught-up state")
    replay_parser.set_defaults(handler=cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(level=args.log_level, log_format=args.log_format)
    try:
        return args.handler(args)
    except ConfigError as error:
        # An out-of-range flag value is a usage error, not a crash.
        print(f"{parser.prog} {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
