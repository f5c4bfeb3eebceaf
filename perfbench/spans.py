"""Span recording from outside the program.

The traced run times calls into the program's modules without editing
them: :func:`patch` replaces a function at the attribute its caller
resolves (``repro.core.aligner.parallel_subrelation_pass``, a class's
method, ...) with a wrapper that records a span.  Every span carries a
name, start, end (``time.perf_counter``, which is ``CLOCK_MONOTONIC``
on Linux and so comparable across the processes of one machine), the
id of the enclosing span on the same thread, and a request id: the
``X-Request-Id`` of the HTTP request being handled, inherited by the
spans nested below the handler, so the load generator's timings can be
joined with every role's spans.

Spans stay in memory and are written out once, when the process ends
(:meth:`Recorder.dump`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One span: (name, id, parent id, start, end, request id, extra).
Span = Tuple[str, int, Optional[int], float, float, Optional[str], Optional[dict]]


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Tuple[Optional[int], Optional[str]]:
        """(span id, request id) of the innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def wrap(
        self,
        name: str,
        function: Callable,
        note: Optional[Callable] = None,
        per_connection: bool = False,
    ) -> Callable:
        """``function`` recording a span per call.

        ``note(args, result)`` may return a dict stored with the span
        (a work count, a size); it runs after the timed interval.  A
        method of a request handler takes the handler's current
        ``request_id``; ``per_connection`` marks one that runs before
        the request is parsed, when the handler still holds the id of
        the previous request on its keep-alive connection, so it takes
        the id when it returns instead.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent, rid = stack[-1] if stack else (None, None)
            if per_connection:
                rid = None
            elif args:
                rid = getattr(args[0], "request_id", None) or rid
            span_id = next(recorder._ids)
            stack.append((span_id, rid))
            result = None
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                if per_connection:
                    rid = getattr(args[0], "request_id", None)
                extra = None
                if note is not None:
                    try:
                        extra = note(args, result)
                    except Exception as error:  # noqa: BLE001 - never break the role
                        extra = {"note_error": repr(error)}
                recorder.spans.append((name, span_id, parent, started, ended, rid, extra))

        return wrapper

    def event(self, name: str, started: float, ended: float, **extra) -> None:
        """A leaf interval measured by the caller (a lock wait)."""
        parent, rid = self.current()
        self.spans.append((name, next(self._ids), parent, started, ended, rid, extra or None))

    def dump(self, path: str) -> None:
        payload = {"pid": os.getpid(), "spans": self.spans}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


class TimedLock:
    """Stands in for an engine's ``RLock``: records how long each
    outermost acquire waited (``engine.lock_wait``) and how long the
    lock was then held (``engine.lock_hold``)."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self._local = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        started = time.perf_counter()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            depth = getattr(self._local, "depth", 0)
            if depth == 0:
                now = time.perf_counter()
                self._recorder.event("engine.lock_wait", started, now)
                self._local.held_since = now
            self._local.depth = depth + 1
        return acquired

    def release(self) -> None:
        depth = self._local.depth - 1
        self._local.depth = depth
        if depth == 0:
            self._recorder.event("engine.lock_hold", self._local.held_since, time.perf_counter())
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()


def _resolve(path: str):
    """(owner, attribute) for a dotted path such as
    ``repro.core.aligner.ParisAligner._instance_pass``."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:-1]:
            owner = getattr(owner, attribute)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {path}")


def patch(recorder: Recorder, path: str, name: str, note: Optional[Callable] = None) -> None:
    """Wrap the callable at ``path`` in place, keeping class methods
    class methods."""
    owner, attribute = _resolve(path)
    per_connection = attribute == "handle_one_request"
    raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(recorder.wrap(name, raw.__func__, note)))
    else:
        wrapped = recorder.wrap(name, getattr(owner, attribute), note, per_connection)
        setattr(owner, attribute, wrapped)


def _returned_count(_args, result) -> dict:
    return {"count": result}


def _returned_value(_args, result) -> dict:
    return {"value": result}


def _snapshot_size(_args, result) -> dict:
    return {"bytes": os.path.getsize(result)}


def _route(args, _result) -> dict:
    return {"route": "/" + args[0].path.split("?", 1)[0].split("/")[1]}


def _batch_traces(args, _result) -> dict:
    return {"traces": [pending.trace for pending in args[1]]}


#: Boundaries of the cold fixpoint (``cold_align``), as the aligner
#: resolves them.
CORE_SPANS = (
    ("repro.rdf.ntriples.read_ntriples", "rdf.parse"),
    ("repro.core.aligner.ParisAligner._instance_pass", "core.instance_pass"),
    ("repro.core.aligner.parallel_subrelation_pass", "core.relation_pass"),
    ("repro.core.aligner.subclass_pass", "core.class_pass"),
    ("repro.core.store.EquivalenceStore.restricted_to_maximal", "core.view"),
    ("repro.core.vectorized.VectorizedKernel.__init__", "core.kernel_build"),
    ("repro.core.vectorized.VectorizedKernel.prepare_pass", "core.kernel_prepare"),
    ("repro.core.vectorized.VectorizedKernel.score_ids", "core.kernel_score"),
    ("repro.core.vectorized.VectorizedKernel.entries_for", "core.kernel_entries"),
    ("repro.core.store.EquivalenceStore.update", "core.store_update"),
    ("repro.core.result.IterationSnapshot.capture", "core.snapshot_capture"),
    ("repro.core.result.assignment_delta", "core.assignment_diff"),
)

#: Boundaries of the serving roles (primary, replica, router).
SERVICE_SPANS = (
    ("repro.core.aligner.ParisAligner.warm_align", "core.warm_align", None),
    ("repro.core.result.IterationSnapshot.capture", "core.snapshot_capture", None),
    # The batch's net change log: merged from the snapshots' deltas
    # (which ``capture`` diffs), or diffed whole when none were kept.
    ("repro.core.result.assignment_delta", "core.assignment_diff", None),
    ("repro.core.result.AlignmentResult.net_assignment_changes", "core.assignment_diff", None),
    ("repro.service.engine.assignment_delta", "core.assignment_diff", None),
    ("repro.service.engine.AlignmentService.apply_delta", "engine.apply", None),
    ("repro.service.engine.AlignmentService.pair", "query.read", None),
    ("repro.service.engine.AlignmentService.neighborhood", "query.read", None),
    ("repro.service.query.QueryIndex.page", "query.read", None),
    ("repro.service.query.QueryIndex.top", "query.read", None),
    ("repro.service.query.QueryIndex.apply_changes", "query.apply_changes", None),
    ("repro.service.subs.SubscriptionManager.publish", "subs.publish", None),
    ("repro.service.stream.batcher.DeltaBatcher.submit", "batcher.submit", None),
    ("repro.service.stream.batcher.DeltaBatcher._apply", "batcher.apply", _batch_traces),
    ("repro.service.stream.wal.WriteAheadLog.append", "wal.append", None),
    ("repro.service.stream.wal.WriteAheadLog.sync", "wal.sync", None),
    ("repro.service.engine.save_state", "state.snapshot", _snapshot_size),
    ("repro.service.server.AlignmentRequestHandler.do_GET", "server.handle_get", _route),
    ("repro.service.server.AlignmentRequestHandler.do_POST", "server.handle_post", _route),
    ("repro.obs.http.ObservedHandlerMixin.handle_one_request", "obs.handle", None),
    ("http.server.BaseHTTPRequestHandler.handle_one_request", "stdlib.handle", None),
    ("repro.service.audit.StateAuditor.check_once", "audit.check", None),
    ("repro.service.replica.router.RouterRequestHandler.do_GET", "router.handle_get", _route),
    ("repro.service.replica.router.RouterRequestHandler.do_POST", "router.handle_post", _route),
    ("urllib.request.urlopen", "urlopen", None),
    ("repro.service.replica.follower.HttpWalFollower.fetch", "replica.fetch", None),
    ("repro.service.replica.node.ReplicaNode.poll_once", "replica.poll", _returned_count),
    ("repro.service.replica.node.ReplicaNode.lag_ms", "replica.lag", _returned_value),
)


def install_core(recorder: Recorder) -> None:
    for path, name in CORE_SPANS:
        patch(recorder, path, name)


def install_service(recorder: Recorder) -> None:
    for path, name, note in SERVICE_SPANS:
        patch(recorder, path, name, note)
    from repro.service.engine import AlignmentService

    attach = AlignmentService.__init__

    @functools.wraps(attach)
    def timed_init(self, *args, **kwargs):
        attach(self, *args, **kwargs)
        self.lock = TimedLock(self.lock, recorder)

    AlignmentService.__init__ = timed_init


def load(paths: Iterable[str]) -> Dict[int, List[Span]]:
    """Span lists keyed by process id; missing files are skipped (a
    role that had to be killed wrote none)."""
    by_pid: Dict[int, List[Span]] = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            continue
        by_pid[payload["pid"]] = [tuple(span) for span in payload["spans"]]
    return by_pid


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, _sid, parent, started, ended, _rid, _extra in spans:
        if parent is not None:
            children.setdefault(parent, []).append((started, ended))
    result: Dict[int, float] = {}
    for _name, sid, _parent, started, ended, _rid, _extra in spans:
        covered = 0.0
        cursor = started
        for child_start, child_end in sorted(children.get(sid, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, ended)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[sid] = (ended - started) - covered
    return result
