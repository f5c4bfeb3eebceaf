"""The load generator: keep-alive HTTP clients, open- and closed-loop
pacing, and failure accounting.

An operation fails when its response is not 2xx (304 only where the
operation is a revalidation), when it times out or the connection
breaks, or when its answer is wrong; every failure counts against the
number attempted.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional
from urllib.parse import urlparse

#: Per-request deadline; a request still unanswered after it fails.
REQUEST_TIMEOUT = 30.0


@dataclass
class Reply:
    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body)


class Client:
    """One keep-alive connection; reconnects after a broken one."""

    def __init__(self, url: str, timeout: float = REQUEST_TIMEOUT) -> None:
        parts = urlparse(url)
        self.host, self.port = parts.hostname, parts.port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Reply:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._connection.request(method, path, body=body, headers=headers or {})
            response = self._connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return Reply(response.status, {k.lower(): v for k, v in response.getheaders()}, data)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class WrongAnswer(Exception):
    """The program answered, but not with what it should have."""


@dataclass
class Tally:
    """Outcomes of one operation kind, safe to share between threads."""

    attempted: int = 0
    failed: int = 0
    #: Latencies (seconds) of the operations that succeeded.
    latencies: List[float] = field(default_factory=list)
    #: How late each open-loop operation was sent (seconds).
    lateness: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, latency: Optional[float], error: Optional[str] = None, late=None):
        with self._lock:
            self.attempted += 1
            if late is not None:
                self.lateness.append(late)
            if error is None:
                self.latencies.append(latency)
            else:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(error)


def attempt(operation: Callable[[], None]) -> Optional[str]:
    """Run one operation; the failure description, or ``None``."""
    try:
        operation()
    except WrongAnswer as error:
        return f"wrong answer: {error}"
    except (ValueError, KeyError, TypeError) as error:
        return f"wrong answer: malformed reply ({error!r})"
    except socket.timeout:
        return "timeout"
    except (OSError, http.client.HTTPException) as error:
        return f"transport: {error!r}"
    return None


def expect_status(reply: Reply, allowed=(200,)) -> None:
    if reply.status not in allowed:
        raise WrongAnswer(f"HTTP {reply.status}: {reply.body[:200]!r}")


def open_loop(
    rate: float,
    start: float,
    stop: float,
    operation: Callable[[int], None],
    tally: Optional[Tally],
    clock=time.perf_counter,
    sleep=time.sleep,
) -> None:
    """Issue operation ``i`` when it is due, at ``start + i / rate``.

    Latency is taken from the due time, so a stall also charges the
    wait it imposes on the operations queued behind it; ``lateness``
    records how far behind its schedule the generator sent each one.
    Operations due at or after ``stop`` are not issued.  ``tally=None``
    runs unmeasured (warm-up).
    """
    index = 0
    while True:
        due = start + index / rate
        if due >= stop:
            return
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        error = attempt(lambda: operation(index))
        done = clock()
        if tally is not None:
            tally.record(done - due, error, late=max(0.0, now - due))
        index += 1


def closed_loop(
    keep_going: Callable[[], bool],
    operation: Callable[[], None],
    tally: Optional[Tally],
    clock=time.perf_counter,
) -> None:
    """Issue operations back to back while ``keep_going()``."""
    while keep_going():
        started = clock()
        error = attempt(operation)
        if tally is not None:
            tally.record(clock() - started, error)


def run_threads(targets: List[Callable[[], None]]) -> None:
    """Run the load threads to completion, re-raising the first
    exception one of them died of."""
    failures: List[BaseException] = []

    def guard(target):
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            failures.append(error)

    threads = [threading.Thread(target=guard, args=(target,), daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
