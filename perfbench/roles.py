"""Serving roles as child processes: spawn, readiness, teardown.

Every role binds an ephemeral port (``--port 0``) and reports the URL
it bound in its log, which goes to a file in the run's scratch
directory.  :class:`Fleet` owns the roles of one set-up; its ``close``
(also run by ``with``) sends SIGTERM to every role still alive, waits,
and SIGKILLs whatever did not exit, so no role outlives a run on any
exit path.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple
from urllib.parse import urlparse

_URL = re.compile(r"url=(http://[0-9.]+:[0-9]+)")
_PR_SET_PDEATHSIG = 1

#: Longest a role may take to come up (a cold align included).
START_TIMEOUT = 150.0
#: Grace between SIGTERM and SIGKILL.  A primary snapshots its state
#: on the way out, so this covers one full state pickle.
STOP_TIMEOUT = 30.0


class RoleError(RuntimeError):
    pass


def _cpus() -> Tuple[Optional[int], Optional[int]]:
    """(load generator's CPU, program's CPU), or ``None``s on a machine
    with fewer than two.

    Pinning gives every run the same placement instead of whatever the
    scheduler picks.  The load generator and the router (the program's
    front end, which does little but relay) share the first CPU; the
    processes that do the alignment work get the second to themselves.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[1]


LOADGEN_CPU, PROGRAM_CPU = _cpus()


def pin_self(cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def child_setup(cpu: Optional[int]):
    """``preexec_fn`` for a child process: pin it to ``cpu`` and have the
    kernel send it SIGTERM if the benchmark dies without tearing down
    (SIGKILL), so not even that path leaves a role behind."""

    def setup() -> None:
        pin_self(cpu)
        try:
            prctl = ctypes.CDLL(None, use_errno=True).prctl
        except (OSError, AttributeError):
            return  # not Linux: no safety net, teardown still applies
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)

    return setup


def http_json(url: str, path: str, timeout: float = 10.0):
    """(status, decoded JSON body) of one GET on a fresh connection."""
    parts = urlparse(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        return response.status, (json.loads(body) if body else None)
    finally:
        connection.close()


def http_text(url: str, path: str, timeout: float = 10.0) -> str:
    parts = urlparse(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        connection.request("GET", path)
        return connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()


class Role:
    """One ``repro`` process (serve, replica or route)."""

    def __init__(
        self,
        name: str,
        args: List[str],
        workdir: Path,
        root: Path,
        spans_path: Optional[Path] = None,
        cpu: Optional[int] = PROGRAM_CPU,
    ) -> None:
        self.name = name
        self.log_path = workdir / f"{name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        if spans_path is not None:
            command = [
                sys.executable,
                str(root / "perfbench" / "launch.py"),
                str(spans_path),
                "--",
                *args,
            ]
        else:
            command = [sys.executable, "-m", "repro", *args]
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command,
            cwd=str(workdir),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=child_setup(cpu),
        )
        self.url: Optional[str] = None

    def wait_url(self, deadline: float) -> str:
        """The URL the role reports once it has bound its socket."""
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            match = _URL.search(text)
            if match:
                self.url = match.group(1)
                return self.url
            if self.process.poll() is not None:
                raise RoleError(f"{self.name} exited early:\n{text[-2000:]}")
            time.sleep(0.01)
        raise RoleError(f"{self.name} did not report a URL in time")

    def wait_healthy(self, deadline: float, ready=None) -> None:
        """Poll ``/healthz`` until it answers ok (and ``ready(payload)``)."""
        url = self.wait_url(deadline)
        while time.monotonic() < deadline:
            try:
                status, payload = http_json(url, "/healthz", timeout=5.0)
            except OSError:
                status, payload = None, None
            if (
                status == 200
                and payload.get("status") == "ok"
                and (ready is None or ready(payload))
            ):
                return
            if self.process.poll() is not None:
                raise RoleError(f"{self.name} exited while starting")
            time.sleep(0.01)
        raise RoleError(f"{self.name} did not become healthy in time")

    def peak_rss_mb(self) -> float:
        """High-water resident set of the role process (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RoleError(f"no VmHWM for {self.name}")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after the grace period; always reaps."""
        process = self.process
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            self._log.close()


class Fleet:
    """The roles of one set-up, torn down together."""

    def __init__(self) -> None:
        self.roles: List[Role] = []

    def add(self, role: Role) -> Role:
        self.roles.append(role)
        return role

    def peak_rss_mb(self) -> float:
        return sum(role.peak_rss_mb() for role in self.roles)

    def close(self) -> None:
        # Front to back: the router first, the primary last, so no role
        # is left polling a peer that is already gone.
        errors = []
        for role in reversed(self.roles):
            try:
                role.stop()
            except BaseException as error:  # noqa: BLE001 - keep stopping the rest
                errors.append(error)
        self.roles = []
        if errors:
            raise errors[0]

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
