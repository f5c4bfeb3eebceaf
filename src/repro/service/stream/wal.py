"""Write-ahead log for streaming delta ingestion and replication.

Format: NDJSON, one record per *accepted* delta, in admission order::

    {"delta": {...}, "offset": 17, "source": "file:deltas.ndjson", "seq": 17}

``offset`` is the 1-based record index (the WAL's own consistency
check); ``delta`` is the JSON wire form of :mod:`repro.service.delta`
— whose terms :func:`~repro.service.delta.validate_delta` has already
checked round-trip the N-Triples codec, so a WAL never holds a delta a
restarted process cannot re-parse; ``source``/``seq`` carry the
per-source sequence numbers the batcher's idempotent-redelivery check
is recovered from.

Schema v2 (PR 9) adds optional per-record *provenance*::

    {"delta": {...}, "offset": 18, "source": "http", "v": 2,
     "prov": {"trace": "<request id>", "ingest_ts": ..., "enqueue_ts": ...}}

``prov`` carries the delta's trace id and the wall-clock stamps known
at append time (see :mod:`repro.obs.provenance`; the fsync stamp
cannot be in the record — it is written *before* the fsync — so the
durable/applied stamps live in the engine's provenance ring, and the
``GET /wal`` endpoint folds them into shipped records).  The bump is
per-record and strictly additive: records without ``v``/``prov``
(schema v1 — every pre-PR-9 log) parse, replay, and replicate exactly
as before, and old readers ignore the new keys.

Segments
--------
The log is a *sequence of segment files*.  ``path`` (conventionally
``state-dir/wal.ndjson``) is the **active** segment new records are
appended to; once it reaches ``segment_bytes`` it is *sealed* — fsync'd
and renamed to ``<stem>-<first offset, 16 digits><suffix>`` (e.g.
``wal-0000000000000001.ndjson``) — and a fresh active file starts.
Sealed segments are immutable and their name carries the offset of
their first record, so readers can skip whole segments without
decoding them, and compaction can drop them without renumbering.  A
pre-segment single-file WAL is simply an active segment that never
rotated: the format is unchanged and old logs replay as-is.

Rotation happens *on append* (the record that would overflow the
segment opens the next one), so the active segment always holds at
least one record after a rotation and the log's current offset is
recoverable from the files alone after any crash.

Compaction
----------
:meth:`WriteAheadLog.compact` deletes sealed segments whose *entire*
offset range is at or below a covered offset — the WAL offset recorded
by a durable snapshot (:class:`repro.service.state.AlignmentState`),
which by construction absorbed every record up to it.  The active
segment is never deleted, and when the active file is empty the newest
sealed segment is kept even if covered, so the current offset always
remains recoverable from disk.  Compacted records take their per-source
sequence numbers with them: a redelivery older than the snapshot is
re-admitted instead of acked as duplicate, which is safe — triple
changes are idempotent sets and the warm fixpoint converges on the
final graphs.

Durability contract
-------------------
:meth:`WriteAheadLog.append` (with the default ``sync=True``) writes
the record, flushes and fsyncs before returning: once a writer's delta
is acknowledged it survives a process crash.  ``sync=False`` splits
the two halves — buffered append now, explicit :meth:`sync` before the
ack — which is what *group commit* builds on: when many writers
:meth:`sync` concurrently, one of them becomes the fsync leader,
optionally waits ``group_commit`` seconds for stragglers to buffer
their records, and a single fsync makes the whole group durable.  The
per-delta semantics are unchanged (no append is acknowledged before an
fsync covered it); only the fsync *count* is amortized.

A *torn* trailing record (crash mid-append) is detected on open and
truncated away — its delta was never acknowledged, so dropping it is
correct; torn tails can only occur in the active segment, because
sealing fsyncs before the rename.  A malformed record anywhere else is
real corruption and raises :class:`WalCorruptionError` instead of
silently skipping history.

Replication
-----------
The WAL doubles as the replication log: read replicas open it
``read_only`` (directly on shared storage, or over the primary's
``GET /wal`` endpoint — see :mod:`repro.service.replica`) and tail
:meth:`replay` from their applied offset.  A read-only reader
re-discovers segments on every walk, so rotation under its feet is
safe; a reader asking for records that compaction already dropped gets
:class:`WalGapError` and must re-bootstrap from a newer snapshot.

Exactly-once replay
-------------------
:func:`replay_wal` reapplies the suffix of records beyond a state's
``wal_offset`` (see :class:`repro.service.state.AlignmentState`).
Triple adds and removes have set semantics, so replaying records that
were already (fully or partially) applied before a crash is
idempotent at the ontology level, and the warm fixpoint converges to
the numeric fixpoint of the final graphs: a SIGKILL mid-batch followed
by snapshot + WAL replay reaches the same scores (within 1e-9) as a
run that never crashed.  Enforced by the crash-recovery test in
``tests/test_stream.py``.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from ..delta import Delta
from ...obs import get_event_logger
from ...obs.metrics import REGISTRY
from ...obs.trace import span

_log = get_event_logger("repro.wal")

APPENDED_OFFSET = REGISTRY.gauge(
    "repro_wal_appended_offset",
    "Offset of the newest record appended to the write-ahead log.",
)
DURABLE_OFFSET = REGISTRY.gauge(
    "repro_wal_durable_offset",
    "Highest WAL offset an fsync has covered (never leads appended).",
)
WAL_RECORDS = REGISTRY.counter(
    "repro_wal_records_total",
    "Records appended to the write-ahead log.",
)
WAL_FSYNCS = REGISTRY.counter(
    "repro_wal_fsyncs_total",
    "fsync calls issued by the write-ahead log (group commit shares them).",
)
FSYNC_SECONDS = REGISTRY.histogram(
    "repro_wal_fsync_seconds",
    "Duration of one WAL flush+fsync syscall pair.",
)


class WalCorruptionError(ValueError):
    """A WAL record before the tail cannot be decoded."""


class WalGapError(ValueError):
    """The requested replay suffix starts below the oldest retained
    record — compaction dropped it.  Re-bootstrap from a newer
    snapshot instead of replaying."""

    def __init__(self, requested_after: int, oldest: int) -> None:
        super().__init__(
            f"WAL records after offset {requested_after} were requested, but "
            f"the oldest retained record is {oldest} (the prefix was "
            "compacted away); bootstrap from a snapshot covering at least "
            f"offset {oldest - 1}"
        )
        self.requested_after = requested_after
        self.oldest = oldest


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL entry."""

    offset: int
    source: str
    seq: Optional[int]
    delta: Delta
    #: Schema-v2 provenance (trace id + stage timestamps), ``None`` for
    #: v1 records — see the module docstring.
    prov: Optional[dict] = None

    def to_json(self) -> dict:
        """Wire form — identical to the on-disk record, so the
        ``GET /wal`` log-shipping endpoint and the files themselves
        speak one format.  The ``prov`` dict is copied so callers
        (log shipping augments it with ring stamps) can mutate the
        payload without aliasing the record."""
        payload: dict = {
            "offset": self.offset,
            "source": self.source,
            "delta": self.delta.to_json(),
        }
        if self.seq is not None:
            payload["seq"] = self.seq
        if self.prov is not None:
            payload["v"] = 2
            payload["prov"] = dict(self.prov)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "WalRecord":
        if not isinstance(payload, dict):
            raise ValueError("WAL record must be a JSON object")
        offset = payload["offset"]
        if not isinstance(offset, int) or offset < 1:
            raise ValueError(f"bad record offset {offset!r}")
        seq = payload.get("seq")
        if seq is not None and not isinstance(seq, int):
            raise ValueError(f"non-integer seq {seq!r}")
        version = payload.get("v", 1)
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"bad record schema version {version!r}")
        prov = payload.get("prov")
        if prov is not None and not isinstance(prov, dict):
            raise ValueError(f"non-object prov {prov!r}")
        return cls(
            offset=offset,
            source=payload.get("source", ""),
            seq=seq,
            delta=Delta.from_json(payload["delta"]),
            prov=dict(prov) if prov else None,
        )


def _decode_record(line: str, expected_offset: Optional[int]) -> WalRecord:
    record = WalRecord.from_json(json.loads(line))
    if expected_offset is not None and record.offset != expected_offset:
        raise ValueError(
            f"offset {record.offset} where {expected_offset} was expected"
        )
    return record


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so a rename survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only segmented NDJSON log (see module docstring).

    Parameters
    ----------
    path:
        Active segment file; created (with parents) on the first
        append.  Sealed segments live next to it, named
        ``<stem>-<first offset:016d><suffix>``.
    read_only:
        Open for replay only: a torn active tail is ignored instead of
        truncated, :meth:`append` raises, and segments are
        re-discovered on every walk so a live writer can rotate and
        compact underneath the reader.
    segment_bytes:
        Seal the active segment once it holds at least this many bytes
        (``None``/``0``: never rotate — the single-file behaviour).
    group_commit:
        Seconds an fsync leader waits for concurrent writers to join
        its group before the shared fsync (``0``: sync immediately;
        the wait is skipped when no other writer is in :meth:`sync`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        read_only: bool = False,
        segment_bytes: Optional[int] = None,
        group_commit: float = 0.0,
    ) -> None:
        self.path = Path(path)
        self.read_only = read_only
        self.segment_bytes = int(segment_bytes) if segment_bytes else 0
        if group_commit < 0:
            raise ValueError("group_commit must be >= 0")
        self.group_commit = group_commit
        self._stream: Optional[TextIO] = None
        # _write_lock orders appends/rotations; _commit takes over for
        # the durable-offset bookkeeping and fsync leader election.
        # Never acquire _write_lock while holding _commit.
        self._write_lock = threading.RLock()
        self._commit = threading.Condition()
        self._syncing = False
        self._sync_waiters = 0
        self.fsyncs = 0
        #: The first fsync error; once set the log is dead and every
        #: later append/sync raises it.  A retried fsync after EIO can
        #: "succeed" over pages the kernel already dropped, so retrying
        #: could acknowledge records that are not on disk.
        self._failed: Optional[OSError] = None
        #: Optional :class:`repro.obs.provenance.ProvenanceRing` — when
        #: set (the serving stack wires the engine's ring in), every
        #: fsync stamps ``durable`` on the offsets it covered.
        self.provenance = None
        scan = self._scan()
        self._offset, self._last_seqs, active_bytes, active_base = scan
        self._active_base = active_base
        self._active_bytes = active_bytes
        self._durable_offset = self._offset
        if not read_only:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists() and self.path.stat().st_size > active_bytes:
                # Torn tail from a crash mid-append: the record was
                # never acknowledged, so cutting it is the correct (and
                # required) recovery — appending after torn bytes would
                # corrupt the next record too.
                with self.path.open("r+b") as stream:
                    stream.truncate(active_bytes)
            # Whatever the recovery scan found *is* the log now; tell
            # file-tailing readers so they are not stuck on a marker
            # from before the crash.
            self._publish_durable(self._offset)

    # ------------------------------------------------------------------
    # segment discovery
    # ------------------------------------------------------------------

    @property
    def _sealed_pattern(self) -> "re.Pattern[str]":
        return re.compile(
            re.escape(self.path.stem) + r"-(\d{16})" + re.escape(self.path.suffix) + r"$"
        )

    def sealed_segments(self) -> List[Tuple[int, Path]]:
        """Sealed segment files as ``(first offset, path)``, in order."""
        pattern = self._sealed_pattern
        found = []
        if self.path.parent.is_dir():
            for candidate in self.path.parent.iterdir():
                match = pattern.match(candidate.name)
                if match is not None:
                    found.append((int(match.group(1)), candidate))
        return sorted(found)

    def _sealed_name(self, first_offset: int) -> Path:
        return self.path.with_name(
            f"{self.path.stem}-{first_offset:016d}{self.path.suffix}"
        )

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------

    @property
    def offset(self) -> int:
        """Offset of the newest appended record (0 when empty)."""
        return self._offset

    @property
    def durable_offset(self) -> int:
        """Highest offset an fsync has covered (== :attr:`offset` right
        after a synchronous append)."""
        return self._durable_offset

    @property
    def _durable_marker_path(self) -> Path:
        return self.path.with_name(self.path.name + ".durable")

    def _publish_durable(self, offset: int) -> None:
        """Advertise the fsync-covered offset to file-tailing readers.

        Written (atomically, *after* the fsync, under ``_write_lock``)
        so the marker can trail reality but never lead it: a reader
        capping at the marker never applies a record a primary crash
        could still lose.  The marker itself is advisory and not
        fsync'd — losing it only delays readers until the next commit.
        """
        DURABLE_OFFSET.set(offset)
        marker_tmp = self._durable_marker_path.with_name(
            self._durable_marker_path.name + ".tmp"
        )
        try:
            marker_tmp.write_text(f"{offset}\n", encoding="utf-8")
            os.replace(marker_tmp, self._durable_marker_path)
        except OSError:  # pragma: no cover - advisory only
            pass

    def durable_marker(self) -> Optional[int]:
        """The durable offset the writer last published (reader side).

        ``None`` when no marker exists — a log written before markers
        existed, or by a writer that never group-commits.  A marker
        that exists but cannot be read or parsed *raises* (``OSError``
        / ``ValueError``): mapping it to a number would either trust
        unfsync'd bytes (too high) or make a backlogged replica look
        caught-up at a fake head (too low) — the poll must fail
        visibly and retry instead.
        """
        try:
            text = self._durable_marker_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        return int(text.strip())

    @property
    def last_seqs(self) -> Dict[str, int]:
        """Highest sequence number appended per source (a copy)."""
        return dict(self._last_seqs)

    def _iter_file(
        self,
        path: Path,
        expected: Optional[int],
        allow_torn: bool,
        missing_ok: bool = True,
    ) -> Iterator[Tuple[WalRecord, int]]:
        """Decode one segment file: ``(record, end byte offset)``.

        Stops silently at an unterminated tail when ``allow_torn``:
        each record is one write of a newline-terminated line, so a
        crash (or a concurrent writer) leaves a strict prefix without
        the trailing newline — torn, never acknowledged, safe to
        ignore.  A newline-terminated record that does not decode was
        fully written, so the log is genuinely corrupt and
        :class:`WalCorruptionError` raises.  ``missing_ok=False``
        propagates ``FileNotFoundError`` (a listed sealed segment that
        vanished means a compactor won a race — silently yielding
        nothing would let a reader skip the segment's offset range).
        """
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            if not missing_ok:
                raise
            return
        position = 0
        while position < len(raw):
            end = raw.find(b"\n", position)
            if end < 0:
                if allow_torn:
                    break
                raise WalCorruptionError(
                    f"{path}: torn record in a sealed segment"
                )
            line = raw[position : end + 1]
            try:
                record = _decode_record(line.decode("utf-8"), expected)
            except (ValueError, KeyError, UnicodeDecodeError) as error:
                raise WalCorruptionError(
                    f"{path}: record after byte {position} is corrupt: {error}"
                ) from error
            expected = record.offset + 1
            position = end + 1
            yield record, position

    def _walk(
        self, after_offset: int = 0, check_gap: bool = False
    ) -> Iterator[Tuple[WalRecord, bool, int]]:
        """Decode the log front to back:
        ``(record, in active segment, end byte offset in its file)``.

        The single reader behind :meth:`replay` and the open-time scan,
        so torn-tail, corruption and rotation handling cannot drift
        apart.  The first retained record (compaction may have dropped
        a prefix) defines the starting offset; continuity is enforced
        from there, within and across segments.  Sealed segments whose
        entire range sits at or below ``after_offset`` are skipped by
        name, without decoding (their end is the next segment's base
        minus one).  With ``check_gap``, a first retained record above
        ``after_offset + 1`` raises :class:`WalGapError` — replay
        wants that, the open-time scan of a compacted log does not.

        For read-only readers, a live writer rotating mid-walk is
        handled: the just-sealed file (it holds the tail we were about
        to read from the active path) is picked up on a refreshed
        listing, already-yielded offsets are filtered out, and the walk
        continues into the new active file.
        """
        expected: Optional[int] = None
        first_retained: Optional[int] = None
        walked: set = set()

        def note_first(offset: int) -> None:
            nonlocal first_retained
            if first_retained is None:
                first_retained = offset
                if check_gap and first_retained > after_offset + 1:
                    raise WalGapError(after_offset, first_retained)

        while True:
            sealed = [
                (base, path)
                for base, path in self.sealed_segments()
                if base not in walked
            ]
            for index, (base, path) in enumerate(sealed):
                note_first(base)
                walked.add(base)
                next_base = sealed[index + 1][0] if index + 1 < len(sealed) else None
                if next_base is None and after_offset >= base:
                    # The newest sealed segment has no successor to
                    # name its end; the active file's first record
                    # bounds it instead, so a tailing reader is not
                    # forced to re-decode a full segment per poll.
                    active_first = self._first_offset_in(self.path)
                    if active_first > base:
                        next_base = active_first
                if (
                    next_base is not None
                    and next_base - 1 <= after_offset
                    and (expected is None or base == expected)
                ):
                    # Whole segment at or below after_offset: skip it
                    # undecoded (its end is next_base - 1).
                    expected = next_base
                    continue
                if expected is not None and base > expected:
                    raise WalCorruptionError(
                        f"{path}: segment starts at {base} "
                        f"where {expected} was expected"
                    )
                try:
                    for record, end_byte in self._iter_file(
                        path, base, False, missing_ok=False
                    ):
                        if expected is not None and record.offset < expected:
                            continue  # yielded while this file was active
                        expected = record.offset + 1
                        yield record, False, end_byte
                except FileNotFoundError:
                    # A compactor deleted the segment between our
                    # listing and the read: its range is gone, which a
                    # reader must treat as a gap — never as an empty
                    # segment it may silently step over.
                    remaining = [
                        other_base
                        for other_base, _path in self.sealed_segments()
                        if other_base > base
                    ]
                    raise WalGapError(
                        after_offset, min(remaining) if remaining else base + 1
                    ) from None
            try:
                for record, end_byte in self._iter_file(self.path, expected, True):
                    note_first(record.offset)
                    expected = record.offset + 1
                    yield record, True, end_byte
            except WalCorruptionError:
                if self._newly_sealed(walked):
                    # The writer (this process's batcher thread, for
                    # the GET /wal handler walking its own live log, or
                    # another process, for a read-only reader) sealed
                    # the file we were reading as the active segment;
                    # loop to pick the records up from the sealed
                    # listing instead.
                    continue
                raise
            if self._newly_sealed(walked):
                continue
            return

    def _newly_sealed(self, walked: set) -> bool:
        return any(base not in walked for base, _path in self.sealed_segments())

    def _scan(self) -> Tuple[int, Dict[str, int], int, int]:
        """Walk the log once: offset, per-source seqs, good active
        bytes, and the active segment's first offset."""
        offset = 0
        last_seqs: Dict[str, int] = {}
        active_bytes = 0
        active_base: Optional[int] = None
        for record, in_active, end_byte in self._walk():
            offset = record.offset
            if in_active:
                active_bytes = end_byte
                if active_base is None:
                    active_base = record.offset
            if record.seq is not None:
                previous = last_seqs.get(record.source)
                if previous is None or record.seq > previous:
                    last_seqs[record.source] = record.seq
        if active_base is None:
            active_base = offset + 1
        return offset, last_seqs, active_bytes, active_base

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(
        self,
        delta: Delta,
        source: str,
        seq: Optional[int] = None,
        sync: bool = True,
        prov: Optional[dict] = None,
    ) -> int:
        """Append one accepted delta; returns its offset.

        With ``sync=True`` (default) the record is fsync'd before this
        returns, so an acknowledged delta is never lost to a process
        crash.  With ``sync=False`` the record is only buffered — call
        :meth:`sync` with the returned offset before acknowledging the
        delta to anyone (the batcher does, sharing one group fsync
        across concurrent writers).

        ``prov`` (trace id + ingest/enqueue stamps) makes this a
        schema-v2 record; without it the record is byte-identical to
        the v1 format.
        """
        if self.read_only:
            raise RuntimeError(f"{self.path} was opened read-only")
        with self._write_lock:
            self._check_alive()
            if (
                self.segment_bytes
                and self._active_bytes >= self.segment_bytes
                and self._offset >= self._active_base
            ):
                self._rotate_locked()
            if self._stream is None:
                self._stream = self.path.open("a", encoding="utf-8")
            offset = self._offset + 1
            record = {"offset": offset, "source": source, "delta": delta.to_json()}
            if seq is not None:
                record["seq"] = seq
            if prov is not None:
                record["v"] = 2
                record["prov"] = dict(prov)
            line = json.dumps(record, sort_keys=True) + "\n"
            self._stream.write(line)
            self._offset = offset
            self._active_bytes += len(line.encode("utf-8"))
            if seq is not None:
                previous = self._last_seqs.get(source)
                if previous is None or seq > previous:
                    self._last_seqs[source] = seq
            WAL_RECORDS.inc()
            APPENDED_OFFSET.set(offset)
        if sync:
            self.sync(offset)
        return offset

    def sync(self, offset: Optional[int] = None) -> None:
        """Block until an fsync covered ``offset`` (default: every
        appended record).  Concurrent callers share one fsync: the
        first becomes the leader, optionally waits ``group_commit``
        seconds for more writers to buffer their records, then flushes
        and fsyncs once for the whole group.
        """
        if self.read_only:
            raise RuntimeError(f"{self.path} was opened read-only")
        if offset is None:
            offset = self._offset
        # The span covers the whole wait: leader election, the group-
        # commit gather window, and queuing behind another leader.
        with span("wal.sync"):
            self._sync_wait(offset)

    def _sync_wait(self, offset: int) -> None:
        with self._commit:
            self._sync_waiters += 1
        try:
            while True:
                with self._commit:
                    self._check_alive()
                    if self._durable_offset >= offset:
                        return
                    if self._syncing:
                        self._commit.wait(0.05)
                        continue
                    self._syncing = True
                    gather = self.group_commit > 0 and self._sync_waiters > 1
                covered = self._durable_offset
                try:
                    if gather:
                        # Group-commit window: let concurrent appends
                        # buffer their records so one fsync covers all.
                        time.sleep(self.group_commit)
                    with self._write_lock:
                        target = self._offset
                        if self._stream is not None:
                            fsync_started = time.perf_counter()
                            self._fsync_stream()
                            FSYNC_SECONDS.observe(time.perf_counter() - fsync_started)
                        # Only reached when the fsync (if any was
                        # needed) succeeded; a stream-less log has
                        # everything on disk already (rotation and
                        # close fsync before releasing the handle).
                        covered = target
                        if covered > self._durable_offset:
                            self._publish_durable(covered)
                        if self.provenance is not None:
                            self.provenance.stamp_upto("durable", covered)
                finally:
                    with self._commit:
                        if covered > self._durable_offset:
                            self._durable_offset = covered
                        self._syncing = False
                        self._commit.notify_all()
        finally:
            with self._commit:
                self._sync_waiters -= 1

    def _check_alive(self) -> None:
        if self._failed is not None:
            raise self._failed

    def _fsync_stream(self) -> None:
        """Flush and fsync the active segment; the first failure kills
        the log (see ``_failed``).  Caller holds ``_write_lock``."""
        try:
            self._stream.flush()
            os.fsync(self._stream.fileno())
        except OSError as error:
            with self._commit:
                if self._failed is None:
                    self._failed = error
            raise
        self.fsyncs += 1
        WAL_FSYNCS.inc()

    def _rotate_locked(self) -> None:
        """Seal the active segment (fsync, rename) and start a new one.
        Caller holds ``_write_lock``."""
        if self._stream is not None:
            self._fsync_stream()
            self._stream.close()
            self._stream = None
        sealed = self._sealed_name(self._active_base)
        os.replace(self.path, sealed)
        _fsync_directory(self.path.parent)
        with self._commit:
            if self._offset > self._durable_offset:
                self._durable_offset = self._offset
        self._publish_durable(self._offset)
        if self.provenance is not None:
            self.provenance.stamp_upto("durable", self._offset)
        self._active_base = self._offset + 1
        self._active_bytes = 0

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def replay(self, after_offset: int = 0) -> Iterator[WalRecord]:
        """Decoded records with ``offset > after_offset``, in order.

        Sealed segments entirely at or below ``after_offset`` are
        skipped by name, without decoding.  A torn active tail yields
        nothing for the torn record (it was never acknowledged);
        corruption before the tail raises; a request below the oldest
        retained record (compacted prefix) raises
        :class:`WalGapError`.
        """
        for record, _in_active, _end_byte in self._walk(
            after_offset=after_offset, check_gap=True
        ):
            if record.offset > after_offset:
                yield record

    def current_offset(self) -> int:
        """The newest record offset *on disk right now*.

        For a writer this equals :attr:`offset`; a read-only reader
        derives it from the *tail line of the newest file* — O(one
        segment read), not a decode of the whole log — so a replica
        polling for the head every few milliseconds stays cheap no
        matter how large the log has grown.
        """
        if not self.read_only:
            return self._offset
        last = self._last_offset_in(self.path)
        if last:
            return last
        for _base, path in reversed(self.sealed_segments()):
            last = self._last_offset_in(path)
            if last:
                return last
        return 0

    def _first_offset_in(self, path: Path) -> int:
        """Offset of the first *complete* record line of one file (0
        when missing, empty, or torn before its first newline)."""
        try:
            with path.open("rb") as stream:
                line = stream.readline()
        except FileNotFoundError:
            return 0
        if not line.endswith(b"\n"):
            return 0
        try:
            return _decode_record(line.decode("utf-8"), None).offset
        except (ValueError, KeyError, UnicodeDecodeError):
            return 0

    def _last_offset_in(self, path: Path) -> int:
        """Offset of the last *complete* record line of one file (0
        when the file is missing, empty, or all-torn).  Reads a
        bounded tail window, not the whole file — this probe runs on
        every replica poll, and a nearly-full active segment must not
        cost a full-segment read to find one newline.  Trusts the
        record's own offset field — the full continuity check belongs
        to :meth:`replay`, not the head probe."""
        try:
            with path.open("rb") as stream:
                stream.seek(0, os.SEEK_END)
                size = stream.tell()
                window = 1 << 16
                while True:
                    start = max(0, size - window)
                    stream.seek(start)
                    raw = stream.read(size - start)
                    end = raw.rfind(b"\n")
                    if end < 0:
                        if start == 0:
                            return 0
                        window *= 2  # one line outgrew the window
                        continue
                    begin = raw.rfind(b"\n", 0, end) + 1
                    if begin == 0 and start > 0:
                        window *= 2  # the line starts before the window
                        continue
                    line = raw[begin : end + 1]
                    break
        except FileNotFoundError:
            return 0
        try:
            return _decode_record(line.decode("utf-8"), None).offset
        except (ValueError, KeyError, UnicodeDecodeError):
            return 0

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self, covered_offset: int) -> Tuple[int, List[Path]]:
        """Delete sealed segments fully covered by ``covered_offset``.

        ``covered_offset`` must come from a *durable* snapshot's
        ``wal_offset``: those records' effects are inside the pickled
        state, so the log no longer needs them for recovery or replica
        bootstrap.  The active segment is never deleted; when the
        active file holds no records, the newest sealed segment is
        retained even if covered, so the current offset stays
        recoverable from disk after a crash.  Returns ``(bytes
        reclaimed, deleted paths)``.

        Works on a ``read_only`` handle too — that is how the offline
        ``repro wal compact`` stays safe against a still-running
        primary (a writer-mode open would truncate what it takes for a
        torn tail and republish the durable marker, both of which are
        wrong while the real writer lives).  Deleting covered sealed
        segments is safe concurrently: the writer never reopens them,
        and readers hitting the vanished file fall into the
        :class:`WalGapError` re-bootstrap path.
        """
        with self._write_lock:
            sealed = self.sealed_segments()
            if not sealed:
                return 0, []
            # Segment i spans [base_i, base_{i+1} - 1]; the last sealed
            # segment ends just below the active segment's first record
            # (a reader derives it from the file, a writer knows it).
            ends: List[Optional[int]] = [base - 1 for base, _path in sealed[1:]]
            if self.read_only:
                active_first = self._first_offset_in(self.path)
                active_has_records = active_first > 0
                ends.append(active_first - 1 if active_has_records else None)
            else:
                active_has_records = self._offset >= self._active_base
                ends.append(self._active_base - 1)
            reclaimed = 0
            deleted: List[Path] = []
            for (base, path), end in zip(sealed, ends):
                if end is None or end > covered_offset:
                    break
                if not active_has_records and (base, path) == sealed[-1]:
                    break  # keep the offset recoverable from disk
                try:
                    size = path.stat().st_size
                    path.unlink()
                except FileNotFoundError:  # pragma: no cover - racing compactor
                    continue
                reclaimed += size
                deleted.append(path)
            if deleted:
                _fsync_directory(self.path.parent)
            return reclaimed, deleted

    def size_bytes(self) -> int:
        """Total on-disk bytes across all retained segments."""
        total = 0
        for _base, path in self.sealed_segments():
            try:
                total += path.stat().st_size
            except FileNotFoundError:  # pragma: no cover - racing compactor
                pass
        try:
            total += self.path.stat().st_size
        except FileNotFoundError:
            pass
        return total

    def close(self) -> None:
        if self._stream is not None:
            with self._write_lock:
                if self._stream is not None and self._failed is not None:
                    # A dead log releases its handle but never retries
                    # the fsync or advertises the unsynced tail.
                    self._stream.close()
                    self._stream = None
                    return
                if self._stream is not None:
                    self._fsync_stream()
                    self._stream.close()
                    self._stream = None
                    self._publish_durable(self._offset)
                    if self.provenance is not None:
                        self.provenance.stamp_upto("durable", self._offset)
            with self._commit:
                if self._offset > self._durable_offset:
                    self._durable_offset = self._offset


def replay_wal(service, wal: WriteAheadLog, max_batch: int = 256) -> int:
    """Reapply the un-snapshotted WAL suffix to a service.

    Records beyond ``service.state.wal_offset`` are composed into
    batches of at most ``max_batch`` (order preserved, so the final
    graph state — and therefore the fixpoint — is exactly that of the
    original stream) and pushed through the engine; the state's
    ``wal_offset`` advances with each applied batch.  Returns the
    number of records replayed.

    Replayed records are registered in the service's provenance ring
    as *non-live* timelines: ``GET /provenance`` can still reconstruct
    them (flagged ``replayed``), but the stage histograms are not
    re-observed — a restart must not double-count latencies the first
    life of the process already recorded.
    """
    from ..delta import compose_deltas

    ring = getattr(service, "provenance", None)
    replayed = 0
    pending: List[WalRecord] = []

    def flush() -> None:
        if not pending:
            return
        if ring is not None:
            traces = []
            for record in pending:
                ring.register_record(record, live=False)
                if record.prov and record.prov.get("trace"):
                    traces.append(record.prov["trace"])
            ring.note_merge(traces)
        composed = compose_deltas(record.delta for record in pending)
        service.apply_delta(composed, wal_offset=pending[-1].offset)
        pending.clear()

    for record in wal.replay(after_offset=service.state.wal_offset):
        pending.append(record)
        replayed += 1
        if len(pending) >= max_batch:
            flush()
    flush()
    if replayed:
        # Replay self-check: the incrementally-maintained digest after
        # reapplying the suffix must equal a full recompute over the
        # caught-up assignment — warm application is deterministic, so
        # a mismatch here means the replayed state cannot be trusted.
        from ...obs.audit import (
            AUDIT_CHECKS,
            AUDIT_MISMATCH,
            digest_assignment,
            format_digest,
        )

        AUDIT_CHECKS.inc(kind="replay")
        with service.lock:
            incremental = service.digests.digest
            recomputed = digest_assignment(service._assignment12)
        if recomputed != incremental:
            AUDIT_MISMATCH.inc(kind="replay")
            _log.error(
                "replayed state failed the digest self-check",
                incremental=format_digest(incremental),
                recomputed=format_digest(recomputed),
                offset=service.state.wal_offset,
            )
    return replayed
