"""Order-insensitive alignment digests — the fleet correctness signal.

Everything this repo guarantees hangs on one invariant: warm,
incremental and replica state must equal a cold PARIS realign within
1e-9 (the fixpoint semantics of Section 4).  This module turns that
contract into a number that can be compared across processes: a 64-bit
**commutative digest** of the maximal assignment, folded as the XOR of
one well-mixed hash per ``(left, right, quantized score)`` pair.

XOR makes the fold order-insensitive and invertible: removing a pair
XORs the same hash back out, so the engine maintains the digest in
O(changes) from the ``(old, new)`` change log the restricted-view
maintainer records during a warm run
(:meth:`repro.core.result.AlignmentResult.net_assignment_changes`)
instead of re-walking the assignment.  Scores are quantized to the
1e-9 contract before hashing; the replication protocol ships the
primary's own scores (and warm application is bit-deterministic across
batch chopping — see ``tests/test_audit.py``), so two nodes at the
same WAL offset must produce the *identical* digest, and any
difference is real divergence, not float noise.

Digests are keyed by WAL offset: :class:`DigestMaintainer` keeps a
bounded history of ``(offset, digest)`` checkpoints so
``GET /digest?offset=`` can answer for recent offsets after the head
moved on, which is what lets ``repro doctor`` compare a fleet whose
nodes were observed at slightly different instants.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..core.result import Assignment, ChangeLog
from ..rdf.terms import Resource
from .metrics import REGISTRY

__all__ = [
    "SCORE_QUANTUM",
    "pair_hash",
    "digest_assignment",
    "format_digest",
    "parse_digest",
    "DigestMaintainer",
    "AUDIT_CHECKS",
    "AUDIT_MISMATCH",
    "DIGEST_UPDATES",
    "DIGEST_OFFSET",
]

#: Scores are quantized to this grid before hashing — the same 1e-9
#: tolerance the fixpoint contract promises.  Replicas apply the
#: primary's own shipped scores, so equal state hashes equally.
SCORE_QUANTUM = 1e-9

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: How many ``(wal_offset, digest)`` checkpoints each maintainer keeps
#: so ``GET /digest?offset=`` can answer for recently-passed offsets.
DIGEST_HISTORY = 256

AUDIT_CHECKS = REGISTRY.counter(
    "repro_audit_checks_total",
    "Correctness audit checks performed, by kind "
    "(sample, digest, bootstrap, replay)",
    ("kind",),
)
AUDIT_MISMATCH = REGISTRY.counter(
    "repro_audit_mismatch_total",
    "Correctness audit checks that found real divergence, by kind",
    ("kind",),
)
DIGEST_UPDATES = REGISTRY.counter(
    "repro_digest_updates_total",
    "Incremental pair updates folded into the state digest",
)
DIGEST_OFFSET = REGISTRY.gauge(
    "repro_digest_offset",
    "WAL offset the incremental state digest is current as of",
)


def _mix64(value: int) -> int:
    """splitmix64 finalizer: full-avalanche mixing so the XOR fold of
    many pair hashes stays collision-resistant even for similar names."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def quantize_score(probability: float) -> int:
    """The integer grid cell of a score at the 1e-9 contract tolerance."""
    return round(probability / SCORE_QUANTUM)


def pair_hash(left: str, right: str, probability: float) -> int:
    """64-bit hash of one alignment pair ``(left, right, score)``.

    FNV-1a over the two names and the quantized score, then a
    splitmix64 finalizer.  Deterministic across processes and Python
    versions (no ``hash()`` randomization), which is what lets two
    nodes compare digests at all.
    """
    acc = _FNV_OFFSET
    for chunk in (left.encode("utf-8"), b"\x00", right.encode("utf-8")):
        for byte in chunk:
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
    quantum = quantize_score(probability) & _MASK64
    for shift in (0, 8, 16, 24, 32, 40, 48, 56):
        acc = ((acc ^ ((quantum >> shift) & 0xFF)) * _FNV_PRIME) & _MASK64
    return _mix64(acc)


def digest_assignment(assignment: Assignment) -> int:
    """Full recompute: fold the whole maximal assignment into one
    64-bit digest.  The self-verification path for the incremental
    maintenance — the two must always agree."""
    digest = 0
    for left, (right, probability) in assignment.items():
        digest ^= pair_hash(left.name, right.name, probability)
    return digest


def format_digest(digest: int) -> str:
    """Digests cross HTTP as fixed-width hex — 64-bit ints exceed JSON
    number precision in common clients."""
    return f"{digest & _MASK64:016x}"


def parse_digest(text: str) -> int:
    return int(text, 16)


def range_digest(
    assignment: Assignment, lo: Optional[str] = None, hi: Optional[str] = None
) -> Dict[str, object]:
    """Digest of the sub-assignment whose *left* entity name falls in
    ``[lo, hi]`` (inclusive, lexicographic; ``None`` = unbounded).

    Returns the digest plus the range's pair count, name bounds and
    median left name — everything ``repro doctor`` needs to binary
    search a fleet digest split down to the first divergent pair.
    """
    digest = 0
    names: List[str] = []
    for left, (right, probability) in assignment.items():
        name = left.name
        if lo is not None and name < lo:
            continue
        if hi is not None and name > hi:
            continue
        digest ^= pair_hash(name, right.name, probability)
        insort(names, name)
    payload: Dict[str, object] = {
        "digest": format_digest(digest),
        "count": len(names),
    }
    if names:
        payload["min"] = names[0]
        payload["max"] = names[-1]
        # Lower median: the halves [lo, mid] and (mid, hi] are then both
        # strictly smaller than the range, so the doctor's binary search
        # always terminates (upper median would make [lo, mid] == the
        # whole range when two names remain).
        payload["mid"] = names[(len(names) - 1) // 2]
    return payload


class DigestMaintainer:
    """Incremental digest over one engine's maximal assignment.

    Owned by the engine, updated under its lock from the warm loop's
    net change log: each changed entity XORs its old pair hash out and
    its new one in — O(changes) per delta, no matter how large the
    assignment is.  Also remembers, per entity, the last WAL offset
    that touched it (``last_touched``), which is how an audit mismatch
    report recovers the provenance trace ids of the deltas that wrote
    the bad pair.
    """

    def __init__(
        self,
        assignment: Assignment,
        wal_offset: int = 0,
        history: int = DIGEST_HISTORY,
    ) -> None:
        self._lock = threading.Lock()
        self.digest = digest_assignment(assignment)
        self.wal_offset = wal_offset
        self._checkpoints: Deque[Tuple[int, int]] = deque(maxlen=history)
        self._checkpoints.append((wal_offset, self.digest))
        #: entity → last WAL offset whose delta changed its pair.
        self.last_touched: Dict[Resource, int] = {}
        DIGEST_OFFSET.set(wal_offset)

    def apply(self, changes12: ChangeLog, wal_offset: int) -> int:
        """Fold one delta's net ``entity -> (old, new)`` change log of
        the left → right assignment into the digest: the old pair hash
        of every changed entity is XORed out, the new one in."""
        with self._lock:
            digest = self.digest
            for entity, (old, match) in changes12.items():
                if old is not None:
                    digest ^= pair_hash(entity.name, old[0].name, old[1])
                if match is not None:
                    digest ^= pair_hash(entity.name, match[0].name, match[1])
                self.last_touched[entity] = wal_offset
            self.digest = digest
            self.wal_offset = wal_offset
            self._checkpoints.append((wal_offset, digest))
            DIGEST_UPDATES.inc(len(changes12))
            DIGEST_OFFSET.set(wal_offset)
            return digest

    def advance(self, wal_offset: int) -> None:
        """A no-op batch still moved the WAL cursor: checkpoint the
        unchanged digest at the new offset so offset-keyed lookups and
        fleet comparison stay aligned."""
        with self._lock:
            self.wal_offset = wal_offset
            self._checkpoints.append((wal_offset, self.digest))
            DIGEST_OFFSET.set(wal_offset)

    def snapshot(self) -> Tuple[int, int]:
        """The current ``(wal_offset, digest)`` pair, atomically."""
        with self._lock:
            return self.wal_offset, self.digest

    def at_offset(self, wal_offset: int) -> Optional[int]:
        """The digest as of ``wal_offset``, if still in the bounded
        checkpoint history; ``None`` once it aged out (callers answer
        409, and ``repro doctor`` re-quiesces)."""
        with self._lock:
            checkpoints = list(self._checkpoints)
        offsets = [offset for offset, _ in checkpoints]
        index = bisect_left(offsets, wal_offset)
        if index < len(offsets) and offsets[index] == wal_offset:
            return checkpoints[index][1]
        return None

    def offsets_touching(self, entities: Iterable[Resource]) -> List[int]:
        """Distinct last-touch WAL offsets for ``entities``, sorted —
        the offsets whose provenance records explain a bad pair."""
        with self._lock:
            found = {
                self.last_touched[entity]
                for entity in entities
                if entity in self.last_touched
            }
        return sorted(found)
