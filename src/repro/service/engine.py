"""The alignment service engine.

:class:`AlignmentService` is the resident-process core behind
``repro serve``: it owns an :class:`~repro.service.state.AlignmentState`,
keeps the derived structures (functionality oracles, literal indexes,
incremental relation matrices) in sync with delta batches, computes the
dirty instance frontier a delta induces, and drives
:meth:`repro.core.aligner.ParisAligner.warm_align`.

Frontier computation (the 1-hop invalidation contract)
------------------------------------------------------
A left instance must be re-scored when any input of its Eq. 13
computation changed:

* its own statements (delta endpoints on the left side);
* the candidate sets of a neighbouring literal (tracked through the
  blocking keys of the literal similarity, on either side's index);
* a statement of a *right* node it can reach — covered by dirtying the
  1-hop neighbours of every left equivalent of the touched right nodes;
* an inverse functionality of one of its relations (left-side
  functionality changes dirty the relation's subjects; right-side
  changes fall back to a full pass, since their reach crosses the
  candidate frontier);
* a relation-matrix row of one of its relations — handled inside the
  warm loop by diffing the incrementally refreshed rows.

All queries and delta applications are serialized behind one lock;
reads between deltas are cheap dictionary lookups.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.aligner import ParisAligner
from ..core.config import ParisConfig
from ..core.incremental import IncrementalRelationPass, RestrictedViewMaintainer
from ..core.result import ChangeLog
from ..core.result import assignment_delta  # noqa: F401 - perfbench/spans.py patches it
from ..core.subclasses import IncrementalClassPass
from ..obs import get_event_logger
from ..obs.audit import (
    AUDIT_CHECKS,
    AUDIT_MISMATCH,
    DigestMaintainer,
    digest_assignment,
    format_digest,
    range_digest,
)
from ..obs.metrics import REGISTRY
from ..obs.provenance import ProvenanceRing, set_active_ring
from ..rdf.ontology import Ontology
from ..rdf.terms import Literal, Node, Resource
from .delta import Delta, DeltaEffect, apply_delta, validate_delta
from .query import ChangeEvent, QueryIndex
from .state import AlignmentState, save_state

_log = get_event_logger("repro.engine")

DELTAS_APPLIED = REGISTRY.counter(
    "repro_deltas_applied_total",
    "Delta batches fully absorbed by the engine's warm fixpoint.",
)
PAIRS_TOUCHED = REGISTRY.counter(
    "repro_pairs_touched_total",
    "Store/view entry writes performed by warm passes (O(frontier) work).",
)
DELTA_SECONDS = REGISTRY.histogram(
    "repro_delta_apply_seconds",
    "End-to-end time to absorb one delta batch (warm fixpoint included).",
)
INSTANCE_PAIRS = REGISTRY.gauge(
    "repro_instance_pairs",
    "Instance pairs currently held in the equivalence store.",
)
APPLIED_OFFSET = REGISTRY.gauge(
    "repro_wal_applied_offset",
    "Last WAL offset whose effects the engine has fully applied.",
)


@dataclass
class DeltaReport:
    """Outcome of one applied delta batch."""

    version: int
    applied_add: int
    applied_remove: int
    dirty: int
    passes: int
    seconds: float
    converged: bool
    #: Store/view entry writes the warm fixpoint performed — the
    #: O(frontier) work metric (compare against ``store_pairs``).
    pairs_touched: int = 0
    #: Stored instance pairs after the delta, for the ratio.
    store_pairs: int = 0

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "applied_add": self.applied_add,
            "applied_remove": self.applied_remove,
            "dirty": self.dirty,
            "passes": self.passes,
            "seconds": self.seconds,
            "converged": self.converged,
            "pairs_touched": self.pairs_touched,
            "store_pairs": self.store_pairs,
        }


class AlignmentService:
    """A live alignment over two evolving ontologies.

    Construct via :meth:`cold_start` (align from scratch, stationarity
    mode) or :meth:`from_state` (resume a snapshot); then feed
    :class:`~repro.service.delta.Delta` batches through
    :meth:`apply_delta` and read pairs/alignments between them.
    """

    def __init__(self, state: AlignmentState) -> None:
        self.state = state
        self.lock = threading.RLock()
        #: Set when a delta failed *after* mutation started: the live
        #: structures may be inconsistent, so the service fail-stops
        #: (every further call raises) rather than serving — and
        #: snapshotting — a corrupted mix.  Restart from the last
        #: snapshot to recover.
        self.poisoned: Optional[str] = None
        #: Cumulative work counters across this process's lifetime
        #: (reset on restart; exposed via :meth:`stats` / ``GET /stats``).
        self.deltas_applied = 0
        self.total_pairs_touched = 0
        self.aligner = ParisAligner(state.ontology1, state.ontology2, state.config)
        config = state.config
        # Resident restricted-view maintainer: built once (O(store)) at
        # attach, then warm passes fold their touched rows into it in
        # O(frontier) instead of rebuilding the Section 5.2 restriction
        # from all pairs.  Its two maximal assignments are the ones the
        # engine serves (live, read under ``self.lock``), and its change
        # log is the one source of per-delta assignment changes.
        self._view_maintainer = RestrictedViewMaintainer(state.store)
        view = self.aligner.make_view(
            self._view_maintainer.view_store
            if config.restrict_to_maximal_assignment
            else state.store
        )
        self._assignment12 = self._view_maintainer.assignment12
        self._assignment21 = self._view_maintainer.assignment21
        # Order-insensitive state digest (PR 10): recomputed in full at
        # attach, then maintained O(changes) per delta.  A snapshot that
        # carried a digest is integrity-checked here — the bootstrap
        # audit — before this engine trusts (and extends) its state.
        self.digests = DigestMaintainer(self._assignment12, state.wal_offset)
        if state.digest is not None:
            AUDIT_CHECKS.inc(kind="bootstrap")
            if state.digest != self.digests.digest:
                AUDIT_MISMATCH.inc(kind="bootstrap")
                _log.error(
                    "snapshot digest mismatch at attach",
                    expected=format_digest(state.digest),
                    recomputed=format_digest(self.digests.digest),
                    wal_offset=state.wal_offset,
                )
        state.digest = self.digests.digest
        self._rel12 = IncrementalRelationPass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=config.theta,
            max_pairs=config.max_pairs_per_relation,
            bootstrap_theta=config.theta,
        )
        self._rel21 = IncrementalRelationPass(
            state.ontology2,
            state.ontology1,
            view,
            truncation_threshold=config.theta,
            max_pairs=config.max_pairs_per_relation,
            reverse=True,
            bootstrap_theta=config.theta,
        )
        # Resident class-row caches (delta-aware Eq. 17): rows survive
        # across deltas and are invalidated by class reach, not
        # recomputed wholesale per warm run.
        self._classes12 = IncrementalClassPass(
            state.ontology1,
            state.ontology2,
            truncation_threshold=config.theta,
            max_instances=config.max_pairs_per_relation,
        )
        self._classes21 = IncrementalClassPass(
            state.ontology2,
            state.ontology1,
            truncation_threshold=config.theta,
            max_instances=config.max_pairs_per_relation,
            reverse=True,
        )
        # Production read path: the sorted secondary index paginated /
        # top-k reads are served from (its own lock — readers never
        # contend with a warm pass), plus the change listeners the
        # subscription surface hangs off.  Both are fed the net
        # per-delta change log in :meth:`_publish_changes`.
        self.query_index = QueryIndex()
        self.query_index.rebuild(
            self._assignment12, version=state.version, wal_offset=state.wal_offset
        )
        self.change_listeners: List = []
        self._pending_changes: Optional[Tuple[ChangeLog, ChangeLog]] = None
        # Per-delta provenance timelines (PR 9): the batcher admits,
        # the WAL stamps durable, apply_delta stamps applied, the
        # subscription manager stamps notified.  A replica node swaps
        # in its own longer-lived ring (one per node, across engine
        # re-bootstraps); the newest ring feeds the process freshness
        # gauges.
        self.provenance = ProvenanceRing()
        set_active_ring(self.provenance)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def cold_start(
        cls,
        ontology1: Ontology,
        ontology2: Ontology,
        config: Optional[ParisConfig] = None,
    ) -> "AlignmentService":
        """Align from scratch and wrap the result as a service.

        The cold run is forced into ``score_stationarity`` mode: the
        warm-start fixpoint converges to numeric stationarity, so the
        baseline it extends must sit at the same kind of fixpoint for
        the incremental-equals-cold guarantee to hold.
        """
        config = replace(config or ParisConfig(), score_stationarity=True)
        cold_aligner = ParisAligner(ontology1, ontology2, config)
        result = cold_aligner.align()
        service = cls(AlignmentState.from_result(ontology1, ontology2, config, result))
        # The service builds its own resident aligner; carry the cold
        # run's span tree over so /stats serves it until the first delta.
        service.aligner._last_align_span = cold_aligner._last_align_span
        return service

    @classmethod
    def from_state(cls, state: AlignmentState) -> "AlignmentService":
        return cls(state)

    # ------------------------------------------------------------------
    # delta ingestion
    # ------------------------------------------------------------------

    def _instance_neighbours1(self, node: Node) -> Iterable[Resource]:
        for _relation, other in self.state.ontology1.statements_about(node):
            if isinstance(other, Resource):
                yield other

    def _similar_literals(self, literal: Literal, own_index) -> Set[Literal]:
        """Literals of one side's index that can interact with ``literal``."""
        similar: Set[Literal] = set()
        for key in self.aligner.config.literal_similarity.keys(literal):
            similar |= own_index.bucket_members(key)
        return similar

    def _check_consistent(self) -> None:
        if self.poisoned is not None:
            raise RuntimeError(
                "alignment service is fail-stopped after a mid-delta "
                f"failure ({self.poisoned}); restart from the last snapshot"
            )

    def apply_delta(self, delta: Delta, wal_offset: Optional[int] = None) -> DeltaReport:
        """Absorb a delta batch and warm-start the fixpoint over it.

        Validation failures (bad triples) raise ``ValueError`` before
        anything is touched.  A failure *after* mutation started (e.g.
        a broken worker pool mid-warm-pass) poisons the service: the
        in-memory structures may be inconsistent, so every later call
        fails fast instead of silently serving — or snapshotting — a
        corrupted state.

        ``wal_offset`` is the write-ahead-log offset of the last record
        this batch covers (the streaming batcher passes it); it is
        recorded on the state only once the batch fully applied, so a
        snapshot never claims WAL records whose effects it might miss.
        """
        with self.lock:
            self._check_consistent()
            # Validate before the poisoning scope: a rejected batch
            # raises ValueError here with the state untouched and the
            # service still healthy.
            validate_delta(delta)
            try:
                report = self._apply_delta_locked(delta)
            except BaseException as error:
                self.poisoned = repr(error)
                raise
            self.deltas_applied += 1
            self.total_pairs_touched += report.pairs_touched
            if wal_offset is not None:
                self.state.wal_offset = wal_offset
            DELTAS_APPLIED.inc()
            PAIRS_TOUCHED.inc(report.pairs_touched)
            DELTA_SECONDS.observe(report.seconds)
            INSTANCE_PAIRS.set(report.store_pairs)
            # Identical on primary and replica: whoever applies WAL
            # records owns the applied-offset gauge.
            APPLIED_OFFSET.set(self.state.wal_offset)
            # Provenance: local entries get their "applied" stamp,
            # replica-registered entries their "replica_applied" one.
            self.provenance.stamp_applied_upto(wal_offset)
            # Read-side fan-out runs after the WAL offset is recorded,
            # so index stamps and change events carry the offset the
            # batch is durable under.
            self._publish_changes()
            return report

    def _apply_delta_locked(self, delta: Delta) -> DeltaReport:
        state = self.state
        config = state.config
        tolerance = config.warm_tolerance
        started = time.perf_counter()
        effect = apply_delta(state.ontology1, state.ontology2, delta, validated=True)
        if effect.is_noop():
            return DeltaReport(
                version=state.version,
                applied_add=0,
                applied_remove=0,
                dirty=0,
                passes=0,
                seconds=time.perf_counter() - started,
                converged=state.converged,
                pairs_touched=0,
                store_pairs=len(state.store),
            )
        dirty, seed1, seed2, full = self._invalidate(effect, tolerance)
        if full:
            dirty |= state.ontology1.instances
        result = self.aligner.warm_align(
            state.store,
            self._rel12,
            self._rel21,
            dirty_instances=dirty,
            seed_nodes1=seed1,
            seed_nodes2=seed2,
            delta_statements1=effect.statements1,
            delta_statements2=effect.statements2,
            view_maintainer=self._view_maintainer,
            class12_cache=self._classes12,
            class21_cache=self._classes21,
            # The engine owns the store: touched rows fold back in
            # place, so a warm pass never copies the full store.
            mutate_store=True,
        )
        state.absorb(result)
        # Net (old, new) change log of this batch, as the maintainer
        # recorded it — O(entities changed).  Published by apply_delta
        # once the WAL offset is recorded.
        self._pending_changes = result.net_assignment_changes()
        return DeltaReport(
            version=state.version,
            applied_add=effect.applied_add,
            applied_remove=effect.applied_remove,
            dirty=len(dirty),
            passes=result.num_iterations,
            seconds=time.perf_counter() - started,
            converged=result.converged,
            pairs_touched=result.pairs_touched,
            store_pairs=len(state.store),
        )

    def _invalidate(
        self, effect: DeltaEffect, tolerance: float
    ) -> Tuple[Set[Resource], Set[Node], Set[Node], bool]:
        """Refresh derived structures; compute the initial dirty frontier.

        Returns ``(dirty instances, seed nodes left, seed nodes right,
        full-pass flag)`` — see the module docstring for the contract.
        """
        aligner = self.aligner
        store = self.state.store
        dirty: Set[Resource] = set(effect.touched_instances1)
        seed1: Set[Node] = set()
        seed2: Set[Node] = set()
        full = False
        # Class caches (delta-aware Eq. 17).  A subclass-edge change
        # invalidates the *other* direction's closure wholesale; an
        # rdf:type change invalidates the touched class's own row, the
        # touched instance's closed class set on the other side, and
        # the rows of classes whose members are matched to it.
        if effect.subclass_changed1:
            self._classes21.invalidate_closure()
        if effect.subclass_changed2:
            self._classes12.invalidate_closure()
        self._classes12.invalidate_classes(effect.touched_classes1)
        self._classes21.invalidate_classes(effect.touched_classes2)
        for instance in effect.type_changed_instances1:
            self._classes21.refresh_other_member(instance)
            self._classes21.invalidate_members(store.equals_of(instance))
        for instance in effect.type_changed_instances2:
            self._classes12.refresh_other_member(instance)
            self._classes12.invalidate_members(store.equals_of_right(instance))
        # Literal-index postings: update both sides first, then derive
        # which query literals saw their candidate sets move.
        for literal in effect.removed_literals1:
            aligner.literals1.discard(literal)
        for literal in effect.added_literals1:
            aligner.literals1.add(literal)
        for literal in effect.removed_literals2:
            aligner.literals2.discard(literal)
        for literal in effect.added_literals2:
            aligner.literals2.add(literal)
        for literal in (*effect.added_literals2, *effect.removed_literals2):
            # Right-side postings changed: left query literals sharing a
            # blocking key now see different candidates.
            for query in self._similar_literals(literal, aligner.literals1):
                seed1.add(query)
                dirty.update(self._instance_neighbours1(query))
        for literal in (*effect.added_literals1, *effect.removed_literals1):
            for query in self._similar_literals(literal, aligner.literals2):
                seed2.add(query)
        # Functionalities (Section 5.1 computes them upfront; a delta
        # is exactly the event that invalidates that assumption).
        fun1_changes = aligner.fun1.invalidate(effect.touched_relations1)
        for relation, (old, new) in fun1_changes.items():
            if abs(new - old) > tolerance:
                # fun1 enters Eq. 13 as fun⁻¹(r) = fun(r⁻): a changed
                # fun(u) re-prices the statements of u's inverse.
                dirty.update(aligner._instance_subjects(relation.inverse))
        fun2_changes = aligner.fun2.invalidate(effect.touched_relations2)
        if any(abs(new - old) > tolerance for old, new in fun2_changes.values()):
            # fun2 weighs candidate statements of arbitrary right
            # instances; its reach cannot be bounded by one hop.
            full = True
        # Right-side statement changes reach left scores through the
        # equivalents of their endpoints.
        for _relation, subject, obj in effect.statements2:
            for node in (subject, obj):
                if isinstance(node, Literal):
                    for query in self._similar_literals(node, aligner.literals1):
                        seed1.add(query)
                        dirty.update(self._instance_neighbours1(query))
                else:
                    for left in store.equals_of_right(node):
                        seed1.add(left)
                        dirty.update(self._instance_neighbours1(left))
        # Left-side statement changes reach the reverse relation matrix
        # through the equivalents of their endpoints.
        for _relation, subject, obj in effect.statements1:
            for node in (subject, obj):
                if isinstance(node, Literal):
                    for query in self._similar_literals(node, aligner.literals2):
                        seed2.add(query)
                else:
                    seed2.update(store.equals_of(node))
        return dirty, seed1, seed2, full

    # ------------------------------------------------------------------
    # read-side fan-out (query index + change subscriptions)
    # ------------------------------------------------------------------

    def add_change_listener(self, listener) -> None:
        """Register ``listener(events, version, wal_offset)`` — called
        after every applied batch with its net :class:`ChangeEvent` log
        (possibly empty).  Listener failures are logged, never poison
        the engine, and never fail the delta."""
        self.change_listeners.append(listener)

    @staticmethod
    def _events_for(
        side: str,
        changes: ChangeLog,
        wal_offset: int,
        version: int,
    ) -> Iterable[ChangeEvent]:
        for entity, (previous, match) in sorted(
            changes.items(), key=lambda item: item[0].name
        ):
            yield ChangeEvent(
                side=side,
                entity=entity.name,
                counterpart=match[0].name if match is not None else None,
                probability=match[1] if match is not None else 0.0,
                previous_counterpart=previous[0].name if previous is not None else None,
                previous_probability=previous[1] if previous is not None else 0.0,
                wal_offset=wal_offset,
                version=version,
            )

    def _publish_changes(self) -> None:
        """Fold the stashed net change log into the query index and
        fan it out to the change listeners (no-op batches still advance
        the index/listener cursors so ETags and watch cursors track the
        applied offset)."""
        pending = self._pending_changes
        self._pending_changes = None
        version = self.state.version
        wal_offset = self.state.wal_offset
        events: List[ChangeEvent] = []
        if pending is not None:
            changes12, changes21 = pending
            # Digest maintenance rides the same O(changes) log: XOR the
            # old pair hash out, the new one in, checkpoint at the
            # offset the batch is durable under.
            self.digests.apply(changes12, wal_offset)
            self.query_index.apply_changes(
                changes12, version=version, wal_offset=wal_offset
            )
            events.extend(self._events_for("left", changes12, wal_offset, version))
            events.extend(self._events_for("right", changes21, wal_offset, version))
        else:
            self.digests.advance(wal_offset)
            self.query_index.apply_changes({}, version=version, wal_offset=wal_offset)
        # Mirror onto the state so every snapshot carries the digest it
        # was taken at — the bootstrap integrity check on the far side.
        self.state.digest = self.digests.digest
        for listener in self.change_listeners:
            try:
                listener(events, version, wal_offset)
            except Exception as error:  # noqa: BLE001 - listener isolation
                _log.warning("change listener failed", error=repr(error))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def neighborhood(self, name: str) -> Dict[str, object]:
        """Every stored equivalence involving one entity, both roles.

        Serves ``GET /alignment?entity=X``: the store is already
        indexed per entity on both sides, so this is a dictionary
        lookup plus a sort of that entity's own candidates — never a
        table scan.
        """
        resource = Resource(name)
        with self.lock:
            self._check_consistent()
            as_left = sorted(
                self.state.store.equals_of(resource).items(),
                key=lambda item: (-item[1], item[0].name),
            )
            as_right = sorted(
                self.state.store.equals_of_right(resource).items(),
                key=lambda item: (-item[1], item[0].name),
            )
            best12 = self._assignment12.get(resource)
            best21 = self._assignment21.get(resource)
        payload: Dict[str, object] = {
            "entity": name,
            "as_left": [
                {"right": other.name, "probability": probability}
                for other, probability in as_left
            ],
            "as_right": [
                {"left": other.name, "probability": probability}
                for other, probability in as_right
            ],
        }
        if best12 is not None:
            payload["best_counterpart_as_left"] = {
                "right": best12[0].name,
                "probability": best12[1],
            }
        if best21 is not None:
            payload["best_counterpart_as_right"] = {
                "left": best21[0].name,
                "probability": best21[1],
            }
        return payload

    def pair(self, left_name: str, right_name: str) -> Dict[str, object]:
        """Probability and assignment context for one instance pair."""
        left = Resource(left_name)
        right = Resource(right_name)
        with self.lock:
            self._check_consistent()
            probability = self.state.store.get(left, right)
            best12 = self._assignment12.get(left)
            best21 = self._assignment21.get(right)
        payload: Dict[str, object] = {
            "left": left_name,
            "right": right_name,
            "probability": probability,
        }
        if best12:
            payload["best_counterpart_of_left"] = {
                "right": best12[0].name,
                "probability": best12[1],
            }
        if best21:
            payload["best_counterpart_of_right"] = {
                "left": best21[0].name,
                "probability": best21[1],
            }
        return payload

    def alignment(self, threshold: float = 0.0) -> List[Tuple[str, str, float]]:
        """Maximal-assignment pairs with probability ≥ ``threshold``."""
        with self.lock:
            self._check_consistent()
            pairs = [
                (left.name, counterpart.name, probability)
                for left, (counterpart, probability) in self._assignment12.items()
                if probability >= threshold
            ]
        pairs.sort(key=lambda row: (-row[2], row[0], row[1]))
        return pairs

    def digest_payload(
        self,
        offset: Optional[int] = None,
        lo: Optional[str] = None,
        hi: Optional[str] = None,
        verify: bool = False,
    ) -> Dict[str, object]:
        """The state digest surface behind ``GET /digest``.

        * no params — the current ``(wal_offset, digest)``;
        * ``offset=K`` — the digest as of WAL offset K, from the bounded
          checkpoint history (``KeyError`` once aged out → HTTP 409);
        * ``lo=``/``hi=`` — a live entity-range sub-digest, the probe
          ``repro doctor`` binary-searches divergence with;
        * ``verify`` — full recompute alongside the incremental digest,
          so one request both reads and self-checks.
        """
        with self.lock:
            self._check_consistent()
            wal_offset, digest = self.digests.snapshot()
            payload: Dict[str, object] = {
                "wal_offset": wal_offset,
                "digest": format_digest(digest),
                "version": self.state.version,
                "pairs": len(self._assignment12),
            }
            if offset is not None and offset != wal_offset:
                at = self.digests.at_offset(offset)
                if at is None:
                    raise KeyError(
                        f"offset {offset} not in digest history "
                        f"(current {wal_offset})"
                    )
                payload["at_offset"] = {"wal_offset": offset, "digest": format_digest(at)}
            if lo is not None or hi is not None:
                payload["range"] = range_digest(self._assignment12, lo, hi)
            if verify:
                recomputed = digest_assignment(self._assignment12)
                AUDIT_CHECKS.inc(kind="digest")
                if recomputed != digest:
                    AUDIT_MISMATCH.inc(kind="digest")
                    _log.error(
                        "incremental digest diverged from full recompute",
                        incremental=format_digest(digest),
                        recomputed=format_digest(recomputed),
                        wal_offset=wal_offset,
                    )
                payload["recomputed"] = format_digest(recomputed)
                payload["verified"] = recomputed == digest
            return payload

    def health(self) -> Dict[str, object]:
        with self.lock:
            state = self.state
            return {
                "status": "ok" if self.poisoned is None else "inconsistent",
                # The fail-stop reason, verbatim (None while healthy):
                # probes alert on it without scraping /stats.
                "degraded": self.poisoned,
                "version": state.version,
                "converged": state.converged,
                "left": state.ontology1.name,
                "right": state.ontology2.name,
                "facts_left": state.ontology1.num_facts,
                "facts_right": state.ontology2.num_facts,
                "instance_pairs": len(state.store),
                "matched_left": len(self._assignment12),
                "matched_right": len(self._assignment21),
            }

    def stats(self) -> Dict[str, object]:
        """Work/ingestion counters for monitoring (``GET /stats``).

        Deliberately *not* guarded by the fail-stop check: operators
        need the counters most while diagnosing a poisoned engine.
        """
        with self.lock:
            state = self.state
            return {
                "status": "ok" if self.poisoned is None else "inconsistent",
                "version": state.version,
                "wal_offset": state.wal_offset,
                "deltas_applied": self.deltas_applied,
                "pairs_touched_total": self.total_pairs_touched,
                "instance_pairs": len(state.store),
                "converged": state.converged,
                "digest": format_digest(self.digests.digest),
                "digest_offset": self.digests.wal_offset,
                # Span tree of the most recent cold/warm align — the
                # staged kernel build/score/merge profile, live.
                "last_align_profile": self.aligner.last_profile,
            }

    def snapshot(self, directory: Union[str, Path]) -> Path:
        """Persist the current state (see :mod:`repro.service.state`)."""
        with self.lock:
            self._check_consistent()
            return save_state(self.state, directory)
