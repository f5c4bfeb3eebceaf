"""Incremental maintenance of the warm-start fixpoint's derived state.

Two structures live here, both with the same contract: equal to their
from-scratch counterpart, at O(what changed) per refresh instead of
O(everything).

**Relation matrices.**  One direction of the relation pass
(:mod:`repro.core.subrelations`) computes, for every relation ``r`` of
the sub-side ontology::

    Pr(r ⊆ r') = num(r, r') / den(r)

where both ``num`` and ``den`` are sums of independent per-statement
terms (:func:`repro.core.subrelations.statement_terms`).  A delta batch
or a warm-start pass changes the equivalents-view of only a few nodes,
hence the terms of only a few statements — so instead of re-walking
every statement of every relation, :class:`IncrementalRelationPass`
caches the per-statement terms and re-aggregates only the rows a change
actually touches.

The maintained matrix differs from a fresh sweep only by float
re-association in the running sums (≈1 ulp per update), far inside the
warm-start equality budget; relations whose statement count exceeds the
``max_pairs`` cap are recomputed with the exact sequential code instead
of being cached, because the cap makes their row depend on traversal
order, not just on the term multiset.

**Restricted views.**  Section 5.2 restricts every pass to the previous
maximal assignment.  Rebuilding that restriction
(:meth:`EquivalenceStore.restricted_to_maximal`) scans all pairs; after
a warm pass replaced only a frontier's rows, just those lefts — and the
rights appearing in their old/new rows — can change their best match.
:class:`RestrictedViewMaintainer` keeps both maximal assignments and
the restricted store live under row replacements, applying an
:class:`~repro.core.store.OverlayStore`'s touched rows in O(frontier)
and reporting exactly the view entries that moved (which is also what
replaces the warm loop's full store diffs).  It also records the
pre-run value of every assignment entry it moves, which makes it the
one source of a warm run's net change log
(:meth:`RestrictedViewMaintainer.take_changes`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Node, Relation, Resource
from .matrix import SubsumptionMatrix
from .result import Assignment, AssignmentDelta, ChangeLog
from .store import EquivalenceStore, OverlayStore, best_counterpart
from .subrelations import score_relation, statement_terms
from .view import EquivalenceView

#: A statement of the sub-side ontology, oriented along its relation.
Statement = Tuple[Node, Node]

#: Denominators smaller than this are rebuilt from scratch instead of
#: trusted: subtraction drift could otherwise flip a near-empty row's
#: sign or blow up its ratios.
_DEN_REBUILD_FLOOR = 1e-9


class RowChange:
    """How one relation's row moved during a refresh.

    Attributes
    ----------
    max_delta:
        Largest absolute change over the row's explicit entries and its
        default (0.0 when the refresh left the row numerically intact).
    changed_supers:
        Super-relations whose explicit/effective score changed.
    default_changed:
        Whether the row's *default* score changed (a row flipping
        between no-evidence ``θ`` and computed entries changes the
        score of every super-relation at once).
    """

    __slots__ = ("max_delta", "changed_supers", "default_changed")

    def __init__(self) -> None:
        self.max_delta = 0.0
        self.changed_supers: Set[Relation] = set()
        self.default_changed = False

    def note(self, sup: Optional[Relation], delta: float) -> None:
        if delta == 0.0:
            return
        self.max_delta = max(self.max_delta, delta)
        if sup is None:
            self.default_changed = True
        else:
            self.changed_supers.add(sup)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RowChange(max_delta={self.max_delta:.3e}, "
            f"supers={len(self.changed_supers)}, default={self.default_changed})"
        )


class IncrementalRelationPass:
    """One direction of the relation pass with per-statement term cache.

    Parameters mirror :func:`repro.core.subrelations.subrelation_pass`;
    ``ontology1`` is the sub-side ontology (the right one when
    ``reverse`` is set).  ``self.matrix`` is always equal to what a
    fresh ``subrelation_pass`` over the current ontology state and the
    last-refreshed view would produce (modulo summation drift, and
    bit-identical right after construction).
    """

    def __init__(
        self,
        ontology1: Ontology,
        ontology2: Ontology,
        view: EquivalenceView,
        truncation_threshold: float,
        max_pairs: int,
        reverse: bool = False,
        bootstrap_theta: float = 0.0,
    ) -> None:
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.truncation_threshold = truncation_threshold
        self.max_pairs = max_pairs
        self.reverse = reverse
        self.bootstrap_theta = bootstrap_theta
        self.matrix: SubsumptionMatrix[Relation] = SubsumptionMatrix()
        self._terms: Dict[Relation, Dict[Statement, Tuple[float, Dict[Relation, float]]]] = {}
        self._den: Dict[Relation, float] = {}
        self._num: Dict[Relation, Dict[Relation, float]] = {}
        self._capped: Set[Relation] = set()
        for relation in ontology1.relations(include_inverses=True):
            self._rebuild_relation(relation, view)

    # ------------------------------------------------------------------

    def _is_capped(self, relation: Relation) -> bool:
        return self.ontology1.num_statements(relation) > self.max_pairs

    def _rebuild_relation(self, relation: Relation, view: EquivalenceView) -> RowChange:
        """Recompute one relation's sums (and row) from scratch."""
        if self._is_capped(relation):
            self._capped.add(relation)
            self._terms.pop(relation, None)
            self._den.pop(relation, None)
            self._num.pop(relation, None)
            scores = score_relation(
                relation,
                self.ontology1,
                self.ontology2,
                view,
                self.max_pairs,
                reverse=self.reverse,
            )
            return self._install_row(relation, scores)
        self._capped.discard(relation)
        terms: Dict[Statement, Tuple[float, Dict[Relation, float]]] = {}
        den = 0.0
        num: Dict[Relation, float] = {}
        # Accumulate in the exact statement order of the sequential
        # pass, so a freshly built matrix is bit-identical to its
        # subrelation_pass counterpart.
        for x, y in self.ontology1.pairs(relation):
            den_term, num_terms = statement_terms(
                x, y, self.ontology2, view, reverse=self.reverse
            )
            if den_term != 0.0 or num_terms:
                terms[(x, y)] = (den_term, num_terms)
            den += den_term
            for relation2, term in num_terms.items():
                num[relation2] = num.get(relation2, 0.0) + term
        self._terms[relation] = terms
        self._den[relation] = den
        self._num[relation] = num
        return self._install_row(relation, self._row_from_sums(relation))

    def _row_from_sums(self, relation: Relation) -> Optional[Dict[Relation, float]]:
        den = self._den.get(relation, 0.0)
        if den <= 0.0:
            return None
        return {
            relation2: min(1.0, max(0.0, numerator / den))
            for relation2, numerator in self._num[relation].items()
        }

    def _install_row(
        self, relation: Relation, scores: Optional[Dict[Relation, float]]
    ) -> RowChange:
        """Replace the matrix row of ``relation``; report what moved."""
        old_entries = dict(self.matrix.supers_of(relation))
        old_default = self.matrix.sub_default(relation)
        self.matrix.clear_sub(relation)
        if scores is None:
            self.matrix.set_sub_default(relation, self.bootstrap_theta)
        else:
            for relation2, score in scores.items():
                if score >= self.truncation_threshold:
                    self.matrix.set(relation, relation2, score)
        change = RowChange()
        new_entries = dict(self.matrix.supers_of(relation))
        new_default = self.matrix.sub_default(relation)
        change.note(None, abs(new_default - old_default))
        for relation2 in old_entries.keys() | new_entries.keys():
            before = old_entries.get(relation2, old_default)
            after = new_entries.get(relation2, new_default)
            change.note(relation2, abs(after - before))
        return change

    # ------------------------------------------------------------------

    def refresh(
        self,
        view: EquivalenceView,
        changed_nodes: Iterable[Node] = (),
        changed_statements: Iterable[Tuple[Relation, Node, Node]] = (),
    ) -> Dict[Relation, RowChange]:
        """Bring the matrix up to date after a view or graph change.

        Parameters
        ----------
        view:
            The equivalents-view the matrix should now reflect (the
            warm pass's current restricted store + literal indexes).
        changed_nodes:
            Sub-side nodes whose equivalents changed since the last
            refresh — instances with moved scores, or literals whose
            candidate sets shifted.  Every statement touching such a
            node has stale terms.
        changed_statements:
            ``(relation, subject, object)`` data statements added or
            removed by a delta, oriented along ``relation`` (the
            inverse orientation is derived here).

        Returns the rows that changed, for frontier expansion.
        """
        dirty: Dict[Relation, Set[Statement]] = {}
        for node in changed_nodes:
            for relation, other in self.ontology1.statements_about(node):
                dirty.setdefault(relation, set()).add((node, other))
                dirty.setdefault(relation.inverse, set()).add((other, node))
        for relation, subject, obj in changed_statements:
            dirty.setdefault(relation, set()).add((subject, obj))
            dirty.setdefault(relation.inverse, set()).add((obj, subject))
        changes: Dict[Relation, RowChange] = {}
        for relation, statements in dirty.items():
            if (
                relation in self._capped
                or relation not in self._terms
                or self._is_capped(relation)
            ):
                change = self._rebuild_relation(relation, view)
            else:
                change = self._update_relation(relation, statements, view)
            if change.max_delta > 0.0:
                changes[relation] = change
        return changes

    def _update_relation(
        self,
        relation: Relation,
        statements: Set[Statement],
        view: EquivalenceView,
    ) -> RowChange:
        terms = self._terms[relation]
        den = self._den[relation]
        num = self._num[relation]
        for statement in statements:
            old_den, old_num = terms.pop(statement, (0.0, {}))
            den -= old_den
            for relation2, term in old_num.items():
                num[relation2] = num.get(relation2, 0.0) - term
            x, y = statement
            if self.ontology1.has(x, relation, y):
                new_den, new_num = statement_terms(
                    x, y, self.ontology2, view, reverse=self.reverse
                )
                if new_den != 0.0 or new_num:
                    terms[statement] = (new_den, new_num)
                den += new_den
                for relation2, term in new_num.items():
                    num[relation2] = num.get(relation2, 0.0) + term
        # Drop numerators that cancelled to (numerical) zero so rows do
        # not accumulate ghost entries.
        for relation2 in [r2 for r2, value in num.items() if value <= 0.0]:
            del num[relation2]
        self._num[relation] = num
        if not terms:
            # No contributing statements left: the true sum is exactly
            # zero; discard any subtraction-drift residue so the row
            # falls back to the no-evidence default like a fresh pass.
            den = 0.0
        elif den < _DEN_REBUILD_FLOOR:
            # The running sum is in drift territory (including a sum
            # driven to or below zero while contributing terms remain);
            # recompute exactly instead of trusting it.
            return self._rebuild_relation(relation, view)
        self._den[relation] = max(den, 0.0)
        return self._install_row(relation, self._row_from_sums(relation))


class RestrictedViewMaintainer:
    """Keeps ``store.restricted_to_maximal()`` live under row replacements.

    Parameters
    ----------
    store:
        The live full store.  Built once at attach time (O(store));
        every later :meth:`apply` costs O(frontier).

    Attributes
    ----------
    view_store:
        The maintained restricted store — always equal to
        ``store.restricted_to_maximal()`` (same entries, same floats).
    assignment12, assignment21:
        The maintained maximal assignments, equal to
        ``store.maximal_assignment()`` / ``(reverse=True)``.  Mutated in
        place by :meth:`apply`; readers share them live (the service
        reads them under its engine lock).
    """

    def __init__(self, store: EquivalenceStore) -> None:
        self.store = store
        self.assignment12 = store.maximal_assignment()
        self.assignment21 = store.maximal_assignment(reverse=True)
        #: entity → its assignment value before the first change since
        #: the last :meth:`take_changes` (``None``: it was unmatched).
        self._before12: AssignmentDelta = {}
        self._before21: AssignmentDelta = {}
        self.view_store = EquivalenceStore(store.truncation_threshold)
        for left, (right, probability) in self.assignment12.items():
            self.view_store.set(left, right, probability)
        for right, (left, probability) in self.assignment21.items():
            self.view_store.set(left, right, probability)

    def apply(
        self, overlay: OverlayStore
    ) -> Dict[Tuple[Resource, Resource], Tuple[float, float]]:
        """Fold an overlay's touched rows into the restricted view.

        Must run *before* ``overlay.commit()`` (old rows are read from
        the base, new rows through the overlay).  Returns the restricted
        view entries that changed, as ``(left, right) -> (old, new)`` —
        the warm loop's convergence/frontier signal, in O(frontier)
        instead of a full store diff.  Every assignment entry it moves
        is also noted for :meth:`take_changes`.
        """
        if overlay.base is not self.store:
            raise ValueError("overlay must be layered over the maintained store")
        assignment12 = self.assignment12
        assignment21 = self.assignment21
        affected_rights: Set[Resource] = set()
        candidates: Set[Tuple[Resource, Resource]] = set()
        for left in overlay.touched_lefts:
            old_row = self.store.equals_of(left)
            new_row = overlay.equals_of(left)
            affected_rights.update(old_row.keys())
            affected_rights.update(new_row.keys())
            old_best = assignment12.get(left)
            if old_best is not None:
                candidates.add((left, old_best[0]))
            new_best = best_counterpart(new_row)
            if new_best is not None:
                candidates.add((left, new_best[0]))
            _move(assignment12, self._before12, left, old_best, new_best)
        for right in affected_rights:
            old_best = assignment21.get(right)
            if old_best is not None:
                candidates.add((old_best[0], right))
            new_best = best_counterpart(overlay.equals_of_right(right))
            if new_best is not None:
                candidates.add((new_best[0], right))
            _move(assignment21, self._before21, right, old_best, new_best)
        changes: Dict[Tuple[Resource, Resource], Tuple[float, float]] = {}
        view = self.view_store
        for left, right in candidates:
            best12 = assignment12.get(left)
            best21 = assignment21.get(right)
            if best12 is not None and best12[0] == right:
                desired = best12[1]
            elif best21 is not None and best21[0] == left:
                desired = best21[1]
            else:
                desired = 0.0
            current = view.get(left, right)
            if desired == current:
                continue
            if desired == 0.0:
                view.discard(left, right)
            else:
                view.set(left, right, desired)
            changes[(left, right)] = (current, desired)
        return changes

    def take_changes(self) -> Tuple[ChangeLog, ChangeLog]:
        """The net change logs since the last call, and reset them.

        One ``entity -> (old, new)`` map per assignment (left → right,
        right → left): ``old`` is the entity's value when it first
        moved, ``new`` its current one.  Entities that ended where they
        started are left out.  O(entities changed).
        """
        changes = (
            _net_changes(self._before12, self.assignment12),
            _net_changes(self._before21, self.assignment21),
        )
        self._before12 = {}
        self._before21 = {}
        return changes


def _net_changes(before: AssignmentDelta, assignment: Assignment) -> ChangeLog:
    """``entity -> (old, new)`` for the noted entities that moved."""
    log: ChangeLog = {}
    for entity, old in before.items():
        new = assignment.get(entity)
        if new != old:
            log[entity] = (old, new)
    return log


def _move(
    assignment: Assignment,
    before: AssignmentDelta,
    entity: Resource,
    old: Optional[Tuple[Resource, float]],
    new: Optional[Tuple[Resource, float]],
) -> None:
    """Set ``assignment[entity]`` to ``new`` (``None`` drops it),
    noting ``old`` in ``before`` on the entity's first change."""
    if new == old:
        return
    if entity not in before:
        before[entity] = old
    if new is None:
        del assignment[entity]
    else:
        assignment[entity] = new
