"""Result objects of an alignment run.

An :class:`AlignmentResult` bundles everything Section 6 evaluates:

* final instance equivalences and their maximal assignments (both
  directions),
* relation-inclusion matrices in both directions (Tables 3–5 report
  them separately as ``yago ⊆ DBp`` and ``DBp ⊆ yago``),
* class-inclusion matrices in both directions,
* for cold runs, per-iteration snapshots carrying the maximal
  assignment and relation matrices of each iteration, which is what the
  per-iteration rows of Tables 3 and 5 are computed from,
* for warm runs, the net :data:`ChangeLog` of both maximal assignments
  — ``entity -> (old, new)`` — recorded by the restricted-view
  maintainer as the passes move rows, in O(entities changed).

Snapshots store assignment state as a chain of deltas: each
:class:`IterationSnapshot` holds only the change of the maximal
assignments against the previous pass (a cold chain starts from empty
assignments), and the ``assignment12``/``assignment21`` properties
reconstruct the full per-pass assignment by replaying the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rdf.terms import Relation, Resource
from .matrix import SubsumptionMatrix
from .store import EquivalenceStore

#: Maximal assignment: instance → (best counterpart, probability).
Assignment = Dict[Resource, Tuple[Resource, float]]

#: One pass's change to a maximal assignment: instance → its new
#: (counterpart, probability), or ``None`` when the instance dropped
#: out of the assignment entirely.
AssignmentDelta = Dict[Resource, Optional[Tuple[Resource, float]]]

#: A run's net change to a maximal assignment: entity → ``(old, new)``,
#: each side a ``(counterpart, probability)`` or ``None`` when the
#: entity is absent from that assignment.  Entities that ended where
#: they started are not listed.
ChangeLog = Dict[
    Resource, Tuple[Optional[Tuple[Resource, float]], Optional[Tuple[Resource, float]]]
]


def assignment_delta(previous: Assignment, current: Assignment) -> AssignmentDelta:
    """The delta that turns ``previous`` into ``current``.

    Inverse of :func:`apply_assignment_delta`:
    ``apply_assignment_delta(dict(previous), assignment_delta(previous,
    current)) == current`` for any two assignments.
    """
    delta: AssignmentDelta = {}
    for entity, match in current.items():
        if previous.get(entity) != match:
            delta[entity] = match
    for entity in previous:
        if entity not in current:
            delta[entity] = None
    return delta


def apply_assignment_delta(assignment: Assignment, delta: AssignmentDelta) -> Assignment:
    """Apply one pass's delta to ``assignment`` in place (and return it)."""
    for entity, match in delta.items():
        if match is None:
            assignment.pop(entity, None)
        else:
            assignment[entity] = match
    return assignment


@dataclass
class IterationSnapshot:
    """State captured at the end of one fixpoint iteration.

    Construct via :meth:`capture` (which computes the assignment deltas
    from the caller's running full assignments) and read the full
    per-pass assignments back through the ``assignment12`` /
    ``assignment21`` properties; the raw delta fields exist for
    introspection and for tests asserting the O(changed) storage bound.
    """

    #: 1-based iteration number.
    index: int
    #: Wall-clock seconds spent in this iteration.
    duration_seconds: float
    #: Fraction of instances whose maximal assignment changed relative
    #: to the previous iteration (the "Change to prev." column of
    #: Tables 3 and 5); ``None`` for the first iteration.
    change_fraction: Optional[float]
    #: Number of stored positive equivalences after this iteration.
    num_equivalences: int
    #: Changes of the left → right maximal assignment relative to the
    #: previous pass (or to the empty assignment on the chain head).
    assignment12_delta: AssignmentDelta
    #: Changes of the right → left maximal assignment.
    assignment21_delta: AssignmentDelta
    #: Relation inclusions left ⊆ right computed in this iteration.
    relations12: SubsumptionMatrix[Relation]
    #: Relation inclusions right ⊆ left computed in this iteration.
    relations21: SubsumptionMatrix[Relation]
    #: The previous pass's snapshot (``None`` on the chain head).
    previous: Optional["IterationSnapshot"] = field(default=None, repr=False)

    @classmethod
    def capture(
        cls,
        *,
        index: int,
        duration_seconds: float,
        change_fraction: Optional[float],
        num_equivalences: int,
        assignment12: Assignment,
        assignment21: Assignment,
        relations12: SubsumptionMatrix[Relation],
        relations21: SubsumptionMatrix[Relation],
        previous: Optional["IterationSnapshot"],
        previous12: Assignment,
        previous21: Assignment,
    ) -> "IterationSnapshot":
        """Snapshot one pass, storing only its assignment changes.

        ``previous12``/``previous21`` are the full assignments that
        ``previous`` reconstructs to (empty on the chain head) — the
        cold loop tracks them anyway for its convergence criterion, so
        capturing never has to replay the chain.
        """
        return cls(
            index=index,
            duration_seconds=duration_seconds,
            change_fraction=change_fraction,
            num_equivalences=num_equivalences,
            assignment12_delta=assignment_delta(previous12, assignment12),
            assignment21_delta=assignment_delta(previous21, assignment21),
            relations12=relations12,
            relations21=relations21,
            previous=previous,
        )

    def _reconstruct(self, forward: bool) -> Assignment:
        chain: List["IterationSnapshot"] = []
        node: Optional["IterationSnapshot"] = self
        while node is not None:
            chain.append(node)
            node = node.previous
        chain.reverse()
        assignment: Assignment = {}
        for snapshot in chain:
            apply_assignment_delta(
                assignment,
                snapshot.assignment12_delta if forward else snapshot.assignment21_delta,
            )
        return assignment

    @property
    def assignment12(self) -> Assignment:
        """Maximal assignment, left ontology → right ontology.

        Reconstructed by replaying the delta chain on *every* access —
        O(matched + changes), not a stored dict — so callers that read
        it repeatedly (e.g. inside per-entity loops) should hoist it
        into a local first.
        """
        return self._reconstruct(forward=True)

    @property
    def assignment21(self) -> Assignment:
        """Maximal assignment, right ontology → left ontology (same
        access cost caveat as :attr:`assignment12`)."""
        return self._reconstruct(forward=False)


@dataclass
class AlignmentResult:
    """Complete output of a PARIS run."""

    #: Name of the left ontology.
    left_name: str
    #: Name of the right ontology.
    right_name: str
    #: Final instance-equivalence store.
    instances: EquivalenceStore
    #: Final maximal assignment, left → right.
    assignment12: Assignment
    #: Final maximal assignment, right → left.
    assignment21: Assignment
    #: Final relation inclusions, left ⊆ right.
    relations12: SubsumptionMatrix[Relation]
    #: Final relation inclusions, right ⊆ left.
    relations21: SubsumptionMatrix[Relation]
    #: Class inclusions, left ⊆ right (computed after the fixpoint).
    classes12: SubsumptionMatrix[Resource]
    #: Class inclusions, right ⊆ left.
    classes21: SubsumptionMatrix[Resource]
    #: Whether the run stopped because the change criterion was met
    #: (as opposed to hitting the iteration cap).
    converged: bool
    #: Fixpoint iterations that ran (warm runs: warm passes).
    num_iterations: int = 0
    #: Per-iteration snapshots of a cold run (empty if
    #: ``keep_snapshots`` was off, and always for warm runs).
    iterations: List[IterationSnapshot] = field(default_factory=list)
    #: Store/view entry writes performed by the warm-start fixpoint
    #: (0 for cold runs) — the O(frontier) work metric the incremental
    #: microbenchmark asserts against the store size.
    pairs_touched: int = 0
    #: Net change logs of a warm run, left → right and right → left
    #: (``None`` for cold runs).
    changes: Optional[Tuple[ChangeLog, ChangeLog]] = None

    def net_assignment_changes(self) -> Optional[Tuple[ChangeLog, ChangeLog]]:
        """The warm run's net change log for both maximal assignments.

        Recorded by the restricted-view maintainer while the passes
        moved rows, so it costs O(entities changed), never O(matched).
        ``None`` for cold runs.
        """
        return self.changes

    def instance_pairs(self, threshold: float = 0.0) -> List[Tuple[Resource, Resource, float]]:
        """Maximal-assignment pairs with probability ≥ ``threshold``.

        This is the output evaluated against gold standards in
        Section 6.1 ("For instances, we considered only the assignment
        with the maximal score").
        """
        return [
            (left, right, probability)
            for left, (right, probability) in self.assignment12.items()
            if probability >= threshold
        ]

    def relation_pairs(
        self, threshold: float = 0.0, reverse: bool = False
    ) -> List[Tuple[Relation, Relation, float]]:
        """Maximally-assigned relation inclusions with score ≥ ``threshold``.

        Section 6.4: "We consider only the maximally assigned relation,
        because the relations do not form a hierarchy."
        """
        matrix = self.relations21 if reverse else self.relations12
        pairs: List[Tuple[Relation, Relation, float]] = []
        for sub in {sub for sub, _sup, _p in matrix.items()}:
            best = matrix.best_super(sub)
            if best is not None and best[1] >= threshold:
                pairs.append((sub, best[0], best[1]))
        pairs.sort(key=lambda entry: -entry[2])
        return pairs

    def class_pairs(
        self, threshold: float = 0.0, reverse: bool = False
    ) -> List[Tuple[Resource, Resource, float]]:
        """All class inclusions with score ≥ ``threshold`` (best first).

        Unlike relations, classes keep *all* assignments above the
        threshold: "paris assigns one class of one ontology to multiple
        classes in the taxonomy of the other ontology" (Section 6.4).
        """
        matrix = self.classes21 if reverse else self.classes12
        return matrix.pairs_above(threshold)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        status = "converged" if self.converged else "stopped at iteration cap"
        return (
            f"PARIS alignment {self.left_name} <-> {self.right_name}: "
            f"{self.num_iterations} iterations ({status}), "
            f"{len(self.assignment12)} instances matched left-to-right, "
            f"{len(self.assignment21)} right-to-left, "
            f"{len(self.relations12)} relation inclusions left-in-right, "
            f"{len(self.relations21)} right-in-left, "
            f"{len(self.classes12)} class inclusions left-in-right, "
            f"{len(self.classes21)} right-in-left."
        )
