"""Sparse storage of cross-ontology instance equivalences.

Section 5.2: "our model distinguishes true equivalences
(Pr(x ≡ x') > 0) from false equivalences (Pr(x ≡ x') = 0) and unknown
equivalences [...]  our algorithm does not need to store equivalences
of value 0 at all."  The store therefore keeps only strictly positive
probabilities, truncated at ``θ``, in both directions.

The *maximal assignment* (Section 4.2) maps each instance to the single
equivalent with the highest score; exact ties break deterministically
on the counterpart name, so the assignment never depends on insertion
order (in particular not on the parallel engine's shard-merge order).

Copy-on-write overlays
----------------------
The warm-start fixpoint (:meth:`repro.core.aligner.ParisAligner.warm_align`)
replaces only the rows of its dirty frontier per pass.  Copying the
whole store to do that costs O(total pairs) per pass — the dominant
cost for multi-million-pair stores absorbing 1 % deltas.
:class:`OverlayStore` is the O(frontier) alternative: a read view over
a frozen base :class:`EquivalenceStore` plus a private dict of
*replaced left rows*.  Invariants:

* the base is never mutated until :meth:`OverlayStore.commit`, so
  concurrent readers of the base (the pass scoring against the frozen
  previous-iteration view) stay consistent;
* a left instance is either *untouched* (all reads fall through to the
  base) or *replaced* (its overlay row is the complete truth — the base
  row for that left is dead, including in the backward direction);
* the backward read (:meth:`OverlayStore.equals_of_right`) merges the
  base's backward row minus replaced lefts with the overlay's backward
  postings, so both directions agree at every point in time;
* :meth:`OverlayStore.commit` folds the replaced rows into the base in
  place — O(touched rows), not O(store) — and returns the base;
* ``pairs_touched`` counts every entry write/clear, the work metric the
  incremental microbenchmark asserts scales with the frontier.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..rdf.terms import Resource


def accepted_probability(probability: float, threshold: float) -> Optional[float]:
    """Range-check and clamp one probability against the Section 5.2
    truncation: values *strictly below* ``threshold`` (and exact zeros)
    erase — ``None`` — while a value exactly at the threshold is kept.
    Shared by the base store and the overlay so both always apply the
    same storing decision."""
    if probability < 0.0 or probability > 1.0 + 1e-9:
        raise ValueError(f"probability out of range: {probability}")
    probability = min(probability, 1.0)
    if probability < threshold or probability == 0.0:
        return None
    return probability


def best_counterpart(row: Mapping[Resource, float]) -> Optional[Tuple[Resource, float]]:
    """Best counterpart of one row (Section 4.2): highest probability,
    exact ties broken deterministically on the counterpart name.  The
    single definition behind :meth:`EquivalenceStore.maximal_assignment`
    and the incremental restricted-view maintenance — they must never
    disagree."""
    best: Optional[Tuple[Resource, float]] = None
    for other, probability in row.items():
        if (
            best is None
            or probability > best[1]
            or (probability == best[1] and other.name < best[0].name)
        ):
            best = (other, probability)
    return best


class EquivalenceStore:
    """Bidirectional sparse map ``Pr(x ≡ x')`` between two ontologies.

    Parameters
    ----------
    truncation_threshold:
        Probabilities strictly below this are treated as zero and not
        stored (Section 5.2 thresholds at ``θ``).
    """

    def __init__(self, truncation_threshold: float = 0.0) -> None:
        if truncation_threshold < 0 or truncation_threshold >= 1:
            raise ValueError("truncation_threshold must be in [0, 1)")
        self.truncation_threshold = truncation_threshold
        self._forward: Dict[Resource, Dict[Resource, float]] = {}
        self._backward: Dict[Resource, Dict[Resource, float]] = {}
        #: Cached pair count, so ``len(store)`` is O(1) on the serving
        #: hot path (every mutation keeps it in sync).
        self._count = 0

    def __setstate__(self, state: dict) -> None:
        # Snapshots pickled before the cached count existed restore
        # without it; recompute instead of breaking len().
        self.__dict__.update(state)
        if "_count" not in state:
            self._count = sum(len(row) for row in self._forward.values())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def set(self, left: Resource, right: Resource, probability: float) -> None:
        """Record ``Pr(left ≡ right) = probability`` (both directions).

        Values *strictly below* the truncation threshold erase any
        stored entry; a value exactly equal to the threshold is kept
        (the Section 5.2 truncation is ``Pr < θ ⇒ 0``, not ``≤``).
        """
        accepted = accepted_probability(probability, self.truncation_threshold)
        if accepted is None:
            self.discard(left, right)
            return
        row = self._forward.setdefault(left, {})
        if right not in row:
            self._count += 1
        row[right] = accepted
        self._backward.setdefault(right, {})[left] = accepted

    def discard(self, left: Resource, right: Resource) -> None:
        """Remove a stored equivalence if present."""
        row = self._forward.get(left)
        if row and right in row:
            del row[right]
            self._count -= 1
            if not row:
                del self._forward[left]
        row = self._backward.get(right)
        if row and left in row:
            del row[left]
            if not row:
                del self._backward[right]

    def update(self, entries: Iterable[Tuple[Resource, Resource, float]]) -> None:
        """Bulk-:meth:`set` ``(left, right, probability)`` entries in order.

        This is the merge step of the worker pool
        (:mod:`repro.core.parallel`): task results are applied in task
        order, so the stored values — and therefore the maximal
        assignment, whose exact ties additionally break on the
        counterpart name — do not depend on worker scheduling.
        """
        for left, right, probability in entries:
            self.set(left, right, probability)

    def clear(self) -> None:
        """Drop all stored equivalences."""
        self._forward.clear()
        self._backward.clear()
        self._count = 0

    def clear_left(self, left: Resource) -> None:
        """Drop every stored pair ``(left, ·)`` (both directions).

        This is the row-replacement primitive of the warm-start
        fixpoint: a re-scored instance's row is cleared and refilled,
        while untouched rows keep their previous values.
        """
        row = self._forward.pop(left, None)
        if not row:
            return
        self._count -= len(row)
        for right in row:
            back = self._backward[right]
            del back[left]
            if not back:
                del self._backward[right]

    def copy(self) -> "EquivalenceStore":
        """An independent copy with the same entries and threshold."""
        duplicate = EquivalenceStore(self.truncation_threshold)
        duplicate._forward = {left: dict(row) for left, row in self._forward.items()}
        duplicate._backward = {right: dict(row) for right, row in self._backward.items()}
        duplicate._count = self._count
        return duplicate

    def overlay(self) -> "OverlayStore":
        """A copy-on-write overlay over this store (see module docstring)."""
        return OverlayStore(self)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, left: Resource, right: Resource) -> float:
        """``Pr(left ≡ right)``; 0.0 when unknown (Section 5.2 semantics)."""
        return self._forward.get(left, {}).get(right, 0.0)

    def equals_of(self, left: Resource) -> Mapping[Resource, float]:
        """All ``x'`` with positive ``Pr(left ≡ x')`` (may be empty)."""
        return self._forward.get(left, {})

    def equals_of_right(self, right: Resource) -> Mapping[Resource, float]:
        """All ``x`` with positive ``Pr(x ≡ right)`` (may be empty)."""
        return self._backward.get(right, {})

    def __len__(self) -> int:
        """Number of stored (left, right) pairs (O(1), cached)."""
        return self._count

    def items(self) -> Iterator[Tuple[Resource, Resource, float]]:
        """Iterate all ``(left, right, probability)`` entries."""
        for left, row in self._forward.items():
            for right, probability in row.items():
                yield left, right, probability

    def backward_items(self) -> Iterator[Tuple[Resource, Resource, float]]:
        """Iterate all entries in *backward* (right-row) dict order.

        The reverse relation/class passes read ``equals_of_right`` rows
        and multiply floats in their iteration order, which is the
        original ``set``-call order — not necessarily the order a
        rebuild from :meth:`items` would produce.  The persistent worker
        pool therefore ships both orderings so a worker-side store can
        fill its forward *and* backward rows exactly as the original.
        """
        for right, row in self._backward.items():
            for left, probability in row.items():
                yield left, right, probability

    def diff(
        self, other: "EquivalenceStore", tolerance: float = 0.0
    ) -> Iterator[Tuple[Resource, Resource, float, float]]:
        """Pairs whose probability differs by more than ``tolerance``.

        Yields ``(left, right, this_probability, other_probability)``
        over the union of both stores' pairs; absent entries count as
        0.0 (the Section 5.2 semantics), so appearing or disappearing
        pairs are always reported.
        """
        for left, right, probability in self.items():
            other_probability = other.get(left, right)
            if abs(probability - other_probability) > tolerance:
                yield left, right, probability, other_probability
        for left, right, probability in other.items():
            if self.get(left, right) == 0.0 and probability > tolerance:
                yield left, right, 0.0, probability

    def max_difference(self, other: "EquivalenceStore") -> float:
        """Largest absolute probability difference over the pair union.

        0.0 means the two stores are numerically identical — the
        stationarity criterion of warm-start convergence and of
        ``ParisConfig.score_stationarity`` cold runs.
        """
        worst = 0.0
        for _left, _right, probability, other_probability in self.diff(other):
            worst = max(worst, abs(probability - other_probability))
        return worst

    # ------------------------------------------------------------------
    # maximal assignment
    # ------------------------------------------------------------------

    def maximal_assignment(self, reverse: bool = False) -> Dict[Resource, Tuple[Resource, float]]:
        """Best counterpart per instance (Section 4.2).

        Parameters
        ----------
        reverse:
            ``False``: best right-instance for each left-instance.
            ``True``: best left-instance for each right-instance.
        """
        source = self._backward if reverse else self._forward
        assignment: Dict[Resource, Tuple[Resource, float]] = {}
        for entity, row in source.items():
            # Exact ties break deterministically on the name so the
            # fixpoint cannot oscillate between equally good matches.
            best = best_counterpart(row)
            if best is not None:
                assignment[entity] = best
        return assignment

    @staticmethod
    def assignment_change(
        old: Mapping[Resource, Tuple[Resource, float]],
        new: Mapping[Resource, Tuple[Resource, float]],
    ) -> float:
        """Fraction of entities whose assigned counterpart changed.

        This is the paper's convergence criterion (Section 6.1: run
        "until less than 1 % of the entities changed their maximal
        assignment").  Entities appearing in either assignment count;
        appearing/disappearing counts as a change.
        """
        keys = set(old) | set(new)
        if not keys:
            return 0.0
        changed = 0
        for key in keys:
            old_match = old.get(key)
            new_match = new.get(key)
            old_target = old_match[0] if old_match else None
            new_target = new_match[0] if new_match else None
            if old_target != new_target:
                changed += 1
        return changed / len(keys)

    def restricted_to_maximal(self) -> "EquivalenceStore":
        """A copy containing only the maximal assignment of each side.

        Section 5.2: "For each computation, our algorithm considers
        only the equalities of the previous maximal assignment and
        ignores all other equalities."  An entry survives if it is the
        best match of its left instance *or* of its right instance, so
        the restricted view stays symmetric.
        """
        restricted = EquivalenceStore(self.truncation_threshold)
        for left, (right, probability) in self.maximal_assignment().items():
            restricted.set(left, right, probability)
        for right, (left, probability) in self.maximal_assignment(reverse=True).items():
            restricted.set(left, right, probability)
        return restricted

    def __repr__(self) -> str:
        return (
            f"EquivalenceStore({len(self)} pairs, "
            f"threshold={self.truncation_threshold})"
        )


class OverlayStore:
    """Copy-on-write view over a frozen :class:`EquivalenceStore`.

    One warm pass's working store: rows of re-scored instances live in
    the overlay, every other read falls through to the (unmutated)
    base.  See the module docstring for the invariants.  The mutation
    surface mirrors the row-replacement subset of the base store
    (``clear_left`` / ``set`` / ``update``); reads mirror the full
    lookup surface the maximal-assignment maintenance needs.
    """

    def __init__(self, base: EquivalenceStore) -> None:
        self.base = base
        #: Replaced forward rows; presence of a key means the base row
        #: for that left is dead, even if the overlay row is empty.
        self._rows: Dict[Resource, Dict[Resource, float]] = {}
        #: Backward postings of the overlay rows only.
        self._backward: Dict[Resource, Dict[Resource, float]] = {}
        #: Entry writes/clears performed through this overlay.
        self.pairs_touched = 0

    @property
    def truncation_threshold(self) -> float:
        return self.base.truncation_threshold

    # -- mutation ------------------------------------------------------

    def _own_row(self, left: Resource) -> Dict[Resource, float]:
        row = self._rows.get(left)
        if row is None:
            row = dict(self.base.equals_of(left))
            self._rows[left] = row
            for right, probability in row.items():
                self._backward.setdefault(right, {})[left] = probability
        return row

    def clear_left(self, left: Resource) -> None:
        """Row-replacement primitive: kill every pair ``(left, ·)``."""
        row = self._rows.get(left)
        if row is None:
            row = self.base.equals_of(left)
        self._rows[left] = {}
        for right in row:
            back = self._backward.get(right)
            if back is not None:
                back.pop(left, None)
        self.pairs_touched += len(row)

    def set(self, left: Resource, right: Resource, probability: float) -> None:
        accepted = accepted_probability(probability, self.truncation_threshold)
        row = self._own_row(left)
        self.pairs_touched += 1
        if accepted is None:
            if row.pop(right, None) is not None:
                back = self._backward.get(right)
                if back is not None:
                    back.pop(left, None)
            return
        row[right] = accepted
        self._backward.setdefault(right, {})[left] = accepted

    def update(self, entries: Iterable[Tuple[Resource, Resource, float]]) -> None:
        for left, right, probability in entries:
            self.set(left, right, probability)

    # -- lookup --------------------------------------------------------

    def get(self, left: Resource, right: Resource) -> float:
        row = self._rows.get(left)
        if row is not None:
            return row.get(right, 0.0)
        return self.base.get(left, right)

    def equals_of(self, left: Resource) -> Mapping[Resource, float]:
        row = self._rows.get(left)
        if row is not None:
            return row
        return self.base.equals_of(left)

    def equals_of_right(self, right: Resource) -> Mapping[Resource, float]:
        """Merged backward row: base entries of untouched lefts plus
        the overlay's postings (allocates O(row), never O(store))."""
        merged = {
            left: probability
            for left, probability in self.base.equals_of_right(right).items()
            if left not in self._rows
        }
        merged.update(self._backward.get(right, {}))
        return merged

    @property
    def touched_lefts(self) -> Iterable[Resource]:
        """Lefts whose rows were replaced through this overlay."""
        return self._rows.keys()

    def row_changes(self) -> Iterator[Tuple[Resource, Resource, float, float]]:
        """``(left, right, old, new)`` over touched rows where old ≠ new."""
        for left, new_row in self._rows.items():
            old_row = self.base.equals_of(left)
            for right in old_row.keys() | new_row.keys():
                old = old_row.get(right, 0.0)
                new = new_row.get(right, 0.0)
                if old != new:
                    yield left, right, old, new

    # -- commit --------------------------------------------------------

    def commit(self) -> EquivalenceStore:
        """Fold the replaced rows into the base, in place, and return it.

        O(touched rows).  After the commit the overlay is spent: its
        rows are re-pointed at the base's, so further mutation must go
        through a fresh overlay.
        """
        base = self.base
        for left, row in self._rows.items():
            base.clear_left(left)
            if not row:
                continue
            # Overlay entries went through the shared storing decision
            # already, so they install directly (count included).
            base._forward.setdefault(left, {}).update(row)
            for right, probability in row.items():
                base._backward.setdefault(right, {})[left] = probability
            base._count += len(row)
        self._rows = {}
        self._backward = {}
        return base

    def __repr__(self) -> str:
        return (
            f"OverlayStore({len(self._rows)} touched rows over "
            f"{self.base!r})"
        )
