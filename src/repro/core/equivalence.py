"""Instance-equivalence pass (Section 4.1–4.2, Eq. 13 and Eq. 14).

The *reference implementation* of the per-instance equivalence score:
per-instance Python dicts, one statement pair at a time, using the
optimized Section 5.2 traversal (``O(n·m²·e)``).  The production path
is the bit-identical interned-ID numpy kernel in
:mod:`repro.core.vectorized` (selected via ``ParisConfig.scoring``);
this module remains the only engine for Eq. 14 negative evidence.
Formulas, traversal and engine-equivalence notes:
``docs/architecture.md`` (section "The core: one pass, three
engines").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Literal, Relation, Resource
from .functionality import FunctionalityOracle
from .matrix import SubsumptionMatrix
from .store import EquivalenceStore
from .view import EquivalenceView

#: Probabilities whose complement underflows to exactly 0 would make a
#: single statement pair decide the whole product; clamp factors away
#: from 0 so several strong pairs still outrank one.
_MIN_FACTOR = 1e-12


def ordered_instances(instances: Iterable[Resource]) -> List[Resource]:
    """Instances in the canonical traversal order (sorted by name).

    The dict pass, the kernel's ``ordered_ids`` and the worker pool's
    task ranges MUST all use this one ordering: later-iteration passes
    accumulate floats over store dict order, so bit-identity between
    sequential and pooled runs holds only while they fill the store in
    the same insertion order.
    """
    return sorted(instances, key=lambda instance: instance.name)


def score_instance(
    x: Resource,
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    fun1: FunctionalityOracle,
    fun2: FunctionalityOracle,
    rel12: SubsumptionMatrix[Relation],
    rel21: SubsumptionMatrix[Relation],
) -> Dict[Resource, float]:
    """Positive-evidence scores ``Pr1(x ≡ ·)`` for one instance (Eq. 13).

    Returns a map from candidate instances ``x'`` of ``ontology2`` to
    their scores; candidates that no statement pair supports are absent
    (score 0, never stored — Section 5.2).
    """
    products: Dict[Resource, float] = {}
    for relation, y in ontology1.statements_about(x):
        inverse_fun_r = fun1.inverse_fun(relation)
        for y_prime, prob_y in view.equivalents(y):
            for relation2_inverse, x_prime in ontology2.statements_about(y_prime):
                if isinstance(x_prime, Literal):
                    continue
                relation2 = relation2_inverse.inverse
                factor = 1.0
                score_21 = rel21.get(relation2, relation)
                if score_21 > 0.0:
                    factor *= 1.0 - score_21 * inverse_fun_r * prob_y
                score_12 = rel12.get(relation, relation2)
                if score_12 > 0.0:
                    factor *= 1.0 - score_12 * fun2.inverse_fun(relation2) * prob_y
                if factor >= 1.0:
                    continue
                current = products.get(x_prime, 1.0)
                products[x_prime] = max(current * factor, _MIN_FACTOR)
    return {x_prime: 1.0 - product for x_prime, product in products.items()}


def negative_evidence_factor(
    x: Resource,
    x_prime: Resource,
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    fun1: FunctionalityOracle,
    fun2: FunctionalityOracle,
    rel12: SubsumptionMatrix[Relation],
    rel21: SubsumptionMatrix[Relation],
) -> float:
    """The Eq. 14 penalty term ``Pr2(x ≡ x')``.

    For every statement ``r(x, y)`` and every relation ``r'`` of the
    second ontology aligned with ``r``, the candidate is penalized in
    proportion to ``fun(r)`` unless some ``y'`` with ``r'(x', y')``
    matches ``y``.  When ``x'`` has no ``r'`` statement at all, the
    inner product is 1 (the paper: "this decreases Pr(x ≡ x') in case
    one instance has relations that the other one does not have").
    """
    penalty = 1.0
    for relation, y in ontology1.statements_about(x):
        fun_r = fun1.fun(relation)
        # Relations r' explicitly aligned with r, in either direction.
        aligned: Dict[Relation, Tuple[float, float]] = {}
        for relation2, score in rel21.subs_of(relation).items():
            aligned.setdefault(relation2, (0.0, 0.0))
            aligned[relation2] = (score, aligned[relation2][1])
        for relation2, score in rel12.supers_of(relation).items():
            previous = aligned.setdefault(relation2, (0.0, 0.0))
            aligned[relation2] = (previous[0], score)
        for relation2, (score_21, score_12) in aligned.items():
            inner = 1.0
            for y_prime in ontology2.objects(relation2, x_prime):
                inner *= 1.0 - view.prob(y, y_prime)
                if inner == 0.0:
                    break
            if score_21 > 0.0:
                penalty *= 1.0 - fun_r * score_21 * inner
            if score_12 > 0.0:
                penalty *= 1.0 - fun2.fun(relation2) * score_12 * inner
            if penalty < _MIN_FACTOR:
                return 0.0
    return penalty


def score_instances(
    instances: Iterable[Resource],
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    fun1: FunctionalityOracle,
    fun2: FunctionalityOracle,
    rel12: SubsumptionMatrix[Relation],
    rel21: SubsumptionMatrix[Relation],
    truncation_threshold: float,
    use_negative_evidence: bool = False,
) -> List[Tuple[Resource, Resource, float]]:
    """Score a batch of instances (a warm pass's dirty frontier, or
    one instance of the full pass), entries in input order.

    Each instance's scores depend only on the frozen inputs (ontologies,
    previous-iteration view, functionalities, relation matrices), never
    on other instances of the batch, so any partition of
    ``ontology1.instances`` into batches yields the same entries.
    """
    entries: List[Tuple[Resource, Resource, float]] = []
    for x in instances:
        scores = score_instance(x, ontology1, ontology2, view, fun1, fun2, rel12, rel21)
        for x_prime, score in scores.items():
            if use_negative_evidence and score >= truncation_threshold:
                score *= negative_evidence_factor(
                    x, x_prime, ontology1, ontology2, view, fun1, fun2, rel12, rel21
                )
            if score >= truncation_threshold:
                entries.append((x, x_prime, score))
    return entries


def instance_equivalence_pass(
    ontology1: Ontology,
    ontology2: Ontology,
    view: EquivalenceView,
    fun1: FunctionalityOracle,
    fun2: FunctionalityOracle,
    rel12: SubsumptionMatrix[Relation],
    rel21: SubsumptionMatrix[Relation],
    truncation_threshold: float,
    use_negative_evidence: bool = False,
) -> EquivalenceStore:
    """One full instance-equivalence sweep over ``ontology1``.

    The scores of Eq. 13 are symmetric in the two ontologies (each
    statement pair contributes the same two factors seen from either
    side), so a single sweep fills the store for both directions.
    """
    store = EquivalenceStore(truncation_threshold)
    # Canonical traversal order shared with the kernel and the pool
    # (see ordered_instances).  One instance per batch streams entries
    # into the store instead of materializing the whole pass result as
    # one list.
    for x in ordered_instances(ontology1.instances):
        store.update(
            score_instances(
                (x,),
                ontology1,
                ontology2,
                view,
                fun1,
                fun2,
                rel12,
                rel21,
                truncation_threshold,
                use_negative_evidence,
            )
        )
    return store
