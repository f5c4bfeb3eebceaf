"""Interned-ID vectorized Eq. 13 scoring kernel.

The dict engine in :mod:`repro.core.equivalence` walks the optimized
Section 5.2 traversal one Python statement at a time.  This module
freezes the same traversal into flat numpy arrays so a whole pass runs
as a handful of vectorized gathers:

* **Interning** — every node with a data statement gets a dense integer
  id per ontology (:meth:`Ontology.nodes_with_statements` order), every
  relation (inverses included) likewise.
* **Static CSR** — per ontology, the ``statements_about`` adjacency is
  stored as ``indptr``/``rel``/``other`` arrays frozen in the *exact*
  iteration order of the dict traversal.  The right ontology's CSR
  keeps only resource-valued "other" slots (the dict path skips literal
  ``x'`` candidates).  Functionality vectors are indexed by relation
  id.  All of this is rebuilt only when :attr:`Ontology.version` moves.
* **Per-pass arrays** — :meth:`VectorizedKernel.prepare_pass` lowers
  the previous iteration's view (clamped literal candidates + the
  restricted store) into one candidate CSR and the two relation
  matrices into dense ``[sub_id, super_id]`` grids honouring per-sub
  defaults.  This is the only state a pass has to ship to workers.

Bit-exactness with the dict path
--------------------------------
The kernel reproduces the dict engine's floats *bit for bit*, which is
what lets the aligner switch backends without disturbing the parallel
engine's sequential-equality guarantees:

* every factor is computed by the same left-to-right IEEE operations
  (``1 - (s·fun⁻¹)·p``) element-wise, with the same ``> 0`` guards;
* per ``(x, x')`` products fold factors in traversal order via
  ``np.multiply.reduceat`` over a stable sort — the same grouping of
  multiplications as the sequential loop;
* the dict path's running clamp ``max(product·factor, 1e-12)`` is
  equivalent to clamping once at the end: factors lie in ``[0, 1)``
  (factors ``>= 1`` are skipped), so the product sequence is
  non-increasing and the first dip below the clamp is also the final
  unclamped value — once clamped, ``max(1e-12·f, 1e-12)`` stays at
  exactly ``1e-12`` forever.  ``np.maximum(product, 1e-12)`` therefore
  yields the identical float;
* candidates are emitted in first-touch traversal order per instance,
  so downstream stores fill in the same insertion order (later passes
  accumulate floats over store dict order).

``tests/test_vectorized.py`` asserts the equality property; the kernel
declines to run (``HAVE_NUMPY`` is false) when numpy is unavailable,
and negative evidence (Eq. 14) stays on the dict path — its penalty
term reads arbitrary statements and is applied per surviving candidate
by the caller.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..rdf.ontology import Ontology
from ..rdf.terms import Literal, Node, Relation, Resource
from .equivalence import _MIN_FACTOR, ordered_instances
from .functionality import FunctionalityOracle
from .literal_index import LiteralIndex
from .matrix import SubsumptionMatrix
from .store import EquivalenceStore

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the container bakes numpy in
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Target number of innermost (level-3) expansion entries per chunk;
#: bounds the transient flat arrays to tens of MB regardless of corpus
#: size or hub fan-in.
CHUNK_BUDGET = 2_000_000


def _ragged(starts, counts):
    """Flat gather positions for ragged rows ``[starts[i], starts[i]+counts[i])``.

    Returns ``(positions, segment_ids)`` where ``segment_ids[k]`` is the
    row index that produced ``positions[k]``; concatenation order is row
    order — exactly the nested-loop visitation order of the dict path.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    prefix = np.cumsum(counts) - counts
    pos = starts[seg] + (np.arange(total, dtype=np.int64) - prefix[seg])
    return pos, seg


class PreparedPass:
    """Per-pass candidate CSR + dense relation grids (shippable).

    Everything a worker needs beyond the fork-inherited static kernel:
    small arrays proportional to the matched pairs and literal
    candidates, never to the ontologies.
    """

    __slots__ = (
        "view_starts",
        "view_counts",
        "flat_ids",
        "flat_probs",
        "m12",
        "m21",
        "level3_cost",
    )

    def __init__(self, view_starts, view_counts, flat_ids, flat_probs, m12, m21, level3_cost):
        self.view_starts = view_starts
        self.view_counts = view_counts
        self.flat_ids = flat_ids
        self.flat_probs = flat_probs
        self.m12 = m12
        self.m21 = m21
        self.level3_cost = level3_cost


class VectorizedKernel:
    """Frozen statement arrays for one ontology pair (one `version` each).

    Built by :class:`~repro.core.aligner.ParisAligner` when the
    ``scoring`` config resolves to the vectorized backend; workers
    inherit it read-only through the fork of the persistent pool.
    """

    def __init__(
        self,
        ontology1: Ontology,
        ontology2: Ontology,
        fun1: FunctionalityOracle,
        fun2: FunctionalityOracle,
        literals_of_right: LiteralIndex,
    ) -> None:
        if not HAVE_NUMPY:  # pragma: no cover - guarded by callers
            raise RuntimeError("the vectorized kernel requires numpy")
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.versions = (ontology1.version, ontology2.version)

        # -- node interners (iteration order of nodes_with_statements) --
        self.nodes1: Dict[Node, int] = {}
        self.table1: List[Node] = []
        for node in ontology1.nodes_with_statements():
            self.nodes1[node] = len(self.table1)
            self.table1.append(node)
        self.nodes2: Dict[Node, int] = {}
        self.table2: List[Node] = []
        for node in ontology2.nodes_with_statements():
            self.nodes2[node] = len(self.table2)
            self.table2.append(node)
        self.n1 = len(self.table1)
        self.n2 = len(self.table2)

        # -- relation interners (both directions carry statements) -----
        self.rels1: Dict[Relation, int] = {}
        self.rel_table1: List[Relation] = []
        for relation in ontology1.relations(include_inverses=True):
            self.rels1[relation] = len(self.rel_table1)
            self.rel_table1.append(relation)
        self.rels2: Dict[Relation, int] = {}
        self.rel_table2: List[Relation] = []
        for relation in ontology2.relations(include_inverses=True):
            self.rels2[relation] = len(self.rel_table2)
            self.rel_table2.append(relation)
        self.inv2 = np.array(
            [self.rels2[relation.inverse] for relation in self.rel_table2],
            dtype=np.int64,
        )

        # -- functionality vectors indexed by relation id ---------------
        self.inv_fun1 = np.array(
            fun1.inverse_fun_values(self.rel_table1), dtype=np.float64
        )
        self.inv_fun2 = np.array(
            fun2.inverse_fun_values(self.rel_table2), dtype=np.float64
        )

        # -- outer CSR: statements_about order, left ontology -----------
        indptr1 = [0]
        rel1: List[int] = []
        other1: List[int] = []
        for node in self.table1:
            for relation, obj in ontology1.statements_about(node):
                rel1.append(self.rels1[relation])
                other1.append(self.nodes1[obj])
            indptr1.append(len(rel1))
        self.indptr1 = np.array(indptr1, dtype=np.int64)
        self.stmt_rel1 = np.array(rel1, dtype=np.int64)
        self.stmt_other1 = np.array(other1, dtype=np.int64)

        # -- inner CSR: resource-valued statements of the right side ----
        indptr2 = [0]
        rel2: List[int] = []
        other2: List[int] = []
        for node in self.table2:
            for relation, obj in ontology2.statements_about(node):
                if isinstance(obj, Literal):
                    continue  # the dict path skips literal x' candidates
                rel2.append(self.rels2[relation])
                other2.append(self.nodes2[obj])
            indptr2.append(len(rel2))
        self.indptr2 = np.array(indptr2, dtype=np.int64)
        self.stmt_rel2 = np.array(rel2, dtype=np.int64)
        self.stmt_other2 = np.array(other2, dtype=np.int64)

        # -- clamped literal candidates (static for the whole run) ------
        lit_indptr = [0]
        lit_ids: List[int] = []
        lit_probs: List[float] = []
        for node in self.table1:
            if isinstance(node, Literal):
                for candidate, probability in literals_of_right.candidates(node):
                    target = self.nodes2.get(candidate)
                    if target is None:
                        continue  # no statements -> no contribution
                    lit_ids.append(target)
                    lit_probs.append(probability)
            lit_indptr.append(len(lit_ids))
        self.lit_indptr = np.array(lit_indptr, dtype=np.int64)
        self.lit_ids = np.array(lit_ids, dtype=np.int64)
        self.lit_probs = np.array(lit_probs, dtype=np.float64)
        self.lit_counts = self.lit_indptr[1:] - self.lit_indptr[:-1]
        self.is_literal1 = np.array(
            [isinstance(node, Literal) for node in self.table1], dtype=bool
        )

        # -- canonical full-pass traversal (sorted instance order) ------
        self.ordered_nodes: List[Resource] = ordered_instances(ontology1.instances)
        self.ordered_ids = self.ids_for(self.ordered_nodes)

    # ------------------------------------------------------------------

    def fresh(self) -> bool:
        """Whether the frozen arrays still match the ontologies."""
        return self.versions == (self.ontology1.version, self.ontology2.version)

    def ids_for(self, instances: Sequence[Resource]):
        """Interned ids of ``instances`` (-1 for statement-less ones)."""
        nodes1 = self.nodes1
        return np.array(
            [nodes1.get(instance, -1) for instance in instances], dtype=np.int64
        )

    # ------------------------------------------------------------------

    def lower_store(self, store: EquivalenceStore):
        """Both orderings of a view store as compact id arrays.

        Returns ``(fwd_left, fwd_right, fwd_prob, bwd_left, bwd_right,
        bwd_prob)``; the forward triple is in :meth:`EquivalenceStore.items`
        order and the backward one in
        :meth:`EquivalenceStore.backward_items` order, so a worker can
        rebuild a store whose row dicts iterate exactly like the
        original's.  Returns ``None`` when the store mentions a node
        the kernel never interned (no statements) — callers then fall
        back to the sequential dict pass.
        """
        nodes1 = self.nodes1
        nodes2 = self.nodes2
        forward = list(store.items())
        backward = list(store.backward_items())
        try:
            fwd_left = np.array([nodes1[l] for l, _r, _p in forward], dtype=np.int64)
            fwd_right = np.array([nodes2[r] for _l, r, _p in forward], dtype=np.int64)
            bwd_left = np.array([nodes1[l] for l, _r, _p in backward], dtype=np.int64)
            bwd_right = np.array([nodes2[r] for _l, r, _p in backward], dtype=np.int64)
        except KeyError:
            return None
        fwd_prob = np.array([p for _l, _r, p in forward], dtype=np.float64)
        bwd_prob = np.array([p for _l, _r, p in backward], dtype=np.float64)
        return fwd_left, fwd_right, fwd_prob, bwd_left, bwd_right, bwd_prob

    def rebuild_store(self, lowered, truncation_threshold: float) -> EquivalenceStore:
        """Worker-side inverse of :meth:`lower_store` (exact row orders)."""
        fwd_left, fwd_right, fwd_prob, bwd_left, bwd_right, bwd_prob = lowered
        table1 = self.table1
        table2 = self.table2
        store = EquivalenceStore(truncation_threshold)
        forward = store._forward
        for left, right, probability in zip(
            fwd_left.tolist(), fwd_right.tolist(), fwd_prob.tolist()
        ):
            forward.setdefault(table1[left], {})[table2[right]] = probability
        backward = store._backward
        for left, right, probability in zip(
            bwd_left.tolist(), bwd_right.tolist(), bwd_prob.tolist()
        ):
            backward.setdefault(table2[right], {})[table1[left]] = probability
        store._count = len(fwd_prob)
        return store

    def task_ranges(self, x_ids, prepared: "PreparedPass", num_tasks: int):
        """Contiguous ``(lo, hi)`` ranges over ``x_ids`` with roughly
        equal projected level-3 work — the pool's instance-task shards.
        Empty ranges are dropped; boundaries fall on instance edges so
        any split preserves the sequential emission order when results
        merge in task order."""
        n = len(x_ids)
        if n == 0:
            return []
        num_tasks = max(1, min(num_tasks, n))
        cost = np.where(x_ids >= 0, prepared.level3_cost[np.maximum(x_ids, 0)], 0)
        cumulative = np.maximum(cost, 1).cumsum()
        total = int(cumulative[-1])
        bounds = [0]
        for k in range(1, num_tasks):
            cut = int(np.searchsorted(cumulative, total * k / num_tasks))
            bounds.append(max(cut, bounds[-1]))
        bounds.append(n)
        return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    # ------------------------------------------------------------------

    def prepare_pass(
        self,
        view_store: EquivalenceStore,
        rel12: SubsumptionMatrix[Relation],
        rel21: SubsumptionMatrix[Relation],
    ) -> PreparedPass:
        """Lower one pass's view store + relation matrices to arrays.

        The candidate CSR concatenates the static literal-candidate
        arrays with this pass's store rows (kept in their row dict
        order, so the factor fold visits candidates exactly as
        ``view.equivalents`` yields them).
        """
        n1 = self.n1
        res_counts = np.zeros(n1, dtype=np.int64)
        rows: List[Tuple[int, List[int], List[float]]] = []
        current_left: Optional[Resource] = None
        current_row: Optional[Tuple[int, List[int], List[float]]] = None
        for left, right, probability in view_store.items():
            if left is not current_left:
                current_left = left
                left_id = self.nodes1.get(left)
                current_row = None
                if left_id is not None:
                    current_row = (left_id, [], [])
                    rows.append(current_row)
            if current_row is None:
                continue
            right_id = self.nodes2.get(right)
            if right_id is None:
                continue  # no statements -> the dict path finds nothing
            current_row[1].append(right_id)
            current_row[2].append(probability)
        for left_id, rights, _probs in rows:
            res_counts[left_id] = len(rights)
        res_indptr = np.zeros(n1 + 1, dtype=np.int64)
        np.cumsum(res_counts, out=res_indptr[1:])
        offset = len(self.lit_ids)
        total = offset + int(res_indptr[-1])
        flat_ids = np.empty(total, dtype=np.int64)
        flat_probs = np.empty(total, dtype=np.float64)
        flat_ids[:offset] = self.lit_ids
        flat_probs[:offset] = self.lit_probs
        for left_id, rights, probs in rows:
            start = offset + int(res_indptr[left_id])
            flat_ids[start : start + len(rights)] = rights
            flat_probs[start : start + len(rights)] = probs
        view_starts = np.where(
            self.is_literal1, self.lit_indptr[:-1], offset + res_indptr[:-1]
        )
        view_counts = np.where(self.is_literal1, self.lit_counts, res_counts)

        m12 = self._dense(rel12, self.rel_table1, self.rels2, len(self.rel_table2))
        m21 = self._dense(rel21, self.rel_table2, self.rels1, len(self.rel_table1))

        # Projected level-3 work per left node, for instance chunking:
        # cost(x) = sum over statements (r, y) of sum over candidates y'
        # of |statements(y')|.
        tcounts_flat = self.indptr2[flat_ids + 1] - self.indptr2[flat_ids]
        weight = np.zeros(n1, dtype=np.int64)
        pos, seg = _ragged(view_starts, view_counts)
        if len(pos):
            np.add.at(weight, seg, tcounts_flat[pos])
        cost = np.zeros(n1, dtype=np.int64)
        if len(self.stmt_other1):
            spos, sseg = _ragged(self.indptr1[:-1], self.indptr1[1:] - self.indptr1[:-1])
            np.add.at(cost, sseg, weight[self.stmt_other1[spos]])
        return PreparedPass(view_starts, view_counts, flat_ids, flat_probs, m12, m21, cost)

    @staticmethod
    def _dense(matrix, sub_table, super_index, num_supers):
        dense = np.empty((len(sub_table), num_supers), dtype=np.float64)
        for i, sub in enumerate(sub_table):
            dense[i, :] = matrix.sub_default(sub)
            for sup, score in matrix.supers_of(sub).items():
                j = super_index.get(sup)
                if j is not None:
                    dense[i, j] = score
        return dense

    # ------------------------------------------------------------------

    def score_ids(self, x_ids, prepared: PreparedPass, truncation_threshold: float):
        """Positive-evidence scores for a block of interned instances.

        Returns ``(x_id, x'_id, score)`` arrays with scores ``>=``
        ``truncation_threshold``, in the dict engine's emission order
        (instances in input order, candidates in first-touch order).
        """
        chunks: List[Tuple] = []
        for lo, hi in self._chunk_bounds(x_ids, prepared):
            chunk = self._score_chunk(x_ids[lo:hi], prepared, truncation_threshold)
            if chunk is not None:
                chunks.append(chunk)
        if not chunks:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        return (
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
            np.concatenate([c[2] for c in chunks]),
        )

    def _chunk_bounds(self, x_ids, prepared: PreparedPass):
        """Split a block on instance boundaries by projected level-3 work."""
        if len(x_ids) == 0:
            return []
        cost = np.where(x_ids >= 0, prepared.level3_cost[np.maximum(x_ids, 0)], 0)
        cumulative = np.cumsum(cost)
        total = int(cumulative[-1])
        if total <= CHUNK_BUDGET:
            return [(0, len(x_ids))]
        bounds = [0]
        target = CHUNK_BUDGET
        while target < total:
            cut = int(np.searchsorted(cumulative, target, side="left")) + 1
            if cut <= bounds[-1]:
                cut = bounds[-1] + 1
            if cut >= len(x_ids):
                break
            bounds.append(cut)
            target = int(cumulative[cut - 1]) + CHUNK_BUDGET
        bounds.append(len(x_ids))
        return list(zip(bounds[:-1], bounds[1:]))

    def _score_chunk(self, x_ids, prepared: PreparedPass, truncation_threshold: float):
        ids = x_ids[x_ids >= 0]
        if len(ids) == 0:
            return None
        # level 1: statements r(x, y) of each instance
        pos1, seg1 = _ragged(self.indptr1[ids], self.indptr1[ids + 1] - self.indptr1[ids])
        if len(pos1) == 0:
            return None
        r1 = self.stmt_rel1[pos1]
        y = self.stmt_other1[pos1]
        # level 2: candidates (y', p) of each y
        pos2, seg2 = _ragged(prepared.view_starts[y], prepared.view_counts[y])
        if len(pos2) == 0:
            return None
        y_prime = prepared.flat_ids[pos2]
        prob_y = prepared.flat_probs[pos2]
        r1_2 = r1[seg2]
        slot_2 = seg1[seg2]
        # level 3: statements r'(x', y') of each candidate
        pos3, seg3 = _ragged(
            self.indptr2[y_prime], self.indptr2[y_prime + 1] - self.indptr2[y_prime]
        )
        if len(pos3) == 0:
            return None
        rel2 = self.inv2[self.stmt_rel2[pos3]]
        x_prime = self.stmt_other2[pos3]
        r1_3 = r1_2[seg3]
        p3 = prob_y[seg3]
        slot = slot_2[seg3]
        # the two Eq. 13 factors, with the dict path's > 0 guards
        s21 = prepared.m21[rel2, r1_3]
        s12 = prepared.m12[r1_3, rel2]
        factor = np.where(
            s21 > 0.0, 1.0 - s21 * self.inv_fun1[r1_3] * p3, 1.0
        ) * np.where(s12 > 0.0, 1.0 - s12 * self.inv_fun2[rel2] * p3, 1.0)
        mask = factor < 1.0
        if not mask.any():
            return None
        factor = factor[mask]
        key = slot[mask] * np.int64(self.n2) + x_prime[mask]
        # ordered product fold per (x, x') — stable sort keeps traversal
        # order inside each group, reduceat multiplies left-to-right
        perm = np.argsort(key, kind="stable")
        sorted_key = key[perm]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
        )
        products = np.multiply.reduceat(factor[perm], starts)
        scores = 1.0 - np.maximum(products, _MIN_FACTOR)
        group_keys = sorted_key[starts]
        first_touch = perm[starts]
        emit = first_touch.argsort(kind="stable")
        emit = emit[scores[emit] >= truncation_threshold]
        if len(emit) == 0:
            return None
        emitted_keys = group_keys[emit]
        return ids[emitted_keys // self.n2], emitted_keys % self.n2, scores[emit]

    # ------------------------------------------------------------------

    def entries_for(self, x_out, xp_out, scores):
        """Map compact id arrays back to ``(x, x', score)`` term tuples."""
        table1 = self.table1
        table2 = self.table2
        return [
            (table1[x], table2[xp], score)
            for x, xp, score in zip(x_out.tolist(), xp_out.tolist(), scores.tolist())
        ]

    def score_entries(
        self,
        instances: Sequence[Resource],
        prepared: PreparedPass,
        truncation_threshold: float,
    ) -> List[Tuple[Resource, Resource, float]]:
        """Term-level convenience wrapper over :meth:`score_ids`."""
        return self.entries_for(
            *self.score_ids(self.ids_for(instances), prepared, truncation_threshold)
        )
