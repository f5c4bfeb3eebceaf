"""Tests for the fork-once worker pool, the one parallel route.

The pool's guarantee: for any worker count and task split, the scores
are *equal* — bit for bit, in the same store insertion order — to the
sequential engine's.  These tests enforce it on the unit level (task
ranges, one instance/relation pass on a pool) and end-to-end on the
integration fixtures (``workers=4`` against the session-cached
sequential results).  Configurations the pool cannot serve (the dict
engine, negative evidence) must run sequentially and stay equal too.
"""

from __future__ import annotations

import pickle

import pytest

from repro import ParisConfig, align
from repro.core import aligner as aligner_module
from repro.core.aligner import ParisAligner
from repro.core.equivalence import instance_equivalence_pass, ordered_instances, score_instances
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.parallel import WorkerPool, even_ranges, fork_available, parallel_subrelation_pass
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.core.vectorized import HAVE_NUMPY, VectorizedKernel
from repro.core.view import EquivalenceView
from repro.literals import IdentitySimilarity

#: The pool needs the vectorized kernel and the fork start method.
POOL_AVAILABLE = HAVE_NUMPY and fork_available()
needs_pool = pytest.mark.skipif(not POOL_AVAILABLE, reason="pool needs numpy and fork")


def reverse_scores(store):
    """Scores read through the backward direction of the store."""
    scores = {}
    for left, right, _p in store.items():
        for other, p in store.equals_of_right(right).items():
            scores[(other, right)] = p
    return scores


def make_pool(workers, ontology1, ontology2):
    """A pool (and its kernel) over a pair, as the aligner forks it."""
    similarity = IdentitySimilarity()
    literals2 = LiteralIndex(ontology2, similarity)
    literals1 = LiteralIndex(ontology1, similarity)
    kernel = VectorizedKernel(
        ontology1,
        ontology2,
        FunctionalityOracle(ontology1),
        FunctionalityOracle(ontology2),
        literals2,
    )
    return WorkerPool(workers, ontology1, ontology2, literals2, literals1, kernel), kernel


@pytest.fixture(scope="module")
def pass_inputs():
    """Frozen first-iteration inputs over a mid-sized benchmark pair."""
    from repro.datasets import yago_dbpedia_pair

    pair = yago_dbpedia_pair(num_persons=120, num_works=60, seed=17)
    similarity = IdentitySimilarity()
    view = EquivalenceView(
        EquivalenceStore(),
        LiteralIndex(pair.ontology2, similarity),
        LiteralIndex(pair.ontology1, similarity),
    )
    return (
        pair.ontology1,
        pair.ontology2,
        view,
        FunctionalityOracle(pair.ontology1),
        FunctionalityOracle(pair.ontology2),
        SubsumptionMatrix.bootstrap(0.1),
        SubsumptionMatrix.bootstrap(0.1),
        0.1,
    )


def aligner_instance_pass(pass_inputs, workers):
    """One full instance pass as the aligner routes it for ``workers``."""
    ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, theta = pass_inputs
    aligner = ParisAligner(ontology1, ontology2, ParisConfig(theta=theta, workers=workers))
    try:
        return aligner._instance_pass(view, rel12, rel21)
    finally:
        aligner.close()


class TestPartitioner:
    """The pool's task ranges: instance ranges balance projected work
    (``VectorizedKernel.task_ranges``), relation/class ranges are even
    (``even_ranges``); both must cover the canonical order exactly once,
    contiguously, so merging in task order is merging in scoring order."""

    @needs_pool
    def test_covers_all_instances_exactly_once(self, pass_inputs):
        ontology1, ontology2, view, fun1, fun2, rel12, rel21, _theta = pass_inputs
        kernel = VectorizedKernel(ontology1, ontology2, fun1, fun2, view._right_index)
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        ranges = kernel.task_ranges(kernel.ordered_ids, prepared, 16)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(kernel.ordered_ids)
        assert all(hi > lo for lo, hi in ranges)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        flat = [index for lo, hi in even_ranges(23, 16) for index in range(lo, hi)]
        assert flat == list(range(23))

    @needs_pool
    def test_deterministic_and_sorted(self, pass_inputs):
        ontology1, ontology2, view, fun1, fun2, rel12, rel21, _theta = pass_inputs
        kernel = VectorizedKernel(ontology1, ontology2, fun1, fun2, view._right_index)
        assert kernel.ordered_nodes == ordered_instances(ontology1.instances)
        names = [node.name for node in kernel.ordered_nodes]
        assert names == sorted(names)
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        first = kernel.task_ranges(kernel.ordered_ids, prepared, 12)
        assert first == kernel.task_ranges(kernel.ordered_ids, prepared, 12)
        assert even_ranges(50, 12) == even_ranges(50, 12)

    def test_explicit_shard_size(self):
        # An explicit task count fixes the range size at ceil(n / tasks).
        assert [hi - lo for lo, hi in even_ranges(10, 4)] == [3, 3, 3, 1]

    @needs_pool
    def test_empty_input(self, pass_inputs):
        ontology1, ontology2, view, fun1, fun2, rel12, rel21, _theta = pass_inputs
        kernel = VectorizedKernel(ontology1, ontology2, fun1, fun2, view._right_index)
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        assert even_ranges(0, 4) == []
        assert kernel.task_ranges(kernel.ids_for([]), prepared, 4) == []

    def test_invalid_arguments(self, pass_inputs):
        ontology1, ontology2 = pass_inputs[:2]
        with pytest.raises(ValueError):
            WorkerPool(0, ontology1, ontology2, None, None, None)


class TestParallelPass:
    """One full instance pass on the pool equals the dict pass."""

    def test_single_worker_matches_sequential_bitwise(self, pass_inputs):
        sequential = instance_equivalence_pass(*pass_inputs)
        in_process = aligner_instance_pass(pass_inputs, workers=1)
        assert list(in_process.items()) == list(sequential.items())

    @needs_pool
    def test_sharded_single_worker_matches_sequential(self, pass_inputs):
        """One worker, several tasks: the merge order alone decides."""
        ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, theta = pass_inputs
        sequential = instance_equivalence_pass(*pass_inputs)
        pool, kernel = make_pool(1, ontology1, ontology2)
        with pool:
            prepared = kernel.prepare_pass(view.store, rel12, rel21)
            results = pool.score_instances(kernel.ordered_ids, prepared, theta)
        assert len(results) > 1
        store = EquivalenceStore(theta)
        for result in results:
            store.update(kernel.entries_for(*result))
        assert list(store.items()) == list(sequential.items())

    # The fork pool is the one (process) backend.
    @needs_pool
    @pytest.mark.parametrize("backend", ["process"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_backends_match_sequential_exactly(self, pass_inputs, backend, workers):
        sequential = instance_equivalence_pass(*pass_inputs)
        pooled = aligner_instance_pass(pass_inputs, workers=workers)
        assert list(pooled.items()) == list(sequential.items())

    @needs_pool
    def test_both_directions_filled(self, pass_inputs):
        sequential = instance_equivalence_pass(*pass_inputs)
        pooled = aligner_instance_pass(pass_inputs, workers=2)
        assert reverse_scores(pooled) == reverse_scores(sequential)

    @needs_pool
    def test_shard_size_does_not_change_scores(self, pass_inputs):
        """However finely the pass is cut, merging the ranges' scores in
        range order fills the same store (what the pool relies on)."""
        ontology1, ontology2, view, fun1, fun2, rel12, rel21, theta = pass_inputs
        kernel = VectorizedKernel(ontology1, ontology2, fun1, fun2, view._right_index)
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        ids = kernel.ordered_ids
        baseline = list(instance_equivalence_pass(*pass_inputs).items())
        for tasks in (1, 5, 1000):
            store = EquivalenceStore(theta)
            for lo, hi in kernel.task_ranges(ids, prepared, tasks):
                store.update(kernel.entries_for(*kernel.score_ids(ids[lo:hi], prepared, theta)))
            assert list(store.items()) == baseline

    @needs_pool
    def test_maximal_assignment_identical(self, pass_inputs):
        sequential = instance_equivalence_pass(*pass_inputs)
        pooled = aligner_instance_pass(pass_inputs, workers=4)
        assert pooled.maximal_assignment() == sequential.maximal_assignment()
        assert pooled.maximal_assignment(reverse=True) == sequential.maximal_assignment(
            reverse=True
        )

    def test_invalid_backend_rejected(self):
        # The backend knob is retired: the pool is the only route.
        with pytest.raises(TypeError):
            ParisConfig(workers=2, parallel_backend="thread")

    def test_invalid_worker_count_rejected(self, pass_inputs):
        with pytest.raises(ValueError):
            aligner_instance_pass(pass_inputs, workers=0)

    @needs_pool
    def test_empty_ontology(self, pass_inputs):
        from repro.rdf.ontology import Ontology

        _, ontology2, view, _fun1, _fun2, rel12, rel21, theta = pass_inputs
        empty = Ontology("empty")
        aligner = ParisAligner(empty, ontology2, ParisConfig(workers=2))
        try:
            store = aligner._instance_pass(view, rel12, rel21)
        finally:
            aligner.close()
        assert len(store) == 0


def matrix_scores(matrix, sub_ontology):
    """Explicit entries plus per-sub defaults, for exact comparison.

    Defaults are enumerated over *every* relation of the sub-side
    ontology, not just those with explicit entries — a relation whose
    whole row is the no-evidence bootstrap default (``set_sub_default``
    only) must also compare equal between sequential and pooled runs.
    """
    return (
        list(matrix.items()),
        {
            relation: matrix.sub_default(relation)
            for relation in sub_ontology.relations(include_inverses=True)
        },
    )


@pytest.fixture(scope="module")
def relation_pass_inputs(pass_inputs):
    """Relation-pass inputs over a *filled* view (bootstrap equivalences),
    so Eq. 12 has real evidence to aggregate."""
    ontology1, ontology2, view, fun1, fun2, rel12, rel21, theta = pass_inputs
    bootstrap = instance_equivalence_pass(*pass_inputs)
    filled_view = EquivalenceView(
        bootstrap.restricted_to_maximal(),
        view._right_index,
        view._left_index,
    )
    return ontology1, ontology2, filled_view


class TestParallelRelationPass:
    """The Eq. 12 pass on the pool fills the matrix exactly as the
    sequential pass does, in both directions."""

    def kwargs(self):
        return dict(truncation_threshold=0.1, max_pairs=10_000, bootstrap_theta=0.1)

    def pooled(self, relation_pass_inputs, workers, reverse):
        ontology1, ontology2, view = relation_pass_inputs
        first, second = (ontology2, ontology1) if reverse else (ontology1, ontology2)
        pool, _kernel = make_pool(workers, ontology1, ontology2)
        with pool:
            # The pool route really ran: the filled view lowers to ids.
            assert pool.relation_rows(view.store, reverse, 10_000) is not None
            return parallel_subrelation_pass(
                first, second, view, reverse=reverse, pool=pool, **self.kwargs()
            )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_single_worker_matches_sequential_bitwise(self, relation_pass_inputs, reverse):
        ontology1, ontology2, view = relation_pass_inputs
        first, second = (ontology2, ontology1) if reverse else (ontology1, ontology2)
        sequential = subrelation_pass(first, second, view, reverse=reverse, **self.kwargs())
        without_pool = parallel_subrelation_pass(
            first, second, view, reverse=reverse, **self.kwargs()
        )
        assert matrix_scores(without_pool, first) == matrix_scores(sequential, first)

    # The fork pool is the one (process) backend.
    @needs_pool
    @pytest.mark.parametrize("backend", ["process"])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_backends_match_sequential(self, relation_pass_inputs, backend, workers, reverse):
        ontology1, ontology2, view = relation_pass_inputs
        first, second = (ontology2, ontology1) if reverse else (ontology1, ontology2)
        sequential = subrelation_pass(first, second, view, reverse=reverse, **self.kwargs())
        pooled = self.pooled(relation_pass_inputs, workers, reverse)
        assert matrix_scores(pooled, first) == matrix_scores(sequential, first)

    @needs_pool
    def test_sharded_single_worker_matches_sequential(self, relation_pass_inputs):
        ontology1, ontology2, view = relation_pass_inputs
        sequential = subrelation_pass(ontology1, ontology2, view, **self.kwargs())
        pooled = self.pooled(relation_pass_inputs, 1, False)
        assert matrix_scores(pooled, ontology1) == matrix_scores(sequential, ontology1)

    def test_invalid_arguments(self, relation_pass_inputs):
        ontology1, ontology2, _view = relation_pass_inputs
        with pytest.raises(ValueError):
            WorkerPool(0, ontology1, ontology2, None, None, None)

    def test_full_align_with_workers_matches_sequential(self, person_pair, person_result):
        """End to end: every pass on the pool, exact."""
        parallel = align(person_pair.ontology1, person_pair.ontology2, ParisConfig(workers=2))
        assert list(parallel.instances.items()) == list(person_result.instances.items())
        assert matrix_scores(parallel.relations12, person_pair.ontology1) == matrix_scores(
            person_result.relations12, person_pair.ontology1
        )
        assert matrix_scores(parallel.relations21, person_pair.ontology2) == matrix_scores(
            person_result.relations21, person_pair.ontology2
        )


class TestScoredSubsets:
    """The warm fixpoint scores only its dirty frontier; on the pool
    (frontier gate lowered) the entries equal the dict scoring."""

    @needs_pool
    def test_matches_sequential_scoring(self, pass_inputs, monkeypatch):
        monkeypatch.setattr(aligner_module, "POOL_MIN_FRONTIER", 0)
        ontology1, ontology2, view, _fun1, _fun2, rel12, rel21, theta = pass_inputs
        subset = ordered_instances(ontology1.instances)[:40]
        sequential = score_instances(subset, *pass_inputs)
        for workers in (1, 2):
            aligner = ParisAligner(ontology1, ontology2, ParisConfig(theta=theta, workers=workers))
            try:
                aligner._kernel_for()
                assert aligner._score_frontier(subset, view, rel12, rel21) == sequential
                assert (aligner._pool is not None) == (workers > 1)
            finally:
                aligner.close()

    def test_partition_ordered_preserves_order(self):
        items = list(range(17))
        ranges = even_ranges(len(items), 4)
        assert [hi - lo for lo, hi in ranges] == [5, 5, 5, 2]
        assert [x for lo, hi in ranges for x in items[lo:hi]] == items
        assert even_ranges(0, 2) == []


class TestConfigKnobs:
    def test_defaults_are_sequential(self):
        assert ParisConfig().workers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ParisConfig(workers=0)


class TestIntegrationFixtures:
    """workers=4 matches the session-cached sequential results exactly."""

    def test_person_fixture_exact(self, person_pair, person_result):
        parallel = align(person_pair.ontology1, person_pair.ontology2, ParisConfig(workers=4))
        assert list(parallel.instances.items()) == list(person_result.instances.items())
        assert parallel.assignment12 == person_result.assignment12
        assert parallel.assignment21 == person_result.assignment21

    def test_kb_fixture_exact(self, kb_pair, kb_result):
        config = ParisConfig(max_iterations=4, convergence_threshold=0.0, workers=4)
        parallel = align(kb_pair.ontology1, kb_pair.ontology2, config)
        assert list(parallel.instances.items()) == list(kb_result.instances.items())
        assert parallel.assignment12 == kb_result.assignment12
        assert list(parallel.classes12.items()) == list(kb_result.classes12.items())
        assert parallel.converged == kb_result.converged


class TestSequentialOnlyConfigurations:
    """Without the kernel there is no pool: ``workers=2`` runs every
    pass sequentially on the dict code and equals ``workers=1``."""

    @pytest.mark.parametrize(
        "settings", [{"scoring": "dict"}, {"use_negative_evidence": True}]
    )
    def test_no_pool_and_equal_results(self, person_pair, monkeypatch, settings):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a pool was forked without a kernel")

        monkeypatch.setattr(aligner_module, "WorkerPool", refuse)
        left, right = person_pair.ontology1, person_pair.ontology2
        sequential = align(left, right, ParisConfig(**settings))
        parallel = align(left, right, ParisConfig(workers=2, **settings))
        assert list(parallel.instances.items()) == list(sequential.instances.items())
        assert list(parallel.relations12.items()) == list(sequential.relations12.items())
        assert list(parallel.classes12.items()) == list(sequential.classes12.items())


class TestRetiredKnobs:
    def test_parent_snapshot_with_retired_knobs_loads_and_serves(self, tmp_path):
        """Snapshots pickled before the pool became the only route carry
        ``parallel_backend``/``shard_size`` in their config; they must
        still load, apply deltas and serve reads."""
        from repro.datasets.incremental import family_addition, family_pair
        from repro.service import AlignmentService, Delta, load_state

        left, right = family_pair(6)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        # What an older ParisConfig pickled: the retired fields sit in
        # the instance dict next to the current ones.
        service.state.config.__dict__.update(parallel_backend="thread", shard_size=7)
        assert b"parallel_backend" in pickle.dumps(service.state.config)
        service.snapshot(tmp_path)

        resumed = AlignmentService.from_state(load_state(tmp_path))
        assert resumed.state.config.workers == 1
        add1, add2 = family_addition(6, 1)
        delta = Delta(add1=tuple(add1), add2=tuple(add2))
        resumed.apply_delta(delta)
        fresh = AlignmentService.cold_start(*family_pair(6), ParisConfig())
        fresh.apply_delta(delta)
        assert list(resumed.state.store.items()) == list(fresh.state.store.items())
        left_entity, right_entity, probability = next(iter(fresh.state.store.items()))
        served = resumed.pair(left_entity.name, right_entity.name)
        assert served["probability"] == probability
