"""Property-based equivalence tests for the worker pool.

For randomly generated small ontology pairs, runs on the fork-once
pool (``workers=2``) must produce scores equal to ``workers=1`` — bit
for bit, read through *both* directions of the store, for one
instance pass and for full alignments.  Hypothesis drives a
seeded-random ontology generator, so every failure shrinks to a
reproducible seed.  (:func:`random_pair` and :func:`pass_inputs` are
shared with ``test_vectorized.py``.)
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OntologyBuilder, ParisConfig, align
from repro.core.equivalence import instance_equivalence_pass
from repro.core.aligner import ParisAligner
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.parallel import fork_available
from repro.core.store import EquivalenceStore
from repro.core.vectorized import HAVE_NUMPY
from repro.core.view import EquivalenceView
from repro.literals import IdentitySimilarity

needs_pool = pytest.mark.skipif(
    not (HAVE_NUMPY and fork_available()), reason="pool needs numpy and fork"
)

#: Small pools so random ontologies overlap enough to produce matches.
_VALUES = ["Alice", "Bob", "Carol", "Dave", "Erin", "1959", "1961", "Tupelo"]
_LEFT_RELATIONS = ["born", "name", "city", "year"]
_RIGHT_RELATIONS = ["birth", "label", "place", "date"]


def random_pair(seed: int):
    """Two random small ontologies with partially overlapping literals."""
    rng = random.Random(seed)
    left = OntologyBuilder("left")
    right = OntologyBuilder("right")
    num_entities = rng.randint(2, 8)
    for n in range(num_entities):
        for _ in range(rng.randint(1, 4)):
            left.value(f"p{n}", rng.choice(_LEFT_RELATIONS), rng.choice(_VALUES))
        # The right-hand twin keeps some of the left's facts (same
        # literals through different relation names) and adds noise.
        for _ in range(rng.randint(0, 4)):
            right.value(f"x{n}", rng.choice(_RIGHT_RELATIONS), rng.choice(_VALUES))
        if rng.random() < 0.7:
            right.value(f"x{n}", rng.choice(_RIGHT_RELATIONS), rng.choice(_VALUES))
    # Occasional entity links on both sides (resource-valued facts).
    for _ in range(rng.randint(0, num_entities)):
        a, b = rng.randrange(num_entities), rng.randrange(num_entities)
        left.fact(f"p{a}", "knows", f"p{b}")
        if rng.random() < 0.5:
            right.fact(f"x{a}", "friend", f"x{b}")
    return left.build(), right.build()


def pass_inputs(pair):
    left, right = pair
    similarity = IdentitySimilarity()
    view = EquivalenceView(
        EquivalenceStore(),
        LiteralIndex(right, similarity),
        LiteralIndex(left, similarity),
    )
    return (
        left,
        right,
        view,
        FunctionalityOracle(left),
        FunctionalityOracle(right),
        SubsumptionMatrix.bootstrap(0.1),
        SubsumptionMatrix.bootstrap(0.1),
        0.1,
    )


def assert_same_scores(parallel_store, sequential_store):
    """Same entries, same floats, same insertion order, both directions."""
    assert list(parallel_store.items()) == list(sequential_store.items())
    for _left, right, _p in sequential_store.items():
        assert parallel_store.equals_of_right(right) == sequential_store.equals_of_right(right)


def assert_same_alignment(parallel, sequential):
    assert_same_scores(parallel.instances, sequential.instances)
    assert parallel.assignment12 == sequential.assignment12
    assert parallel.assignment21 == sequential.assignment21
    assert list(parallel.relations12.items()) == list(sequential.relations12.items())
    assert list(parallel.relations21.items()) == list(sequential.relations21.items())


@needs_pool
@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_random_ontologies_parallel_equals_sequential(seed):
    """One instance pass: the aligner's pool route equals the dict pass."""
    inputs = pass_inputs(random_pair(seed))
    left, right, view, _fun1, _fun2, rel12, rel21, theta = inputs
    sequential = instance_equivalence_pass(*inputs)
    aligner = ParisAligner(left, right, ParisConfig(theta=theta, workers=2))
    try:
        pooled = aligner._instance_pass(view, rel12, rel21)
    finally:
        aligner.close()
    assert_same_scores(pooled, sequential)


@needs_pool
@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_random_ontologies_full_align_equal(seed):
    left, right = random_pair(seed)
    sequential = align(left, right, ParisConfig(max_iterations=3))
    parallel = align(left, right, ParisConfig(max_iterations=3, workers=2))
    assert_same_alignment(parallel, sequential)


@needs_pool
@pytest.mark.parametrize("seed", [0, 7, 2011])
def test_random_ontologies_process_backend(seed):
    """A few seeds through the pool's worker processes against the dict
    oracle: the pooled kernel must equal the reference engine too."""
    left, right = random_pair(seed)
    oracle = align(left, right, ParisConfig(scoring="dict"))
    parallel = align(left, right, ParisConfig(workers=2))
    assert_same_alignment(parallel, oracle)
