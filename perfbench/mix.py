"""Seeded operation sequences: the deltas writers post and the reads
the open-loop reader sends.

Everything here is a pure function of the seed, so one seed always
yields the same inputs, and the program only ever sees their output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List

from repro.datasets.incremental import family_addition, family_removal
from repro.service.delta import Delta


@dataclass(frozen=True)
class DeltaOp:
    """One delta: ``kind`` is ``add``, ``retract`` or ``restore``."""

    kind: str
    family: int
    delta: Delta


def delta_ops(
    seed: int,
    writer: int,
    writers: int,
    base_families: int,
    add_budget: int,
    add_every: int,
    with_classes: bool,
) -> Iterator[DeltaOp]:
    """Writer ``writer``'s endless delta sequence.

    Every ``add_every``-th delta adds a fresh family (at most
    ``add_budget`` per writer, so the corpus grows by a bounded amount);
    the rest retract or restore the marriage facts of base families.
    The composition is fixed rather than drawn, because adds cost
    several times what the others do: a drawn share would move the
    figures from seed to seed.  Writers own disjoint families (fresh ones and base ones, by index
    modulo ``writers``), so their deltas commute and the final corpus
    does not depend on how the program interleaved them.
    """
    rng = random.Random(f"perfbench-deltas/{seed}/{writer}")
    owned = list(range(writer, base_families, writers))
    retracted: List[int] = []
    added = 0
    for index in itertools.count():
        if added < add_budget and index % add_every == 0:
            family = base_families + writer + added * writers
            added += 1
            add1, add2 = family_addition(family, 1, with_classes=with_classes)
            yield DeltaOp("add", family, Delta(add1=tuple(add1), add2=tuple(add2)))
            continue
        if retracted and rng.random() < 0.5:
            family = retracted.pop(rng.randrange(len(retracted)))
            add1, add2 = family_removal([family])
            yield DeltaOp("restore", family, Delta(add1=tuple(add1), add2=tuple(add2)))
            continue
        family = rng.choice(owned)
        while family in retracted:
            family = rng.choice(owned)
        retracted.append(family)
        remove1, remove2 = family_removal([family])
        yield DeltaOp("retract", family, Delta(remove1=tuple(remove1), remove2=tuple(remove2)))


#: Read shapes of the fleet_read mix, per block of 20 reads: /pair 40%,
#: ?entity= 20%, ?top=5 15%, ?limit=20 with its cursor followed 15%,
#: If-None-Match revalidation 10%.
READ_BLOCK = (
    ("pair", 8),
    ("entity", 4),
    ("top", 3),
    ("page", 3),
    ("revalidate", 2),
)


@dataclass(frozen=True)
class ReadOp:
    kind: str
    family: int
    #: Which person of the family (``a`` or ``b``) the read is about.
    person: str


def read_ops(seed: int, base_families: int) -> Iterator[ReadOp]:
    """The reader's endless read sequence over the base families.

    Each block of 20 reads holds the mix's shares exactly, in a seeded
    order; a drawn mix would vary the share of two-request page reads,
    and with it the tail, from seed to seed.
    """
    rng = random.Random(f"perfbench-reads/{seed}")
    block = [kind for kind, count in READ_BLOCK for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind in block:
            yield ReadOp(kind, rng.randrange(base_families), rng.choice("ab"))
