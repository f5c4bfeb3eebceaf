"""The traced benchmark's hooks still exist and still sit on their paths.

``perfbench/spans.py`` times the program from outside by patching the
callables named in ``CORE_SPANS`` and ``SERVICE_SPANS``.  A renamed or
deleted target makes every traced run crash, and a target the program
stops calling silently reads as zero.  This suite loads ``spans.py``
as it is and checks both.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro import ParisConfig
from repro.core import aligner as aligner_module
from repro.core.aligner import ParisAligner
from repro.datasets.incremental import family_addition, family_pair, family_removal
from repro.service import AlignmentService, Delta

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
HOOKS = [path for path, _name in SPANS.CORE_SPANS] + [
    path for path, _name, _note in SPANS.SERVICE_SPANS
]


@pytest.mark.parametrize("path", HOOKS)
def test_hook_resolves_to_a_callable(path):
    owner, attribute = SPANS._resolve(path)
    assert callable(getattr(owner, attribute)), path


def count_calls(monkeypatch, owner, attribute):
    calls = []
    original = getattr(owner, attribute)

    def counting(*args, **kwargs):
        calls.append(attribute)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_cold_align_calls_the_pass_hooks(monkeypatch, workers):
    """Every relation pass goes through the patched module attribute,
    on the pool or not; the sequential class pass goes through
    ``subclass_pass``."""
    relation_calls = count_calls(monkeypatch, aligner_module, "parallel_subrelation_pass")
    class_calls = count_calls(monkeypatch, aligner_module, "subclass_pass")
    instance_calls = count_calls(monkeypatch, ParisAligner, "_instance_pass")
    aligner = ParisAligner(*family_pair(4, with_classes=True), ParisConfig(workers=workers))
    result = aligner.align()
    iterations = len(result.iterations)
    assert len(instance_calls) == iterations
    assert len(relation_calls) == 2 * iterations
    if workers == 1:
        assert len(class_calls) == 2


def test_apply_delta_calls_warm_align_once(monkeypatch):
    """Each non-no-op delta goes through the patched
    ``ParisAligner.warm_align`` exactly once (``core.warm_align``), and
    the report's pass count (``core.warm_passes``) is the number of
    frontiers that run scored; a no-op delta calls neither."""
    service = AlignmentService.cold_start(*family_pair(4), ParisConfig())
    warm_calls = count_calls(monkeypatch, ParisAligner, "warm_align")
    frontier_calls = count_calls(monkeypatch, ParisAligner, "_score_frontier")
    add1, add2 = family_addition(4, 1)
    remove1, remove2 = family_removal([0])
    deltas = [
        Delta(add1=tuple(add1), add2=tuple(add2)),
        Delta(add1=tuple(add1), add2=tuple(add2)),  # already applied: no-op
        Delta(remove1=tuple(remove1), remove2=tuple(remove2)),
    ]
    expected_warm = 0
    for delta in deltas:
        passes_before = len(frontier_calls)
        report = service.apply_delta(delta)
        if report.applied_add or report.applied_remove:
            expected_warm += 1
            assert report.passes >= 1
        else:
            assert report.passes == 0
        assert len(warm_calls) == expected_warm
        assert len(frontier_calls) - passes_before == report.passes
    assert expected_warm == 2
