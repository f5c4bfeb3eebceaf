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
from repro.datasets.incremental import family_pair

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
