"""Every mutant of tests/mutants.py still names code that exists.

A snippet that no longer occurs exactly once in its file makes the mutant
stale: it would mutate nothing, or the wrong line. This file must stay out of
mutants.SUBSET, where every mutated copy would fail it.
"""

import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("mutants", TESTS / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_subset_leaves_this_file_out():
    assert "tests/test_mutants.py" not in mutants.SUBSET


def test_names_are_unique():
    names = [name for name, _, _, _ in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_snippet_occurs_once(name, path, old, new):
    text = (TESTS.parent / "src" / "penaltyflow" / path).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert old != new
