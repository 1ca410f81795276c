"""Every mutant of tests/mutants.py still names code and a killer that exist.

A snippet that no longer occurs exactly once in its file makes the mutant
stale: it would mutate nothing, or the wrong line. A known killer that pytest
no longer collects from SUBSET would send its mutant to the slow fallback.
This file must stay out of mutants.SUBSET, where every mutated copy would
fail it.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("mutants", TESTS / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_subset_leaves_this_file_out():
    assert "tests/test_mutants.py" not in mutants.SUBSET


def test_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_killers_are_collected_from_subset():
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
                           "no:cacheprovider", *mutants.SUBSET], cwd=TESTS.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = set(proc.stdout.splitlines())
    missing = [(m[0], m[4]) for m in mutants.MUTANTS if m[4] not in collected]
    assert not missing


@pytest.mark.parametrize("name, path, old, new, killer", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_snippet_occurs_once(name, path, old, new, killer):
    text = (TESTS.parent / "src" / "penaltyflow" / path).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert old != new
