"""The mutant list of ``tools/mutate.py`` stays in step with the sources.

A refactor that moves or rewrites a mutated line fails here at once, not
halfway through a mutation run: every mutant's line must occur exactly once
in its file, and ``MUTANTS.json`` must hold the results of the same mutants
in the same order.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_mutated_line_occurs_once(mutant):
    source = (ROOT / mutant.file).read_text()
    assert mutate.mutated(source, mutant) != source


def test_results_name_the_same_mutants():
    results = json.loads((ROOT / "MUTANTS.json").read_text())["mutants"]
    assert [r["name"] for r in results] == [m.name for m in mutate.MUTANTS]
    assert [r["line"] for r in results] == [m.line for m in mutate.MUTANTS]
