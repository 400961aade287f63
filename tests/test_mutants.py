"""tools/mutants.py's fixed list still points at code that exists.

Each mutant is a literal (file, old, new) edit; when the code moves, an
`old` that no longer occurs, or occurs twice, would silently mutate nothing
or the wrong line. The mutants' labels are the test ids, so restating an
`old` renames no test. Running the mutants themselves takes minutes and stays
outside tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


def test_mutant_labels_are_unique():
    assert len({label for label, *_ in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("path, old, new", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_each_mutant_edits_exactly_one_site(path, old, new):
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
