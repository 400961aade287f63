"""Every public name has a caller outside the tests.

A public name that only tests use is test-only API: the package and the
benchmark would run the same without it. So each public top-level name of
src/bvd1d/*.py (a function, class or assigned name not starting with "_";
bvd1d.__all__ is among them) must occur as a whole word at least twice
across the package modules (without __init__.py) and perfbench/*.py: its
definition plus one use.
"""

import ast
import re
from pathlib import Path

import pytest

import bvd1d

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for path in sorted(ROOT.glob("src/bvd1d/*.py")) if path.name != "__init__.py"]
PATHS = MODULES + sorted(ROOT.glob("perfbench/*.py"))
SOURCES = "\n".join(path.read_text(encoding="utf-8") for path in PATHS)


def public_names() -> set[str]:
    """The names each package module binds at its top level, other than by import."""
    names = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", sorted(public_names() | set(bvd1d.__all__)))
def test_public_name_is_used_outside_tests(name):
    uses = len(re.findall(rf"\b{re.escape(name)}\b", SOURCES))
    assert uses >= 2, f"{name} occurs {uses} time(s) outside tests and __init__.py"
