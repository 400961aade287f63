"""Every public name has a caller outside the tests.

A name exported from bvd1d that only tests call is test-only API: the
package and the benchmark would run the same without it. So each name in
bvd1d.__all__ must occur as a whole word at least twice across the package
modules (without __init__.py) and perfbench/*.py: its definition plus one use.
"""

import re
from pathlib import Path

import pytest

import bvd1d

ROOT = Path(__file__).resolve().parents[1]
PATHS = sorted(ROOT.glob("src/bvd1d/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
SOURCES = "\n".join(
    path.read_text(encoding="utf-8") for path in PATHS if path.name != "__init__.py"
)


@pytest.mark.parametrize("name", bvd1d.__all__)
def test_public_name_is_used_outside_tests(name):
    uses = len(re.findall(rf"\b{re.escape(name)}\b", SOURCES))
    assert uses >= 2, f"{name} occurs {uses} time(s) outside tests and __init__.py"
