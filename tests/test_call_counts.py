"""Each scheme's numpy calls (+ slicings) and elements written per RK stage, pinned.

tools/count_calls.py counts one solver._rhs_values per scheme; the counts do
not drift with the host's speed. The calls and slicings are the same at
N = 25, 200 and 2000, and the elements grow with N, so the cheapest size
stands for all three. A rise or a fall fails here and is then recorded:
update STAGE_COUNTS together with the change that moved it. No call on the
stage path may receive a Python float operand, which numpy 2 converts again
on every call. The counts depend on numpy's version, so they are checked only
under the version they were measured with.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bvd1d.solver import SCHEMES

ROOT = Path(__file__).resolve().parents[1]
MEASURED_WITH = "2.4.6"
# scheme: (numpy calls, slicings, elements written) of one RK stage at N = 25
STAGE_COUNTS = {
    "wenoz": (67, 30, 3402),
    "bvd1": (139, 39, 5286),
    "bvd2": (130, 41, 5088),
    "bvd3": (155, 44, 5887),
    "bvd4": (123, 41, 4913),
}
ON_MEASURED_NUMPY = pytest.mark.skipif(
    np.__version__ != MEASURED_WITH, reason=f"counts were measured under numpy {MEASURED_WITH}")


@pytest.fixture(scope="module")
def count_calls():
    spec = importlib.util.spec_from_file_location("count_calls", ROOT / "tools" / "count_calls.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_scheme_is_pinned():
    assert set(STAGE_COUNTS) == set(SCHEMES)


@ON_MEASURED_NUMPY
@pytest.mark.parametrize("scheme", sorted(STAGE_COUNTS))
def test_stage_call_count(count_calls, scheme):
    total, _ = count_calls.stage_counts(scheme, 25)
    assert (total.calls, total.slicings, total.elements) == STAGE_COUNTS[scheme]


@ON_MEASURED_NUMPY
@pytest.mark.parametrize("scheme", sorted(STAGE_COUNTS))
def test_no_call_receives_a_python_float(count_calls, scheme):
    total, layers = count_calls.stage_counts(scheme, 25)
    assert total.float_operands == 0, {name: t.float_operands for name, t in layers.items()}
