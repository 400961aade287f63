"""Each scheme's numpy calls (+ slicings) and elements written per RK stage, pinned.

tools/count_calls.py counts one solver._rhs_values per scheme; the counts do
not drift with the host's speed. The calls and slicings are the same at
N = 25, 200 and 2000, and the elements grow with N, so the cheapest size
stands for all three. A rise or a fall fails here and is then recorded:
update STAGE_COUNTS together with the change that moved it. No call on the
stage path may receive a Python float operand, which numpy 2 converts again
on every call, and none may be a masked np.copyto, which costs more than
np.putmask's same copy. The counts depend on numpy's version, so they are checked only
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
    "wenoz": (52, 33, 3398),
    "bvd1": (127, 40, 5376),
    "bvd2": (117, 40, 5126),
    "bvd3": (140, 45, 5879),
    "bvd4": (110, 40, 4951),
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


@ON_MEASURED_NUMPY
@pytest.mark.parametrize("scheme", sorted(STAGE_COUNTS))
def test_no_masked_copyto(count_calls, scheme):
    total, layers = count_calls.stage_counts(scheme, 25)
    assert total.masked_copies == 0, {name: t.masked_copies for name, t in layers.items()}


def test_counter_sees_copies_and_tells_masked_copyto_from_putmask(count_calls):
    counted = count_calls.Counted
    values, mask = np.arange(4.0).view(counted), np.array([True, False, True, False])
    counted.reset()
    buffer = values.copy()
    np.putmask(buffer, mask, values)
    np.copyto(buffer, values)
    assert (counted.calls, counted.masked_copies) == (3, 0)
    np.copyto(buffer, values, where=mask)
    assert (counted.calls, counted.masked_copies) == (4, 1)
