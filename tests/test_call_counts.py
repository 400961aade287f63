"""Each scheme's numpy calls (+ slicings) and elements written per RK stage, pinned.

tools/count_calls.py counts one solver._rhs per scheme, with its selection's
THINC cell count as the first RK stage reads it; the counts do not drift with the host's speed. The calls and slicings are the same at
N = 25, 200 and 2000, and the elements grow with N, so the cheapest size
stands for all three. A rise or a fall fails here and is then recorded:
update STAGE_COUNTS together with the change that moved it. No call on the
stage path may receive a Python float operand, which numpy 2 converts again
on every call, and none may be a masked np.copyto, which costs more than
np.putmask's same copy. The counts depend on numpy's version, so they are checked only
under the version they were measured with.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from bvd1d import reconstruct
from bvd1d.solver import SCHEMES

ROOT = Path(__file__).resolve().parents[1]
MEASURED_WITH = "2.4.6"
# scheme: (numpy calls, slicings, elements written) of one RK stage at N = 25
STAGE_COUNTS = {
    "wenoz": (52, 2, 3398),
    "bvd1": (127, 8, 5399),
    "bvd2": (117, 8, 5149),
    "bvd3": (142, 17, 5825),
    "bvd4": (110, 8, 4974),
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


def test_counter_sees_a_take_into_a_buffer(count_calls):
    # weno_z_field gathers its line with the take method, which no numpy protocol sees
    values = np.arange(4.0).view(count_calls.Counted)
    line = np.empty(6).view(count_calls.Counted)
    count_calls.Counted.reset()
    assert values.take([3, 0, 1, 2, 3, 0], out=line, mode="clip") is line
    assert line.tolist() == [3.0, 0.0, 1.0, 2.0, 3.0, 0.0]
    assert (count_calls.Counted.calls, count_calls.Counted.elements) == (1, 6)


def test_counting_leaves_no_counted_workspace(count_calls):
    # During a count, reconstruct._workspace hands out counted views of the cached plain
    # buffers; afterwards the cached function is back and its buffers are still plain,
    # or a later plain call would run on counted buffers.
    workspace = reconstruct._workspace
    values = np.linspace(0.0, 1.0, 25)
    before = reconstruct.weno_z_field(values)
    count_calls.stage_counts("bvd1", 25)
    assert reconstruct._workspace is workspace
    assert all(type(x) is np.ndarray for x in workspace(25, threading.get_ident()))
    after = reconstruct.weno_z_field(values)
    assert all(type(x) is np.ndarray for x in after)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
