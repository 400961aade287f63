"""Each scheme's numpy calls (+ slicings) per RK stage, pinned.

tools/count_calls.py counts one solver._rhs_values per scheme; the counts do
not drift with the host's speed, and at N = 25, 200 and 2000 they are the
same, so the cheapest size stands for all three. A rise or a fall fails here
and is then recorded: update STAGE_COUNTS together with the change that moved
it. The counts depend on numpy's version, so they are checked only under the
version they were measured with.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bvd1d.solver import SCHEMES

ROOT = Path(__file__).resolve().parents[1]
MEASURED_WITH = "2.4.6"
# scheme: (numpy calls, slicings) of one RK stage at N = 25
STAGE_COUNTS = {
    "wenoz": (71, 34),
    "bvd1": (147, 47),
    "bvd2": (139, 50),
    "bvd3": (163, 53),
    "bvd4": (134, 50),
}


@pytest.fixture(scope="module")
def count_calls():
    spec = importlib.util.spec_from_file_location("count_calls", ROOT / "tools" / "count_calls.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_scheme_is_pinned():
    assert set(STAGE_COUNTS) == set(SCHEMES)


@pytest.mark.skipif(np.__version__ != MEASURED_WITH,
                    reason=f"counts were measured under numpy {MEASURED_WITH}")
@pytest.mark.parametrize("scheme", sorted(STAGE_COUNTS))
def test_stage_call_count(count_calls, scheme):
    total, _ = count_calls.stage_counts(scheme, 25)
    assert total == STAGE_COUNTS[scheme]
