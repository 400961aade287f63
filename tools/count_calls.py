"""Count the numpy calls and slicings of one RK stage, per scheme, at N = 200 and 2000.

Usage (from the repository root):

    PYTHONPATH=src python tools/count_calls.py

Each scheme runs one solver._rhs_values on the complex-wave profile, with the
cell averages viewed as a counting ndarray subclass. A ufunc call
(__array_ufunc__, reductions such as .sum() included) or a numpy function
call (__array_function__) that receives a counted array counts once, at the
outermost level only: the ufuncs np.stack runs inside itself do not count.
Slicing and indexing (__getitem__) are counted separately.

Caveats:
- It counts and never times. The subclass changes numpy's dispatch, so a
  stage runs slower under it than without it.
- Methods that bypass both protocols, such as astype and take, calls on
  arrays that never meet a counted array, and Python-level work are not
  counted.
- The counts depend on numpy's version, which is printed with them.
"""

from __future__ import annotations

import numpy as np

from bvd1d import solver
from bvd1d.experiments import PROFILES
from bvd1d.field import Grid1D, project_initial

SIZES = (200, 2000)


class Counted(np.ndarray):
    """An ndarray whose numpy calls and slicings add to class-wide tallies."""

    calls = 0
    slicings = 0
    depth = 0  # > 0 while numpy runs a counted call, whose inner calls do not count

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if out is not None:
            kwargs["out"] = tuple(_plain(x) for x in out)
        result = _counted_call(getattr(ufunc, method), *map(_plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return _wrap(result)

    def __array_function__(self, func, types, args, kwargs):
        return _wrap(_counted_call(super().__array_function__, func, types, args, kwargs))

    def __getitem__(self, key):
        Counted.slicings += Counted.depth == 0
        return super().__getitem__(key)


def _counted_call(fn, *args, **kwargs):
    Counted.calls += Counted.depth == 0
    Counted.depth += 1
    try:
        return fn(*args, **kwargs)
    finally:
        Counted.depth -= 1


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, Counted) else x


def _wrap(x):
    if isinstance(x, tuple):
        return tuple(_wrap(item) for item in x)
    if type(x) is np.ndarray:
        return x.view(Counted)
    return x


def stage_counts(scheme: str, n_cells: int) -> tuple[int, int]:
    """(numpy calls, slicings) of one _rhs_values on the complex-wave profile."""
    profile = PROFILES["complex_waves"]
    grid = Grid1D(n_cells, profile.x_left, profile.x_right)
    values = project_initial(grid, profile.func).averages.view(Counted)
    config, flux = solver.SchemeConfig(scheme), solver.FluxSpec()
    Counted.calls = Counted.slicings = 0
    solver._rhs_values(values, grid.dx, config, flux)
    return Counted.calls, Counted.slicings


def main() -> None:
    print(f"numpy {np.__version__}: numpy calls (+ slicings) per RK stage")
    print(f"{'scheme':<8}" + "".join(f"{f'N = {n}':>16}" for n in SIZES))
    for scheme in solver.SCHEMES:
        cells = (stage_counts(scheme, n) for n in SIZES)
        print(f"{scheme:<8}" + "".join(f"{f'{c} (+{s})':>16}" for c, s in cells))


if __name__ == "__main__":
    main()
