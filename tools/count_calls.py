"""Count the numpy calls and slicings of one RK stage, per scheme and per layer.

Usage (from the repository root):

    PYTHONPATH=src python tools/count_calls.py

Each scheme runs one solver._rhs_values on the complex-wave profile at
N = 25, 200 and 2000, with the cell averages viewed as a counting ndarray
subclass. The first table gives each stage's total; then, per N, each layer's
inclusive count (a layer's own calls plus those of the layers it runs), read
by wrappers on the names the stage looks the layers up by, as
perfbench/tracing.py wraps them, plus bvd's jump_position. A ufunc call
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

import contextlib
import functools

import numpy as np

from bvd1d import bvd, solver
from bvd1d.experiments import PROFILES
from bvd1d.field import Grid1D, project_initial

SIZES = (25, 200, 2000)
# (namespace, key) of every name one RK stage looks a layer up by, in the
# order of the per-layer rows.
LAYER_POINTS = (
    (vars(solver), "weno_z_field"), (vars(bvd), "weno_z_field"),
    (vars(bvd), "jump_position"), (vars(bvd), "thinc_admissible_field"),
    (vars(bvd), "thinc_field"), (vars(solver), "build_candidates"),
    (bvd.SELECTORS, "bvd1"), (bvd.SELECTORS, "bvd2"), (vars(solver), "bvd3_select"),
    (bvd.SELECTORS, "bvd4"), (vars(bvd), "assemble_interfaces"), (vars(solver), "riemann_flux"),
)


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


@contextlib.contextmanager
def counting_layers(tally: dict[str, tuple[int, int]]):
    """Add each layer call's inclusive (calls, slicings) to tally[layer name]."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls, slicings = Counted.calls, Counted.slicings
            try:
                return fn(*args, **kwargs)
            finally:
                c, s = tally.get(fn.__name__, (0, 0))
                tally[fn.__name__] = (c + Counted.calls - calls, s + Counted.slicings - slicings)
        return wrapper

    saved = [(ns, key, ns[key]) for ns, key in LAYER_POINTS]
    try:
        for ns, key, fn in saved:
            ns[key] = wrap(fn)
        yield
    finally:
        for ns, key, fn in saved:
            ns[key] = fn


def stage_counts(scheme: str, n_cells: int) -> tuple[tuple[int, int], dict[str, tuple[int, int]]]:
    """(numpy calls, slicings) of one _rhs_values on the complex-wave profile, and per layer."""
    profile = PROFILES["complex_waves"]
    grid = Grid1D(n_cells, profile.x_left, profile.x_right)
    values = project_initial(grid, profile.func).averages.view(Counted)
    config, flux = solver.SchemeConfig(scheme), solver.FluxSpec()
    layers: dict[str, tuple[int, int]] = {}
    Counted.calls = Counted.slicings = 0
    with counting_layers(layers):
        solver._rhs_values(values, grid.dx, config, flux)
    return (Counted.calls, Counted.slicings), layers


def _cell(count: tuple[int, int] | None) -> str:
    return "-" if count is None else f"{count[0]} (+{count[1]})"


def main() -> None:
    counts = {(scheme, n): stage_counts(scheme, n) for scheme in solver.SCHEMES for n in SIZES}
    print(f"numpy {np.__version__}: numpy calls (+ slicings) per RK stage")
    print(f"{'scheme':<8}" + "".join(f"{f'N = {n}':>16}" for n in SIZES))
    for scheme in solver.SCHEMES:
        print(f"{scheme:<8}" + "".join(f"{_cell(counts[scheme, n][0]):>16}" for n in SIZES))
    for n in SIZES:
        print(f"\nN = {n}: inclusive numpy calls (+ slicings) per layer in one RK stage")
        print(f"{'layer':<24}" + "".join(f"{scheme:>12}" for scheme in solver.SCHEMES))
        for layer in dict.fromkeys(ns[key].__name__ for ns, key in LAYER_POINTS):
            cells = (_cell(counts[scheme, n][1].get(layer)) for scheme in solver.SCHEMES)
            print(f"{layer:<24}" + "".join(f"{c:>12}" for c in cells))


if __name__ == "__main__":
    main()
