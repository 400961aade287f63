"""Count the numpy calls, slicings and elements written of one RK stage, per scheme and layer.

Usage (from the repository root):

    PYTHONPATH=src python tools/count_calls.py

Each scheme runs one solver._rhs and reads its selection's THINC cells, as
the first RK stage (which alone counts them) does, on the complex-wave
profile at N = 25, 200 and 2000, with the cell averages viewed as a counting
ndarray subclass and dx a 0-d float64 array, as solver.advect passes it. The first table gives each
stage's totals; then, per N, each layer's inclusive count (a layer's own
calls plus those of the layers it runs), read by wrappers on the names the
stage looks the layers up by, as perfbench/tracing.py wraps them, plus bvd's
jump_position. A ufunc call (__array_ufunc__, reductions such as .sum()
included) or a numpy function call (__array_function__) that receives a
counted array counts once, at the outermost level only: the ufuncs np.stack
runs inside itself do not count. The copy and take methods of a counted
array count as calls too, like np.copy and np.take. Slicing and indexing
(__getitem__) are counted separately. A buffer a kernel allocates must come
from a counted array (np.empty_like(values, shape=(4, n)), not np.empty), or
the calls on it go unseen. reconstruct.weno_z_field keeps its buffers in a
workspace cached per grid size and thread; during a count,
reconstruct._workspace hands out Counted views of those plain buffers
(counted_workspaces). Building a workspace is never counted, so the counts
are a stage's in a run's steady state, and the cache holds no counted buffer.

Four more tallies ride along:
- elements: the size of every array a counted call returns or writes (out=
  and the destination of np.copyto and np.putmask included), plus the size
  of every copy an indexing makes (a gather such as field.shift_index's).
  Views and np.empty_like's uninitialised buffers write nothing. At N = 2000
  a stage's cost grows with this count, where the call count is blind.
- float operands: the counted calls that receive a Python float (or a numpy
  float scalar) as an argument. numpy 2 converts such an operand again on
  every call (NEP 50); the stage path passes read-only 0-d float64 arrays
  instead, so this reads 0.
- masked copies: the counted np.copyto calls with a where= mask, which cost
  more than np.putmask's same copy (0.54 against 0.40 us at N = 50 and 5.1
  against 2.35 us at N = 2000, numpy 2.4.6 on a 2-core Xeon). The stage path
  uses np.putmask, so this reads 0.

Caveats:
- It counts and never times. The subclass changes numpy's dispatch, so a
  stage runs slower under it than without it. Calls and elements together
  are a proxy for a stage's time, not a timer: exp and divide cost more per
  element than add. Like the calls, they support a speed claim but do not
  replace timing it.
- Methods that bypass both protocols, such as astype, calls on
  arrays that never meet a counted array, and Python-level work are not
  counted.
- The counts depend on numpy's version, which is printed with them.
"""

from __future__ import annotations

import contextlib
import functools
from typing import NamedTuple

import numpy as np

from bvd1d import bvd, reconstruct, solver
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


class Tally(NamedTuple):
    """Counts over one stretch of work."""

    calls: int
    slicings: int
    elements: int
    float_operands: int
    masked_copies: int

    def __sub__(self, other):
        return Tally(*(a - b for a, b in zip(self, other)))

    def __add__(self, other):
        return Tally(*(a + b for a, b in zip(self, other)))


class Counted(np.ndarray):
    """An ndarray whose numpy calls, slicings and elements written add to class-wide tallies."""

    calls = 0
    slicings = 0
    elements = 0
    float_operands = 0
    masked_copies = 0
    depth = 0  # > 0 while numpy runs a counted call, whose inner calls do not count

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if out is not None:
            kwargs["out"] = tuple(_plain(x) for x in out)
        result = _counted_call(getattr(ufunc, method), inputs, *map(_plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return _wrap(result)

    def __array_function__(self, func, types, args, kwargs):
        operands = (*args, *kwargs.values())
        outer = Counted.depth == 0
        result = _counted_call(super().__array_function__, operands, func, types, args, kwargs)
        if outer and func in (np.copyto, np.putmask):
            Counted.elements += args[0].size  # writes into its destination, returns None
            where = args[3] if len(args) > 3 else kwargs.get("where", True)
            Counted.masked_copies += func is np.copyto and where is not True
        elif outer and func is np.empty_like:
            Counted.elements -= result.size  # allocated, not written
        return _wrap(result)

    def copy(self, *args, **kwargs):
        return _wrap(_counted_call(_plain(self).copy, (), *args, **kwargs))

    def take(self, indices, axis=None, out=None, mode="raise"):
        result = _counted_call(_plain(self).take, (), indices, axis, _plain(out), mode)
        return out if out is not None else _wrap(result)

    def __getitem__(self, key):
        # counted once it succeeds: tuple unpacking probes one index past the end
        result = super().__getitem__(key)
        if Counted.depth == 0:
            Counted.slicings += 1
            if isinstance(result, np.ndarray) and not np.may_share_memory(_plain(result), _plain(self)):
                Counted.elements += result.size  # a copy: a gather or a boolean mask
        return result

    @classmethod
    def tally(cls) -> Tally:
        return Tally(cls.calls, cls.slicings, cls.elements, cls.float_operands, cls.masked_copies)

    @classmethod
    def reset(cls) -> None:
        cls.calls = cls.slicings = cls.elements = cls.float_operands = cls.masked_copies = 0


def _counted_call(fn, operands, *args, **kwargs):
    """fn(*args, **kwargs), counted as one call with `operands` unless another counted call runs it."""
    outer = Counted.depth == 0
    Counted.calls += outer
    Counted.float_operands += outer and any(isinstance(x, float) for x in operands)
    Counted.depth += 1
    try:
        result = fn(*args, **kwargs)
    finally:
        Counted.depth -= 1
    if outer:
        outputs = result if isinstance(result, tuple) else (result,)
        Counted.elements += sum(x.size for x in outputs if isinstance(x, (np.ndarray, np.generic)))
    return result


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, Counted) else x


def _wrap(x):
    if isinstance(x, tuple):
        return tuple(_wrap(item) for item in x)
    if type(x) is np.ndarray:
        return x.view(Counted)
    return x


@contextlib.contextmanager
def counting_layers(tally: dict[str, Tally]):
    """Add each layer call's inclusive Tally to tally[layer name]."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = Counted.tally()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = Counted.tally() - before
                tally[fn.__name__] = tally.get(fn.__name__, Tally(0, 0, 0, 0, 0)) + spent
        return wrapper

    saved = [(ns, key, ns[key]) for ns, key in LAYER_POINTS]
    try:
        for ns, key, fn in saved:
            ns[key] = wrap(fn)
        yield
    finally:
        for ns, key, fn in saved:
            ns[key] = fn


def _first_stage(values, dx, config, flux) -> int:
    """One solver._rhs and its THINC cell count, the work of an RK step's first stage."""
    return solver._rhs(values, dx, config, flux)[1].thinc_cells


@contextlib.contextmanager
def counted_workspaces():
    """reconstruct._workspace, which weno_z_field looks up by its module global,
    handing out Counted views of the cached plain buffers."""
    plain = reconstruct._workspace
    reconstruct._workspace = lambda n, thread: _wrap(plain(n, thread))
    try:
        yield
    finally:
        reconstruct._workspace = plain


def stage_counts(scheme: str, n_cells: int) -> tuple[Tally, dict[str, Tally]]:
    """The Tally of one _first_stage on the complex-wave profile, and per layer."""
    profile = PROFILES["complex_waves"]
    grid = Grid1D(n_cells, profile.x_left, profile.x_right)
    values = project_initial(grid, profile.func).averages.view(Counted)
    config, flux, dx = solver.SchemeConfig(scheme), solver.FluxSpec(), np.array(grid.dx)
    layers: dict[str, Tally] = {}
    Counted.reset()
    with counted_workspaces(), counting_layers(layers):
        _first_stage(values, dx, config, flux)
    return Counted.tally(), layers


def _cell(count: Tally | None) -> str:
    return "-" if count is None else f"{count.calls} (+{count.slicings})"


def main() -> None:
    counts = {(scheme, n): stage_counts(scheme, n) for scheme in solver.SCHEMES for n in SIZES}
    print(f"numpy {np.__version__}: numpy calls (+ slicings), elements written, calls with "
          "a float operand and masked copyto calls, per RK stage")
    print(f"{'scheme':<8}" + "".join(f"{f'N = {n}':>28}" for n in SIZES)
          + f"{'float':>7}{'masked':>8}")
    for scheme in solver.SCHEMES:
        totals = [counts[scheme, n][0] for n in SIZES]
        cells = (f"{_cell(t)} {t.elements:>10,}" for t in totals)
        print(f"{scheme:<8}" + "".join(f"{c:>28}" for c in cells)
              + f"{totals[0].float_operands:>7}{totals[0].masked_copies:>8}")
    for n in SIZES:
        print(f"\nN = {n}: inclusive numpy calls (+ slicings) per layer in one RK stage")
        print(f"{'layer':<24}" + "".join(f"{scheme:>12}" for scheme in solver.SCHEMES))
        for layer in dict.fromkeys(ns[key].__name__ for ns, key in LAYER_POINTS):
            cells = (_cell(counts[scheme, n][1].get(layer)) for scheme in solver.SCHEMES)
            print(f"{layer:<24}" + "".join(f"{c:>12}" for c in cells))


if __name__ == "__main__":
    main()
