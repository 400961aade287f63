"""The stage kernels leave their inputs untouched.

The kernels, selectors, flux and RK stage update their own temporaries in
place. These tests check that none of them writes into an argument or into
a CandidateSet array, and that every array a caller goes on to update in
place shares no memory with the arrays it was computed from.
"""

import copy
import dataclasses
import itertools

import numpy as np
import pytest

from bvd1d import bvd, reconstruct, solver
from bvd1d.bvd import CandidateSet
from bvd1d.solver import FluxSpec, SchemeConfig

CONFIG = SchemeConfig(beta=1.8, delta=1e-4)  # the kernels' parameters
SCHEMES = ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4")


def fields() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(7)
    cases = [(f"random-n{n}", rng.standard_normal(n)) for n in (1, 5, 64, 200)]
    cases.append(("step", np.repeat([0.0, 1.0], 8)))
    cases.append(("smeared_step", np.array([0.0] * 4 + [0.5] + [1.0] * 5)))
    return cases


def arrays_of(args) -> list[np.ndarray]:
    """Every array among the arguments, CandidateSet fields and tuple entries included."""
    out = []
    for arg in args:
        if isinstance(arg, CandidateSet):
            out += [getattr(arg, f.name) for f in dataclasses.fields(arg)]
        elif isinstance(arg, tuple):
            out += arrays_of(arg)
        elif isinstance(arg, np.ndarray):
            out.append(arg)
    return out


def assert_leaves_inputs_unchanged(fn, *args):
    before = arrays_of(copy.deepcopy(args))
    out = fn(*args)
    after = arrays_of(args)
    assert len(before) == len(after) > 0
    for old, new in zip(before, after):
        assert np.array_equal(old, new), fn.__name__
    return out


@pytest.mark.parametrize("label, values", fields())
def test_kernels_and_selectors_leave_inputs_unchanged(label, values):
    candidates = bvd.build_candidates(values, CONFIG)
    omega = np.linspace(0.0, 1.0, values.size)
    assert_leaves_inputs_unchanged(reconstruct.weno_z_field, values)
    jump = reconstruct.jump_position(values)
    assert_leaves_inputs_unchanged(reconstruct.thinc_field, jump, CONFIG)
    assert_leaves_inputs_unchanged(reconstruct.thinc_admissible_field, jump, CONFIG)
    assert_leaves_inputs_unchanged(bvd.build_candidates, values, CONFIG)
    for name in ("bvd1", "bvd2", "bvd4"):
        assert_leaves_inputs_unchanged(bvd.SELECTORS[name], candidates)
    assert_leaves_inputs_unchanged(bvd.bvd3_select, candidates, values, CONFIG)
    assert_leaves_inputs_unchanged(bvd.assemble_interfaces, omega, candidates)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("label, values", fields())
def test_flux_and_stages_leave_inputs_unchanged(scheme, label, values):
    config, flux = SchemeConfig(scheme), FluxSpec()
    q_left, q_right = reconstruct.weno_z_field(values)
    assert_leaves_inputs_unchanged(solver.riemann_flux, q_left, q_right, flux)
    assert_leaves_inputs_unchanged(solver._rhs_values, values, 0.01, config, flux)
    assert_leaves_inputs_unchanged(solver._ssp_rk3_values, values, 0.001, 0.01, config, flux)


@pytest.mark.parametrize("label, values", fields())
def test_arrays_updated_in_place_own_their_memory(label, values):
    weno_left, weno_right = reconstruct.weno_z_field(values)
    candidates = bvd.build_candidates(values, CONFIG)
    owned = [values, weno_left, weno_right, *arrays_of([candidates])]
    for a, b in itertools.combinations(owned, 2):
        assert not np.shares_memory(a, b)

    for name in ("bvd1", "bvd2", "bvd3", "bvd4"):
        args = (candidates, values, CONFIG) if name == "bvd3" else (candidates,)
        sel = bvd.SELECTORS[name](*args)
        for face in (sel.face_left, sel.face_right):
            assert not any(np.shares_memory(face, a) for a in arrays_of([candidates]))
        face_flux = solver.riemann_flux(sel.face_left, sel.face_right, FluxSpec())
        assert not np.shares_memory(face_flux, sel.face_left)
        assert not np.shares_memory(face_flux, sel.face_right)

    for scheme in SCHEMES:
        config = SchemeConfig(scheme)
        dqdt = solver._rhs_values(values, 0.01, config, FluxSpec())[0]
        assert not np.shares_memory(dqdt, values)
        updated = solver._ssp_rk3_values(values, 0.001, 0.01, config, FluxSpec())[0]
        assert not np.shares_memory(updated, values)
