"""Symmetries of the periodic uniform grid, checked byte for byte.

The solver commutes with whole-cell translations, and WENO-Z with reflection.
Translation holds only if no neighbour read depends on where the periodic wrap
falls: every field.shift_index gather, WENO-Z's mirrored line and its seam,
and solver._rhs's pairing of a cell's right value with its neighbour's left
value at each face. Reflection holds only if WENO-Z evaluates its left faces
with the operations of its right faces over the mirrored line. The selections
of bvd2 and bvd4 mirror byte for byte, and bvd3's W / blend / T pattern
exactly (its blend weights mirror only to rounding: THINC's faces are not
mirror images term by term). bvd1's tags do not mirror on near-flat data
(ROADMAP item 2), so no reflection property covers bvd1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvd1d.field import CellField, Grid1D
from bvd1d.reconstruct import weno_z_field
from bvd1d.solver import FluxSpec, SchemeConfig, TimeConfig, advect, select

SCHEMES = ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4")
STEPS = 3


def fields(min_size: int = 1, max_size: int = 64):
    """Cell averages mixing 0/1 steps with values in [-1e3, 1e3]."""
    cell = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e3, 1e3))
    return st.lists(cell, min_size=min_size, max_size=max_size).map(np.array)


def run(values: np.ndarray, scheme: str):
    grid = Grid1D(values.size)
    dt = 0.2 * grid.dx
    return advect(CellField(grid, values), FluxSpec(), TimeConfig(STEPS * dt, dt=dt),
                  SchemeConfig(scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_advect_commutes_with_translation(scheme, data):
    values = data.draw(fields())
    shift = data.draw(st.integers(1 - values.size, values.size - 1))
    moved, plain = run(np.roll(values, shift), scheme), run(values, scheme)
    assert moved.n_steps == plain.n_steps == STEPS
    assert moved.final.averages.tobytes() == np.roll(plain.final.averages, shift).tobytes()
    assert np.array_equal(moved.t_cells_per_step, plain.t_cells_per_step)
    assert moved.clamped_cells == plain.clamped_cells


def assert_mirrors(values: np.ndarray) -> None:
    """Mirroring the cells swaps the faces: left faces become right faces, reversed."""
    left, right = weno_z_field(values)
    mirrored_left, mirrored_right = weno_z_field(values[::-1])
    assert mirrored_left.tobytes() == right[::-1].tobytes()
    assert mirrored_right.tobytes() == left[::-1].tobytes()


@settings(max_examples=200, deadline=None)
@given(values=fields())
def test_weno_z_commutes_with_reflection(values):
    assert_mirrors(values)


@pytest.mark.parametrize("n", [200, 2001])
def test_weno_z_commutes_with_reflection_on_wide_grids(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        assert_mirrors(rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0))


def tag_pattern(omega: np.ndarray) -> np.ndarray:
    """0 where WENO-Z is taken, 2 where THINC is, 1 where bvd3 blends the two."""
    return np.where(omega == 0.0, 0, np.where(omega == 1.0, 2, 1))


@pytest.mark.parametrize("scheme", ["bvd2", "bvd3", "bvd4"])
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([1.8, 4.0]))
def test_tags_commute_with_reflection(scheme, n, seed, beta):
    # half the cells on exact 0/1 steps, half random at one magnitude in 1e-3 to 1e3
    rng = np.random.default_rng(seed)
    steps, noise = rng.integers(0, 2, n), rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    values = np.where(rng.random(n) < 0.5, steps, noise)
    config = SchemeConfig(scheme, beta=beta)
    omega, mirrored = select(values, config).omega, select(values[::-1], config).omega[::-1]
    if scheme == "bvd3":
        assert np.array_equal(tag_pattern(mirrored), tag_pattern(omega))
    else:
        assert mirrored.tobytes() == omega.tobytes()
