import numpy as np
import pytest

from bvd1d.field import CellField, Grid1D, periodic_pad, project_initial

from oracles import sine_cell_averages


def make_field(values, x_left=0.0, x_right=1.0):
    values = np.asarray(values, dtype=float)
    return CellField(Grid1D(len(values), x_left, x_right), values)


class TestGrid1D:
    def test_dx_and_length(self):
        grid = Grid1D(4, 0.0, 1.0)
        assert grid.dx == 0.25
        assert grid.n_cells * grid.dx == 1.0

    def test_cell_centers_between_faces(self):
        grid = Grid1D(5, -1.0, 1.0)
        faces = grid.x_left + np.arange(6) * grid.dx  # cell i covers faces[i]..faces[i+1]
        assert np.allclose(grid.cell_centers, 0.5 * (faces[:-1] + faces[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_cells=0), dict(n_cells=4, x_left=1.0, x_right=0.0),
         dict(n_cells=4, x_left=np.nan, x_right=1.0), dict(n_cells=2.5), dict(n_cells=np.nan)],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Grid1D(**{"x_left": 0.0, "x_right": 1.0, **kwargs})


class TestCellField:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CellField(Grid1D(4, 0.0, 1.0), np.zeros(5))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_field([0.0, np.inf, 1.0, 2.0])

    def test_mass(self):
        field = make_field([1.0, 2.0, 3.0, 4.0])
        assert field.mass() == pytest.approx(2.5)


def stencil(values, i, h):
    """q_{i-h}..q_{i+h} of a periodic field, as a slice of its ghost-cell pad."""
    return periodic_pad(np.asarray(values, dtype=float), h)[i : i + 2 * h + 1]


class TestStencil:
    def test_wraps_at_left_edge(self):
        assert stencil([0.0, 1.0, 2.0, 3.0], 0, 1).tolist() == [3.0, 0.0, 1.0]

    def test_constant_field(self):
        assert stencil([5.0] * 4, 2, 2).tolist() == [5.0] * 5

    def test_wraps_at_right_edge(self):
        assert stencil([0.0, 1.0, 2.0, 3.0], 3, 1).tolist() == [2.0, 3.0, 0.0]

    def test_periodicity_property(self):
        rng = np.random.RandomState(0)
        values = rng.uniform(-1.0, 1.0, 17)
        for i in (0, 3, 16):
            for h in (0, 1, 4, 9, 20):  # 20 > 17 wraps round more than once
                window = stencil(values, i, h)
                assert len(window) == 2 * h + 1
                for k in range(2 * h + 1):
                    assert window[k] == values[(i - h + k) % 17]

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            stencil([1.0, 2.0], 0, -1)


class TestProjectInitial:
    def test_constant_profile_exact(self):
        field = project_initial(Grid1D(7, -2.0, 3.0), lambda x: np.ones_like(x))
        assert np.all(field.averages == 1.0)

    def test_linear_profile_exact(self):
        field = project_initial(Grid1D(4, 0.0, 1.0), lambda x: x)
        assert np.allclose(field.averages, [0.125, 0.375, 0.625, 0.875], atol=1e-15)

    def test_sine_matches_analytic_cell_averages(self):
        grid = Grid1D(10, 0.0, 1.0)
        field = project_initial(grid, lambda x: np.sin(2.0 * np.pi * x))
        assert np.allclose(field.averages, sine_cell_averages(grid), atol=1e-12)
