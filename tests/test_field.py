import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvd1d import field
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
         dict(n_cells=4, x_left=np.nan, x_right=1.0), dict(n_cells=2.5), dict(n_cells=np.nan),
         dict(n_cells=True), dict(n_cells=np.bool_(True))],
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


def concatenated_pad(values, width):
    """The former periodic_pad: three slices concatenated, or a wrapping take past one wrap."""
    n = values.shape[0]
    if width > n:
        return values.take(np.arange(-width, n + width), mode="wrap")
    return np.concatenate((values[n - width :], values, values[:width]))


class TestPeriodicPad:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        st.integers(0, 3 * n))))
    def test_matches_the_concatenated_pad_bit_for_bit(self, case):
        values, width = np.array(case[0]), case[1]
        padded = periodic_pad(values, width)
        assert padded.dtype == values.dtype
        assert padded.tobytes() == concatenated_pad(values, width).tobytes()

    @pytest.mark.parametrize("width", [-1, -3, 1.5, 2.0, "1", None])
    def test_negative_or_non_integer_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            periodic_pad(np.arange(4.0), width)

    @pytest.mark.parametrize("width", [True, False, np.bool_(True)])
    def test_bool_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            periodic_pad(np.arange(4.0), width)

    def test_numpy_integer_width_accepted(self):
        assert periodic_pad(np.arange(4.0), np.int64(1)).tolist() == [3.0, 0.0, 1.0, 2.0, 3.0, 0.0]

    def test_cached_index_is_read_only(self):
        index = field._ghost_index(6, 2)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1
        assert field._ghost_index(6, 2) is index

    def test_writing_the_result_changes_neither_input_nor_cache(self):
        values = np.arange(5.0)
        first = periodic_pad(values, 2)
        first[:] = -1.0
        assert values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert periodic_pad(values, 2).tolist() == [3.0, 4.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0]
        assert field._ghost_index(5, 2).tolist() == [3, 4, 0, 1, 2, 3, 4, 0, 1]


class TestShiftIndex:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_gathers_the_padded_neighbour(self, n, shift):
        values = np.arange(n) * 1.5 - 2.0
        padded = periodic_pad(values, 1)
        neighbours = values[field.shift_index(n, shift)]
        assert neighbours.tobytes() == padded[1 + shift : 1 + shift + n].tobytes()

    def test_cached_index_is_read_only(self):
        index = field.shift_index(6, -1)
        assert index.tolist() == [5, 0, 1, 2, 3, 4]
        assert not index.flags.writeable
        assert field.shift_index(6, -1) is index

    @pytest.mark.parametrize("shift", [True, np.bool_(False), 1.0, "1", None])
    def test_bool_or_non_integer_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="shift"):
            field.shift_index(4, shift)


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
