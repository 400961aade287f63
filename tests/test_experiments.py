
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvd1d.experiments import (
    FIGURE_SCHEMES,
    PROFILES,
    complex_wave_profile,
    exact_advected,
    l1_error,
    linf_error,
    run_benchmark,
    selection_weights,
    transition_width,
    write_gnuplot_script,
    write_run_csv,
)
from bvd1d.field import CellField, Grid1D, project_initial
from bvd1d.solver import SchemeConfig

from oracles import scan_transition_width


def field_on_unit(values):
    values = np.asarray(values, dtype=float)
    return CellField(Grid1D(len(values), 0.0, 1.0), values)


class TestComplexWaveProfile:
    def test_inside_square_pulse(self):
        assert complex_wave_profile(np.array([-0.3]))[0] == 1.0

    def test_triangle_apex(self):
        assert complex_wave_profile(np.array([0.1]))[0] == 1.0

    def test_gap_region_is_zero(self):
        for x in (-0.95, -0.5, 0.3, 0.7, 0.9):
            assert complex_wave_profile(np.array([x]))[0] == 0.0

    def test_feature_values_stay_in_unit_range(self):
        x = np.linspace(-1.0, 1.0, 4001)
        values = complex_wave_profile(x)
        assert values.min() == 0.0
        assert 0.99 <= values.max() <= 1.0

    def test_gaussian_hump_is_symmetric_about_center(self):
        offsets = np.array([0.02, 0.05, 0.08])
        left = complex_wave_profile(-0.7 - offsets)
        right = complex_wave_profile(-0.7 + offsets)
        assert np.allclose(left, right, atol=1e-14)


class TestErrorNorms:
    def test_identical_fields_give_zero(self):
        field = field_on_unit([0.1, 0.2, 0.3, 0.4])
        assert l1_error(field, field) == 0.0
        assert linf_error(field, field) == 0.0

    def test_constant_offset_on_unit_domain(self):
        a = field_on_unit([0.0, 1.0, 2.0, 3.0])
        b = field_on_unit([0.5, 1.5, 2.5, 3.5])
        assert l1_error(a, b) == pytest.approx(0.5)
        assert linf_error(a, b) == pytest.approx(0.5)

    def test_two_cell_swap(self):
        a = field_on_unit([0.0, 1.0])
        b = field_on_unit([1.0, 0.0])
        assert l1_error(a, b) == pytest.approx(1.0)

    def test_grid_mismatch_rejected(self):
        a = field_on_unit([0.0, 1.0])
        b = CellField(Grid1D(2, 0.0, 2.0), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            l1_error(a, b)


class TestTransitionWidth:
    def test_sharp_step_scores_one(self):
        values = [0.0] * 8 + [1.0] * 8
        field = field_on_unit(values)
        assert transition_width(field, 0.5) == 1

    def test_staircase_counts_intermediates_plus_one(self):
        values = [0.0] * 6 + [0.25, 0.5, 0.75] + [1.0] * 7
        field = field_on_unit(values)
        assert transition_width(field, 0.45) == 4

    def test_falling_edge_measured_too(self):
        values = [1.0] * 6 + [0.6, 0.3] + [0.0] * 8
        field = field_on_unit(values)
        assert transition_width(field, 0.45) == 3

    def test_flat_field_has_no_width(self):
        field = field_on_unit([0.5] * 16)
        assert transition_width(field, 0.5) is None

    def test_nearest_transition_wins(self):
        # two steps; the hint picks the closer one
        values = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.25, 0.0]
        field = field_on_unit(values)
        assert transition_width(field, 0.2) == 2
        assert transition_width(field, 0.8) == 3

    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(st.sampled_from([-0.5, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5]),
                        min_size=1, max_size=59),
        hint=st.floats(0.0, 1.0),
    )
    def test_matches_pairwise_scan(self, values, hint):
        # same width as the oracle's scan over every pair of out-of-band
        # cells, which keeps the first of equally near transitions by a
        # strict <; None where the scan finds no transition
        field = field_on_unit(values)
        try:
            expected = scan_transition_width(field, 0.0, 1.0, hint)
        except ValueError:
            expected = None
        assert transition_width(field, hint) == expected


class TestExactAdvected:
    def test_integer_period_matches_initial_projection(self):
        profile = PROFILES["complex_waves"]
        grid = Grid1D(80, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        shifted = exact_advected(profile, grid, speed=1.0, t=profile.period(1.0))
        assert np.allclose(shifted.averages, initial.averages, atol=1e-12)

    def test_half_period_swaps_halves_of_square(self):
        profile = PROFILES["square"]
        grid = Grid1D(40, profile.x_left, profile.x_right)
        shifted = exact_advected(profile, grid, speed=1.0, t=0.5 * profile.period(1.0))
        initial = project_initial(grid, profile.func)
        assert np.allclose(shifted.averages, np.roll(initial.averages, 20), atol=1e-12)


class TestRunBenchmark:
    def test_populates_analysis_fields(self):
        result = run_benchmark(
            SchemeConfig("bvd4"), PROFILES["square"], n_cells=60, periods=1.0
        )
        assert result.exact is not None
        assert result.l1_error is not None and result.l1_error >= 0.0
        assert result.linf_error is not None
        assert len(result.transition_widths) == 2
        assert all(w >= 1 for w in result.transition_widths)

    def test_fractional_periods_use_shifted_reference(self):
        result = run_benchmark(
            SchemeConfig("wenoz"), PROFILES["sine"], n_cells=50, periods=0.25
        )
        # a smooth quarter-period run should track the exact solution closely
        assert result.l1_error < 1e-4


class TestBenchmarkInvariants:
    @pytest.mark.parametrize("name", ["bvd1", "bvd2", "bvd3", "bvd4", "bvd4-beta4"])
    def test_square_pulse_plateau_preserved_by_hybrids(self, complex_wave_runs, name):
        result = complex_wave_runs[name]
        grid = result.final.grid
        plateau = (grid.cell_centers > -0.36) & (grid.cell_centers < -0.24)
        peak = np.abs(result.final.averages[plateau]).max()
        assert 0.98 <= peak <= 1.02

    def test_width_ordering_across_schemes(self, complex_wave_runs):
        widest = max(complex_wave_runs["wenoz"].transition_widths)
        sharp = max(complex_wave_runs["bvd4-beta4"].transition_widths)
        for name in ("bvd1", "bvd2", "bvd4"):
            mid = max(complex_wave_runs[name].transition_widths)
            assert widest > mid >= sharp


def write_figure_csv(path, scheme, n_cells, periods):
    """What `bvd1d run` writes: the benchmark run plus its selection tags."""
    result = run_benchmark(scheme, PROFILES["complex_waves"], n_cells=n_cells, periods=periods)
    omega = selection_weights(result.final.averages, scheme)
    write_run_csv(path, result.final.grid, result, omega)
    return result


class TestFigureOutputs:
    def test_figure_table_covers_all_schemes(self):
        schemes = {cfg.scheme for cfg in FIGURE_SCHEMES.values()}
        assert schemes == {"wenoz", "bvd1", "bvd2", "bvd3", "bvd4"}
        assert FIGURE_SCHEMES[6].beta == 4.0

    def test_csv_format_and_determinism(self, tmp_path):
        result = write_figure_csv(tmp_path / "a.csv", SchemeConfig("bvd4"), 50, 0.2)
        write_figure_csv(tmp_path / "b.csv", SchemeConfig("bvd4"), 50, 0.2)
        first = (tmp_path / "a.csv").read_bytes()
        second = (tmp_path / "b.csv").read_bytes()
        assert first == second
        lines = first.decode().splitlines()
        assert lines[0] == "x_center,q_avg,q_exact,tag"
        assert len(lines) == 51
        assert all(line.count(",") == 3 for line in lines)
        assert result.l1_error is not None

    def test_tag_column_marks_selected_cells(self, tmp_path):
        write_figure_csv(tmp_path / "run.csv", SchemeConfig("bvd4"), 50, 0.2)
        tags = [line.split(",")[3] for line in
                (tmp_path / "run.csv").read_text().splitlines()[1:]]
        assert set(tags) <= {"W", "T"}
        assert "T" in tags  # sharp edges keep some cells on the sigmoid

    def test_write_run_csv_requires_reference(self, tmp_path):
        grid = Grid1D(4, 0.0, 1.0)
        result = run_benchmark(SchemeConfig("wenoz"), PROFILES["square"],
                               n_cells=40, periods=0.0)
        result.exact = None
        with pytest.raises(ValueError, match="reference"):
            write_run_csv(tmp_path / "run.csv", result.final.grid, result, np.zeros(40))

    def test_gnuplot_script_emission(self, tmp_path):
        script = write_gnuplot_script(tmp_path / "run.gp", tmp_path / "run.csv", "demo")
        text = script.read_text()
        assert "run.csv" in text
        assert "plot" in text
