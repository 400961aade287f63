import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvd1d import bvd, reconstruct
from bvd1d.bvd import build_candidates
from bvd1d.experiments import PROFILES, l1_error
from bvd1d.field import CellField, Grid1D, project_initial, shift_index
from bvd1d.solver import (
    BlowupError,
    FluxSpec,
    SchemeConfig,
    TimeConfig,
    _rhs,
    advect,
    riemann_flux,
    select,
)
from bvd1d.reconstruct import jump_position, thinc_admissible_field, thinc_field

from oracles import brute_force_bvd1_tags, brute_force_bvd2_tags, sine_cell_averages

ALL_SCHEMES = ["wenoz", "bvd1", "bvd2", "bvd3", "bvd4"]


def make_field(values, x_left=-1.0, x_right=1.0):
    values = np.asarray(values, dtype=float)
    return CellField(Grid1D(len(values), x_left, x_right), values)


def rhs(field, scheme, flux):
    """Semi-discrete time derivative of the cell averages."""
    return _rhs(field.averages, field.grid.dx, scheme, flux)[0]


def rk3_step(field, dt, scheme, flux):
    """One SSP-RK3 step: advect over a window of exactly one step dt."""
    return advect(field, flux, TimeConfig(t_end=dt, dt=dt), scheme).final


class TestRiemannFlux:
    def test_consistency_with_equal_states(self):
        spec = FluxSpec(speed=2.5)
        assert riemann_flux(0.7, 0.7, spec) == spec.flux(0.7)

    def test_positive_speed_upwinds_from_left(self):
        assert riemann_flux(1.0, 0.0, FluxSpec(speed=1.0)) == 1.0

    def test_negative_speed_upwinds_from_right(self):
        assert riemann_flux(1.0, 0.0, FluxSpec(speed=-1.0)) == 0.0

    def test_broadcasts_over_arrays(self):
        spec = FluxSpec(speed=1.0)
        out = riemann_flux(np.array([1.0, 0.0]), np.array([0.0, 1.0]), spec)
        assert out.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("speed", [np.nan, np.inf, -np.inf])
    def test_non_finite_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="speed must be finite"):
            FluxSpec(speed=speed)


def zigzag_fields():
    """offset + (-1)^i (1 + m_i) on an even number of cells: every cell is an extremum."""
    magnitudes = st.integers(2, 32).flatmap(
        lambda k: st.lists(st.floats(0.0, 1e3), min_size=2 * k, max_size=2 * k)
    )
    return st.tuples(st.floats(-1e3, 1e3), magnitudes).map(
        lambda args: args[0] + (-1.0) ** np.arange(len(args[1])) * (1.0 + np.array(args[1]))
    )


def random_fields():
    """Cell averages in [-1e3, 1e3] on 5 to 64 cells."""
    return st.integers(5, 64).flatmap(
        lambda n: st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    ).map(np.array)


class TestSelect:
    @settings(max_examples=300, deadline=None)
    @given(values=random_fields(), beta=st.sampled_from([1.8, 4.0]))
    def test_tags_match_brute_force_and_weights_lie_in_unit_interval(self, values, beta):
        cs = build_candidates(values, SchemeConfig(beta=beta))
        oracles = {"bvd1": brute_force_bvd1_tags, "bvd2": brute_force_bvd2_tags}
        for scheme in ALL_SCHEMES:
            omega = select(values, SchemeConfig(scheme, beta=beta)).omega
            assert np.all((omega >= 0.0) & (omega <= 1.0)), scheme
            assert np.all(omega[~cs.admissible] == 0.0), scheme
            if scheme in oracles:
                assert ["T" if w == 1.0 else "W" for w in omega] == oracles[scheme](cs), scheme

    @settings(max_examples=300, deadline=None)
    @given(values=zigzag_fields())
    def test_no_admissible_cell_falls_back_to_wenoz_bitwise(self, values):
        assert not thinc_admissible_field(jump_position(values), SchemeConfig(delta=1e-4)).any()
        wenoz = select(values, SchemeConfig("wenoz"))
        assert not wenoz.omega.any()
        for scheme in ALL_SCHEMES[1:]:
            for beta in (1.8, 4.0):
                sel = select(values, SchemeConfig(scheme, beta=beta))
                assert not sel.omega.any()
                assert np.array_equal(sel.left, wenoz.left)
                assert np.array_equal(sel.right, wenoz.right)

    def test_one_jump_position_per_bvd_stage(self, monkeypatch):
        jumps, gathers = [], []

        def counted_jump(values):
            jumps.append(values)
            return jump_position(values)

        def counted_shift_index(n, shift):
            gathers.append(shift)
            return shift_index(n, shift)

        monkeypatch.setattr(bvd, "jump_position", counted_jump)
        monkeypatch.setattr(reconstruct, "shift_index", counted_shift_index)
        values = np.repeat([0.0, 1.0, 0.25, 0.75], 10) + np.linspace(0.0, 0.1, 40)
        for scheme in ALL_SCHEMES[1:]:
            jumps.clear()
            _rhs(values, 0.05, SchemeConfig(scheme), FluxSpec())
            assert len(jumps) == 1, scheme
        gathers.clear()
        jump = jump_position(values)
        assert gathers == [-1, 1]  # the counter sees jump_position's own two gathers
        gathers.clear()
        thinc_field(jump, SchemeConfig())
        thinc_admissible_field(jump, SchemeConfig())
        assert gathers == []


class TestConfigs:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="wenoz"):
            SchemeConfig(scheme="weno5")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0),
            dict(beta=np.nan),
            dict(beta=np.inf),
            dict(delta=0.0),
            dict(delta=0.5),
            dict(s_cutoff=-1.0),
            dict(s_cutoff=np.nan),
            dict(beta=-1.0),
            dict(beta=711.0),
            dict(beta=1e10),
            dict(s_cutoff=0.0),
        ],
    )
    def test_bad_scheme_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="bvd4", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(beta=True), dict(beta=np.True_), dict(delta=True), dict(s_cutoff=True),
         dict(s_cutoff=np.True_)],
    )
    def test_bool_parameters_rejected(self, kwargs):
        # as Grid1D rejects a bool n_cells: True would run as 1 with a bool operand
        with pytest.raises(ValueError, match="bool"):
            SchemeConfig(scheme="bvd1", **kwargs)

    def test_beta_needs_a_finite_cosh(self):
        # cosh overflows between 710 and 711; beyond, THINC's faces are NaN.
        assert np.isfinite(SchemeConfig(beta=710.0).cosh_beta)
        for beta in (711.0, 1e10):
            with pytest.raises(ValueError, match="cosh"):
                SchemeConfig(beta=beta)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cfl=0.0),
            dict(cfl=1.5),
            dict(t_end=-1.0),
            dict(t_end=np.nan),
            dict(t_end=np.inf),
            dict(dt=0.0),
            dict(dt=np.nan),
            dict(dt=np.inf),
        ],
    )
    def test_bad_time_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeConfig(**{"t_end": 1.0, **kwargs})


class TestRhs:
    def test_constant_field_gives_zero(self):
        field = make_field(np.full(16, 2.0))
        for scheme in ALL_SCHEMES:
            out = rhs(field, SchemeConfig(scheme=scheme), FluxSpec(1.0))
            assert np.all(out == 0.0)

    def test_linear_region_of_sawtooth_advects_exactly(self):
        # away from the wrap crest the reconstruction is exact for linear
        # data, so the derivative is -speed * slope
        n = 32
        grid = Grid1D(n, -1.0, 1.0)
        field = CellField(grid, grid.cell_centers.copy())  # slope 1
        for scheme in ALL_SCHEMES:
            out = rhs(field, SchemeConfig(scheme=scheme), FluxSpec(1.0))
            assert np.allclose(out[4 : n - 4], -1.0, atol=1e-12)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_telescoping_conservation(self, scheme):
        rng = np.random.RandomState(20)
        field = make_field(rng.uniform(-1.0, 1.0, 40))
        out = rhs(field, SchemeConfig(scheme=scheme), FluxSpec(1.0))
        assert abs(out.sum() * field.grid.dx) < 1e-13

    def test_scaling_linearity_for_pure_weno(self):
        rng = np.random.RandomState(21)
        field = make_field(rng.uniform(-1.0, 1.0, 32))
        scaled = CellField(field.grid, 4.0 * field.averages)
        config, flux = SchemeConfig(scheme="wenoz"), FluxSpec(1.0)
        base = rhs(field, config, flux)
        assert np.allclose(rhs(scaled, config, flux), 4.0 * base, rtol=1e-12, atol=1e-13)


class TestSspRk3:
    def test_constant_field_unchanged(self):
        field = make_field(np.full(16, -1.5))
        for scheme in ALL_SCHEMES:
            out = rk3_step(field, 0.01, SchemeConfig(scheme=scheme), FluxSpec(1.0))
            assert np.array_equal(out.averages, field.averages)

    def test_mass_conserved_per_step(self):
        rng = np.random.RandomState(22)
        field = make_field(rng.uniform(0.5, 1.5, 50))
        out = rk3_step(field, 0.004, SchemeConfig(scheme="bvd2"), FluxSpec(1.0))
        assert abs(out.mass() - field.mass()) / abs(field.mass()) < 1e-13

    def test_third_order_in_time(self):
        # compare against a tiny-dt reference at fixed spatial resolution so
        # only the temporal error varies
        grid = Grid1D(32, -1.0, 1.0)
        initial = CellField(grid, sine_cell_averages(grid, freq=np.pi))
        config, flux = SchemeConfig(scheme="wenoz"), FluxSpec(1.0)
        t_end = 0.4

        def run(dt):
            steps = round(t_end / dt)
            field = initial
            for _ in range(steps):
                field = rk3_step(field, dt, config, flux)
            return field.averages

        reference = run(0.4 / 512)
        coarse = np.abs(run(0.4 / 16) - reference).max()
        fine = np.abs(run(0.4 / 32) - reference).max()
        assert np.log2(coarse / fine) > 2.5


class TestAdvect:
    def test_zero_speed_returns_initial_exactly(self):
        rng = np.random.RandomState(23)
        field = make_field(rng.uniform(-1.0, 1.0, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no mean of an empty step record
            result = advect(field, FluxSpec(0.0), TimeConfig(t_end=1.0), SchemeConfig("bvd1"))
        assert result.n_steps == 0
        assert np.array_equal(result.final.averages, field.averages)
        assert result.final.averages is not field.averages
        assert result.t_cells_per_step.size == 0
        assert result.t_cell_fraction == 0.0
        assert result.mass_drift == 0.0
        assert result.clamped_cells == 0

    def test_zero_time_returns_initial_exactly(self):
        field = make_field(np.arange(12.0))
        result = advect(field, FluxSpec(1.0), TimeConfig(t_end=0.0), SchemeConfig())
        assert np.array_equal(result.final.averages, field.averages)

    def test_one_period_square_wave_conserves_mass(self):
        profile = PROFILES["square"]
        grid = Grid1D(200, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        result = advect(
            initial,
            FluxSpec(1.0),
            TimeConfig(t_end=profile.period(1.0)),
            SchemeConfig("bvd4", beta=1.8),
        )
        assert result.mass_drift < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(values=random_fields(), beta=st.sampled_from([1.8, 4.0]))
    def test_mass_drift_on_random_fields(self, values, beta):
        field = make_field(values)
        time = TimeConfig(t_end=5 * 0.2 * field.grid.dx, cfl=0.2)  # five steps at CFL 0.2
        for scheme in ALL_SCHEMES:
            result = advect(field, FluxSpec(1.0), time, SchemeConfig(scheme, beta=beta))
            assert result.n_steps == 5, scheme
            assert result.mass_drift <= 1e-12, scheme

    @pytest.mark.parametrize("scheme", ["bvd1", "bvd2", "bvd3", "bvd4"])
    def test_square_wave_stays_within_bounds(self, scheme):
        profile = PROFILES["square"]
        grid = Grid1D(200, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        result = advect(
            initial,
            FluxSpec(1.0),
            TimeConfig(t_end=profile.period(1.0)),
            SchemeConfig(scheme),
        )
        assert result.final.averages.min() >= initial.averages.min() - 1e-2
        assert result.final.averages.max() <= initial.averages.max() + 1e-2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_dt_aborts_with_diagnostic(self):
        grid = Grid1D(50, -1.0, 1.0)
        initial = project_initial(grid, PROFILES["square"].func)
        with pytest.raises(BlowupError, match="step"):
            advect(
                initial,
                FluxSpec(1.0),
                TimeConfig(t_end=80.0, dt=10.0 * grid.dx),
                SchemeConfig("wenoz"),
            )

    def test_final_step_lands_exactly_on_t_end(self):
        # t_end is not an integer multiple of the CFL step
        grid = Grid1D(40, -1.0, 1.0)
        initial = CellField(grid, sine_cell_averages(grid, freq=np.pi))
        result = advect(
            initial, FluxSpec(1.0), TimeConfig(t_end=0.1037, cfl=0.2), SchemeConfig()
        )
        expected_steps = int(np.ceil(0.1037 / (0.2 * grid.dx)))
        assert result.n_steps == expected_steps

    @pytest.mark.parametrize("excess, steps", [(1e-10, 11), (1e-13, 10)])
    def test_step_count_forgives_only_round_off_past_a_whole_step(self, excess, steps):
        dt = 0.01
        time = TimeConfig(t_end=dt * (10 + excess), dt=dt)
        result = advect(make_field(np.zeros(10)), FluxSpec(1.0), time, SchemeConfig())
        assert result.n_steps == steps

    def test_mass_drift_of_a_zero_mean_field_is_relative_to_its_l1_mass(self):
        profile = PROFILES["sine"]
        grid = Grid1D(50, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        result = advect(initial, FluxSpec(1.0), TimeConfig(t_end=0.05), SchemeConfig("bvd1"))
        assert result.mass_drift <= 1e-12

    def test_thinc_counts_recorded_per_step(self):
        profile = PROFILES["square"]
        grid = Grid1D(100, profile.x_left, profile.x_right)
        initial = project_initial(grid, profile.func)
        result = advect(
            initial, FluxSpec(1.0), TimeConfig(t_end=0.2), SchemeConfig("bvd4")
        )
        assert result.t_cells_per_step.shape == (result.n_steps,)
        assert result.t_cells_per_step.max() > 0
        assert result.t_cell_fraction > 0.0

    def test_fifth_order_l1_convergence_for_pure_weno(self):
        errors = []
        for n in (25, 50, 100, 200):
            grid = Grid1D(n, -1.0, 1.0)
            initial = CellField(grid, sine_cell_averages(grid, freq=np.pi))
            dt = 0.4 * grid.dx ** (5.0 / 3.0)
            result = advect(
                initial, FluxSpec(1.0), TimeConfig(t_end=2.0, dt=dt), SchemeConfig()
            )
            errors.append(l1_error(result.final, initial))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(o >= 4.5 for o in orders)
