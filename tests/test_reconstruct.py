import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roll_reference as ref
from bvd1d import reconstruct
from bvd1d.field import Grid1D
from bvd1d.reconstruct import (
    THINC_EPS, WENO_Z_WORKSPACES, jump_position, thinc_admissible_field, thinc_field,
    weno_z_field,
)
from bvd1d.solver import SchemeConfig, select

from oracles import (
    implied_jump_center,
    integrate_sigmoid_average,
    random_admissible_triplet,
    sigmoid_profile,
    sine_cell_averages,
    solve_jump_center,
)


def weno_z_cell(window):
    """WENO-Z (left, right) faces of cell 2 of the periodic 5-cell window."""
    left, right = weno_z_field(np.array(window, dtype=float))
    return left[2], right[2]


def thinc_cell(qm, qc, qp, params):
    """THINC (left, right) faces of cell 1 of the periodic window (qm, qc, qp)."""
    left, right = thinc_field(jump_position(np.array([qm, qc, qp], dtype=float)), params)
    return left[1], right[1]


def admissible_cell(qm, qc, qp, delta):
    """Admissibility of cell 1 of the periodic window (qm, qc, qp)."""
    window = jump_position(np.array([qm, qc, qp], dtype=float))
    return thinc_admissible_field(window, SchemeConfig(delta=delta))[1]


class TestWenoZ:
    @pytest.mark.parametrize("c", [0.0, 1.0, -3.7, 1e6])
    def test_constant_reproduction(self, c):
        left, right = weno_z_cell([c] * 5)
        assert left == pytest.approx(c, rel=1e-14, abs=0.0)
        assert right == pytest.approx(c, rel=1e-14, abs=0.0)

    def test_linear_data_gives_linear_interface_values(self):
        # every candidate polynomial reproduces linear data exactly
        left, right = weno_z_cell([0.0, 1.0, 2.0, 3.0, 4.0])
        assert left == pytest.approx(1.5, abs=1e-12)
        assert right == pytest.approx(2.5, abs=1e-12)

    def test_symmetric_quartic_reproduces_interpolant(self):
        # cell averages of x^4 on unit cells centered at -2..2; the unique
        # degree-4 interpolant is x^4 itself, so both faces take (1/2)^4.
        # Symmetry makes the outer smoothness indicators equal, which turns
        # the nonlinear weights into the linear ones.
        averages = [18.0125, 1.5125, 0.0125, 1.5125, 18.0125]
        left, right = weno_z_cell(averages)
        assert left == pytest.approx(0.0625, abs=1e-10)
        assert right == pytest.approx(0.0625, abs=1e-10)

    def test_fifth_order_on_smooth_stencil(self):
        # interface-value error for sin cell averages drops ~2^5 per halving
        x0 = 0.3
        errors = []
        for dx in (0.1, 0.05, 0.025):
            centers = x0 + dx * np.arange(-2, 3)
            averages = (np.cos(centers - 0.5 * dx) - np.cos(centers + 0.5 * dx)) / dx
            left, right = weno_z_cell(averages)
            errors.append(abs(right - np.sin(x0 + 0.5 * dx)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 32.0 * 0.8 <= coarse / fine <= 32.0 * 1.2

    def test_fifth_order_over_field(self):
        errors = []
        for n in (20, 40, 80, 160):
            grid = Grid1D(n, 0.0, 1.0)
            averages = sine_cell_averages(grid)
            _, right = weno_z_field(averages)
            exact = np.sin(2.0 * np.pi * (grid.x_left + np.arange(1, n + 1) * grid.dx))
            errors.append(np.abs(right - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 32.0 * 0.8 <= coarse / fine <= 32.0 * 1.2

    def test_field_matches_scalar_op(self):
        rng = np.random.RandomState(1)
        values = rng.uniform(-1.0, 1.0, 12)
        left, right = weno_z_field(values)
        for i in range(12):
            window = values[(np.arange(i - 2, i + 3)) % 12]
            assert weno_z_cell(window) == (left[i], right[i])


def same_bytes(pair, expected):
    return all(a.tobytes() == b.tobytes() for a, b in zip(pair, expected))


class TestWenoZWorkspace:
    """weno_z_field writes into a workspace cached per grid size and thread."""

    # More sizes than the cache holds: N = 1-9, narrower and wider than the stencil, and 200.
    SIZES = (*range(1, 10), 200)

    def test_results_are_new_arrays(self):
        rng = np.random.default_rng(7)
        first_values, second_values = rng.standard_normal((2, 40))
        first = weno_z_field(first_values)
        kept = [face.copy() for face in first]
        second = weno_z_field(second_values)
        assert same_bytes(first, kept)
        assert not same_bytes(first, second)
        workspace = reconstruct._workspace(40, threading.get_ident())
        for face in (*first, *second):
            assert not any(np.shares_memory(face, part) for part in workspace)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes_are_converted_first(self, dtype):
        # the workspace's line is float64: solver.select converts before the take into it
        values = (np.random.default_rng(9).standard_normal(12) * 100.0).astype(dtype)
        sel = select(values, SchemeConfig("wenoz"))
        faces = sel.left, sel.right
        assert all(face.dtype == np.float64 for face in faces)
        assert same_bytes(faces, weno_z_field(values.astype(np.float64)))

    @pytest.mark.parametrize("shape", [(3, 4), (12, 1)])
    def test_values_of_two_dimensions_raise(self, shape):
        # the take gathers along one axis: a 2-D array cannot be read as its flattened cells
        with pytest.raises(ValueError):
            weno_z_field(np.zeros(shape))

    def test_threads_never_share_a_workspace(self):
        # More threads than cores, at a size where numpy releases the GIL inside each
        # ufunc loop and with a short switch interval, so the threads interleave.
        n, calls, threads = 4000, 50, 4
        fields = np.random.default_rng(8).standard_normal((threads, n))
        expected = [weno_z_field(values) for values in fields]
        mismatches, done = [0] * threads, [0] * threads
        start = threading.Barrier(threads)

        def run(k):
            start.wait()
            for _ in range(calls):
                mismatches[k] += not same_bytes(weno_z_field(fields[k]), expected[k])
                done[k] += 1

        workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert done == [calls] * threads
        assert mismatches == [0] * threads

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(SIZES), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    def test_every_size_matches_the_roll_reference(self, sizes, seed):
        # Every size runs between the two passes over `sizes`, so each size of the
        # second pass finds its workspace evicted and builds it again.
        assert len(self.SIZES) > WENO_Z_WORKSPACES
        rng = np.random.default_rng(seed)
        for n in (*sizes, *self.SIZES, *sizes):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            assert same_bytes(weno_z_field(values), ref.weno_z_field(values))
        assert reconstruct._workspace.cache_info().currsize <= WENO_Z_WORKSPACES


class TestThinc:
    def test_frozen_values_beta_1_8(self):
        # expected values from root-finding the jump center and evaluating
        # the sigmoid at the faces (independent of the closed-form algebra)
        left, right = thinc_cell(0.0, 0.5, 1.0, SchemeConfig(beta=1.8))
        assert left == pytest.approx(0.141851064900488, abs=1e-12)
        assert right == pytest.approx(0.858148935099512, abs=1e-12)

    def test_frozen_values_beta_4_0(self):
        left, right = thinc_cell(0.0, 0.5, 1.0, SchemeConfig(beta=4.0))
        assert left == pytest.approx(0.017986209962092, abs=1e-12)
        assert right == pytest.approx(0.982013790037908, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.8, 4.0, 8.0])
    def test_centered_jump_is_symmetric(self, beta):
        left, right = thinc_cell(0.0, 0.5, 1.0, SchemeConfig(beta=beta))
        assert abs(left + right - 1.0) < 1e-12

    def test_mirrored_triplet_swaps_faces(self):
        params = SchemeConfig(beta=1.8)
        rising_left, rising_right = thinc_cell(0.0, 0.5, 1.0, params)
        falling_left, falling_right = thinc_cell(1.0, 0.5, 0.0, params)
        assert falling_left == pytest.approx(rising_right, abs=1e-14)
        assert falling_right == pytest.approx(rising_left, abs=1e-14)

    def test_larger_beta_sharpens_faces(self):
        gentle_left, gentle_right = thinc_cell(0.0, 0.5, 1.0, SchemeConfig(beta=1.8))
        steep_left, steep_right = thinc_cell(0.0, 0.5, 1.0, SchemeConfig(beta=4.0))
        assert steep_right > gentle_right
        assert steep_left < gentle_left

    def test_equal_neighbors_degenerate_to_their_value(self):
        left, right = thinc_cell(2.0, 7.0, 2.0, SchemeConfig(beta=1.8))
        assert left == pytest.approx(2.0)
        assert right == pytest.approx(2.0)

    def test_extreme_inputs_stay_finite(self):
        params = SchemeConfig(beta=1.8)
        for triplet in [(0.0, 1.0, 1e-30), (0.0, -1.0, 1e-300), (1e9, -1e9, 1e9)]:
            left, right = thinc_cell(*triplet, params)
            assert np.isfinite(left) and np.isfinite(right)

    def test_saturated_faces_stay_finite_where_the_sum_rounds_to_zero(self):
        # At beta >= 15, 1 + a*tanh(beta) rounds to exactly 0 on saturated
        # cells; the denom > 0 guard restores `scaled` there.
        values = np.array([0.0, 1e-9, 1.0, 1.0, 0.0] * 4)
        left, right = thinc_field(jump_position(values), SchemeConfig(beta=20.0))
        assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))

    def test_admissible_faces_bounded_by_neighbors(self):
        rng = np.random.RandomState(2)
        params = SchemeConfig(beta=1.8)
        for _ in range(200):
            qm, qc, qp = random_admissible_triplet(rng)
            assert admissible_cell(qm, qc, qp, delta=1e-4)
            left, right = thinc_cell(qm, qc, qp, params)
            lo, hi = min(qm, qp), max(qm, qp)
            assert lo < left < hi
            assert lo < right < hi

    @pytest.mark.parametrize("beta", [1.8, 4.0])
    def test_faces_match_root_found_jump_center(self, beta):
        rng = np.random.RandomState(3)
        params = SchemeConfig(beta=beta)
        for _ in range(100):
            qm, qc, qp = random_admissible_triplet(rng)
            center = solve_jump_center(qm, qc, qp, beta)
            qmin, qjump = min(qm, qp), abs(qp - qm)
            theta = 1.0 if qp > qm else -1.0
            expected_left = sigmoid_profile(0.0, center, qmin, qjump, theta, beta)
            expected_right = sigmoid_profile(1.0, center, qmin, qjump, theta, beta)
            left, right = thinc_cell(qm, qc, qp, params)
            assert left == pytest.approx(expected_left, abs=1e-10)
            assert right == pytest.approx(expected_right, abs=1e-10)

    def test_cell_average_consistency(self):
        # integrating the reconstruction with the implied jump center
        # recovers the cell average
        rng = np.random.RandomState(4)
        params = SchemeConfig(beta=1.8)
        for _ in range(50):
            qm, qc, qp = random_admissible_triplet(rng)
            center = implied_jump_center(qm, qc, qp, params.beta, THINC_EPS)
            mean = integrate_sigmoid_average(qm, qc, qp, params.beta, center)
            assert mean == pytest.approx(qc, abs=1e-10)

    def test_field_matches_scalar_op(self):
        rng = np.random.RandomState(5)
        values = rng.uniform(-1.0, 1.0, 9)
        params = SchemeConfig(beta=1.8)
        left, right = thinc_field(jump_position(values), params)
        for i in range(9):
            cell = thinc_cell(values[i - 1], values[i], values[(i + 1) % 9], params)
            assert cell == (left[i], right[i])


class TestAdmissibility:
    def test_centered_monotone_triplet_admissible(self):
        assert admissible_cell(0.0, 0.5, 1.0, delta=1e-4)

    def test_extremum_rejected(self):
        assert not admissible_cell(0.0, 1.0, 0.5, delta=1e-4)

    def test_near_edge_position_rejected(self):
        # normalized cell position ~1e-6 falls below delta
        assert not admissible_cell(0.0, 1e-6, 1.0, delta=1e-4)

    def test_flat_neighbors_rejected(self):
        assert not admissible_cell(1.0, 1.0, 1.0, delta=1e-4)

    def test_cell_equal_to_one_neighbour_never_admissible(self):
        # Cell 1 sits at C = (0 + 1e-20) / (1e-17 + 1e-20), about 9.99e-4, inside
        # (delta, 1 - delta) however small the other spread; it equals its left
        # neighbour, so the data are not strictly monotone there.
        values = np.array([0.0, 0.0, 1e-17, 1.0, 2.0])
        jump = jump_position(values)
        assert 1e-4 < jump[-1][1] < 1.0 - 1e-4
        assert not thinc_admissible_field(jump, SchemeConfig(delta=1e-4))[1]

    def test_field_mask_matches_scalar(self):
        rng = np.random.RandomState(6)
        values = rng.uniform(-1.0, 1.0, 11)
        mask = thinc_admissible_field(jump_position(values), SchemeConfig(delta=1e-4))
        for i in range(11):
            expected = admissible_cell(
                values[i - 1], values[i], values[(i + 1) % 11], delta=1e-4
            )
            assert mask[i] == expected
