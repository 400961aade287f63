import numpy as np
import pytest

from bvd1d.bvd import (
    BVD3_EPS,
    CandidateSet,
    SELECTORS,
    assemble_interfaces,
    build_candidates,
    bvd1_select,
    bvd2_select,
    bvd3_select,
    bvd4_select,
)
from bvd1d.reconstruct import weno_z_field
from bvd1d.solver import SchemeConfig

from oracles import brute_force_bvd1_tags, brute_force_bvd2_tags, scan_bvd3_omegas

CONFIG = SchemeConfig(beta=1.8, delta=1e-4)  # the kernels' parameters


def tags_of(selection) -> list[str]:
    return ["T" if w == 1.0 else "W" for w in selection.omega]


def sawtooth(n: int) -> np.ndarray:
    """Periodic linear ramp; smooth away from the single wrap crest."""
    return np.arange(n, dtype=float)


def smeared_step(lead: int = 4, trail: int = 5) -> np.ndarray:
    return np.array([0.0] * lead + [0.5] + [1.0] * trail)


def uniform_candidates(n: int, value: float = 1.0) -> CandidateSet:
    """Synthetic candidates where both reconstructions agree everywhere."""
    arr = np.full(n, value)
    return CandidateSet(
        weno_left=arr.copy(),
        weno_right=arr.copy(),
        thinc_left=arr.copy(),
        thinc_right=arr.copy(),
        admissible=np.ones(n, dtype=bool),
    )


class TestBuildCandidates:
    def test_inadmissible_cells_carry_weno_pair(self):
        values = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.2, 0.8, 0.3])
        cs = build_candidates(values, CONFIG)
        wl, wr = weno_z_field(values)
        for i in np.where(~cs.admissible)[0]:
            assert cs.thinc_left[i] == wl[i]
            assert cs.thinc_right[i] == wr[i]

    def test_all_values_finite_on_rough_data(self):
        rng = np.random.RandomState(7)
        values = rng.uniform(-10.0, 10.0, 64)
        values[::7] = 0.0
        cs = build_candidates(values, CONFIG)
        for arr in (cs.weno_left, cs.weno_right, cs.thinc_left, cs.thinc_right):
            assert np.all(np.isfinite(arr))


class TestOracleEquivalence:
    def test_bvd1_matches_brute_force(self):
        rng = np.random.RandomState(8)
        for _ in range(50):
            values = rng.uniform(-1.0, 1.0, 8)
            cs = build_candidates(values, CONFIG)
            assert tags_of(bvd1_select(cs)) == brute_force_bvd1_tags(cs)

    def test_bvd2_matches_brute_force(self):
        rng = np.random.RandomState(9)
        for _ in range(50):
            values = rng.uniform(-1.0, 1.0, 8)
            cs = build_candidates(values, CONFIG)
            assert tags_of(bvd2_select(cs)) == brute_force_bvd2_tags(cs)

    def test_bvd3_matches_scan(self):
        rng = np.random.RandomState(10)
        for _ in range(20):
            values = rng.uniform(-1.0, 1.0, 8)
            cs = build_candidates(values, CONFIG)
            sel = bvd3_select(cs, values, CONFIG)
            expected = scan_bvd3_omegas(cs, values)
            assert np.all(np.abs(sel.omega - expected) <= 1e-3)


class TestBvd1:
    def test_linear_data_keeps_weno_and_exact_interfaces(self):
        n = 16
        values = sawtooth(n)
        cs = build_candidates(values, CONFIG)
        sel = bvd1_select(cs)
        interior_cells = range(3, n - 3)
        for i in interior_cells:
            assert sel.omega[i] == 0.0
        for j in range(3, n - 4):  # faces untouched by the wrap crest
            assert sel.face_left[j] == pytest.approx(values[j] + 0.5, abs=1e-12)
            assert sel.face_right[j] == pytest.approx(values[j] + 0.5, abs=1e-12)

    def test_step_straddle_cell_takes_thinc(self):
        cs = build_candidates(smeared_step(), CONFIG)
        assert tags_of(bvd1_select(cs)) == ["W"] * 4 + ["T"] + ["W"] * 5

    def test_exact_ties_keep_weno(self):
        sel = bvd1_select(uniform_candidates(6))
        assert tags_of(sel) == ["W"] * 6


class TestBvd2:
    def test_constant_field_all_weno_with_zero_face_jumps(self):
        cs = build_candidates(np.full(12, 3.25), CONFIG)
        sel = bvd2_select(cs)
        assert tags_of(sel) == ["W"] * 12
        assert np.all(sel.face_left == sel.face_right)

    def test_step_straddle_cell_takes_thinc(self):
        cs = build_candidates(smeared_step(), CONFIG)
        assert tags_of(bvd2_select(cs)) == ["W"] * 4 + ["T"] + ["W"] * 5

    def test_smooth_sine_rarely_selects_thinc(self):
        x = (np.arange(200) + 0.5) / 200.0
        cs = build_candidates(np.sin(2.0 * np.pi * x), CONFIG)
        sel = bvd2_select(cs)
        assert sel.thinc_cells / 200.0 < 0.05

    def test_exact_ties_keep_weno(self):
        sel = bvd2_select(uniform_candidates(6))
        assert tags_of(sel) == ["W"] * 6


class TestBvd3:
    def test_linear_data_is_pure_weno(self):
        values = sawtooth(16)
        cs = build_candidates(values, CONFIG)
        sel = bvd3_select(cs, values, CONFIG)
        assert np.all(sel.omega[3:13] == 0.0)

    def test_identical_candidates_blend_to_weno(self):
        # e_left = e_right = 0 triggers the degenerate-denominator guard
        values = np.array([0.0, 0.0, 0.3, 1.0, 1.0, 0.9, 0.4, 0.1])
        cs = build_candidates(values, CONFIG)
        cs.thinc_left[:] = cs.weno_left
        cs.thinc_right[:] = cs.weno_right
        sel = bvd3_select(cs, values, CONFIG)
        assert np.all(sel.omega == 0.0)
        assert np.array_equal(sel.face_left, weno_z_field(values)[1])

    def test_step_cell_weight_matches_scan_minimum(self):
        values = smeared_step()
        cs = build_candidates(values, CONFIG)
        sel = bvd3_select(cs, values, CONFIG)
        expected = scan_bvd3_omegas(cs, values)
        assert sel.omega[4] > 0.0
        assert abs(sel.omega[4] - expected[4]) <= 1e-3

    def test_clamping_is_counted(self):
        n = 6
        cs = uniform_candidates(n, value=0.0)
        # one cell whose unclamped optimum (d*e)/(e^2) = 10 exceeds 1
        cs.weno_left[3] = 0.0
        cs.weno_right[3] = 0.0
        cs.thinc_left[3] = 1.0
        cs.thinc_right[3] = 1.0
        averages = np.array([0.0, 0.0, 10.0, 5.0, -10.0, 0.0])
        cs.weno_right[2] = 10.0
        cs.weno_left[4] = 10.0
        sel = bvd3_select(cs, averages, CONFIG)
        assert sel.omega[3] == 1.0
        assert sel.n_clamped == 1

    def test_smooth_gate_forces_weno(self):
        values = smeared_step()
        cs = build_candidates(values, CONFIG)
        sel = bvd3_select(cs, values, SchemeConfig(s_cutoff=1e-12))
        # with an absurdly low cutoff every cell counts as smooth
        assert np.all(sel.omega == 0.0)

    def test_infinite_cutoff_blends_every_admissible_cell(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            values = rng.uniform(-1.0, 1.0, 8)
            cs = build_candidates(values, CONFIG)
            sel = bvd3_select(cs, values, SchemeConfig(s_cutoff=np.inf))
            expected = scan_bvd3_omegas(cs, values, s_cutoff=np.inf)
            assert np.all(np.abs(sel.omega - expected) <= 1e-3)

    def test_denominator_equal_to_the_guard_still_blends(self):
        # Cell 0's squared THINC-WENO gaps sum to exactly BVD3_EPS, so only a
        # strict `denom < BVD3_EPS` keeps its weight d_left * e_left / denom.
        n = 4
        cs = uniform_candidates(n, value=0.0)
        cs.admissible[1:] = False
        cs.weno_right[n - 1] = cs.thinc_right[n - 1] = 1e-9
        cs.thinc_left[0] = 9.999999999999999e-09
        cs.thinc_right[0] = 1.3599299649824915e-16
        assert cs.thinc_left[0] ** 2 + cs.thinc_right[0] ** 2 == BVD3_EPS
        sel = bvd3_select(cs, np.zeros(n), SchemeConfig(s_cutoff=np.inf))
        assert sel.omega[0] == pytest.approx(0.1, rel=1e-15)
        assert np.all(sel.omega[1:] == 0.0)


class TestBvd4:
    def test_constant_field_all_weno(self):
        cs = build_candidates(np.zeros(10), CONFIG)
        assert tags_of(bvd4_select(cs)) == ["W"] * 10

    def test_step_straddle_cell_takes_thinc(self):
        cs = build_candidates(smeared_step(), CONFIG)
        assert tags_of(bvd4_select(cs)) == ["W"] * 4 + ["T"] + ["W"] * 5

    def test_exact_ties_keep_weno(self):
        sel = bvd4_select(uniform_candidates(6))
        assert tags_of(sel) == ["W"] * 6


class TestSharedProperties:
    @pytest.mark.parametrize("name", ["bvd1", "bvd2", "bvd4"])
    def test_affine_equivariance_of_tags(self, name):
        rng = np.random.RandomState(11)
        for _ in range(50):
            values = rng.uniform(-1.0, 1.0, 12)
            shifted = 2.5 * values - 1.3
            cs_a = build_candidates(values, CONFIG)
            cs_b = build_candidates(shifted, CONFIG)
            if not np.array_equal(cs_a.admissible, cs_b.admissible):
                continue  # borderline admissibility flipped by the eps guard
            sel_a = SELECTORS[name](cs_a)
            sel_b = SELECTORS[name](cs_b)
            assert np.array_equal(sel_a.omega, sel_b.omega)

    @pytest.mark.parametrize("name", ["bvd1", "bvd2", "bvd3", "bvd4"])
    def test_all_inadmissible_reduces_to_weno_bitwise(self, name):
        values = np.array([1.0, -1.0] * 8)  # alternating data: extrema everywhere
        cs = build_candidates(values, CONFIG)
        assert not cs.admissible.any()
        if name == "bvd3":
            sel = bvd3_select(cs, values, CONFIG)
        else:
            sel = SELECTORS[name](cs)
        wl, wr = weno_z_field(values)
        assert np.array_equal(sel.face_left, wr)
        assert np.array_equal(sel.face_right, np.roll(wl, -1))

    @pytest.mark.parametrize("name", ["bvd1", "bvd2", "bvd3", "bvd4"])
    def test_selection_is_deterministic(self, name):
        rng = np.random.RandomState(12)
        values = rng.uniform(-1.0, 1.0, 24)
        cs = build_candidates(values, CONFIG)
        if name == "bvd3":
            first, second = bvd3_select(cs, values, CONFIG), bvd3_select(cs, values, CONFIG)
        else:
            first, second = SELECTORS[name](cs), SELECTORS[name](cs)
        assert np.array_equal(first.omega, second.omega)
        assert np.array_equal(first.face_left, second.face_left)
        assert np.array_equal(first.face_right, second.face_right)

    @pytest.mark.parametrize("name", ["bvd1", "bvd2", "bvd3", "bvd4"])
    def test_omega_stays_in_unit_interval(self, name):
        rng = np.random.RandomState(13)
        for _ in range(20):
            values = rng.uniform(-1.0, 1.0, 16)
            cs = build_candidates(values, CONFIG)
            sel = bvd3_select(cs, values, CONFIG) if name == "bvd3" else SELECTORS[name](cs)
            assert np.all((sel.omega >= 0.0) & (sel.omega <= 1.0))


class TestAssembleInterfaces:
    def test_single_thinc_cell_changes_only_its_two_faces(self):
        rng = np.random.RandomState(14)
        values = rng.uniform(-1.0, 1.0, 10)
        cs = build_candidates(values, CONFIG)
        all_weno_left, all_weno_right = assemble_interfaces(np.zeros(10), cs)
        omega = np.zeros(10)
        omega[4] = 1.0
        one_left, one_right = assemble_interfaces(omega, cs)
        # face 4 carries cell 4's right value; face 3 carries its left value
        changed_left = np.nonzero(one_left != all_weno_left)[0]
        changed_right = np.nonzero(one_right != all_weno_right)[0]
        assert set(changed_left) <= {4}
        assert set(changed_right) <= {3}

    def test_full_blend_equals_discrete_thinc_pick(self):
        rng = np.random.RandomState(15)
        values = rng.uniform(-1.0, 1.0, 10)
        cs = build_candidates(values, CONFIG)
        blended = assemble_interfaces(np.ones(10), cs)
        assert np.array_equal(blended[0], cs.thinc_right)
        assert np.array_equal(blended[1], np.roll(cs.thinc_left, -1))

    def test_blend_endpoint_matches_bvd4_tagged_cell(self):
        values = smeared_step()
        cs = build_candidates(values, CONFIG)
        discrete = bvd4_select(cs)
        blended = assemble_interfaces(discrete.omega, cs)
        assert np.array_equal(blended[0], discrete.face_left)
        assert np.array_equal(blended[1], discrete.face_right)
