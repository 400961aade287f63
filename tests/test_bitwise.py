"""The ghost-cell kernels reproduce the np.roll kernels bit for bit.

Every comparison is against tests/roll_reference.py: selections and stage
right-hand sides byte for byte (so a -0.0 for +0.0 fails), the rest with
np.array_equal. A last-bit change in one RK stage grows to about 1e-10 in
the averages after a period, so tolerances would hide exactly the changes
this file exists to catch: reusing the right face's WENO-Z indicators for
the left face, writing bvd3's x**4 as products, or letting a later bvd1 face
combination win a tie.
"""

import dataclasses

import numpy as np
import pytest

import roll_reference as ref
from bvd1d import bvd, reconstruct, solver
from bvd1d.bvd import CandidateSet
from bvd1d.experiments import FIGURE_SCHEMES, PROFILES
from bvd1d.field import Grid1D, project_initial
from bvd1d.solver import FluxSpec, SchemeConfig, TimeConfig, advect

CONFIG = SchemeConfig(beta=1.8, delta=1e-4)  # the kernels' parameters
SCHEMES = ("wenoz", "bvd1", "bvd2", "bvd3", "bvd4")
SIZES = (5, 6, 7, 64, 200)
NARROW_SIZES = (1, 2, 3, 4)  # grids narrower than the 5-point stencil


def random_fields(n: int, count: int = 12, seed: int = 0) -> list[np.ndarray]:
    """Periodic data over several magnitudes, half of it rounded to integers."""
    rng = np.random.default_rng(seed + n)
    out = []
    for k in range(count):
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        out.append(np.round(values) if k % 2 else values)
    return out


def tie_fields() -> dict[str, np.ndarray]:
    return {
        "zeros": np.zeros(16),
        "constant": np.full(16, 0.3),
        "step": np.repeat([0.0, 1.0], 8),
        "double_step": np.repeat([0.0, 1.0, 0.0, 2.0], 5),
        "smeared_step": np.array([0.0] * 4 + [0.5] + [1.0] * 5),
        "smeared_ramp": np.array([0.0] * 6 + [0.25, 0.5, 0.75] + [1.0] * 6),
        "sawtooth": np.arange(12, dtype=float),
    }


def tie_candidates(n: int = 12) -> CandidateSet:
    """Both candidates equal and admissible everywhere: every face is a tie."""
    values = np.linspace(0.0, 1.0, n)
    return CandidateSet(values, values + 0.5, values, values + 0.5, np.ones(n, dtype=bool))


def random_cases(sizes: tuple[int, ...]) -> list[tuple[str, np.ndarray]]:
    return [(f"random-n{n}-{k}", v) for n in sizes for k, v in enumerate(random_fields(n))]


def all_fields() -> list[tuple[str, np.ndarray]]:
    # The narrow sizes come last, so that every earlier case keeps its test id.
    return random_cases(SIZES) + list(tie_fields().items()) + random_cases(NARROW_SIZES)


def assert_same_bytes(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def as_faces(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell boundary pairs as the reference's per-face (q^L, q^R) at face j."""
    return right, np.roll(left, -1)


def assert_same_selection(new, old) -> None:
    assert_same_bytes(new.omega, old.omega)
    for new_face, old_face in zip(as_faces(new.left, new.right), (old.face_left, old.face_right)):
        assert_same_bytes(new_face, old_face)
    assert new.n_clamped == old.n_clamped


def select(selectors, name: str, candidates: CandidateSet, values: np.ndarray, bvd3_arg):
    """The package's bvd3 takes a SchemeConfig (bvd3_arg), the reference's an s_cutoff."""
    if name == "bvd3":
        return selectors["bvd3"](candidates, values, bvd3_arg)
    return selectors[name](candidates)


@pytest.mark.parametrize("label, values", all_fields())
def test_kernels_match(label, values):
    for new, old in zip(reconstruct.weno_z_field(values), ref.weno_z_field(values)):
        assert np.array_equal(new, old)
    jump = reconstruct.jump_position(values)
    for new, old in zip(reconstruct.thinc_field(jump, CONFIG), ref.thinc_field(values, CONFIG)):
        assert np.array_equal(new, old)
    assert np.array_equal(
        reconstruct.thinc_admissible_field(jump, CONFIG),
        ref.thinc_admissible_field(values, CONFIG.delta),
    )
    new = bvd.build_candidates(values, CONFIG)
    old = ref.build_candidates(values, CONFIG, CONFIG.delta)
    for name in ("weno_left", "weno_right", "thinc_left", "thinc_right", "admissible"):
        assert np.array_equal(getattr(new, name), getattr(old, name))


@pytest.mark.parametrize("label, values", all_fields())
def test_selectors_and_interfaces_match(label, values):
    candidates = ref.build_candidates(values, CONFIG, CONFIG.delta)
    for name in ("bvd1", "bvd2", "bvd3", "bvd4"):
        assert_same_selection(
            select(bvd.SELECTORS, name, candidates, values, CONFIG),
            select(ref.SELECTORS, name, candidates, values, CONFIG.s_cutoff),
        )
    rng = np.random.default_rng(values.size)
    for omega in (np.zeros(values.size), np.ones(values.size), rng.uniform(0.0, 1.0, values.size)):
        for new, old in zip(
            as_faces(*bvd.assemble_interfaces(omega, candidates)),
            ref.assemble_interfaces(omega, candidates),
        ):
            assert np.array_equal(new, old)


def test_tied_face_pairs_keep_the_earliest_combination():
    candidates = tie_candidates()
    values = np.linspace(0.0, 1.0, len(candidates.weno_left))
    for name in ("bvd1", "bvd2", "bvd3", "bvd4"):
        new = select(bvd.SELECTORS, name, candidates, values, CONFIG)
        assert_same_selection(new, select(ref.SELECTORS, name, candidates, values, CONFIG.s_cutoff))
    assert not bvd.bvd1_select(candidates).omega.any()


@pytest.mark.parametrize("n", SIZES)  # not NARROW_SIZES: N = 1 and 2 have no admissible cell
def test_bvd3_cutoff_at_each_cells_indicator(n):
    """Put s_cutoff on a cell's own S and one ulp above it, so that any
    last-bit change of S flips that cell's blend decision."""
    checked = 0
    for values in random_fields(n, count=6, seed=1):
        candidates = ref.build_candidates(values, CONFIG, CONFIG.delta)
        smoothness = ref.bvd3_smoothness(candidates, values)
        for s in smoothness[candidates.admissible & (smoothness > 0.0)]:
            for cutoff in (s, np.nextafter(s, np.inf)):
                assert_same_selection(
                    bvd.bvd3_select(candidates, values, SchemeConfig(s_cutoff=cutoff)),
                    ref.bvd3_select(candidates, values, s_cutoff=cutoff),
                )
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("label, values", all_fields())
def test_stage_rhs_matches(scheme, label, values):
    config = SchemeConfig(scheme)
    flux = FluxSpec()
    dqdt, sel = solver._rhs(values, 0.01, config, flux)
    old = ref._rhs_values(values, 0.01, config, flux)
    assert_same_bytes(dqdt, old[0])
    assert (sel.thinc_cells, sel.n_clamped) == old[1:]


@pytest.mark.parametrize("n_cells, steps", [(200, 50), (2000, 10)])
@pytest.mark.parametrize("figure", sorted(FIGURE_SCHEMES))
def test_advect_matches(monkeypatch, figure, n_cells, steps):
    """advect with the package's RK stages against advect with the reference's."""
    scheme = FIGURE_SCHEMES[figure]
    initial = project_initial(Grid1D(n_cells), PROFILES["complex_waves"].func)
    dt = 0.2 * initial.grid.dx
    time = TimeConfig(t_end=steps * dt, dt=dt)
    new = advect(initial, FluxSpec(), time, scheme)
    monkeypatch.setattr(solver, "_ssp_rk3_values", ref.ssp_rk3_values)
    old = advect(initial, FluxSpec(), time, scheme)
    assert new.n_steps == old.n_steps == steps
    assert np.array_equal(new.final.averages, old.final.averages)
    assert np.array_equal(new.t_cells_per_step, old.t_cells_per_step)
    assert new.clamped_cells == old.clamped_cells


OPERANDS = ("beta_array", "cosh_beta", "tanh_beta", "delta_low", "delta_high", "s_cutoff_array")


def test_scheme_operands_built_once_per_config():
    """SchemeConfig's operands are read-only 0-d float64 arrays, made in __post_init__ and
    held by the config (not rebuilt per read), and dataclasses.replace rebuilds them."""
    config = SchemeConfig("bvd3", beta=2.5, delta=0.01, s_cutoff=5.0)
    expected = (2.5, np.cosh(2.5), np.tanh(2.5), 0.01, 1.0 - 0.01, 5.0)
    for name, value in zip(OPERANDS, expected):
        operand = vars(config)[name]
        assert operand is getattr(config, name)
        assert operand.shape == () and operand.dtype == np.float64, name
        assert not operand.flags.writeable, name
        assert operand.tobytes() == np.float64(value).tobytes(), name
    changed = dataclasses.replace(config, beta=3.0, delta=0.2, s_cutoff=7.0)
    for name, value in zip(OPERANDS, (3.0, np.cosh(3.0), np.tanh(3.0), 0.2, 0.8, 7.0)):
        assert vars(changed)[name].tobytes() == np.float64(value).tobytes(), name
    # integer parameters build the same float64 operands as their float values
    integer = SchemeConfig("bvd3", beta=4, s_cutoff=5)
    real = SchemeConfig("bvd3", beta=4.0, s_cutoff=5.0)
    for name in OPERANDS:
        assert getattr(integer, name).dtype == np.float64, name
        assert getattr(integer, name).tobytes() == getattr(real, name).tobytes(), name


def extreme_fields(n: int, count: int = 6) -> list[np.ndarray]:
    """Magnitudes 1e150 to 1e200, 1e-200 to 1e-150, and both mixed per cell.

    WENO-Z's squared differences overflow to inf or underflow to zero, so its
    weights turn into inf and nan (inf - inf, inf / inf), on both sides of
    the mirrored line's seam.
    """
    rng = np.random.default_rng(1000 + n)
    out = []
    for k in range(count):
        sign = (1.0, -1.0, rng.choice((-1.0, 1.0), n))[k % 3]
        out.append(rng.standard_normal(n) * 10.0 ** (sign * rng.uniform(150.0, 200.0, n)))
    return out


@pytest.mark.parametrize("n", [5, 64, 2000])
def test_kernels_match_at_extreme_magnitudes(n):
    non_finite = 0
    with np.errstate(all="ignore"):
        for values in extreme_fields(n):
            jump = reconstruct.jump_position(values)
            pairs = [
                *zip(reconstruct.weno_z_field(values), ref.weno_z_field(values)),
                *zip(reconstruct.thinc_field(jump, CONFIG), ref.thinc_field(values, CONFIG)),
                (
                    reconstruct.thinc_admissible_field(jump, CONFIG),
                    ref.thinc_admissible_field(values, CONFIG.delta),
                ),
            ]
            for new, old in pairs:
                assert np.array_equal(new, old, equal_nan=True)
            non_finite += np.count_nonzero(~np.isfinite(ref.weno_z_field(values)[0]))
    assert non_finite > 0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [5, 64, 2000])
def test_stage_rhs_matches_at_extreme_magnitudes(scheme, n):
    config = SchemeConfig(scheme)
    with np.errstate(all="ignore"):
        for values in extreme_fields(n):
            dqdt, sel = solver._rhs(values, 0.01, config, FluxSpec())
            old = ref._rhs_values(values, 0.01, config, FluxSpec())
            assert np.array_equal(dqdt, old[0], equal_nan=True)
            assert (sel.thinc_cells, sel.n_clamped) == old[1:]


def non_finite_fields(n: int, count: int = 8) -> list[np.ndarray]:
    """Random data with about one cell in ten set to +-inf, NaN or +-1e308."""
    rng = np.random.default_rng(2000 + n)
    out = []
    for _ in range(count):
        values = rng.standard_normal(n)
        seeded = rng.uniform(size=n) < 0.1
        seeded[rng.integers(n)] = True
        values[seeded] = rng.choice([np.inf, -np.inf, np.nan, 1e308, -1e308], seeded.sum())
        out.append(values)
    return out


@pytest.mark.parametrize("s_cutoff", [1e6, np.inf])
@pytest.mark.parametrize("n", [5, 64, 2000])
def test_bvd3_needs_no_mask_off_finite_data(n, s_cutoff):
    """bvd3 reads no admissibility mask; the reference gates its blend by one.

    An inadmissible cell's THINC pair is its WENO pair, so its weight is 0
    where those faces are finite, and its indicator S is NaN, which never
    passes the cutoff, where they are not.
    """
    non_finite = 0
    with np.errstate(all="ignore"):
        for values in non_finite_fields(n):
            candidates = bvd.build_candidates(values, CONFIG)
            new = bvd.bvd3_select(candidates, values, SchemeConfig(s_cutoff=s_cutoff))
            old = ref.bvd3_select(candidates, values, s_cutoff=s_cutoff)
            new_arrays = (new.omega, *as_faces(new.left, new.right))
            for a, b in zip(new_arrays, (old.omega, old.face_left, old.face_right)):
                assert np.array_equal(a, b, equal_nan=True)
            assert new.n_clamped == old.n_clamped
            inadmissible = ~candidates.admissible
            assert np.all(new.omega[inadmissible] == 0.0)
            faces = np.isfinite(candidates.weno_left) & np.isfinite(candidates.weno_right)
            non_finite += np.count_nonzero(inadmissible & ~faces)
    assert non_finite > 0
