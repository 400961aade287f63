"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion alongside the measured numbers.
"""

import numpy as np
import pytest

from bvd1d.bvd import build_candidates, bvd1_select, bvd2_select, bvd3_select
from bvd1d.experiments import PROFILES, l1_error
from bvd1d.field import Grid1D, project_initial
from bvd1d.solver import FluxSpec, SchemeConfig, TimeConfig, advect

from oracles import (
    brute_force_bvd1_tags,
    brute_force_bvd2_tags,
    implied_jump_center,
    integrate_sigmoid_average,
    random_admissible_triplet,
    scan_bvd3_omegas,
)

N_CELLS = 200
CFL = 0.2


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def runs(complex_wave_runs):
    """One complex-wave benchmark per scheme configuration (N=200, 1 period)."""
    return complex_wave_runs


def gaussian_region_l1(result) -> float:
    """L1 error restricted to the smooth Gaussian feature and its margins."""
    grid = result.final.grid
    mask = (grid.cell_centers >= -0.9) & (grid.cell_centers <= -0.5)
    diff = np.abs(result.final.averages - result.exact.averages)
    return float(diff[mask].sum() * grid.dx)


def test_criterion_1_wenoz_smearing(runs):
    result = runs["wenoz"]
    widths = result.transition_widths
    ok = all(6 <= w <= 10 for w in widths) and result.wall_time < 5.0
    report(
        1,
        ok,
        f"wenoz square-pulse widths {widths} expected within 8 +/- 2 cells, "
        f"runtime {result.wall_time:.2f}s < 5s",
    )


def test_criterion_2_bvd_sharpness(runs):
    wenoz_width = max(runs["wenoz"].transition_widths)
    details = []
    ok = True
    for name in ("bvd1", "bvd2", "bvd4"):
        widths = runs[name].transition_widths
        in_band = all(2 <= w <= 6 for w in widths)
        sharper = max(widths) < wenoz_width
        ok = ok and in_band and sharper
        details.append(f"{name}={widths}")
    report(
        2,
        ok,
        f"{', '.join(details)} each within 4 +/- 2 cells and < wenoz ({wenoz_width})",
    )


def test_criterion_3_beta_4_sharpening(runs):
    sharp = runs["bvd4-beta4"].transition_widths
    base = runs["bvd4"].transition_widths
    ok = all(1 <= w <= 3 for w in sharp) and max(sharp) <= max(base)
    report(
        3,
        ok,
        f"bvd4 beta=4.0 widths {sharp} expected within 2 +/- 1 cells "
        f"and <= beta=1.8 widths {base}",
    )


def test_criterion_4_bvd2_smooth_region_fidelity(runs):
    reference = gaussian_region_l1(runs["wenoz"])
    candidate = gaussian_region_l1(runs["bvd2"])
    ratio = abs(candidate - reference) / reference
    report(
        4,
        ratio <= 0.20,
        f"bvd2 Gaussian-region L1 {candidate:.4e} vs wenoz {reference:.4e} "
        f"(relative difference {ratio:.1%} <= 20%)",
    )


def test_criterion_5_bvd3_behavior(runs):
    widths = runs["bvd3"].transition_widths
    pollution = gaussian_region_l1(runs["bvd3"]) / gaussian_region_l1(runs["wenoz"])
    report(
        5,
        all(w <= 6 for w in widths),
        f"bvd3 widths {widths} <= 6 cells "
        f"(smooth-region L1 ratio vs wenoz: {pollution:.2f}, recorded only)",
    )


def test_criterion_6_weno_convergence_order():
    errors = {}
    for n in (100, 200):
        grid = Grid1D(n, -1.0, 1.0)
        initial = project_initial(grid, PROFILES["sine"].func)
        dt = CFL * grid.dx ** (5.0 / 3.0)
        result = advect(
            initial, FluxSpec(1.0), TimeConfig(t_end=2.0, dt=dt), SchemeConfig("wenoz")
        )
        errors[n] = l1_error(result.final, initial)
    order = np.log2(errors[100] / errors[200])
    report(
        6,
        order >= 4.5,
        f"wenoz sine L1 order {order:.2f} >= 4.5 between N=100 and N=200 "
        f"(L1: {errors[100]:.3e} -> {errors[200]:.3e})",
    )


def test_criterion_7_conservation(runs):
    drifts = {name: result.mass_drift for name, result in runs.items()}
    worst = max(drifts.values())
    report(
        7,
        worst <= 1e-11,
        f"relative mass drift <= 1e-11 for every benchmark run (worst {worst:.2e})",
    )


def test_criterion_8_selector_oracle_equivalence():
    rng = np.random.RandomState(2024)
    config = SchemeConfig(beta=1.8, delta=1e-4)
    mismatches = 0
    worst_omega_gap = 0.0
    for _ in range(200):
        values = rng.uniform(-1.0, 1.0, 8)
        cs = build_candidates(values, config)
        got1 = ["T" if w == 1.0 else "W" for w in bvd1_select(cs).omega]
        got2 = ["T" if w == 1.0 else "W" for w in bvd2_select(cs).omega]
        if got1 != brute_force_bvd1_tags(cs) or got2 != brute_force_bvd2_tags(cs):
            mismatches += 1
        gap = np.abs(bvd3_select(cs, values, config).omega - scan_bvd3_omegas(cs, values)).max()
        worst_omega_gap = max(worst_omega_gap, float(gap))
    report(
        8,
        mismatches == 0 and worst_omega_gap <= 1e-3,
        f"bvd1/bvd2 match exhaustive enumeration on 200 random 8-cell fields "
        f"({mismatches} mismatches); bvd3 weight within 1e-3 of scan argmin "
        f"(worst gap {worst_omega_gap:.1e})",
    )


def test_criterion_9_thinc_cell_average_consistency():
    rng = np.random.RandomState(99)
    worst = 0.0
    for _ in range(1000):
        qm, qc, qp = random_admissible_triplet(rng)
        for beta in (1.8, 4.0):
            center = implied_jump_center(qm, qc, qp, beta, eps=1e-20)
            mean = integrate_sigmoid_average(qm, qc, qp, beta, center)
            worst = max(worst, abs(mean - qc))
    report(
        9,
        worst <= 1e-10,
        f"integrating the sigmoid with the implied jump center recovers the "
        f"cell average on 1000 random admissible triplets, beta in {{1.8, 4.0}} "
        f"(worst error {worst:.2e})",
    )


def test_criterion_10_fallback_identity():
    profile = PROFILES["complex_waves"]
    grid = Grid1D(N_CELLS, profile.x_left, profile.x_right)
    initial = project_initial(grid, profile.func)
    time = TimeConfig(t_end=profile.period(1.0), cfl=CFL)
    flux = FluxSpec(1.0)
    reference = advect(initial, flux, time, SchemeConfig("wenoz")).final.averages

    never_admissible = float(np.nextafter(0.5, 0.0))
    mismatched = []
    for scheme in ("bvd1", "bvd2", "bvd3", "bvd4"):
        config = SchemeConfig(scheme, delta=never_admissible)
        final = advect(initial, flux, time, config).final.averages
        if not np.array_equal(final, reference):
            mismatched.append(scheme)
    report(
        10,
        not mismatched,
        "with delta just below 0.5 every hybrid run reproduces the wenoz run "
        + ("bitwise" if not mismatched else f"EXCEPT {mismatched}"),
    )
