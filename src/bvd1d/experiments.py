"""Benchmark profiles and runs, error metrics, and the CSV and gnuplot output."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from .field import CellField, Grid1D, project_initial
from .solver import FluxSpec, RunResult, SchemeConfig, TimeConfig, advect, select

# Shape constants of the four-feature test profile (Gaussian hump, square
# pulse, triangle, semi-ellipse) on [-1, 1].
_GAUSS_CENTER = -0.7
_GAUSS_SHIFT = 0.005
_GAUSS_WIDTH = np.log(2.0) / (36.0 * _GAUSS_SHIFT**2)
_ELLIPSE_CENTER = 0.5
_ELLIPSE_SLOPE = 10.0


def complex_wave_profile(x) -> np.ndarray:
    """Classic four-feature advection test: smooth and discontinuous shapes.

    A smoothed Gaussian triplet on [-0.8, -0.6], a unit square pulse on
    [-0.4, -0.2], a triangle with apex at 0.1, and a semi-ellipse triplet on
    [0.4, 0.6]; zero in the gaps.
    """
    x = np.asarray(x, dtype=float)

    def gauss(center: float) -> np.ndarray:
        return np.exp(-_GAUSS_WIDTH * (x - center) ** 2)

    def ellipse(center: float) -> np.ndarray:
        inside = 1.0 - _ELLIPSE_SLOPE**2 * (x - center) ** 2
        return np.sqrt(np.maximum(inside, 0.0))

    out = np.zeros_like(x)
    m = (x >= -0.8) & (x <= -0.6)
    out[m] = (
        gauss(_GAUSS_CENTER - _GAUSS_SHIFT)
        + gauss(_GAUSS_CENTER + _GAUSS_SHIFT)
        + 4.0 * gauss(_GAUSS_CENTER)
    )[m] / 6.0
    m = (x >= -0.4) & (x <= -0.2)
    out[m] = 1.0
    m = (x >= 0.0) & (x <= 0.2)
    out[m] = 1.0 - np.abs(10.0 * (x[m] - 0.1))
    m = (x >= 0.4) & (x <= 0.6)
    out[m] = (
        ellipse(_ELLIPSE_CENTER - _GAUSS_SHIFT)
        + ellipse(_ELLIPSE_CENTER + _GAUSS_SHIFT)
        + 4.0 * ellipse(_ELLIPSE_CENTER)
    )[m] / 6.0
    return out


def square_profile(x) -> np.ndarray:
    """Unit pulse on |x| < 1/2 (edges on cell faces for even cell counts)."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 0.5, 1.0, 0.0)


def sine_profile(x) -> np.ndarray:
    return np.sin(np.pi * np.asarray(x, dtype=float))


def gaussian_profile(x) -> np.ndarray:
    return np.exp(-100.0 * np.asarray(x, dtype=float) ** 2)


@dataclass(frozen=True)
class Profile:
    """Initial condition on Grid1D's default domain [-1, 1], with its 0-to-1 jump edges."""

    func: Callable[[np.ndarray], np.ndarray]
    jump_edges: tuple[float, ...] = ()
    x_left: ClassVar[float] = Grid1D.x_left
    x_right: ClassVar[float] = Grid1D.x_right

    def period(self, speed: float) -> float:
        """Advection period: one full domain traversal."""
        return (self.x_right - self.x_left) / abs(speed)

    def wrap(self, x):
        """x mapped periodically into [x_left, x_right)."""
        return np.mod(x - self.x_left, self.x_right - self.x_left) + self.x_left


PROFILES = {
    "complex_waves": Profile(complex_wave_profile, jump_edges=(-0.4, -0.2)),
    "square": Profile(square_profile, jump_edges=(-0.5, 0.5)),
    "sine": Profile(sine_profile),
    "gaussian": Profile(gaussian_profile),
}


def exact_advected(profile: Profile, grid: Grid1D, speed: float, t: float) -> CellField:
    """Cell averages of the exact solution: the initial profile shifted by speed*t.

    A shift by whole domain lengths is the initial projection itself.
    """
    shift = speed * t
    if shift % (profile.x_right - profile.x_left) == 0.0:
        return project_initial(grid, profile.func)
    return project_initial(grid, lambda x: profile.func(profile.wrap(x - shift)))


def _check_congruent(a: CellField, b: CellField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def l1_error(final: CellField, reference: CellField) -> float:
    """Discrete L1 distance sum(|a_i - b_i|) * dx."""
    _check_congruent(final, reference)
    return float(np.abs(final.averages - reference.averages).sum() * final.grid.dx)


def linf_error(final: CellField, reference: CellField) -> float:
    _check_congruent(final, reference)
    return float(np.abs(final.averages - reference.averages).max())


def transition_width(field: CellField, location_hint: float) -> int | None:
    """Cell count of a numerical 0-to-1 discontinuity near location_hint.

    Counts the consecutive cells strictly inside the 10%-90% band across the
    monotone transition nearest the hint, plus one, so a jump resolved within
    a single face scores 1; of two equally near transitions the left one
    wins. None if no transition exists within 10 cells of the hint, e.g. a
    jump smeared wider than that.
    """
    grid = field.grid
    hint_cell = int(np.floor((location_hint - grid.x_left) / grid.dx))
    window = np.arange(hint_cell - 10, hint_cell + 11)
    values = field.averages[window % grid.n_cells]
    # -1 below the band, +1 above, 0 strictly inside
    bands = np.where(values <= 0.1, -1, np.where(values >= 0.9, 1, 0))

    # a transition is a pair of consecutive out-of-band cells on opposite sides
    outside = np.flatnonzero(bands)
    start, stop = outside[:-1], outside[1:]
    crosses = bands[start] != bands[stop]
    start, stop = start[crosses], stop[crosses]
    if start.size == 0:
        return None
    nearest = np.argmin(np.abs(0.5 * (start + stop) - 10.0))  # the first on ties
    return int(stop[nearest] - start[nearest])  # intermediate cells + 1


def run_benchmark(
    scheme: SchemeConfig,
    profile: Profile,
    n_cells: int = 200,
    periods: float = 1.0,
    cfl: float = 0.2,
) -> RunResult:
    """Advect a named profile at unit speed and score it against the exact solution."""
    grid = Grid1D(n_cells)
    initial = project_initial(grid, profile.func)
    t_end = periods * profile.period(1.0)
    result = advect(initial, FluxSpec(), TimeConfig(t_end=t_end, cfl=cfl), scheme)
    # whole periods: exact_advected would return this same projection
    exact = initial if periods == int(periods) else exact_advected(profile, grid, 1.0, t_end)
    return dataclasses.replace(
        result,
        exact=exact,
        l1_error=l1_error(result.final, exact),
        linf_error=linf_error(result.final, exact),
        transition_widths=[
            transition_width(result.final, profile.wrap(edge + t_end))
            for edge in profile.jump_edges
        ],
    )


# Figure-by-figure configurations of the complex-wave benchmark: the plain
# polynomial scheme, the four hybridization rules, and the sharpened variant.
FIGURE_SCHEMES: dict[int, SchemeConfig] = {
    1: SchemeConfig(scheme="wenoz"),
    2: SchemeConfig(scheme="bvd1"),
    3: SchemeConfig(scheme="bvd2"),
    4: SchemeConfig(scheme="bvd3"),
    5: SchemeConfig(scheme="bvd4"),
    6: SchemeConfig(scheme="bvd4", beta=4.0),
}


def _tag_strings(omega: np.ndarray) -> list[str]:
    tags = []
    for w in omega:
        if w == 0.0:
            tags.append("W")
        elif w == 1.0:
            tags.append("T")
        else:
            tags.append(f"{w:.17g}")
    return tags


def write_run_csv(path: Path | str, grid: Grid1D, result: RunResult, omega: np.ndarray) -> Path:
    """Write (x_center, q_avg, q_exact, tag) rows; deterministic formatting."""
    path = Path(path)
    if result.exact is None:
        raise ValueError("result carries no exact reference field")
    if grid != result.final.grid or len(omega) != grid.n_cells:
        raise ValueError("grid and omega must match the result's final field")
    tags = _tag_strings(omega)
    lines = ["x_center,q_avg,q_exact,tag"]
    for x, q, e, tag in zip(
        grid.cell_centers, result.final.averages, result.exact.averages, tags
    ):
        lines.append(f"{x:.17g},{q:.17g},{e:.17g},{tag}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_gnuplot_script(path: Path | str, csv_path: Path | str, title: str) -> Path:
    """Emit a gnuplot script overlaying the run on the exact solution."""
    path = Path(path)
    csv_name = Path(csv_path).name
    script = "\n".join(
        [
            "set datafile separator ','",
            f"set title '{title}'",
            "set xlabel 'x'",
            "set ylabel 'q'",
            "set key top right",
            f"plot '{csv_name}' using 1:3 skip 1 with lines lc 'gray' title 'exact', \\",
            f"     '{csv_name}' using 1:2 skip 1 with points pt 6 title 'computed'",
        ]
    )
    path.write_text(script + "\n", encoding="utf-8")
    return path


def selection_weights(values: np.ndarray, scheme: SchemeConfig) -> np.ndarray:
    """Selection weights the scheme would use on the given data (CSV tag column)."""
    return select(values, scheme).omega
