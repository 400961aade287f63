"""Uniform periodic 1D finite-volume grid, cell-averaged fields, periodic-neighbour gathers."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _is_integer(value) -> bool:
    """A Python or numpy integer, but not a bool (True would count as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid of non-overlapping cells with periodic topology.

    Cell i covers [x_left + i*dx, x_left + (i+1)*dx].
    """

    n_cells: int
    x_left: float = -1.0
    x_right: float = 1.0

    def __post_init__(self) -> None:
        if not (_is_integer(self.n_cells) and self.n_cells >= 1):
            raise ValueError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        if not (np.isfinite(self.x_left) and np.isfinite(self.x_right)):
            raise ValueError("grid bounds must be finite")
        if self.x_right <= self.x_left:
            raise ValueError("x_right must exceed x_left")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def cell_centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class CellField:
    """Cell-averaged values on a Grid1D.

    Treated as immutable by all reconstruction and selection passes; time
    steppers build new instances instead of mutating in place.
    """

    grid: Grid1D
    averages: np.ndarray

    def __post_init__(self) -> None:
        self.averages = np.asarray(self.averages, dtype=float)
        if self.averages.shape != (self.grid.n_cells,):
            raise ValueError(
                f"averages has shape {self.averages.shape}, "
                f"expected ({self.grid.n_cells},)"
            )
        if not np.all(np.isfinite(self.averages)):
            raise ValueError("averages contain NaN/Inf")

    def mass(self) -> float:
        """Total integral sum(q_i)*dx; conserved by flux-form updates."""
        return float(self.averages.sum() * self.grid.dx)


def read_only(value) -> np.ndarray:
    """np.asarray(value) with writing disabled: an array made once and shared by every call."""
    array = np.asarray(value)
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None, typed=True)
def shift_index(n: int, shift: int) -> np.ndarray:
    """Gather index of each cell's neighbour `shift` places on, made once per (n, shift):
    entry j is (j + shift) % n, so x[shift_index(n, -1)] reads cell j - 1 at position j."""
    if not _is_integer(shift):
        raise ValueError(f"shift must be an integer, got {shift!r}")
    return read_only((np.arange(n) + shift) % n)


def project_initial(grid: Grid1D, profile: Callable[[np.ndarray], np.ndarray]) -> CellField:
    """Cell-average a pointwise profile with per-cell 5-point Gauss-Legendre quadrature.

    The rule integrates polynomials up to degree 9 exactly; discontinuous
    profiles are projected by the same rule (jump locations in the bundled
    benchmarks sit on cell faces, so no sub-cell splitting is needed).
    """
    nodes, weights = np.polynomial.legendre.leggauss(5)
    half_dx = 0.5 * grid.dx
    points = grid.cell_centers[:, None] + half_dx * nodes[None, :]
    values = np.asarray(profile(points.ravel()), dtype=float).reshape(points.shape)
    averages = 0.5 * (values @ weights)
    return CellField(grid, averages)
