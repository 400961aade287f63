"""Flux evaluation, semi-discrete RHS, and SSP-RK3 time stepping."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bvd import SELECTORS, SelectionResult, build_candidates, bvd3_select
from .field import CellField, read_only, shift_index
from .reconstruct import weno_z_field

SCHEMES = ("wenoz", *SELECTORS)
# The flux's and the RK combination's constant operands (see reconstruct)
_QUARTER, _HALF, _THREE_QUARTERS, _TWO_THIRDS, _THREE = map(
    read_only, (0.25, 0.5, 0.75, 2.0 / 3.0, 3.0))


class BlowupError(RuntimeError):
    """Raised when the solution develops NaN/Inf during time integration."""


@dataclass(frozen=True)
class FluxSpec:
    """Linear advection flux f(q) = speed * q with exact wave speed bound."""

    speed: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.speed):
            raise ValueError(f"speed must be finite, got {self.speed!r}")
        # riemann_flux's operands speed and 0.5 * |speed|, as read-only 0-d arrays
        object.__setattr__(self, "speed_array", read_only(self.speed))
        object.__setattr__(self, "half_wave_speed", read_only(0.5 * self.wave_speed))

    def flux(self, q):
        return self.speed_array * q

    @property
    def wave_speed(self) -> float:
        return abs(self.speed)


@dataclass(frozen=True)
class SchemeConfig:
    """Spatial scheme selection: candidate parameters plus the hybridization rule.

    Each parameter is checked here, once; a bool is not a number here (True would run as 1).
    The stage kernels read beta, delta and s_cutoff as the read-only 0-d float64 operands
    built below, once per config (see reconstruct), whatever number type they came as.
    """

    scheme: str = "wenoz"
    beta: float = 1.8
    delta: float = 1e-4
    s_cutoff: float = 1e6

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if any(isinstance(x, (bool, np.bool_)) for x in (self.beta, self.delta, self.s_cutoff)):
            raise ValueError("beta, delta and s_cutoff must be numbers, not bools")
        with np.errstate(over="ignore"):  # cosh(beta) overflows past beta = 710.4758...
            cosh_beta = np.cosh(self.beta)
        if not (self.beta > 0.0 and cosh_beta < np.inf):  # else THINC's faces turn NaN
            raise ValueError("beta must be > 0 with cosh(beta) finite (beta <= 710.4758)")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        if not self.s_cutoff > 0.0:
            raise ValueError("s_cutoff must be positive")
        for name, value in (
            ("beta_array", self.beta), ("cosh_beta", cosh_beta), ("tanh_beta", np.tanh(self.beta)),
            ("delta_low", self.delta), ("delta_high", 1.0 - self.delta),
            ("s_cutoff_array", self.s_cutoff),
        ):
            object.__setattr__(self, name, read_only(np.float64(value)))


@dataclass(frozen=True)
class TimeConfig:
    """Explicit integration window: CFL-derived step unless dt is given."""

    t_end: float
    cfl: float = 0.2
    dt: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and >= 0")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.dt is not None and not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")


@dataclass
class RunResult:
    """Final state of a run plus diagnostics gathered along the way.

    The error/width fields are filled by the benchmark drivers once a
    reference solution is known; a bare advect() leaves them None.
    """

    final: CellField
    n_steps: int
    mass_drift: float
    t_cells_per_step: np.ndarray
    t_cell_fraction: float
    wall_time: float
    clamped_cells: int = 0
    exact: CellField | None = None
    l1_error: float | None = None
    linf_error: float | None = None
    transition_widths: list[int | None] = dc_field(default_factory=list)


def riemann_flux(q_left, q_right, spec: FluxSpec):
    """Canonical interface flux: central average plus upwinding dissipation.

    For linear advection the dissipation term makes this exact upwinding.
    Broadcasts over arrays.
    """
    central = spec.flux(q_left) + spec.flux(q_right)
    central *= _HALF
    dissipation = q_right - q_left
    dissipation *= spec.half_wave_speed
    central -= dissipation
    return central


def select(values, scheme: SchemeConfig) -> SelectionResult:
    """The scheme's per-cell boundary pairs and THINC weights on the given data.

    wenoz takes WENO-Z's faces with omega = 0; a BVD scheme builds both
    candidates and applies its selection rule. Any 1-D array-like is read as float64.
    """
    values = np.asanyarray(values, dtype=np.float64)  # a float64 array passes uncopied
    if values.ndim != 1:
        raise ValueError(f"values must be a 1-D array of cell averages, got shape {values.shape}")
    if scheme.scheme == "wenoz":
        return SelectionResult(np.zeros(values.shape[0]), *weno_z_field(values))
    candidates = build_candidates(values, scheme)
    if scheme.scheme == "bvd3":
        return bvd3_select(candidates, values, scheme)
    return SELECTORS[scheme.scheme](candidates)


def _rhs(
    values: np.ndarray, dx: np.ndarray, scheme: SchemeConfig, flux: FluxSpec
) -> tuple[np.ndarray, SelectionResult]:
    sel = select(values, scheme)
    n = values.shape[0]
    face_flux = riemann_flux(sel.right, sel.left[shift_index(n, 1)], flux)  # q^L, q^R at face j
    flux_in = face_flux[shift_index(n, -1)]  # face j-1, the cell's left face
    dqdt = face_flux - flux_in
    np.negative(dqdt, out=dqdt)
    dqdt /= dx
    return dqdt, sel


def _ssp_rk3_values(
    values: np.ndarray, dt: np.ndarray, dx: np.ndarray, scheme: SchemeConfig, flux: FluxSpec
) -> tuple[np.ndarray, int, int]:
    """One Shu-Osher SSP-RK3 step on raw arrays, with 0-d float64 dt and dx.

    Candidate selection is recomputed at every stage; the reported THINC
    count is the first stage's, i.e. the selection seen by the current data,
    and only that stage counts it. Clamped cells are summed over all three.
    Each stage's RHS array is owned here, so the combination is written
    into it in place, with the operands and order of the Shu-Osher formulas.
    """
    u1, sel = _rhs(values, dx, scheme, flux)
    n_thinc, n_clamped = sel.thinc_cells, sel.n_clamped
    u1 *= dt
    u1 += values  # u1 = values + dt * k1
    u2, sel = _rhs(u1, dx, scheme, flux)
    n_clamped += sel.n_clamped
    u2 *= dt
    u2 += u1
    u2 *= _QUARTER
    u2 += _THREE_QUARTERS * values  # u2 = 0.75 * values + 0.25 * (u1 + dt * k2)
    u3, sel = _rhs(u2, dx, scheme, flux)
    u3 *= dt
    u3 += u2
    u3 *= _TWO_THIRDS
    u3 += values / _THREE  # u3 = values / 3 + 2/3 * (u2 + dt * k3)
    return u3, n_thinc, n_clamped + sel.n_clamped


def advect(
    initial: CellField,
    flux: FluxSpec,
    time: TimeConfig,
    scheme: SchemeConfig,
) -> RunResult:
    """Integrate the periodic advection problem to t_end.

    The final step is shortened to land on t_end exactly. Aborts with
    BlowupError (including the failing step) if the state loses finiteness.
    The reported mass drift is relative to the larger of |initial mass| and
    the initial L1 mass, so zero-mean fields do not inflate it.
    """
    grid = initial.grid
    t_start = _time.perf_counter()
    if time.t_end == 0.0 or flux.wave_speed == 0.0:
        n_steps = 0  # an empty window: the loop below runs zero times
    else:
        dt = time.dt if time.dt is not None else time.cfl * grid.dx / flux.wave_speed
        n_steps = max(1, int(np.ceil(time.t_end / dt - 1e-12)))
    mass0 = initial.mass()
    mass_scale = max(abs(mass0), float(np.abs(initial.averages).sum() * grid.dx), 1e-300)

    values = initial.averages.copy()
    t_counts = np.zeros(n_steps, dtype=int)
    clamped = 0
    dx = read_only(grid.dx)  # like each step's dt, a 0-d operand of the stages
    for step in range(n_steps):
        step_dt = dt if step < n_steps - 1 else time.t_end - (n_steps - 1) * dt
        values, t_counts[step], n_cl = _ssp_rk3_values(
            values, np.array(step_dt), dx, scheme, flux
        )
        clamped += n_cl
        if not np.isfinite(values).all():
            raise BlowupError(
                f"non-finite solution after step {step + 1}/{n_steps} "
                f"(t = {min((step + 1) * dt, time.t_end):.6g}, scheme = {scheme.scheme})"
            )

    final = CellField(grid, values)
    return RunResult(
        final=final,
        n_steps=n_steps,
        mass_drift=abs(final.mass() - mass0) / mass_scale,
        t_cells_per_step=t_counts,
        t_cell_fraction=float(t_counts.mean()) / grid.n_cells if n_steps else 0.0,
        wall_time=_time.perf_counter() - t_start,
        clamped_cells=clamped,
    )
