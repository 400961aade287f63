"""Test-only reference: the np.roll versions of the per-stage kernels.

These are the kernels, selectors, interface assembly and stage RHS as they
stood before the package moved to ghost-cell slicing, copied statement for
statement (docstrings dropped). They return their own SelectionResult, in
the per-face layout they were written with, so that a change to the
package's record cannot break the reference.
tests/test_bitwise.py requires the package to reproduce them bit for bit,
so any rewrite that changes an operation or its operand order shows up as a
last-bit difference here before it grows into a 1e-10 drift of the
one-period averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bvd1d.bvd import BVD3_EPS, CandidateSet
from bvd1d.reconstruct import THINC_EPS, WENO_Z_EPS
from bvd1d.solver import SchemeConfig

_D0, _D1, _D2 = 0.1, 0.6, 0.3
_THINC_EXP_CAP = 25.0
_FACE_COMBOS = ((0, 0), (0, 1), (1, 0), (1, 1))


# --- reconstruct.py -------------------------------------------------------


def _wenoz_downwind(m2, m1, c, p1, p2):
    b0 = 13.0 / 12.0 * (m2 - 2.0 * m1 + c) ** 2 + 0.25 * (m2 - 4.0 * m1 + 3.0 * c) ** 2
    b1 = 13.0 / 12.0 * (m1 - 2.0 * c + p1) ** 2 + 0.25 * (m1 - p1) ** 2
    b2 = 13.0 / 12.0 * (c - 2.0 * p1 + p2) ** 2 + 0.25 * (3.0 * c - 4.0 * p1 + p2) ** 2
    tau5 = np.abs(b0 - b2)
    a0 = _D0 * (1.0 + tau5 / (b0 + WENO_Z_EPS))
    a1 = _D1 * (1.0 + tau5 / (b1 + WENO_Z_EPS))
    a2 = _D2 * (1.0 + tau5 / (b2 + WENO_Z_EPS))
    v0 = (2.0 * m2 - 7.0 * m1 + 11.0 * c) / 6.0
    v1 = (-m1 + 5.0 * c + 2.0 * p1) / 6.0
    v2 = (2.0 * c + 5.0 * p1 - p2) / 6.0
    return (a0 * v0 + a1 * v1 + a2 * v2) / (a0 + a1 + a2)


def weno_z_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m2 = np.roll(values, 2)
    m1 = np.roll(values, 1)
    p1 = np.roll(values, -1)
    p2 = np.roll(values, -2)
    right = _wenoz_downwind(m2, m1, values, p1, p2)
    left = _wenoz_downwind(p2, p1, values, m1, m2)
    return left, right


def _thinc_faces(qm, qc, qp, beta: float, eps: float):
    qmin = np.minimum(qm, qp)
    qmax = np.maximum(qm, qp) - qmin
    theta = np.sign(qp - qm)
    ratio = (qc - qmin + eps) / (qmax + eps)
    arg = np.clip(theta * beta * (2.0 * ratio - 1.0), -_THINC_EXP_CAP, _THINC_EXP_CAP)
    scaled = np.exp(arg) / np.cosh(beta)
    tb = np.tanh(beta)
    a = (scaled - 1.0) / tb
    denom = 1.0 + a * tb
    denom = np.where(denom > 0.0, denom, scaled)
    left = qmin + 0.5 * qmax * (1.0 + theta * a)
    right = qmin + 0.5 * qmax * (1.0 + theta * (tb + a) / denom)
    return left, right


def thinc_field(values: np.ndarray, params: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    qm = np.roll(values, 1)
    qp = np.roll(values, -1)
    return _thinc_faces(qm, values, qp, params.beta, THINC_EPS)


def _admissible(qm, qc, qp, delta: float, eps: float):
    qmin = np.minimum(qm, qp)
    qmax = np.maximum(qm, qp) - qmin
    ratio = (qc - qmin + eps) / (qmax + eps)
    monotone = (qp - qc) * (qc - qm) > 0.0
    return (ratio > delta) & (ratio < 1.0 - delta) & monotone


def thinc_admissible_field(
    values: np.ndarray, delta: float, eps: float = 1e-20
) -> np.ndarray:
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    qm = np.roll(values, 1)
    qp = np.roll(values, -1)
    return _admissible(qm, values, qp, delta, eps)


# --- bvd.py ---------------------------------------------------------------


@dataclass
class SelectionResult:
    """The selectors' result in this reference's per-face layout: face_left and
    face_right are q^L and q^R at face j, between cell j and cell j+1."""

    omega: np.ndarray
    face_left: np.ndarray
    face_right: np.ndarray
    n_clamped: int = 0

    @property
    def thinc_cells(self) -> int:
        return int(np.count_nonzero(self.omega))


def build_candidates(
    values: np.ndarray, params: SchemeConfig, delta: float
) -> CandidateSet:
    wl, wr = weno_z_field(values)
    tl, tr = thinc_field(values, params)
    adm = thinc_admissible_field(values, delta, THINC_EPS)
    return CandidateSet(
        weno_left=wl,
        weno_right=wr,
        thinc_left=np.where(adm, tl, wl),
        thinc_right=np.where(adm, tr, wr),
        admissible=adm,
    )


def assemble_interfaces(
    omega: np.ndarray, candidates: CandidateSet
) -> tuple[np.ndarray, np.ndarray]:
    left_of_cell = omega * candidates.thinc_left + (1.0 - omega) * candidates.weno_left
    right_of_cell = omega * candidates.thinc_right + (1.0 - omega) * candidates.weno_right
    return right_of_cell, np.roll(left_of_cell, -1)


def _discrete_result(use_thinc: np.ndarray, candidates: CandidateSet) -> SelectionResult:
    face_left = np.where(use_thinc, candidates.thinc_right, candidates.weno_right)
    cell_left = np.where(use_thinc, candidates.thinc_left, candidates.weno_left)
    return SelectionResult(
        omega=use_thinc.astype(float),
        face_left=face_left,
        face_right=np.roll(cell_left, -1),
    )


def bvd1_select(candidates: CandidateSet) -> SelectionResult:
    n = len(candidates.weno_left)
    own = (candidates.weno_right, candidates.thinc_right)
    nbr = (np.roll(candidates.weno_left, -1), np.roll(candidates.thinc_left, -1))
    adm_own = candidates.admissible
    adm_nbr = np.roll(candidates.admissible, -1)

    signed = np.stack([own[xi] - nbr[eta] for xi, eta in _FACE_COMBOS])
    allowed = np.stack(
        [
            np.ones(n, dtype=bool) if xi == 0 else adm_own
            for xi, _ in _FACE_COMBOS
        ]
    ) & np.stack(
        [
            np.ones(n, dtype=bool) if eta == 0 else adm_nbr
            for _, eta in _FACE_COMBOS
        ]
    )
    magnitude = np.where(allowed, np.abs(signed), np.inf)
    best = np.argmin(magnitude, axis=0)  # first minimum in combo order

    combo_own = np.array([xi for xi, _ in _FACE_COMBOS], dtype=bool)
    combo_nbr = np.array([eta for _, eta in _FACE_COMBOS], dtype=bool)
    cols = np.arange(n)
    nominate_from_right = combo_own[best]          # for cell j, via face j
    nominate_from_left = np.roll(combo_nbr[best], 1)  # for cell j, via face j-1
    signed_right = signed[best, cols]
    signed_left = np.roll(signed_right, 1)

    agree = nominate_from_right == nominate_from_left
    conflict_takes_weno = signed_right * signed_left < 0.0
    use_thinc = np.where(agree, nominate_from_right, ~conflict_takes_weno)
    return _discrete_result(use_thinc & candidates.admissible, candidates)


def bvd2_select(candidates: CandidateSet) -> SelectionResult:
    to_left_face = (np.roll(candidates.weno_right, 1), np.roll(candidates.thinc_right, 1))
    to_right_face = (np.roll(candidates.weno_left, -1), np.roll(candidates.thinc_left, -1))

    def min_total(own_left: np.ndarray, own_right: np.ndarray) -> np.ndarray:
        totals = [
            np.abs(to_left_face[a] - own_left) + np.abs(to_right_face[b] - own_right)
            for a, b in _FACE_COMBOS
        ]
        return np.minimum.reduce(totals)

    m_weno = min_total(candidates.weno_left, candidates.weno_right)
    m_thinc = min_total(candidates.thinc_left, candidates.thinc_right)
    use_thinc = (m_thinc < m_weno) & candidates.admissible
    return _discrete_result(use_thinc, candidates)


def bvd3_select(
    candidates: CandidateSet,
    averages: np.ndarray,
    s_cutoff: float = 1e6,
    eps3: float = BVD3_EPS,
) -> SelectionResult:
    if s_cutoff <= 0.0:
        raise ValueError("s_cutoff must be positive")
    d_left = np.roll(candidates.weno_right, 1) - candidates.weno_left
    d_right = np.roll(candidates.weno_left, -1) - candidates.weno_right
    dq_left = averages - np.roll(averages, 1)
    dq_right = averages - np.roll(averages, -1)
    tbv_weno = ((d_left**2)**2 + (d_right**2)**2) / ((dq_left**2)**2 + (dq_right**2)**2 + eps3)
    smoothness = (1.0 - tbv_weno) / np.maximum(tbv_weno, eps3)

    e_left = candidates.thinc_left - candidates.weno_left
    e_right = candidates.thinc_right - candidates.weno_right
    denom = e_left**2 + e_right**2
    degenerate = denom < eps3
    raw = np.where(
        degenerate, 0.0, (d_left * e_left + d_right * e_right) / np.where(degenerate, 1.0, denom)
    )
    omega = np.clip(raw, 0.0, 1.0)
    blend = (smoothness < s_cutoff) & candidates.admissible
    omega = np.where(blend, omega, 0.0)
    n_clamped = int(np.count_nonzero(blend & ~degenerate & ((raw < 0.0) | (raw > 1.0))))

    face_left, face_right = assemble_interfaces(omega, candidates)
    return SelectionResult(omega, face_left, face_right, n_clamped=n_clamped)


def bvd4_select(candidates: CandidateSet) -> SelectionResult:
    tbv_weno = np.abs(
        np.roll(candidates.weno_right, 1) - candidates.weno_left
    ) + np.abs(candidates.weno_right - np.roll(candidates.weno_left, -1))
    tbv_thinc = np.abs(
        np.roll(candidates.thinc_right, 1) - candidates.thinc_left
    ) + np.abs(candidates.thinc_right - np.roll(candidates.thinc_left, -1))
    use_thinc = (tbv_thinc < tbv_weno) & candidates.admissible
    return _discrete_result(use_thinc, candidates)


SELECTORS = {
    "bvd1": bvd1_select,
    "bvd2": bvd2_select,
    "bvd3": bvd3_select,
    "bvd4": bvd4_select,
}


# --- solver.py --------------------------------------------------------------


def riemann_flux(q_left, q_right, spec):
    return 0.5 * (spec.flux(q_left) + spec.flux(q_right)) - 0.5 * spec.wave_speed * (
        q_right - q_left
    )


def _interface_states(values: np.ndarray, scheme) -> tuple[np.ndarray, np.ndarray, int, int]:
    if scheme.scheme == "wenoz":
        left_of_cell, right_of_cell = weno_z_field(values)
        return right_of_cell, np.roll(left_of_cell, -1), 0, 0
    candidates = build_candidates(values, scheme, scheme.delta)
    if scheme.scheme == "bvd3":
        sel = bvd3_select(candidates, values, s_cutoff=scheme.s_cutoff)
    else:
        sel = SELECTORS[scheme.scheme](candidates)
    return sel.face_left, sel.face_right, sel.thinc_cells, sel.n_clamped


def _rhs_values(values: np.ndarray, dx: float, scheme, flux) -> tuple[np.ndarray, int, int]:
    q_left, q_right, n_thinc, n_clamped = _interface_states(values, scheme)
    face_flux = riemann_flux(q_left, q_right, flux)
    return -(face_flux - np.roll(face_flux, 1)) / dx, n_thinc, n_clamped


def ssp_rk3_values(
    values: np.ndarray, dt: float, dx: float, scheme, flux
) -> tuple[np.ndarray, int, int]:
    """One SSP-RK3 step; drop-in for solver._ssp_rk3_values."""
    k1, n_thinc, n_clamped = _rhs_values(values, dx, scheme, flux)
    u1 = values + dt * k1
    k2, _, c2 = _rhs_values(u1, dx, scheme, flux)
    u2 = 0.75 * values + 0.25 * (u1 + dt * k2)
    k3, _, c3 = _rhs_values(u2, dx, scheme, flux)
    u3 = values / 3.0 + 2.0 / 3.0 * (u2 + dt * k3)
    return u3, n_thinc, n_clamped + c2 + c3


def bvd3_smoothness(
    candidates: CandidateSet, averages: np.ndarray, eps3: float = BVD3_EPS
) -> np.ndarray:
    """The smoothness indicator S of bvd3_select above, for every cell."""
    d_left = np.roll(candidates.weno_right, 1) - candidates.weno_left
    d_right = np.roll(candidates.weno_left, -1) - candidates.weno_right
    dq_left = averages - np.roll(averages, 1)
    dq_right = averages - np.roll(averages, -1)
    tbv_weno = ((d_left**2)**2 + (d_right**2)**2) / ((dq_left**2)**2 + (dq_right**2)**2 + eps3)
    return (1.0 - tbv_weno) / np.maximum(tbv_weno, eps3)
