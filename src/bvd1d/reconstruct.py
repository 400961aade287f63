"""Candidate reconstructions: 5th-order WENO-Z polynomial and THINC sigmoid.

Both reconstructions map cell averages to a pair of boundary values per
cell: the value the in-cell profile takes at the cell's left face x_{i-1/2}
and at its right face x_{i+1/2}. The whole-field kernels hold the one
formula of each reconstruction; the per-cell functions evaluate them on the
cell's 3- or 5-cell periodic window.

Periodic neighbours come from the ghost-cell layout (LeVeque, Finite Volume
Methods for Hyperbolic Problems, 2002, ch. 7): field.periodic_pad copies the
wrap-around cells once per kernel call, one ghost cell per side for THINC
and the admissibility test and two for the 5-point WENO-Z stencil, and every
neighbour operand is a slice view of that one array.

Every kernel keeps the operations and operand order of the formulas it was
validated with, so results match the former whole-array-shift kernels bit
for bit
(tests/test_bitwise.py). One algebraically equivalent shortcut is
deliberately not taken: reusing the right face's beta_0/beta_2, swapped,
for the left face changes the last bit of the left values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import periodic_pad

# Regularization constants. Three distinct epsilons are in play across the
# package: the WENO-Z weight guard below, the THINC division guard in
# ThincParams, and the smoothness-indicator guard in bvd.BVD3_EPS.
WENO_Z_EPS = 1e-40

# Linear (optimal) weights of the three quadratic sub-stencils.
_D0, _D1, _D2 = 0.1, 0.6, 0.3

# Cap on the THINC exponent argument. Admissible cells satisfy
# |beta*(2C-1)| <= beta, far below the cap for any practical steepness, so
# consumed values are never affected; the cap only keeps boundary values
# finite for the degenerate inputs that the admissibility test rejects.
_THINC_EXP_CAP = 25.0


class BoundaryPair(NamedTuple):
    """Reconstructed values at a cell's own faces (left = x_{i-1/2})."""

    left: float
    right: float


@dataclass(frozen=True)
class ThincParams:
    """Sigmoid-reconstruction parameters: jump steepness and division guard."""

    beta: float = 1.8
    eps: float = 1e-20

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")


def weno_z_pair(stencil5) -> BoundaryPair:
    """Boundary pair from a 5-cell stencil [q_{i-2}..q_{i+2}].

    The stencil is read as a periodic 5-cell field, whose middle cell sees
    exactly these neighbours, and evaluated by weno_z_field.
    """
    window = np.array(stencil5, dtype=float)
    if window.shape != (5,):
        raise ValueError(f"stencil5 must hold 5 values, got shape {window.shape}")
    left, right = weno_z_field(window)
    return BoundaryPair(float(left[2]), float(right[2]))


def weno_z_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell WENO-Z boundary pairs over a periodic field.

    The right value is the standard upwind-biased reconstruction at
    x_{i+1/2}: a blend of the three quadratic sub-stencil extrapolations,
    weighted by the tau5-enhanced nonlinear weights. The left value applies
    the same formula to the mirrored stencil.

    Each product and second-difference term is computed once and read by
    every face that uses it; each face still combines them in the operand
    order of its own formula.

    Returns (left, right) arrays congruent with `values`.
    """
    n = values.shape[0]
    g = periodic_pad(values, 2)
    two, four, five, seven = 2.0 * g, 4.0 * g, 5.0 * g, 7.0 * g
    three_c, eleven_c = 3.0 * values, 11.0 * values

    def at(padded: np.ndarray, k: int) -> np.ndarray:
        """Cell i + k of a two-ghost-cell array, for every cell i."""
        return padded[2 + k : 2 + k + n]

    # 13/12 (q_{k-1} - 2 q_k + q_{k+1})^2 at k = -1..n, in the right face's
    # operand order and in the mirrored one; beta_0..beta_2 read it at
    # k = i-1, i, i+1 (mirrored for the left face).
    lo, twice_mid, hi = g[:-2], two[1:-1], g[2:]
    curv_right = 13.0 / 12.0 * (lo - twice_mid + hi) ** 2
    curv_left = 13.0 / 12.0 * (hi - twice_mid + lo) ** 2
    slope = 0.25 * (at(g, -1) - at(g, 1)) ** 2  # (m1 - p1)^2 == (p1 - m1)^2

    def face(s: int, curv: np.ndarray) -> np.ndarray:
        """Value at face x_{i+s/2}: the stencil read in direction s = +1 or -1."""
        m2, m1, p2 = at(g, -2 * s), at(g, -s), at(g, 2 * s)
        b0 = curv[1 - s : 1 - s + n] + 0.25 * (m2 - at(four, -s) + three_c) ** 2
        b1 = curv[1 : 1 + n] + slope
        b2 = curv[1 + s : 1 + s + n] + 0.25 * (three_c - at(four, s) + p2) ** 2
        tau5 = np.abs(b0 - b2)
        a0 = _D0 * (1.0 + tau5 / (b0 + WENO_Z_EPS))
        a1 = _D1 * (1.0 + tau5 / (b1 + WENO_Z_EPS))
        a2 = _D2 * (1.0 + tau5 / (b2 + WENO_Z_EPS))
        v0 = (at(two, -2 * s) - at(seven, -s) + eleven_c) / 6.0
        v1 = (-m1 + at(five, 0) + at(two, s)) / 6.0
        v2 = (at(two, 0) + at(five, s) - p2) / 6.0
        return (a0 * v0 + a1 * v1 + a2 * v2) / (a0 + a1 + a2)

    return face(-1, curv_left), face(1, curv_right)


def thinc_pair(q_im1: float, q_i: float, q_ip1: float, params: ThincParams) -> BoundaryPair:
    """THINC boundary pair for one cell from its three-cell neighborhood."""
    left, right = thinc_field(np.array([q_im1, q_i, q_ip1], dtype=float), params)
    return BoundaryPair(float(left[1]), float(right[1]))


def thinc_field(values: np.ndarray, params: ThincParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell THINC boundary pairs over a periodic field.

    The in-cell profile is a tanh ramp between the neighbor averages whose
    jump-center position is fixed by cell-average consistency; the boundary
    values below are its exact face evaluations, no root solve needed.
    """
    g = periodic_pad(values, 1)
    qm, qp = g[:-2], g[2:]
    beta = params.beta
    qmin = np.minimum(qm, qp)
    qmax = np.maximum(qm, qp) - qmin
    theta = np.sign(qp - qm)
    ratio = (values - qmin + params.eps) / (qmax + params.eps)
    arg = np.minimum(
        np.maximum(theta * beta * (2.0 * ratio - 1.0), -_THINC_EXP_CAP), _THINC_EXP_CAP
    )
    scaled = np.exp(arg) / np.cosh(beta)
    tb = np.tanh(beta)
    a = (scaled - 1.0) / tb
    # 1 + a*tanh(beta) equals `scaled` exactly in real arithmetic; restore it
    # where rounding collapses the sum to zero (saturated inadmissible cells).
    denom = 1.0 + a * tb
    denom = np.where(denom > 0.0, denom, scaled)
    half_jump = 0.5 * qmax
    left = qmin + half_jump * (1.0 + theta * a)
    right = qmin + half_jump * (1.0 + theta * (tb + a) / denom)
    return left, right


def thinc_admissible(
    q_im1: float, q_i: float, q_ip1: float, delta: float, eps: float = 1e-20
) -> bool:
    """Whether the sigmoid fit is usable in this cell.

    Requires the cell average to sit strictly inside the neighbor range
    (delta < C < 1-delta for the normalized position C of thinc_pair) and
    the local data to be strictly monotone. Cells failing either condition
    keep the polynomial reconstruction.
    """
    window = np.array([q_im1, q_i, q_ip1], dtype=float)
    return bool(thinc_admissible_field(window, delta, eps)[1])


def thinc_admissible_field(
    values: np.ndarray, delta: float, eps: float = 1e-20
) -> np.ndarray:
    """Vectorized admissibility mask over a periodic field."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    g = periodic_pad(values, 1)
    qm, qp = g[:-2], g[2:]
    qmin = np.minimum(qm, qp)
    qmax = np.maximum(qm, qp) - qmin
    ratio = (values - qmin + eps) / (qmax + eps)
    monotone = (qp - values) * (values - qm) > 0.0
    return (ratio > delta) & (ratio < 1.0 - delta) & monotone
