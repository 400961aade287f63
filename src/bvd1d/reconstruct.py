"""Candidate reconstructions: 5th-order WENO-Z polynomial and THINC sigmoid.

Both reconstructions map cell averages to a pair of boundary values per
cell: the value the in-cell profile takes at the cell's left face x_{i-1/2}
and at its right face x_{i+1/2}.

Periodic neighbours come from the ghost-cell layout (LeVeque, Finite Volume
Methods for Hyperbolic Problems, 2002, ch. 7): one gather through a cached
index builds a new array, jump_position's one-ghost-cell pad or WENO-Z's
mirrored two-ghost-cell line, and every neighbour operand is a slice view of
it. THINC and its admissibility test read one jump position: one evaluation
per stage, in bvd.build_candidates.

WENO-Z's left face is its right-face formula read on the reversed stencil
(the mirror symmetry of the upwind-biased stencil; Jiang & Shu, JCP 126,
1996; Borges et al., JCP 227, 2008). So weno_z_field evaluates that formula
once, over the padded field followed by its own reverse: the first half
yields the right faces, the reversed second half the left faces, and the
four stencils that straddle the seam between the halves are discarded.
Its beta_0..beta_2 and sub-stencil values v_0..v_2 are the (3, m) halves of
one (6, m) buffer, so each step the three share (squaring, *1/4, +eps, +1,
*d_k, /6, *weights) is one call on a 0-d or same-shape operand. The d_k are a
cached (3, m) array: a broadcast (3, 1) operand costs 1.1 (7.7) us against
0.47 (3.1) us at m = 54 (4004). One (6, m) allocation instead of two (3, m)
ones made a stage 3-6 % faster at N = 2000 (numpy 2.4.6, 2-core Xeon).

The kernels compute in float64 (CellField guarantees it), where 0-d float64
constants give a Python float's bits, and write their temporaries in place,
never into an argument. An in-place update may swap the two operands of one
+ or *, which is exact; otherwise every kernel keeps the operations and
operand order of the formulas it was validated with, so results match the
former whole-array-shift kernels bit for bit (tests/test_bitwise.py,
tests/test_no_mutation.py). One algebraically equivalent shortcut is
deliberately not taken: reusing the right face's beta_0/beta_2, swapped, for
the left face changes the last bit of the left values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .field import periodic_pad, read_only

# The kernels' constant operands are read-only 0-d float64 arrays, made once. Under
# numpy 2 (NEP 50) a Python float operand is converted on every call: at N = 54,
# `a * 3.0` takes 0.58-0.62 us, `a * np.array(3.0)` 0.37-0.44 us and
# `a * np.float64(3.0)` 0.54-0.64 us (numpy 2.4.6 on a 2-core Xeon).
_ZERO, _QUARTER, _HALF, _ONE, _TWO, _THREE, _FOUR, _FIVE, _SIX, _SEVEN, _ELEVEN = map(
    read_only, (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 11.0))
_THIRTEEN_TWELFTHS = read_only(13.0 / 12.0)

# Regularization constants. Three distinct epsilons are in play across the
# package: the WENO-Z weight guard below, the THINC division guard in
# ThincParams, and the smoothness-indicator guard in bvd.BVD3_EPS.
WENO_Z_EPS = read_only(1e-40)

# Cap on the THINC exponent argument. Admissible cells satisfy
# |beta*(2C-1)| <= beta, far below the cap for any practical steepness, so
# consumed values are never affected; the cap only keeps boundary values
# finite for the degenerate inputs that the admissibility test rejects.
_THINC_EXP_CAP = 25.0
_EXP_FLOOR, _EXP_CAP = read_only(-_THINC_EXP_CAP), read_only(_THINC_EXP_CAP)


@dataclass(frozen=True)
class ThincParams:
    """Sigmoid-reconstruction parameters: jump steepness, plus the fixed division guard."""

    beta: float = 1.8
    eps: ClassVar[np.ndarray] = read_only(1e-20)

    def __post_init__(self) -> None:
        # cosh(beta) overflows past beta = 710.4758..., and THINC's faces turn NaN.
        with np.errstate(over="ignore"):
            if not (self.beta > 0.0 and self.cosh_beta < np.inf):
                raise ValueError("beta must be > 0 with cosh(beta) finite (beta <= 710.4758)")
        object.__setattr__(self, "beta_array", read_only(self.beta))  # as cosh_beta: a 0-d operand

    @cached_property
    def cosh_beta(self) -> np.ndarray:
        return read_only(np.cosh(self.beta))

    @cached_property
    def tanh_beta(self) -> np.ndarray:
        return read_only(np.tanh(self.beta))


@lru_cache(maxsize=None)
def _mirrored_index(n: int) -> np.ndarray:
    """weno_z_field's gather index: concat(p, p[::-1]), p the two-ghost-cell pad of range(n)."""
    pad = periodic_pad(np.arange(n), 2)
    return read_only(np.concatenate((pad, pad[::-1])))


def weno_z_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell WENO-Z boundary pairs over a periodic field.

    The right value is the standard upwind-biased reconstruction at
    x_{i+1/2}: a blend of the three quadratic sub-stencil extrapolations,
    weighted by the tau5-enhanced nonlinear weights. The left value applies
    the same formula to the mirrored stencil.

    Both faces come from one evaluation of the right-face formula over the
    mirrored line concat(g, g[::-1]), g the two-ghost-cell pad (one gather):
    position i of the result is cell i's right face, position n+4+k is cell
    n-1-k's left face, and the 4 positions n..n+3, whose stencils straddle
    the seam between the two halves, are computed and ignored. Temporaries
    are updated in place; every operation keeps its operands, at most
    swapping the two of one + or *.

    Returns (left, right) arrays congruent with `values`.
    """
    n = values.shape[0]
    line = values[_mirrored_index(n)]
    m = line.shape[0] - 4  # stencil centres: the right faces, the seam, the left faces
    two, four, five = _TWO * line, _FOUR * line, _FIVE * line
    qm2, qm1, q0, qp1, qp2 = (line[k : k + m] for k in range(5))  # q_{j+k}, k = -2..2
    three_c = _THREE * q0

    # 13/12 (q_{k-1} - 2 q_k + q_{k+1})^2 for every centre k; beta_0..beta_2
    # read it at the sub-stencil centres j-1, j, j+1.
    curv = line[:-2] - two[1:-1]
    curv += line[2:]
    np.square(curv, out=curv)
    curv *= _THIRTEEN_TWELFTHS

    work = np.empty_like(two, shape=(6, m))  # one allocation: see the module docstring
    beta, v = work[:3], work[3:]
    b0, b1, b2 = beta
    np.subtract(qm2, four[1 : 1 + m], out=b0)
    b0 += three_c
    np.subtract(qm1, qp1, out=b1)
    np.subtract(three_c, four[3 : 3 + m], out=b2)
    b2 += qp2
    np.square(beta, out=beta)
    beta *= _QUARTER
    b0 += curv[:m]
    b1 += curv[1 : 1 + m]
    b2 += curv[2 : 2 + m]
    del four, three_c, curv  # dead from here on; freeing them lowers the peak

    # beta_k becomes the unnormalised weight a_k = d_k (1 + tau5 / (beta_k + eps)).
    tau5 = b0 - b2
    np.abs(tau5, out=tau5)
    beta += WENO_Z_EPS
    np.divide(tau5, beta, out=beta)  # tau5 broadcast: less than three row calls at N <= 200
    beta += _ONE
    beta *= _linear_weights(m)
    del tau5

    v0, v1, v2 = v
    np.multiply(_SEVEN, qm1, out=v0)
    np.subtract(two[:m], v0, out=v0)
    v0 += _ELEVEN * q0
    np.negative(qm1, out=v1)
    v1 += five[2 : 2 + m]
    v1 += two[3 : 3 + m]
    np.add(two[2 : 2 + m], five[3 : 3 + m], out=v2)
    v2 -= qp2
    v /= _SIX
    v *= beta
    v0 += v1
    v0 += v2
    b0 += b1
    b0 += b2
    left = slice(2 * n + 3, n + 3, -1)
    return v0[left] / b0[left], v0[:n] / b0[:n]


@lru_cache(maxsize=None)
def _linear_weights(m: int) -> np.ndarray:
    """The linear weights d_0..d_2 as the rows of a read-only (3, m) array, made once per m."""
    return read_only(np.repeat(np.array([[0.1], [0.6], [0.3]]), m, axis=1))


def jump_position(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """values, neighbour views qm, qp, their min and span, C = (q - qmin + eps) / (span + eps)."""
    g = periodic_pad(values, 1)
    qm, qp = g[:-2], g[2:]
    qmin = np.minimum(qm, qp)
    span = np.maximum(qm, qp)
    span -= qmin
    position = values - qmin
    position += ThincParams.eps
    position /= span + ThincParams.eps
    return values, qm, qp, qmin, span, position


def thinc_field(jump: tuple[np.ndarray, ...], params: ThincParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell THINC boundary pairs from a periodic field's jump_position tuple.

    The in-cell profile is a tanh ramp between the neighbor averages whose
    jump-center position is fixed by cell-average consistency; the boundary
    values below are its exact face evaluations, no root solve needed.
    """
    _, qm, qp, qmin, span, position = jump
    theta = qp - qm
    np.sign(theta, out=theta)
    ratio = _TWO * position
    ratio -= _ONE
    arg = theta * params.beta_array
    arg *= ratio
    np.maximum(arg, _EXP_FLOOR, out=arg)
    np.minimum(arg, _EXP_CAP, out=arg)
    scaled = np.exp(arg)  # out of place: exp's SIMD path is not checked on aliased arrays
    scaled /= params.cosh_beta
    tb = params.tanh_beta
    a = scaled - _ONE
    a /= tb
    # 1 + a*tanh(beta) equals `scaled` exactly in real arithmetic; restore it
    # where rounding collapses the sum to zero (saturated inadmissible cells).
    denom = a * tb
    denom += _ONE
    denom = np.where(denom > _ZERO, denom, scaled)
    half_jump = _HALF * span
    left = theta * a
    left += _ONE
    left *= half_jump
    left += qmin
    right = a
    right += tb
    right *= theta
    right /= denom
    right += _ONE
    right *= half_jump
    right += qmin
    return left, right


def thinc_admissible_field(jump: tuple[np.ndarray, ...], delta: float) -> np.ndarray:
    """Per-cell mask, from jump_position, of where the sigmoid fit is usable:
    the cell position C lies in (delta, 1 - delta) and the data are strictly monotone."""
    low, high = _open_interval(delta)
    values, qm, qp, _, _, position = jump
    rise = qp - values
    rise *= values - qm
    admissible = position > low
    admissible &= position < high
    admissible &= rise > _ZERO
    return admissible


@lru_cache(maxsize=None)
def _open_interval(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(delta, 1 - delta) as read-only 0-d arrays, made once per delta in (0, 0.5)."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    return read_only(delta), read_only(1.0 - delta)
