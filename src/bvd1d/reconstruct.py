"""Candidate reconstructions: 5th-order WENO-Z polynomial and THINC sigmoid.

Both reconstructions map cell averages to a pair of boundary values per
cell: the value the in-cell profile takes at the cell's left face x_{i-1/2}
and at its right face x_{i+1/2}.

Every periodic neighbour is a gather through a cached cell-to-neighbour index,
the layout that carries over to unstructured grids. jump_position gathers
through field.shift_index; WENO-Z gathers its mirrored two-ghost-cell line
(LeVeque, Finite Volume Methods for Hyperbolic Problems, 2002, ch. 7) and
slices its stencil operands from it as views. THINC and its admissibility
test read one jump position, evaluated once per stage in bvd.build_candidates,
and their parameters beta and delta as the 0-d operands of a solver.SchemeConfig.

WENO-Z's left face is its right-face formula read on the reversed stencil
(the mirror symmetry of the upwind-biased stencil; Jiang & Shu, JCP 126,
1996; Borges et al., JCP 227, 2008). So weno_z_field evaluates that formula
once, over the ghost-cell line followed by its own reverse: the first half
yields the right faces, the reversed second half the left faces, and the
four stencils that straddle the seam between the halves are discarded.
Its beta_0..beta_2 and sub-stencil values v_0..v_2 are the (3, m) halves of
one (6, m) buffer, so each step the three share (squaring, *1/4, +eps, +1,
*d_k, /6, *weights) is one call on a 0-d or same-shape operand. The d_k are a
cached (3, m) array: a broadcast (3, 1) operand costs 1.1 (7.7) us against
0.47 (3.1) us at m = 54 (4004). One (6, m) allocation instead of two (3, m)
ones made a stage 3-6 % faster at N = 2000 (numpy 2.4.6, 2-core Xeon).

Only the data change from call to call. So that buffer, the gathered line,
its 2x, 4x and 5x multiples, the curvature line, the gather index, the d_k and
every stencil and offset view weno_z_field reads form one workspace per grid
size, made on the first call and cached: a call is one gather and ufunc calls
with out=, with no slicing, allocation or row unpacking (23.0 -> 16.6 us at
N = 50, 28.9 -> 22.2 us at N = 200, 93 -> 91 us at N = 2000). Its two results
stay new arrays, as solver.select's SelectionResult and a bvd.CandidateSet
keep both. numpy releases the GIL inside large ufunc loops,
so the cache is keyed on the thread too: no two threads share a workspace
(about 256 bytes per cell).

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

from functools import lru_cache
from threading import get_ident

import numpy as np

from .field import read_only, shift_index

# The kernels' constant operands are read-only 0-d float64 arrays, made once. Under
# numpy 2 (NEP 50) a Python float operand is converted on every call: at N = 54,
# `a * 3.0` takes 0.58-0.62 us, `a * np.array(3.0)` 0.37-0.44 us and
# `a * np.float64(3.0)` 0.54-0.64 us (numpy 2.4.6 on a 2-core Xeon).
_ZERO, _QUARTER, _HALF, _ONE, _TWO, _THREE, _FOUR, _FIVE, _SIX, _SEVEN, _ELEVEN = map(
    read_only, (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 11.0))
_THIRTEEN_TWELFTHS = read_only(13.0 / 12.0)

# Regularization constants. Three distinct epsilons are in play across the
# package: the WENO-Z weight guard and the THINC division guard below, and
# the smoothness-indicator guard in bvd.BVD3_EPS.
WENO_Z_EPS = read_only(1e-40)
THINC_EPS = read_only(1e-20)

# Cap on the THINC exponent argument. Admissible cells satisfy
# |beta*(2C-1)| <= beta, far below the cap for any practical steepness, so
# consumed values are never affected; the cap only keeps boundary values
# finite for the degenerate inputs that the admissibility test rejects.
_THINC_EXP_CAP = 25.0
_EXP_FLOOR, _EXP_CAP = read_only(-_THINC_EXP_CAP), read_only(_THINC_EXP_CAP)


# weno_z_field's workspaces held at once, over all sizes and threads: a run steps one grid
# size and a convergence ladder a few (smooth-ladder: 3); past large grids pin little memory.
WENO_Z_WORKSPACES = 4


def _mirrored_index(n: int) -> np.ndarray:
    """weno_z_field's gather index: concat(g, g[::-1]), g the two-ghost-cell line (-2..n+1) % n."""
    line = np.arange(-2, n + 2) % n
    return read_only(np.concatenate((line, line[::-1])))


@lru_cache(maxsize=WENO_Z_WORKSPACES)
def _workspace(n: int, thread: int, kind: type) -> tuple:
    """weno_z_field's buffers for n cells and every view of them it reads, in its order.

    Made once per (n, thread, array type): a thread never writes another's
    buffers, and an ndarray subclass (tools/count_calls.py's counter) gets
    buffers of its own type. Only weno_z_field unpacks the tuple.
    """
    index = _mirrored_index(n)
    m = index.shape[0] - 4  # stencil centres: the right faces, the seam, the left faces
    line, two, four, five = np.empty((4, m + 4)).view(kind)
    three_c = np.empty(m).view(kind)  # later 11 q_j
    curv = np.empty(m + 2).view(kind)  # later tau5, in its first m entries
    work = np.empty((6, m)).view(kind)  # one allocation: see the module docstring
    beta, v = work[:3], work[3:]
    left = slice(2 * n + 3, n + 3, -1)
    return (
        index, line, two, four, five, three_c, curv, beta, v, *beta, *v,
        *(line[k : k + m] for k in range(5)),  # q_{j+k}, k = -2..2
        line[:-2], two[1:-1], line[2:], curv[:m], curv[1 : 1 + m], curv[2 : 2 + m],
        four[1 : 1 + m], four[3 : 3 + m], two[:m], two[2 : 2 + m], two[3 : 3 + m],
        five[2 : 2 + m], five[3 : 3 + m], _linear_weights(m),
        work[3][left], work[0][left], work[3][:n], work[0][:n],
    )


def weno_z_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell WENO-Z boundary pairs over a periodic field.

    The right value is the standard upwind-biased reconstruction at
    x_{i+1/2}: a blend of the three quadratic sub-stencil extrapolations,
    weighted by the tau5-enhanced nonlinear weights. The left value applies
    the same formula to the mirrored stencil.

    Both faces come from one evaluation of the right-face formula over the
    mirrored line concat(g, g[::-1]), g the two-ghost-cell line (one gather):
    position i of the result is cell i's right face, position n+4+k is cell
    n-1-k's left face, and the 4 positions n..n+3, whose stencils straddle
    the seam between the two halves, are computed and ignored. Every
    intermediate is written with out= into the cached workspace of this grid
    size and thread (_workspace), so a call allocates only its two results;
    every operation keeps its operands, at most swapping the two of one + or *.

    `values` is only read. Any other dtype is first converted to float64,
    as the float64 constants would promote it anyway.

    Returns (left, right), new arrays congruent with `values`.
    """
    values = values.astype(np.float64, copy=False)  # no copy for a CellField's averages
    (index, line, two, four, five, three_c, curv, beta, v, b0, b1, b2, v0, v1, v2,
     qm2, qm1, q0, qp1, qp2, line_lo, two_mid, line_hi, curv0, curv1, curv2,
     four1, four3, two0, two2, two3, five2, five3, weights,
     v0_left, b0_left, v0_right, b0_right) = _workspace(values.shape[0], get_ident(), type(values))
    # views named x<k> (four1, curv0, ...) are x[k : k + m]
    values.take(index, out=line, mode="clip")  # "clip" writes straight into line; none clips
    np.multiply(_TWO, line, out=two)
    np.multiply(_FOUR, line, out=four)
    np.multiply(_FIVE, line, out=five)
    np.multiply(_THREE, q0, out=three_c)

    # 13/12 (q_{k-1} - 2 q_k + q_{k+1})^2 for every centre k; beta_0..beta_2
    # read it at the sub-stencil centres j-1, j, j+1.
    np.subtract(line_lo, two_mid, out=curv)
    curv += line_hi
    np.square(curv, out=curv)
    curv *= _THIRTEEN_TWELFTHS

    np.subtract(qm2, four1, out=b0)
    b0 += three_c
    np.subtract(qm1, qp1, out=b1)
    np.subtract(three_c, four3, out=b2)
    b2 += qp2
    np.square(beta, out=beta)
    beta *= _QUARTER
    b0 += curv0
    b1 += curv1
    b2 += curv2

    # beta_k becomes the unnormalised weight a_k = d_k (1 + tau5 / (beta_k + eps)).
    tau5 = np.subtract(b0, b2, out=curv0)
    np.abs(tau5, out=tau5)
    beta += WENO_Z_EPS
    np.divide(tau5, beta, out=beta)  # tau5 broadcast: less than three row calls at N <= 200
    beta += _ONE
    beta *= weights

    np.multiply(_SEVEN, qm1, out=v0)
    np.subtract(two0, v0, out=v0)
    v0 += np.multiply(_ELEVEN, q0, out=three_c)
    np.negative(qm1, out=v1)
    v1 += five2
    v1 += two3
    np.add(two2, five3, out=v2)
    v2 -= qp2
    v /= _SIX
    v *= beta
    v0 += v1
    v0 += v2
    b0 += b1
    b0 += b2
    return v0_left / b0_left, v0_right / b0_right


def _linear_weights(m: int) -> np.ndarray:
    """The linear weights d_0..d_2 as the rows of a read-only (3, m) array."""
    return read_only(np.repeat(np.array([[0.1], [0.6], [0.3]]), m, axis=1))


def jump_position(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """values, neighbour copies qm, qp, their min and span, C = (q - qmin + eps) / (span + eps)."""
    n = values.shape[0]
    qm, qp = values[shift_index(n, -1)], values[shift_index(n, 1)]
    qmin = np.minimum(qm, qp)
    span = np.maximum(qm, qp)
    span -= qmin
    position = values - qmin
    position += THINC_EPS
    position /= span + THINC_EPS
    return values, qm, qp, qmin, span, position


def thinc_field(jump: tuple[np.ndarray, ...], scheme) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell THINC boundary pairs from a periodic field's jump_position tuple.

    The in-cell profile is a tanh ramp of steepness scheme.beta between the neighbor
    averages whose jump-center position is fixed by cell-average consistency; the
    boundary values below are its exact face evaluations, no root solve needed.
    """
    _, qm, qp, qmin, span, position = jump
    theta = qp - qm
    np.sign(theta, out=theta)
    ratio = _TWO * position
    ratio -= _ONE
    arg = theta * scheme.beta_array
    arg *= ratio
    np.maximum(arg, _EXP_FLOOR, out=arg)
    np.minimum(arg, _EXP_CAP, out=arg)
    scaled = np.exp(arg)  # out of place: exp's SIMD path is not checked on aliased arrays
    scaled /= scheme.cosh_beta
    tb = scheme.tanh_beta
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


def thinc_admissible_field(jump: tuple[np.ndarray, ...], scheme) -> np.ndarray:
    """Per-cell mask, from jump_position, of where the sigmoid fit is usable: the
    cell position C lies in (scheme.delta, 1 - scheme.delta) and the data are strictly monotone."""
    values, qm, qp, _, _, position = jump
    rise = qp - values
    rise *= values - qm
    admissible = position > scheme.delta_low
    admissible &= position < scheme.delta_high
    admissible &= rise > _ZERO
    return admissible
