"""Hybridization of the WENO-Z and THINC candidates per cell.

All four selectors implement the same principle: prefer, cell by cell, the
candidate reconstruction that leaves the smaller jump between the two
reconstructed values meeting at each face (the boundary variation, BV).
Since the dissipation term of the interface flux is proportional to that
jump, shrinking it where a discontinuity lives removes most of the smearing
while leaving smooth regions to the high-order polynomial.

Layout: every array a selector takes or returns is per cell (CandidateSet's
candidate pairs, SelectionResult's chosen pair); solver._rhs alone pairs cell
j's right value with cell (j+1) % n's left value at face j, x_{j+1/2}. A
neighbour across face j-1 or j is one gather through a cached index,
x[field.shift_index(n, -1)] or x[field.shift_index(n, 1)], into a new array.
bvd1 and bvd2 read the BV from _face_jumps, and bvd4 evaluates its WW and TT
jumps the same way: each face's signed jump is evaluated once per candidate
pair and read by both cells it separates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import read_only, shift_index
from .reconstruct import jump_position, thinc_admissible_field, thinc_field, weno_z_field

# Guard used by the smoothness indicator and the blend-weight denominator; like
# the selectors' other constant operands, a read-only 0-d array (see reconstruct).
BVD3_EPS = read_only(1e-16)
_ZERO, _ONE = map(read_only, (0.0, 1.0))


@dataclass
class CandidateSet:
    """Per-cell boundary pairs of both candidates plus the admissibility mask.

    build_candidates copies an inadmissible cell's WENO pair into its thinc_*
    slots, so any selector formula that touches that cell's THINC values
    gets its polynomial values, bit for bit. bvd4 alone reads the mask (THINC
    on the neighbours alone can win its cell group); bvd1-bvd3 rely on the
    fallback: in bvd1's and bvd2's strict comparisons it only ties, and bvd3
    cannot blend a cell whose two candidates coincide.
    """

    weno_left: np.ndarray
    weno_right: np.ndarray
    thinc_left: np.ndarray
    thinc_right: np.ndarray
    admissible: np.ndarray


@dataclass
class SelectionResult:
    """Outcome of one selector pass, per cell like CandidateSet.

    omega is the per-cell THINC fraction: 0 is pure WENO, 1 pure THINC;
    the blending selector may produce intermediate values. left and right
    are each cell's chosen boundary values, not limited further. n_clamped
    counts cells whose raw blend weight fell outside [0, 1] before clamping.
    """

    omega: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_clamped: int = 0

    @property
    def thinc_cells(self) -> int:
        """Cells where the THINC candidate contributes (omega > 0; omega lies in [0, 1])."""
        return int(np.count_nonzero(self.omega))


def build_candidates(values: np.ndarray, scheme) -> CandidateSet:
    """Both reconstructions and the admissibility test per cell, from one jump position."""
    wl, wr = weno_z_field(values)
    jump = jump_position(values)
    adm = thinc_admissible_field(jump, scheme)
    tl, tr = thinc_field(jump, scheme)
    weno_only = ~adm
    np.putmask(tl, weno_only, wl)
    np.putmask(tr, weno_only, wr)
    return CandidateSet(wl, wr, tl, tr, adm)


def _face_jumps(candidates: CandidateSet) -> tuple[np.ndarray, ...]:
    """New arrays, per face j, of cell j's right value minus cell j+1's left value
    for the (own, neighbour) candidate pairs WW, WT, TW, TT (W: WENO, T: THINC)."""
    nxt = shift_index(candidates.weno_left.shape[0], 1)
    wr, tr = candidates.weno_right, candidates.thinc_right
    wl, tl = candidates.weno_left[nxt], candidates.thinc_left[nxt]
    return wr - wl, wr - tl, tr - wl, tr - tl


def assemble_interfaces(
    omega: np.ndarray, candidates: CandidateSet
) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's blended (left, right) boundary pair from its blend weight."""
    weno_share = _ONE - omega
    left = omega * candidates.thinc_left
    left += weno_share * candidates.weno_left
    right = omega * candidates.thinc_right
    right += weno_share * candidates.weno_right
    return left, right


def _discrete_result(use_thinc: np.ndarray, candidates: CandidateSet) -> SelectionResult:
    """Result for the either/or selectors, using exact array picks."""
    left = candidates.weno_left.copy()
    np.putmask(left, use_thinc, candidates.thinc_left)
    right = candidates.weno_right.copy()
    np.putmask(right, use_thinc, candidates.thinc_right)
    return SelectionResult(use_thinc.astype(float), left, right)


def bvd1_select(candidates: CandidateSet) -> SelectionResult:
    """Two-stage face-pair minimization.

    Stage 1 finds, at every face, the candidate pair (own cell, neighbor
    cell) with the smallest absolute boundary variation, nominating a
    candidate for each adjacent cell. Stage 2 reconciles the two per-cell
    nominations: agreement is honored, and a conflict falls back to WENO
    exactly when the two signed minimizing variations have opposite signs.
    """
    # First minimum in the order WW, WT, TW, TT: a later pair must be strictly
    # smaller, so the last pair taken wins. Where a cell's thinc_* slots hold its
    # WENO pair, a pair using them ties an earlier one bit for bit and never wins.
    signed_right, wt, tw, tt = _face_jumps(candidates)
    magnitude = np.abs(signed_right)
    takes = []
    for signed_k in (wt, tw, tt):
        magnitude_k = np.abs(signed_k)
        take = magnitude_k < magnitude
        np.putmask(signed_right, take, signed_k)
        if signed_k is not tt:  # nothing compares against the last magnitude
            np.putmask(magnitude, take, magnitude_k)
        takes.append(take)
    take_wt, take_tw, take_tt = takes
    # Face j nominates THINC for cell j when TW or TT won there, and for cell
    # j+1 when TT won, or WT won and no later pair was taken.
    nominate_own = take_tw | take_tt
    nominate_neighbour = take_wt & ~nominate_own
    nominate_neighbour |= take_tt
    prv = shift_index(signed_right.shape[0], -1)
    signed_left = signed_right[prv]
    agree = nominate_own == nominate_neighbour[prv]  # faces j and j-1 nominate alike
    conflict_takes_weno = signed_right * signed_left < _ZERO
    use_thinc = ~conflict_takes_weno
    np.putmask(use_thinc, agree, nominate_own)
    return _discrete_result(use_thinc, candidates)


def bvd2_select(candidates: CandidateSet) -> SelectionResult:
    """Minimum total boundary variation over all neighbor combinations.

    For each own candidate, the total variation across the cell's two faces
    is minimized over the four neighbor-candidate combinations; THINC is
    kept only where its minimum beats WENO's strictly. Rounding is monotone,
    so that minimum is the rounded sum of the least |jump| at face j-1, where
    the cell is the neighbour (read at shift -1), and the least at face j.
    """
    ww, wt, tw, tt = (np.abs(jump, out=jump) for jump in _face_jumps(candidates))
    prv = shift_index(ww.shape[0], -1)
    m_weno = np.minimum(ww, tw)[prv] + np.minimum(ww, wt)
    m_thinc = np.minimum(wt, tt)[prv] + np.minimum(tw, tt)
    return _discrete_result(m_thinc < m_weno, candidates)


def bvd3_select(candidates: CandidateSet, averages: np.ndarray, scheme) -> SelectionResult:
    """Smoothness-gated blending of the two candidates.

    Cells flagged non-smooth (normalized fourth-power boundary variation of
    the WENO reconstruction, turned into an indicator S < scheme.s_cutoff) blend
    THINC into WENO with the weight that minimizes the squared mismatch to
    the neighbors' WENO face values; the quadratic has the closed-form
    stationary point implemented below. The weight is clamped to [0, 1].
    S is evaluated on every cell, from exact squarings that do not depend on
    numpy's power dispatch. No mask is needed: on an inadmissible cell, with
    THINC's pair equal to WENO's, finite faces give a zero denominator and so
    omega 0, and a non-finite face makes S NaN, which never passes s_cutoff.
    """
    # Not _face_jumps: bvd3 reads WENO's jumps only, and d_right is WW's jump
    # with its operands swapped (-WW would make raw -0.0 where it is +0.0).
    prv, nxt = (shift_index(averages.shape[0], s) for s in (-1, 1))
    d_left = candidates.weno_right[prv] - candidates.weno_left
    d_right = candidates.weno_left[nxt] - candidates.weno_right
    powers = np.empty_like(averages, shape=(4, averages.shape[0]))  # each |jump|^2, then ^4
    np.square(d_left, out=powers[0])
    np.square(d_right, out=powers[1])
    np.subtract(averages, averages[prv], out=powers[2])
    np.subtract(averages, averages[nxt], out=powers[3])
    dq = powers[2:]
    np.square(dq, out=dq)
    d4_left, d4_right, dq4_left, dq4_right = np.square(powers, out=powers)
    tbv_weno = (d4_left + d4_right) / (dq4_left + dq4_right + BVD3_EPS)
    smoothness = (_ONE - tbv_weno) / np.maximum(tbv_weno, BVD3_EPS)
    blend = smoothness < scheme.s_cutoff_array

    e_left = candidates.thinc_left - candidates.weno_left
    e_right = candidates.thinc_right - candidates.weno_right
    denom = e_left**2 + e_right**2
    degenerate = denom < BVD3_EPS
    raw = np.where(
        degenerate, _ZERO, (d_left * e_left + d_right * e_right) / np.where(degenerate, _ONE, denom)
    )
    omega = np.where(blend, np.minimum(np.maximum(raw, _ZERO), _ONE), _ZERO)
    n_clamped = int(np.count_nonzero(blend & ((raw < _ZERO) | (raw > _ONE))))

    return SelectionResult(omega, *assemble_interfaces(omega, candidates), n_clamped=n_clamped)


def bvd4_select(candidates: CandidateSet) -> SelectionResult:
    """Single-candidate total boundary variation over the cell group.

    Each cell's total variation is evaluated twice, once with WENO and once
    with THINC applied to the cell and both neighbors alike (inadmissible
    neighbors contribute their WENO values); THINC wins only strictly. Each
    total is |jump| at face j-1 plus at face j, from the WW or TT face jumps.
    """
    nxt, prv = (shift_index(candidates.weno_left.shape[0], s) for s in (1, -1))
    ww = candidates.weno_right - candidates.weno_left[nxt]
    tt = candidates.thinc_right - candidates.thinc_left[nxt]
    tbv_weno = np.abs(ww, out=ww)[prv] + ww
    tbv_thinc = np.abs(tt, out=tt)[prv] + tt
    use_thinc = (tbv_thinc < tbv_weno) & candidates.admissible
    return _discrete_result(use_thinc, candidates)


SELECTORS = {
    "bvd1": bvd1_select,
    "bvd2": bvd2_select,
    "bvd3": bvd3_select,
    "bvd4": bvd4_select,
}
