"""Independent reference implementations used to cross-check the package.

Everything here is written as plain scalar loops and generic numerics
(root finding, quadrature, grid scans) so that it shares no code path with
the vectorized implementations under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


def sine_cell_averages(grid, freq: float = 2.0 * np.pi) -> np.ndarray:
    """Exact cell averages of sin(freq*x): (cos(left) - cos(right)) / (freq*dx)."""
    faces = grid.x_left + np.arange(grid.n_cells + 1) * grid.dx
    return (np.cos(freq * faces[:-1]) - np.cos(freq * faces[1:])) / (freq * grid.dx)


def brute_force_bvd1_tags(cs) -> list[str]:
    """Exhaustive two-stage minimization over all candidate pairs per face."""
    n = len(cs.weno_left)
    per_face = []
    for j in range(n):
        jp = (j + 1) % n
        best = None
        for xi in "WT":
            for eta in "WT":
                if xi == "T" and not cs.admissible[j]:
                    continue
                if eta == "T" and not cs.admissible[jp]:
                    continue
                own = cs.weno_right[j] if xi == "W" else cs.thinc_right[j]
                nbr = cs.weno_left[jp] if eta == "W" else cs.thinc_left[jp]
                signed = own - nbr
                if best is None or abs(signed) < best[0]:
                    best = (abs(signed), signed, xi, eta)
        per_face.append(best)

    tags = []
    for i in range(n):
        jm = (i - 1) % n
        _, signed_right, nominate_right, _ = per_face[i]
        _, signed_left, _, nominate_left = per_face[jm]
        if nominate_right == nominate_left:
            tag = nominate_right
        else:
            tag = "W" if signed_right * signed_left < 0.0 else "T"
        if not cs.admissible[i]:
            tag = "W"
        tags.append(tag)
    return tags


def brute_force_bvd2_tags(cs) -> list[str]:
    """Exhaustive minimum-total-variation comparison per cell."""
    n = len(cs.weno_left)
    tags = []
    for i in range(n):
        im, ip = (i - 1) % n, (i + 1) % n

        def min_total(own_left: float, own_right: float) -> float:
            totals = []
            for a in "WT":
                for b in "WT":
                    if a == "T" and not cs.admissible[im]:
                        continue
                    if b == "T" and not cs.admissible[ip]:
                        continue
                    lv = cs.weno_right[im] if a == "W" else cs.thinc_right[im]
                    rv = cs.weno_left[ip] if b == "W" else cs.thinc_left[ip]
                    totals.append(abs(lv - own_left) + abs(rv - own_right))
            return min(totals)

        m_weno = min_total(cs.weno_left[i], cs.weno_right[i])
        m_thinc = min_total(cs.thinc_left[i], cs.thinc_right[i])
        tags.append("T" if (m_thinc < m_weno and cs.admissible[i]) else "W")
    return tags


def scan_bvd3_omegas(
    cs,
    averages: np.ndarray,
    s_cutoff: float = 1e6,
    eps3: float = 1e-16,
    n_grid: int = 10001,
) -> np.ndarray:
    """Blend weights by direct minimization of the mismatch over a [0,1] grid."""
    n = len(cs.weno_left)
    grid = np.linspace(0.0, 1.0, n_grid)
    omegas = np.zeros(n)
    for i in range(n):
        im, ip = (i - 1) % n, (i + 1) % n
        d_left = cs.weno_right[im] - cs.weno_left[i]
        d_right = cs.weno_left[ip] - cs.weno_right[i]
        tbv = (d_left**4 + d_right**4) / (
            (averages[i] - averages[im]) ** 4 + (averages[i] - averages[ip]) ** 4 + eps3
        )
        smoothness = (1.0 - tbv) / max(tbv, eps3)
        if smoothness >= s_cutoff or not cs.admissible[i]:
            continue
        e_left = cs.thinc_left[i] - cs.weno_left[i]
        e_right = cs.thinc_right[i] - cs.weno_right[i]
        mismatch = (d_left - grid * e_left) ** 2 + (d_right - grid * e_right) ** 2
        omegas[i] = grid[np.argmin(mismatch)]
    return omegas


def scan_transition_width(
    field: CellField, jump_lo: float, jump_hi: float, location_hint: float
) -> int:
    """Cell count of a numerical discontinuity near location_hint.

    Counts the consecutive cells strictly inside the 10%-90% band of the
    jump amplitude across the monotone transition nearest the hint, plus
    one, so a jump resolved within a single face scores 1. Raises if no
    transition exists within 10 cells of the hint.
    """
    if jump_hi <= jump_lo:
        raise ValueError("jump_hi must exceed jump_lo")
    grid = field.grid
    n = grid.n_cells
    lo_band = jump_lo + 0.1 * (jump_hi - jump_lo)
    hi_band = jump_lo + 0.9 * (jump_hi - jump_lo)

    hint_cell = int(np.floor((location_hint - grid.x_left) / grid.dx))
    window = np.arange(hint_cell - 10, hint_cell + 11)
    values = field.averages[window % n]
    # -1 below the band, +1 above, 0 strictly inside
    bands = np.where(values <= lo_band, -1, np.where(values >= hi_band, 1, 0))

    best_width = None
    best_distance = None
    center = (len(window) - 1) / 2.0
    for start in range(len(window) - 1):
        if bands[start] == 0:
            continue
        for stop in range(start + 1, len(window)):
            if bands[stop] == 0:
                continue
            if bands[stop] == -bands[start]:
                distance = abs(0.5 * (start + stop) - center)
                if best_distance is None or distance < best_distance:
                    best_distance = distance
                    best_width = stop - start  # intermediate cells + 1
            break
    if best_width is None:
        raise ValueError(
            f"no monotone transition within 10 cells of x = {location_hint:g}"
        )
    return best_width


def sigmoid_profile(s, center: float, qmin: float, qjump: float, theta: float, beta: float):
    """The in-cell reconstruction in normalized coordinates s in [0, 1]."""
    return qmin + 0.5 * qjump * (1.0 + theta * np.tanh(beta * (s - center)))


def solve_jump_center(qm: float, qc: float, qp: float, beta: float) -> float:
    """Jump-center location from cell-average consistency, by root finding."""
    qmin = min(qm, qp)
    qjump = max(qm, qp) - qmin
    theta = 1.0 if qp > qm else -1.0

    def mean_residual(center: float) -> float:
        value, _ = quad(
            sigmoid_profile, 0.0, 1.0,
            args=(center, qmin, qjump, theta, beta),
            epsabs=1e-13, epsrel=1e-13,
        )
        return value - qc

    return brentq(mean_residual, -40.0, 41.0, xtol=1e-14)


def implied_jump_center(qm: float, qc: float, qp: float, beta: float, eps: float) -> float:
    """Jump center implied by the closed-form algebra (for integration checks)."""
    qmin = min(qm, qp)
    qjump = max(qm, qp) - qmin
    theta = 1.0 if qp > qm else -1.0
    c_ratio = (qc - qmin + eps) / (qjump + eps)
    b = math.exp(theta * beta * (2.0 * c_ratio - 1.0))
    a = (b / math.cosh(beta) - 1.0) / math.tanh(beta)
    return -math.atanh(a) / beta


def integrate_sigmoid_average(
    qm: float, qc: float, qp: float, beta: float, center: float
) -> float:
    """Numerical cell average of the sigmoid with a given jump center."""
    qmin = min(qm, qp)
    qjump = max(qm, qp) - qmin
    theta = 1.0 if qp > qm else -1.0
    value, _ = quad(
        sigmoid_profile, 0.0, 1.0,
        args=(center, qmin, qjump, theta, beta),
        epsabs=1e-13, epsrel=1e-13,
    )
    return value


def random_admissible_triplet(rng: np.random.RandomState) -> tuple[float, float, float]:
    """Random monotone triplet with the center strictly inside the neighbor range."""
    lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
    while hi - lo < 0.05:
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
    position = rng.uniform(0.01, 0.99)
    mid = lo + position * (hi - lo)
    if rng.rand() < 0.5:
        return lo, mid, hi
    return hi, mid, lo
