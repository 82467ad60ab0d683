"""Entropy and distance functionals of working-medium states.

All entropies use the natural logarithm with the 0*log(0) = 0 convention.
Every state is an outer 2x2 block A plus the inner doublet (lam2, lam3), so
the relative entropy and the quantum distance reduce to closed forms in the
b-vector variables and the eigenvalues of :func:`vn_eigenvalues`; no 4x4
matrix is built.  The tests check both against density-matrix oracles.
"""

from __future__ import annotations

import math

from .algebra import (
    LOG_EIGENVALUE_FLOOR,
    PHYSICALITY_TOL,
    BlochVector,
    energy_populations,
    vn_eigenvalues,
)

# Bhattacharyya overlaps / trace overlaps this close to 1 are numerically
# indistinguishable from equal states; the distances report exactly zero
# there instead of sqrt-amplified rounding noise (resolution ~1e-6).
_OVERLAP_NOISE = 1e-12

# Reference-state eigenvalues below this count as outside the support.
_SUPPORT_TOL = 1e-13


def measurement_entropy(p) -> float:
    """Shannon entropy -sum p log p of a complete-measurement distribution
    (a sequence of probabilities)."""
    if min(p) < PHYSICALITY_TOL:
        raise ValueError(f"negative probability in {tuple(p)}")
    total = sum(p)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -sum([x * math.log(x) for x in p if x > 0.0])


def vn_entropy(b: BlochVector) -> float:
    """Von Neumann entropy, the minimum over all complete measurements."""
    info = vn_eigenvalues(b)
    if not info.physical:
        raise ValueError(f"non-physical state: eigenvalues {info.values}")
    return measurement_entropy(info.values)


def energy_entropy(b: BlochVector, omega: float, j: float) -> float:
    """Shannon entropy of the four energy-basis populations.

    The zero-energy doublet is resolved into its two basis states (a complete
    measurement), so this is always >= the von Neumann entropy, with equality
    exactly for energy-diagonal states.
    """
    return measurement_entropy(energy_populations(b, omega, j))


def _outer_overlap(b: BlochVector, b_ref: BlochVector) -> float:
    """tr(A A_ref) = 2 r r_ref + (b1, b2, b3) . (b1, b2, b3)_ref of the outer
    2x2 blocks, with r = 1/4 + b5/2 (half the block trace)."""
    r = 0.25 + b.b5 / 2.0
    r_ref = 0.25 + b_ref.b5 / 2.0
    return 2.0 * r * r_ref + b.b1 * b_ref.b1 + b.b2 * b_ref.b2 + b.b3 * b_ref.b3


def conditional_entropy(b: BlochVector, b_ref: BlochVector) -> float:
    """Relative entropy tr{rho (log rho - log rho_ref)}.

    Nonnegative (up to ~1e-13 rounding), zero only for equal states, and
    non-increasing under every branch or cycle map.  Returns +inf when rho
    has weight outside the support of rho_ref.

    rho_ref is diagonal in the inner doublet and in the eigenbasis of its
    outer block, so tr(rho log rho_ref) = sum_i w_i log lam_i(ref) with w_i
    the weight of rho on each reference eigenvector: lam2 and lam3 on the
    inner doublet, and on the outer pair the split of tr A fixed by
    tr(A A_ref) = w1 lam1(ref) + w4 lam4(ref).
    """
    lam = vn_eigenvalues(b)
    lam_ref = vn_eigenvalues(b_ref)
    trace_outer = lam.lam1 + lam.lam4
    gap_ref = lam_ref.lam4 - lam_ref.lam1
    if gap_ref > 0.0:
        w1 = (lam_ref.lam4 * trace_outer - _outer_overlap(b, b_ref)) / gap_ref
    else:
        w1 = trace_outer / 2.0
    weights = (w1, lam.lam2, lam.lam3, trace_outer - w1)
    out = 0.0
    for p, w, q in zip(lam.values, weights, lam_ref.values):
        if q < _SUPPORT_TOL and w > 1e-12:
            return math.inf
        if p > 0.0:
            out += p * math.log(p)
        out -= w * math.log(max(q, LOG_EIGENVALUE_FLOOR))
    return out


def energy_conditional_entropy(
    b: BlochVector, b_ref: BlochVector, omega: float, j: float
) -> float:
    """Relative entropy sum p log(p/q) of the energy-basis populations.

    Nonnegative, zero only for identical populations; +inf when some q_j
    vanishes where p_j does not.
    """
    out = 0.0
    for pj, qj in zip(energy_populations(b, omega, j), energy_populations(b_ref, omega, j)):
        if pj <= 0.0:
            continue
        if qj < _SUPPORT_TOL and pj > 1e-12:
            return math.inf
        out += pj * math.log(pj / max(qj, LOG_EIGENVALUE_FLOOR))
    return out


def wootters_energy_distance(
    b: BlochVector, b_ref: BlochVector, omega: float, j: float
) -> float:
    """Statistical angle arccos(sum sqrt(p_j q_j)) over energy populations.

    A metric on the probability simplex, in [0, pi/2]; overlaps within
    rounding noise of 1 report as exactly zero.
    """
    overlap = sum(
        math.sqrt(max(pj, 0.0) * max(qj, 0.0))
        for pj, qj in zip(energy_populations(b, omega, j), energy_populations(b_ref, omega, j))
    )
    if overlap >= 1.0 - _OVERLAP_NOISE:
        return 0.0
    return math.acos(max(overlap, -1.0))


def quantum_distance(b: BlochVector, b_ref: BlochVector) -> float:
    """Metric distance sqrt(2 (1 - tr sqrt(sqrt(rho) rho_ref sqrt(rho)))).

    Both states are an outer 2x2 block plus the inner doublet, so the trace
    splits blockwise; for 2x2 blocks tr sqrt(sqrt(A) B sqrt(A)) =
    sqrt(tr AB + 2 sqrt(det A det B)), with det A = lam1 lam4.  Symmetric in
    its arguments; trace overlaps within rounding noise of 1 report as zero.
    """
    lam = vn_eigenvalues(b)
    lam_ref = vn_eigenvalues(b_ref)
    dets = max(lam.lam1 * lam.lam4 * lam_ref.lam1 * lam_ref.lam4, 0.0)
    fidelity = (
        math.sqrt(max(_outer_overlap(b, b_ref) + 2.0 * math.sqrt(dets), 0.0))
        + math.sqrt(max(lam.lam2 * lam_ref.lam2, 0.0))
        + math.sqrt(max(lam.lam3 * lam_ref.lam3, 0.0))
    )
    deficit = 2.0 * (1.0 - fidelity)
    if deficit < _OVERLAP_NOISE:
        return 0.0
    return math.sqrt(deficit)
