"""Entropy and distance functionals of working-medium states.

All entropies use the natural logarithm with the 0*log(0) = 0 convention.
:func:`vn_entropy` and :func:`energy_entropy` run one kernel over their four
probabilities.  Sums run left to right, never through sum(), which
compensates rounding from Python 3.12 on; so every result is the same on
every supported Python.
Every state is an outer 2x2 block A plus the inner doublet (lam2, lam3), so
the relative entropy and the quantum distance reduce to closed forms in the
b-vector variables and the eigenvalues of :func:`eigenvalue_tuple`; no 4x4
matrix is built.  The tests check both against density-matrix oracles.
Both live on :class:`Reference`, which binds the reference state once.
:func:`wootters_distance_to` binds a reference's energy populations the
same way for the Wootters distance.
"""

from __future__ import annotations

import math

from .algebra import (
    LOG_EIGENVALUE_FLOOR,
    PHYSICALITY_TOL,
    BlochVector,
    eigenvalue_tuple,
    energy_populations,
    is_physical,
)

# Bhattacharyya overlaps / trace overlaps this close to 1 are numerically
# indistinguishable from equal states; the distances report exactly zero
# there instead of sqrt-amplified rounding noise (resolution ~1e-6).
_OVERLAP_NOISE = 1e-12

# A state with more than _SUPPORT_WEIGHT on a reference eigenvalue below
# _SUPPORT_TOL lies outside the reference's support.  The closed-form
# eigenvalues sum terms up to 1/2, so their rounding is a few 1e-16: a cold
# limit cycle's Boltzmann factor of 1e-14 is resolved, and one below
# _SUPPORT_TOL may still be positive.  A bath stroke fills such a level from
# the mid-energy inner doublet with at most about its square root (3e-8), so
# a smaller weight is charged at the logarithm floor rather than as inf.
_SUPPORT_TOL = 1e-15
_SUPPORT_WEIGHT = 1e-6


def _entropy4(p: tuple) -> float:
    """Shannon entropy -sum p log p of four probabilities, summed left to
    right.  ValueError for a probability below PHYSICALITY_TOL, or a sum
    that misses 1 by more than 1e-10 or is NaN, checked in that order.  The
    tests compare it with a general-n reference, ``measurement_entropy``."""
    if min(p) < PHYSICALITY_TOL:
        raise ValueError(f"negative probability in {p}")
    p1, p2, p3, p4 = p
    total = p1 + p2 + p3 + p4
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"probabilities sum to {total}, not 1")
    log = math.log
    # a skipped 0 log 0 term enters as 0.0, which leaves the sum unchanged
    return -(
        (p1 * log(p1) if p1 > 0.0 else 0.0)
        + (p2 * log(p2) if p2 > 0.0 else 0.0)
        + (p3 * log(p3) if p3 > 0.0 else 0.0)
        + (p4 * log(p4) if p4 > 0.0 else 0.0)
    )


def _physical_eigenvalues(b: BlochVector) -> tuple:
    """:func:`eigenvalue_tuple` of b; ValueError, as from :func:`vn_entropy`,
    for a non-physical state, or one with a NaN eigenvalue."""
    lam = eigenvalue_tuple(b)
    if not is_physical(lam):
        raise ValueError(f"non-physical state: eigenvalues {lam}")
    return lam


def vn_entropy(b: BlochVector) -> float:
    """Von Neumann entropy, the minimum over all complete measurements."""
    lam = eigenvalue_tuple(b)
    if not min(lam) >= PHYSICALITY_TOL:
        raise ValueError(f"non-physical state: eigenvalues {lam}")
    return _entropy4(lam)


def energy_entropy(b: BlochVector, omega: float, j: float) -> float:
    """Shannon entropy of the four energy-basis populations.

    The zero-energy doublet is resolved into its two basis states (a complete
    measurement), so this is always >= the von Neumann entropy, with equality
    exactly for energy-diagonal states.  Undefined at omega = J = 0
    (ValueError); at J = 0 both signs of omega give the same value, so
    energy_entropy(b, 1.0, 0.0) is its limit there.
    """
    return _entropy4(energy_populations(b, omega, j))


def wootters_energy_distance(
    b: BlochVector, b_ref: BlochVector, omega: float, j: float
) -> float:
    """Statistical angle arccos(sum sqrt(p_j q_j)) over energy populations.

    A metric on the probability simplex, in [0, pi/2]; overlaps within
    rounding noise of 1 report as exactly zero.
    """
    return wootters_distance_to(b_ref, omega, j)(b)


def wootters_distance_to(b_ref: BlochVector, omega: float, j: float):
    """:func:`wootters_energy_distance` to b_ref at the field (omega, j), as a
    function of the state alone: the reference's energy populations, clipped
    at 0, are computed once for many states."""
    q1, q2, q3, q4 = (max(q, 0.0) for q in energy_populations(b_ref, omega, j))
    sqrt = math.sqrt

    def distance(b: BlochVector) -> float:
        p1, p2, p3, p4 = energy_populations(b, omega, j)
        overlap = (
            sqrt(max(p1, 0.0) * q1)
            + sqrt(max(p2, 0.0) * q2)
            + sqrt(max(p3, 0.0) * q3)
            + sqrt(max(p4, 0.0) * q4)
        )
        if overlap >= 1.0 - _OVERLAP_NOISE:
            return 0.0
        return math.acos(max(overlap, -1.0))

    return distance


class Reference:
    """A reference state with its eigenvalues, their floored logarithms and
    its outer half-trace 1/4 + b5/2, computed once for many states.
    ValueError for a non-physical reference, as from :func:`vn_entropy`.  The
    methods take a state with its own :func:`eigenvalue_tuple` and do not
    check it."""

    __slots__ = ("b", "lam", "log_lam", "r")

    def __init__(self, b_ref: BlochVector):
        self.b = b_ref
        self.lam = _physical_eigenvalues(b_ref)
        self.log_lam = tuple(math.log(max(q, LOG_EIGENVALUE_FLOOR)) for q in self.lam)
        self.r = 0.25 + b_ref.b5 / 2.0

    def _outer_overlap(self, b: BlochVector) -> float:
        """tr(A A_ref) = 2 r r_ref + (b1, b2, b3) . (b1, b2, b3)_ref of the outer
        2x2 blocks, with r = 1/4 + b5/2 (half the block trace)."""
        ref = self.b
        return 2.0 * (0.25 + b.b5 / 2.0) * self.r + b.b1 * ref.b1 + b.b2 * ref.b2 + b.b3 * ref.b3

    def quantum_distance(self, b: BlochVector, lam: tuple) -> float:
        """:func:`quantum_distance` of b, whose eigenvalue tuple is lam."""
        lam1, lam2, lam3, lam4 = lam
        ref1, ref2, ref3, ref4 = self.lam
        dets = max(lam1 * lam4 * ref1 * ref4, 0.0)
        fidelity = (
            math.sqrt(max(self._outer_overlap(b) + 2.0 * math.sqrt(dets), 0.0))
            + math.sqrt(max(lam2 * ref2, 0.0))
            + math.sqrt(max(lam3 * ref3, 0.0))
        )
        deficit = 2.0 * (1.0 - fidelity)
        if deficit < _OVERLAP_NOISE:
            return 0.0
        return math.sqrt(deficit)

    def conditional_entropy(self, b: BlochVector, lam: tuple) -> float:
        """:func:`conditional_entropy` of b, whose eigenvalue tuple is lam."""
        lam1, lam2, lam3, lam4 = lam
        ref1, _, _, ref4 = self.lam
        trace_outer = lam1 + lam4
        gap_ref = ref4 - ref1
        if gap_ref > 0.0:
            w1 = (ref4 * trace_outer - self._outer_overlap(b)) / gap_ref
        else:
            w1 = trace_outer / 2.0
        weights = (w1, lam2, lam3, trace_outer - w1)
        out = 0.0
        for p, w, q, log_q in zip(lam, weights, self.lam, self.log_lam):
            if q < _SUPPORT_TOL and w > _SUPPORT_WEIGHT:
                return math.inf
            if p > 0.0:
                out += p * math.log(p)
            out -= w * log_q
        return out


def conditional_entropy(b: BlochVector, b_ref: BlochVector) -> float:
    """Relative entropy tr{rho (log rho - log rho_ref)}.

    Nonnegative (up to ~1e-13 rounding), zero only for equal states, and
    non-increasing under every branch or cycle map.  Returns +inf when rho
    has more than 1e-6 weight on a reference eigenvalue below 1e-15 (zero
    within rounding); a smaller weight w there adds -w log max(lam, 1e-300),
    at most 7e-4.

    rho_ref is diagonal in the inner doublet and in the eigenbasis of its
    outer block, so tr(rho log rho_ref) = sum_i w_i log lam_i(ref) with w_i
    the weight of rho on each reference eigenvector: lam2 and lam3 on the
    inner doublet, and on the outer pair the split of tr A fixed by
    tr(A A_ref) = w1 lam1(ref) + w4 lam4(ref).  ValueError for a
    non-physical state, as from :func:`vn_entropy`.
    """
    return Reference(b_ref).conditional_entropy(b, _physical_eigenvalues(b))


def quantum_distance(b: BlochVector, b_ref: BlochVector) -> float:
    """Metric distance sqrt(2 (1 - tr sqrt(sqrt(rho) rho_ref sqrt(rho)))).

    Both states are an outer 2x2 block plus the inner doublet, so the trace
    splits blockwise; for 2x2 blocks tr sqrt(sqrt(A) B sqrt(A)) =
    sqrt(tr AB + 2 sqrt(det A det B)), with det A = lam1 lam4.  Symmetric in
    its arguments; trace overlaps within rounding noise of 1 report as zero.
    ValueError for a non-physical state, as from :func:`vn_entropy`.
    """
    return Reference(b_ref).quantum_distance(b, _physical_eigenvalues(b))
