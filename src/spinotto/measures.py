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
A table row needs several of these measures of one state, so two private
kernels give them in one pass, with the float operations of the public
functions and so the same bits: :func:`_measures_to` (the three measures
of an ``iterate`` row, bound once per table to a :class:`Reference` and a
field) and :func:`_state_entropies` (s_vn, s_e and the energy of a
``trajectory`` row or a ledger corner).  The public functions stay as
their reference in the tests.
"""

from __future__ import annotations

import math

from .algebra import (
    FIELD_RANGE,
    LOG_EIGENVALUE_FLOOR,
    PHYSICALITY_TOL,
    SQRT2,
    BlochVector,
    _energy_frame,
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


def _measures_to(ref: Reference, omega: float, j: float):
    """The row measures of a state against ref as one function of the state,
    b -> (quantum_distance, wootters_energy_distance, conditional_entropy),
    the Wootters distance at the field (omega, j).  It does the float
    operations of ``ref.quantum_distance``, ``wootters_distance_to(ref.b,
    omega, j)`` and ``ref.conditional_entropy`` in one pass: the eigenvalues
    and the outer overlap tr(A A_ref) once, and lam2, lam3 as the inner
    energy populations.  Like the :class:`Reference` methods it does not
    check the state; ValueError at omega = J = 0."""
    q1, q2, q3, q4 = (max(q, 0.0) for q in energy_populations(ref.b, omega, j))
    omega, j, e_scale = _energy_frame(omega, j)
    rb1, rb2, rb3 = ref.b.b1, ref.b.b2, ref.b.b3
    r = ref.r
    ref1, ref2, ref3, ref4 = ref.lam
    log1, log2, log3, log4 = ref.log_lam
    gap_ref = ref4 - ref1
    out1, out2, out3, out4 = (q < _SUPPORT_TOL for q in ref.lam)
    sqrt, log, acos, inf = math.sqrt, math.log, math.acos, math.inf

    def measures(b: BlochVector) -> tuple:
        b1, b2, b3, b4, b5 = b
        try:  # BlochVector.d: inf when a square overflows
            d_scaled = sqrt(b1**2 + b2**2 + b3**2) / SQRT2
        except OverflowError:
            d_scaled = inf
        b4_scaled = b4 / SQRT2
        half_b5 = b5 / 2.0
        lam1 = 0.25 - d_scaled + half_b5
        lam2 = 0.25 + b4_scaled - half_b5
        lam3 = 0.25 - b4_scaled - half_b5
        lam4 = 0.25 + d_scaled + half_b5
        overlap = 2.0 * (0.25 + half_b5) * r + b1 * rb1 + b2 * rb2 + b3 * rb3

        # (0.0 if x < 0.0 else x) is max(x, 0.0), NaN and -0.0 included,
        # without the call
        dets = lam1 * lam4 * ref1 * ref4
        outer = overlap + 2.0 * sqrt(0.0 if dets < 0.0 else dets)
        inner2, inner3 = lam2 * ref2, lam3 * ref3
        fidelity = (
            sqrt(0.0 if outer < 0.0 else outer)
            + sqrt(0.0 if inner2 < 0.0 else inner2)
            + sqrt(0.0 if inner3 < 0.0 else inner3)
        )
        deficit = 2.0 * (1.0 - fidelity)
        distance = 0.0 if deficit < _OVERLAP_NOISE else sqrt(deficit)

        e_scaled = (omega * b1 + j * b2) / e_scale
        p1 = 0.25 - e_scaled + half_b5
        p4 = 0.25 + e_scaled + half_b5
        bhattacharyya = (
            sqrt((0.0 if p1 < 0.0 else p1) * q1)
            + sqrt((0.0 if lam2 < 0.0 else lam2) * q2)
            + sqrt((0.0 if lam3 < 0.0 else lam3) * q3)
            + sqrt((0.0 if p4 < 0.0 else p4) * q4)
        )
        angle = (0.0 if bhattacharyya >= 1.0 - _OVERLAP_NOISE
                 else acos(max(bhattacharyya, -1.0)))

        trace_outer = lam1 + lam4
        w1 = (ref4 * trace_outer - overlap) / gap_ref if gap_ref > 0.0 else trace_outer / 2.0
        w4 = trace_outer - w1
        if ((out1 and w1 > _SUPPORT_WEIGHT) or (out2 and lam2 > _SUPPORT_WEIGHT)
                or (out3 and lam3 > _SUPPORT_WEIGHT) or (out4 and w4 > _SUPPORT_WEIGHT)):
            return distance, angle, inf
        # the loop of Reference.conditional_entropy, unrolled: a skipped
        # 0 log 0 term enters as 0.0, which leaves the sum unchanged
        entropy = (
            0.0 + (lam1 * log(lam1) if lam1 > 0.0 else 0.0) - w1 * log1
            + (lam2 * log(lam2) if lam2 > 0.0 else 0.0) - lam2 * log2
            + (lam3 * log(lam3) if lam3 > 0.0 else 0.0) - lam3 * log3
            + (lam4 * log(lam4) if lam4 > 0.0 else 0.0) - w4 * log4
        )
        return distance, angle, entropy

    return measures


def _state_entropies(b: BlochVector, omega: float, j: float) -> tuple:
    """(vn_entropy(b), energy_entropy(b, omega, j), omega*b1 + J*b2) in one
    pass, with their float operations.  The inner energy populations are
    the eigenvalues lam2 and lam3, so their p log p terms are computed once,
    and the energy is the numerator of the outer populations.  At
    omega = J = 0, s_e is the limit energy_entropy(b, 1.0, 0.0).  Where a
    check of :func:`vn_entropy` or :func:`_entropy4` fails, or the field is
    below FIELD_RANGE, the public functions give the result or raise their
    ValueError, vn_entropy first."""
    b1, b2, b3, b4, b5 = b
    energy = omega * b1 + j * b2
    big_omega = math.hypot(omega, j)
    if big_omega >= FIELD_RANGE[0]:
        try:  # BlochVector.d: inf when a square overflows
            d_scaled = math.sqrt(b1**2 + b2**2 + b3**2) / SQRT2
        except OverflowError:
            d_scaled = math.inf
        b4_scaled = b4 / SQRT2
        half_b5 = b5 / 2.0
        lam1 = 0.25 - d_scaled + half_b5
        lam2 = 0.25 + b4_scaled - half_b5
        lam3 = 0.25 - b4_scaled - half_b5
        lam4 = 0.25 + d_scaled + half_b5
        e_scaled = energy / (SQRT2 * big_omega)
        p1 = 0.25 - e_scaled + half_b5
        p4 = 0.25 + e_scaled + half_b5
        tol = PHYSICALITY_TOL
        # -1e-10 <= x <= 1e-10 is abs(x) <= 1e-10, NaN failing both
        if (lam1 >= tol and lam2 >= tol and lam3 >= tol and lam4 >= tol
                and p1 >= tol and p4 >= tol
                and -1e-10 <= lam1 + lam2 + lam3 + lam4 - 1.0 <= 1e-10
                and -1e-10 <= p1 + lam2 + lam3 + p4 - 1.0 <= 1e-10):
            log = math.log
            term2 = lam2 * log(lam2) if lam2 > 0.0 else 0.0
            term3 = lam3 * log(lam3) if lam3 > 0.0 else 0.0
            s_vn = -((lam1 * log(lam1) if lam1 > 0.0 else 0.0) + term2 + term3
                     + (lam4 * log(lam4) if lam4 > 0.0 else 0.0))
            s_e = -((p1 * log(p1) if p1 > 0.0 else 0.0) + term2 + term3
                    + (p4 * log(p4) if p4 > 0.0 else 0.0))
            return s_vn, s_e, energy
    if not (omega or j):
        omega, j = 1.0, 0.0
    return vn_entropy(b), energy_entropy(b, omega, j), energy


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
