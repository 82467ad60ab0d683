"""Entropy and distance functionals of working-medium states.

All entropies use the natural logarithm with the 0*log(0) = 0 convention.
Sums run left to right, never through sum(), which compensates rounding
from Python 3.12 on; so every result is the same on every supported Python.
Every state is an outer 2x2 block A plus the inner doublet (lam2, lam3), so
the relative entropy and the quantum distance reduce to closed forms in the
b-vector variables and the eigenvalues of :func:`eigenvalue_tuple`; no 4x4
matrix is built.  The tests check both against density-matrix oracles.
The three measures against a reference state, :func:`quantum_distance`,
:func:`wootters_energy_distance` and :func:`conditional_entropy`, have one
implementation, :func:`_measures_to`: bound to the reference and a field,
it gives the columns of all three over the columns of states in one loop.
An ``iterate`` table binds it once for the columns of ``engine.iterate``;
each public function binds it per call for one state's and takes its own
element.
The two state entropies, :func:`vn_entropy` and :func:`energy_entropy`,
have one implementation too, :func:`_state_entropies`: over the columns
of states, each at its own field, it gives the columns of both and of the
energy, forming the energy frame only where the field changes, and on a
sweep's states (unitary) the spectrum once.  A ``trajectory`` table calls
it once per stroke of ``engine.trajectory``, the ledger once for its four
corners; each public function checks its argument and takes the element
of a one-state call.
Neither row kernel checks a state: the engine's states come from a start
or fixed point checked where it entered.
"""

from __future__ import annotations

import math

from .algebra import (
    FIELD_RANGE,
    LOG_EIGENVALUE_FLOOR,
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


def _physical_eigenvalues(b: BlochVector) -> tuple:
    """:func:`eigenvalue_tuple` of b; ValueError, as from :func:`vn_entropy`,
    for a non-physical state, or one with a NaN eigenvalue."""
    lam = eigenvalue_tuple(b)
    if not is_physical(lam):
        raise ValueError(f"non-physical state: eigenvalues {lam}")
    return lam


def vn_entropy(b: BlochVector) -> float:
    """Von Neumann entropy, the minimum over all complete measurements.
    ValueError for a non-physical state, or one with a NaN eigenvalue."""
    _physical_eigenvalues(b)
    return _state_entropies(tuple(zip(b)), (1.0,), 0.0)[0][0]


def energy_entropy(b: BlochVector, omega: float, j: float) -> float:
    """Shannon entropy of the four energy-basis populations.

    The zero-energy doublet is resolved into its two basis states (a complete
    measurement), so this is always >= the von Neumann entropy, with equality
    exactly for energy-diagonal states.  Undefined at omega = J = 0 and in
    an infinite or NaN field (ValueError); at J = 0 both signs of omega give
    the same value, so energy_entropy(b, 1.0, 0.0) is its limit there.
    ValueError for a non-physical state, as from :func:`vn_entropy`, then
    for an energy population below PHYSICALITY_TOL.
    """
    _energy_frame(omega, j)  # ValueError at omega = J = 0 or a non-finite field
    _physical_eigenvalues(b)
    p = energy_populations(b, omega, j)
    if not is_physical(p):
        raise ValueError(f"non-physical state: energy populations {p}")
    return _state_entropies(tuple(zip(b)), (omega,), j)[1][0]


def wootters_energy_distance(
    b: BlochVector, b_ref: BlochVector, omega: float, j: float
) -> float:
    """Statistical angle arccos(sum sqrt(p_j q_j)) over energy populations.

    A metric on the probability simplex, in [0, pi/2]; overlaps within
    rounding noise of 1 report as exactly zero.  ValueError for a
    non-physical state, as from :func:`vn_entropy`, at omega = J = 0 and in
    an infinite or NaN field.
    """
    return _checked_measures(b, b_ref, omega, j)[1]


def _measures_to(b_ref: BlochVector, omega: float, j: float):
    """The reference measures against b_ref as one function of the columns
    (b1, b2, b3, b4, b5) of states, giving the columns (quantum_distance,
    wootters_energy_distance, conditional_entropy), the Wootters distance at
    the field (omega, j).  Binding takes what depends on b_ref alone once:
    its eigenvalues (ValueError for a non-physical b_ref, as from
    :func:`vn_entropy`), their floored logarithms, its outer half-trace r =
    1/4 + b5/2 and its energy populations clipped at 0, which raise as
    :func:`energy_populations` does.  For each state the function takes the
    eigenvalues and the outer overlap tr(A A_ref) once, and lam2, lam3 as the
    inner energy populations.  It does not check a state."""
    lam_ref = _physical_eigenvalues(b_ref)
    ref1, ref2, ref3, ref4 = lam_ref
    log1, log2, log3, log4 = (math.log(max(q, LOG_EIGENVALUE_FLOOR)) for q in lam_ref)
    r = 0.25 + b_ref.b5 / 2.0
    q1, q2, q3, q4 = (max(q, 0.0) for q in energy_populations(b_ref, omega, j))
    omega, j, e_scale = _energy_frame(omega, j)
    rb1, rb2, rb3 = b_ref.b1, b_ref.b2, b_ref.b3
    gap_ref = ref4 - ref1
    out1, out2, out3, out4 = (q < _SUPPORT_TOL for q in lam_ref)
    sqrt, log, acos, inf = math.sqrt, math.log, math.acos, math.inf

    def measures(columns) -> tuple:
        distances, angles, entropies = [], [], []
        for b1, b2, b3, b4, b5 in zip(*columns):
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
            # tr(A A_ref) = 2 r r_ref + (b1, b2, b3) . (b1, b2, b3)_ref
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
            distances.append(0.0 if deficit < _OVERLAP_NOISE else sqrt(deficit))

            e_scaled = (omega * b1 + j * b2) / e_scale
            p1 = 0.25 - e_scaled + half_b5
            p4 = 0.25 + e_scaled + half_b5
            bhattacharyya = (
                sqrt((0.0 if p1 < 0.0 else p1) * q1)
                + sqrt((0.0 if lam2 < 0.0 else lam2) * q2)
                + sqrt((0.0 if lam3 < 0.0 else lam3) * q3)
                + sqrt((0.0 if p4 < 0.0 else p4) * q4)
            )
            angles.append(0.0 if bhattacharyya >= 1.0 - _OVERLAP_NOISE
                          else acos(max(bhattacharyya, -1.0)))

            trace_outer = lam1 + lam4
            w1 = (ref4 * trace_outer - overlap) / gap_ref if gap_ref > 0.0 else trace_outer / 2.0
            w4 = trace_outer - w1
            if ((out1 and w1 > _SUPPORT_WEIGHT) or (out2 and lam2 > _SUPPORT_WEIGHT)
                    or (out3 and lam3 > _SUPPORT_WEIGHT) or (out4 and w4 > _SUPPORT_WEIGHT)):
                entropies.append(inf)
                continue
            # a skipped 0 log 0 term enters as 0.0, which leaves the sum unchanged
            entropies.append(
                0.0 + (lam1 * log(lam1) if lam1 > 0.0 else 0.0) - w1 * log1
                + (lam2 * log(lam2) if lam2 > 0.0 else 0.0) - lam2 * log2
                + (lam3 * log(lam3) if lam3 > 0.0 else 0.0) - lam3 * log3
                + (lam4 * log(lam4) if lam4 > 0.0 else 0.0) - w4 * log4
            )
        return distances, angles, entropies

    return measures


def _checked_measures(b: BlochVector, b_ref: BlochVector, omega: float = 1.0,
                      j: float = 0.0) -> tuple:
    """:func:`_measures_to` (b_ref, omega, j) of b's one-state columns, b
    checked after b_ref (ValueError for a non-physical state, as from
    :func:`vn_entropy`), as one tuple.  The quantum distance and the relative
    entropy do not depend on the field, so they take any nonzero one, the
    default (1.0, 0.0)."""
    measures = _measures_to(b_ref, omega, j)
    _physical_eigenvalues(b)
    return tuple(column[0] for column in measures(tuple(zip(b))))


def _state_entropies(columns, fields, j: float) -> tuple:
    """The columns (s_vn, s_e, energy) of vn_entropy(b), energy_entropy(b,
    omega, j) and omega*b1 + J*b2 of the states b with the columns (b1, b2,
    b3, b4, b5), each at its field in ``fields``: the one implementation of
    both entropies.  Like the function :func:`_measures_to` returns, it
    does not check a state, and a p log p term with p <= 0 enters as 0, so
    it raises only in an infinite or NaN field; for a state the public
    functions accept, both distributions sum to 1 within a few ulp.  The
    inner energy populations are lam2 and lam3, so their p log p terms serve
    both entropies.  The energy frame is formed where the field changes: a
    field outside FIELD_RANGE is scaled as in :func:`energy_populations`,
    which refuses a non-finite one, and at omega = J = 0 s_e is the limit
    energy_entropy(b, 1.0, 0.0).  b4 and b5 given as two numbers are one
    sweep's constants (it rotates (b1, b2, b3)): the spectrum, its inner p
    log p terms and s_vn, one float, are the first state's, and each state
    adds its energy and two outer populations."""
    b1, b2, b3, b4, b5 = columns
    unitary = not isinstance(b4, (list, tuple))  # a sweep's two constants
    if unitary:
        b4, b5 = [b4] * len(b1), [b5] * len(b1)
    log = math.log
    field, s_vn, s_e, energies = None, [], [], []
    for x, y, z, u, v, omega in zip(b1, b2, b3, b4, b5, fields):
        half_b5 = v / 2.0
        if not (unitary and s_vn):
            try:  # BlochVector.d: inf when a square overflows
                d_scaled = math.sqrt(x**2 + y**2 + z**2) / SQRT2
            except OverflowError:
                d_scaled = math.inf
            b4_scaled = u / SQRT2
            lam1 = 0.25 - d_scaled + half_b5
            lam2 = 0.25 + b4_scaled - half_b5
            lam3 = 0.25 - b4_scaled - half_b5
            lam4 = 0.25 + d_scaled + half_b5
            # a skipped 0 log 0 term enters as 0.0, which leaves the sum unchanged
            term2 = lam2 * log(lam2) if lam2 > 0.0 else 0.0
            term3 = lam3 * log(lam3) if lam3 > 0.0 else 0.0
            s_vn.append(-((lam1 * log(lam1) if lam1 > 0.0 else 0.0) + term2 + term3
                          + (lam4 * log(lam4) if lam4 > 0.0 else 0.0)))
        if omega != field:  # the energy frame, once per field
            field = omega
            big_omega = math.hypot(omega, j)
            scaled = not FIELD_RANGE[0] <= big_omega <= FIELD_RANGE[1]
            if scaled:
                omega_f, j_f, scale = _energy_frame(omega, j) if big_omega else (1.0, 0.0, SQRT2)
            else:
                scale = SQRT2 * big_omega
        energy = omega * x + j * y
        e_scaled = (omega_f * x + j_f * y) / scale if scaled else energy / scale
        p1 = 0.25 - e_scaled + half_b5
        p4 = 0.25 + e_scaled + half_b5
        s_e.append(-((p1 * log(p1) if p1 > 0.0 else 0.0) + term2 + term3
                     + (p4 * log(p4) if p4 > 0.0 else 0.0)))
        energies.append(energy)
    return (s_vn[0] if unitary else s_vn), s_e, energies


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
    return _checked_measures(b, b_ref)[2]


def quantum_distance(b: BlochVector, b_ref: BlochVector) -> float:
    """Metric distance sqrt(2 (1 - tr sqrt(sqrt(rho) rho_ref sqrt(rho)))).

    Both states are an outer 2x2 block plus the inner doublet, so the trace
    splits blockwise; for 2x2 blocks tr sqrt(sqrt(A) B sqrt(A)) =
    sqrt(tr AB + 2 sqrt(det A det B)), with det A = lam1 lam4.  Symmetric in
    its arguments; trace overlaps within rounding noise of 1 report as zero.
    ValueError for a non-physical state, as from :func:`vn_entropy`.
    """
    return _checked_measures(b, b_ref)[0]
