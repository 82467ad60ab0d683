"""Operator-basis bookkeeping for the coupled two-spin working medium.

The 4x4 state of the medium is fully parameterized by five real expectation
values (b1..b5) of an orthonormal, traceless operator set.  This module
evaluates the spectrum of that state and its populations in the energy
eigenbasis of H = omega*B1 + J*B2 in closed form, and builds thermal states.
The 4x4 matrix itself, which defines the operator basis, is built only by
the test oracle ``reconstruct_density`` (``tests/conftest.py``).  Everything
is plain floats and tuples (:class:`BlochVector` is a named tuple, see
:mod:`spinotto.records`).

Units: hbar = k_B = 1 throughout; everything is dimensionless.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .records import Record

SQRT2 = math.sqrt(2.0)

# Eigenvalues are clamped at this floor before taking logarithms, so entropy
# expressions stay finite (never NaN) for numerically pure states.
LOG_EIGENVALUE_FLOOR = 1e-300

# Field magnitudes Omega = hypot(omega, J) accepted on a constant-field
# stroke; the closed forms square Omega, which overflows or underflows
# outside this range.
FIELD_RANGE = (1e-150, 1e150)

# A reconstructed eigenvalue (or a measurement probability) below this marks
# the state as non-physical.
PHYSICALITY_TOL = -1e-12


class BlochVector(Record, namedtuple("BlochVector", "b1 b2 b3 b4 b5")):
    """Expectation values b1..b5 that completely determine the 4x4 state.

    Any real values are accepted at construction; the state is physical
    (positive semidefinite) when ``is_physical(eigenvalue_tuple(b))``.  As a
    tuple it is (b1, b2, b3, b4, b5): ``tuple(b)`` and ``numpy.array(b)``
    give the values, ``BlochVector(*values)`` builds one from them.
    """

    __slots__ = ()

    @property
    def d(self) -> float:
        """Norm of the (b1, b2, b3) block; inf when a square overflows (a
        component beyond about 1.3e154)."""
        # ** (libm pow), not x * x: they differ in the last bit for about
        # 0.08% of x in [-1, 1], which would move printed entropy digits
        try:
            return math.sqrt(self.b1**2 + self.b2**2 + self.b3**2)
        except OverflowError:
            return math.inf


def is_physical(lam) -> bool:
    """Whether every eigenvalue in lam is at least PHYSICALITY_TOL; False
    for a NaN anywhere (min() skips a NaN that is not first)."""
    return all(x >= PHYSICALITY_TOL for x in lam)


def eigenvalue_tuple(b: BlochVector) -> tuple:
    """Closed-form eigenvalues (lam1, lam2, lam3, lam4) of the state b.

    The labels follow the fixed convention lam4 >= lam1 (the outer pair
    1/4 + b5/2 -+ d/sqrt2, with d = ``b.d`` >= 0); lam2 and lam3 are the
    populations of the inner doublet.  They sum to one algebraically.
    """
    d_scaled = b.d / SQRT2
    b4_scaled = b.b4 / SQRT2
    half_b5 = b.b5 / 2.0
    return (
        0.25 - d_scaled + half_b5,
        0.25 + b4_scaled - half_b5,
        0.25 - b4_scaled - half_b5,
        0.25 + d_scaled + half_b5,
    )


def _energy_frame(omega: float, j: float) -> tuple:
    """(omega, j, sqrt2 * Omega) for :func:`energy_populations`, which
    divides omega*b1 + J*b2 by sqrt2 * Omega: the field as given, or scaled
    by 2**600 when Omega is below FIELD_RANGE and by 2**-600 above it;
    ValueError for an infinite or NaN omega or J, and at omega = J = 0."""
    if not (math.isfinite(omega) and math.isfinite(j)):  # hypot overflows on finite ones too
        raise ValueError(f"energy basis undefined for a field that is not finite: {omega, j}")
    big_omega = math.hypot(omega, j)
    if big_omega == 0.0:
        raise ValueError("energy basis undefined for omega = J = 0")
    # only the field's direction counts: scale it by a power of two (exact),
    # up so that omega * b1 and j * b2 keep their bits (a subnormal field
    # lost enough of them to make a pure state's population -4e-12), down so
    # that sqrt2 * Omega stays finite (an inf gave the populations of b1 = b2 = 0)
    if big_omega < FIELD_RANGE[0]:
        omega, j = omega * 2.0**600, j * 2.0**600
        big_omega = math.hypot(omega, j)
    elif big_omega > FIELD_RANGE[1]:
        omega, j = omega * 2.0**-600, j * 2.0**-600
        big_omega = math.hypot(omega, j)
    return omega, j, SQRT2 * big_omega


def energy_populations(b: BlochVector, omega: float, j: float) -> tuple:
    """Diagonal of the energy-basis state, in closed form.

    The populations are ordered by increasing energy of the outer doublet:
    (-Omega/sqrt(2), 0, 0, +Omega/sqrt(2)) with E = omega*b1 + J*b2 entering
    the outer entries.  ValueError at omega = J = 0 and for an infinite or
    NaN omega or J."""
    omega, j, scale = _energy_frame(omega, j)
    e_scaled = (omega * b.b1 + j * b.b2) / scale
    half_b5 = b.b5 / 2.0
    return (
        0.25 - e_scaled + half_b5,
        0.25 + b.b4 / SQRT2 - half_b5,
        0.25 - b.b4 / SQRT2 - half_b5,
        0.25 + e_scaled + half_b5,
    )


def field_magnitude(omega: float, j: float) -> float:
    """Omega = hypot(omega, j); ValueError unless it lies in FIELD_RANGE."""
    big_omega = math.hypot(omega, j)
    lo, hi = FIELD_RANGE
    if not lo <= big_omega <= hi:
        raise ValueError(
            f"field magnitude hypot(omega, j) = {big_omega:.4g} is outside "
            f"FIELD_RANGE = [{lo:g}, {hi:g}]"
        )
    return big_omega


def thermal_state(omega: float, j: float, temperature: float) -> BlochVector:
    """Gibbs state of H = omega*B1 + J*B2 at the given temperature.

    It is the unique fixed point of every bath-coupled constant-field branch
    with matching (omega, J, T).  The (b1, b2) block points along the field
    axis (omega, J)/Omega, b3 = b4 = 0.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    big_omega = field_magnitude(omega, j)
    # t = tanh(Omega / (2 sqrt(2) T)) parameterizes all Gibbs quantities in
    # an overflow-free way.
    t = math.tanh(big_omega / (2.0 * SQRT2 * temperature))
    e_eq = -(big_omega / SQRT2) * t
    return BlochVector(
        b1=omega * e_eq / big_omega**2,
        b2=j * e_eq / big_omega**2,
        b3=0.0,
        b4=0.0,
        b5=t * t / 2.0,
    )
