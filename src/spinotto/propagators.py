"""Completely positive branch maps of the four-stroke cycle.

A branch propagator acts on the column (b1, b2, b3, 1) through a 4x4 affine
matrix whose bottom row is (0, 0, 0, 1), plus a closure rule for the (b4, b5)
pair.  Constant-field bath branches have a closed form, evaluated at many
times at once by :func:`_isochore_factors`.  The driven branches
(linear field sweep, no bath) are rotations whose generator is linear in the
field; they are integrated with a tenth-order Magnus product of unit
quaternions (Blanes, Casas & Ros, BIT 40, 434 (2000); Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)), one product per sweep, whose step count
comes from an estimate of the leading, degree-11 term of its error.  Maps are
plain floats and tuples; only the ``m`` accessor and the brute-force
midpoint-field oracle :func:`adiabat_propagator_direct` import numpy.  Maps
have the one type :class:`AffinePropagator`.  Each branch has one source of
per-time factors, the bath closed form's entries or the sweep's rotation
blocks (:func:`_sampled_blocks`), with two thin consumers: the samplers
:func:`isochore_partials` and :func:`adiabat_partials` build maps from them,
and :func:`_isochore_states` and :func:`_sweep_states` step one state
through them, bit for bit as the maps would, without forming a map
(:func:`_time_reversed_states` from a reversed sweep's end corner).
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple

from .algebra import SQRT2, BlochVector, field_magnitude
from .records import IdentityRecord, Record

# Error target of the sweep integrator: a sweep takes the fewest steps whose
# estimated truncation error (:func:`_leading_error`), times _ERROR_SAFETY,
# is at most SWEEP_TOLERANCE.
SWEEP_TOLERANCE = 1e-12
_ERROR_SAFETY = 1.25

# Longest step (rotation angle bound, rad) for which the estimate holds.
_MAX_STEP_ANGLE = 2.0

# Largest accepted sweep rotation angle sqrt(2) * max Omega * tau in radians;
# it bounds the integrator work: about 6,800 steps for a fast sweep at the
# limit, about 11,500 for a slow one.
MAX_SWEEP_ANGLE = 1e4


def _rotation_angle(omega_start: float, omega_end: float, j: float, tau: float) -> float:
    """Upper bound sqrt(2) * max Omega * tau of a sweep's total rotation angle."""
    return SQRT2 * math.hypot(max(abs(omega_start), abs(omega_end)), j) * tau


def _check_sweep(omega_start: float, omega_end: float, j: float, tau: float) -> None:
    """The bounds of a sweep (:class:`AdiabatParams`): tau >= 0, a rotation
    angle bound of at most MAX_SWEEP_ANGLE, and a finite span omega_end -
    omega_start, on which :meth:`AdiabatParams.omega_at` draws the ramp.  A
    NaN duration fails the first; a NaN or infinite field or coupling fails
    the second, or the third for a NaN end field, which ``max`` drops; ends
    of opposite sign near the largest float fail the third."""
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    angle = _rotation_angle(omega_start, omega_end, j, tau)
    if not angle <= MAX_SWEEP_ANGLE:
        raise ValueError(f"sweep rotation angle {angle:.4g} rad exceeds the "
                         f"limit MAX_SWEEP_ANGLE = {MAX_SWEEP_ANGLE:g} rad")
    span = omega_end - omega_start
    if not math.isfinite(span):
        raise ValueError(f"sweep field span omega_end - omega_start = {span} is not finite")


def _check_bath_stroke(omega: float, j: float, tau: float) -> None:
    """The bounds of a bath stroke (:class:`IsochoreParams`): tau >= 0, a
    field within FIELD_RANGE and a finite rotation phase, of which the
    closed form takes cos and sin."""
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    phase = SQRT2 * field_magnitude(omega, j) * tau
    if not math.isfinite(phase):
        raise ValueError(f"bath stroke rotation angle sqrt(2) * Omega * tau = {phase} "
                         "is not finite")


class BathParams(Record, namedtuple("BathParams", "conductance dephasing temperature")):
    """Bath coupling on a constant-field branch.

    ``conductance`` is the heat conductance Gamma = k_up + k_down,
    ``dephasing`` the dephasing constant (rate per squared frequency), and
    ``temperature`` the bath temperature.
    """

    __slots__ = ()

    def __new__(cls, conductance, dephasing, temperature):
        if not conductance >= 0.0:
            raise ValueError(f"conductance must be >= 0, got {conductance!r}")
        if not dephasing >= 0.0:
            raise ValueError(f"dephasing must be >= 0, got {dephasing!r}")
        if not temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {temperature!r}")
        return tuple.__new__(cls, (conductance, dephasing, temperature))


class IsochoreParams(Record, namedtuple("IsochoreParams", "omega j bath tau")):
    """Constant-field branch: field omega, coupling j, bath, duration tau."""

    __slots__ = ()

    def __new__(cls, omega, j, bath, tau):
        _check_bath_stroke(omega, j, tau)
        return tuple.__new__(cls, (omega, j, bath, tau))

    def omega_at(self, t: float) -> float:
        return self.omega


class AdiabatParams(Record, namedtuple("AdiabatParams", "omega_start omega_end j tau")):
    """Bath-free branch with the field swept linearly in time."""

    __slots__ = ()

    def __new__(cls, omega_start, omega_end, j, tau):
        _check_sweep(omega_start, omega_end, j, tau)
        return tuple.__new__(cls, (omega_start, omega_end, j, tau))

    @property
    def rotation_angle(self) -> float:
        """Upper bound sqrt(2) * max Omega * tau of the total rotation angle."""
        return _rotation_angle(*self)

    def omega_at(self, t: float) -> float:
        tau = self.tau
        if t >= tau:  # the end field exactly, a zero-length sweep's included
            return self.omega_end
        if tau < sys.float_info.min:  # scaled by a power of two (exact) to keep its bits
            t, tau = t * 2.0**600, tau * 2.0**600
        start = self.omega_start
        return start + (self.omega_end - start) * t / tau


_IDENTITY_BLOCK = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_ZERO3 = (0.0, 0.0, 0.0)


def _count(value, name: str) -> int:
    """value as an int, by operator.index (numpy integers included);
    ValueError naming the argument when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _float_field(value, name: str, depth: int = 0):
    """value as a float (depth 0), three floats (1) or three rows of three
    floats (2); ValueError naming the field for any other shape or entry."""
    try:
        if depth == 0:
            return float(value)
        x, y, z = value
        return tuple(_float_field(v, name, depth - 1) for v in (x, y, z))
    except (TypeError, ValueError):
        shape = ("a number", "three numbers", "three rows of three numbers")[depth]
        raise ValueError(f"{name} must be {shape}, got {value!r}") from None


class AffinePropagator(
    IdentityRecord,
    namedtuple("AffinePropagator", "block shift b4_scale b5_scale b5_drive b5_shift"),
):
    """One branch map: affine action on (b1, b2, b3) plus the (b4, b5) rule.

    ``block`` (three rows) and ``shift`` are the linear part and the
    inhomogeneous column of the action on (b1, b2, b3).  The closure rule is

        b4' = b4_scale * b4
        b5' = b5_scale * b5 + b5_drive . (b1, b2, b3) + b5_shift

    where the drive couples b5 to the initial closed-set components.  The map
    can also be built from ``m``, any 4x4 array-like acting on the column
    (b1, b2, b3, 1) whose bottom row is (0, 0, 0, 1); the ``m`` property
    returns that matrix as a numpy array.  Either way the constructor stores
    ``block`` as three rows of three floats, ``shift`` and ``b5_drive`` as
    three floats and the scalars as floats, and raises ValueError naming a
    field of any other shape.  Maps compose; immutable and safe to share.
    The map is the tuple of its fields in field order; the samplers and
    :func:`compose` build it with ``tuple.__new__``, since their fields are
    already float tuples and the constructor would check nothing more.
    """

    __slots__ = ()

    def __new__(cls, m=None, b4_scale=1.0, b5_scale=1.0, b5_drive=_ZERO3,
                b5_shift=0.0, *, block=None, shift=_ZERO3):
        if m is not None:
            rows = tuple(tuple(float(x) for x in row) for row in m)
            if len(rows) != 4 or any(len(row) != 4 for row in rows):
                raise ValueError("m must be 4x4")
            if rows[3] != (0.0, 0.0, 0.0, 1.0):
                raise ValueError("bottom row of m must be (0, 0, 0, 1)")
            block = tuple(row[:3] for row in rows[:3])
            shift = tuple(row[3] for row in rows[:3])
        elif block is None:
            raise TypeError("AffinePropagator needs m or block")
        return tuple.__new__(cls, (
            _float_field(block, "block", 2), _float_field(shift, "shift", 1),
            _float_field(b4_scale, "b4_scale"), _float_field(b5_scale, "b5_scale"),
            _float_field(b5_drive, "b5_drive", 1), _float_field(b5_shift, "b5_shift"),
        ))

    def __getnewargs_ex__(self):
        # copy and pickle rebuild by keyword: the first positional is m
        return (), self._asdict()

    @property
    def m(self):
        """The 4x4 matrix acting on (b1, b2, b3, 1), as a new numpy array
        (imports numpy)."""
        import numpy as np

        rows = [row + (v,) for row, v in zip(self.block, self.shift)]
        return np.array(rows + [(0.0, 0.0, 0.0, 1.0)])

    def apply(self, b: BlochVector) -> BlochVector:
        block, (v1, v2, v3), b4_scale, b5_scale, (d1, d2, d3), b5_shift = self
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = block
        x, y, z = b.b1, b.b2, b.b3
        # BlochVector accepts any values: its constructor would add only a call
        return tuple.__new__(BlochVector, (
            a11 * x + a12 * y + a13 * z + v1,
            a21 * x + a22 * y + a23 * z + v2,
            a31 * x + a32 * y + a33 * z + v3,
            b4_scale * b.b4,
            b5_scale * b.b5 + (d1 * x + d2 * y + d3 * z) + b5_shift,
        ))


def compose(*props: AffinePropagator) -> AffinePropagator:
    """Compose branch maps; the rightmost argument acts first.

    Each step maps `outer` after `acc`: block O A, shift O t + v, b4 scales
    multiplied, b5 scale s5 a5, b5 drive s5 e + A^T d and b5 shift
    s5 h + d . t + h_outer, where (v, s5, d, h_outer) are `outer`'s and
    (t, a5, e, h) `acc`'s shift, b5 scale, b5 drive and b5 shift.
    """
    if not props:
        return _sweep_map(_IDENTITY_BLOCK)
    new = tuple.__new__
    acc = props[-1]
    for outer in reversed(props[:-1]):
        (((a11, a12, a13), (a21, a22, a23), (a31, a32, a33)),
         (t1, t2, t3), a4, a5, (e1, e2, e3), h) = acc
        (((x1, y1, z1), (x2, y2, z2), (x3, y3, z3)),
         (v1, v2, v3), o4, s5, (d1, d2, d3), h_outer) = outer
        acc = new(AffinePropagator, (
            ((x1 * a11 + y1 * a21 + z1 * a31, x1 * a12 + y1 * a22 + z1 * a32,
              x1 * a13 + y1 * a23 + z1 * a33),
             (x2 * a11 + y2 * a21 + z2 * a31, x2 * a12 + y2 * a22 + z2 * a32,
              x2 * a13 + y2 * a23 + z2 * a33),
             (x3 * a11 + y3 * a21 + z3 * a31, x3 * a12 + y3 * a22 + z3 * a32,
              x3 * a13 + y3 * a23 + z3 * a33)),
            (x1 * t1 + y1 * t2 + z1 * t3 + v1, x2 * t1 + y2 * t2 + z2 * t3 + v2,
             x3 * t1 + y3 * t2 + z3 * t3 + v3),
            o4 * a4,
            s5 * a5,
            (s5 * e1 + (a11 * d1 + a21 * d2 + a31 * d3),
             s5 * e2 + (a12 * d1 + a22 * d2 + a32 * d3),
             s5 * e3 + (a13 * d1 + a23 * d2 + a33 * d3)),
            s5 * h + (d1 * t1 + d2 * t2 + d3 * t3) + h_outer,
        ))
    return acc


def _isochore_factors(p: IsochoreParams, times):
    """The closed form of a constant-field bath branch: for each t in times,
    the entries (a11, a12, a13, a22, a32, a33, g, g^2, v1, v2, d1, d2, h) of
    its map over the first t time units, whose block is

        ((a11, a12, a13), (a12, a22, -a32), (-a13, a32, a33)),

    shift (v1, v2, 0), b4 scale g, b5 scale g^2, b5 drive (d1, d2, 0) and
    b5 shift h (:func:`isochore_partials`).  Its two consumers build the
    maps or step one state through them."""
    omega, j = p.omega, p.j
    gam, dephasing, temperature = p.bath
    big_omega = math.hypot(omega, j)
    om2 = big_omega**2
    # the thermal state (b1, b2, b5), by thermal_state's operations in its order
    t_th = math.tanh(big_omega / (2.0 * SQRT2 * temperature))
    e_eq = -(big_omega / SQRT2) * t_th
    eq1, eq2, eq5 = omega * e_eq / om2, j * e_eq / om2, t_th * t_th / 2.0
    omega_sq, j_sq, omega_j = omega**2, j**2, omega * j
    # Exact solution of db5/dt = -2 Gamma b5 + sqrt(2) (k_up - k_down) E(t) / Omega
    # with E(t) relaxing exponentially toward its thermal value.
    drive_scale = -(SQRT2 * t_th / big_omega)
    angular_rate = SQRT2 * big_omega
    exp, expm1, cos, sin = math.exp, math.expm1, math.cos, math.sin
    for tau in times:
        # tau = 0 is no decay even when a rate is or overflows to inf (inf * 0 is NaN)
        if tau > 0.0:
            decay = -gam * tau
            g = exp(decay)
            # without dephasing the transverse rate is gam + 0.0 = gam: k is g
            k = exp(-(gam + 2.0 * dephasing * om2) * tau) if dephasing else g
            relaxed = -expm1(decay)  # 1 - g without losing digits as Gamma tau gets small
        else:
            k = g = 1.0
            relaxed = 0.0
        phase = angular_rate * tau
        c = cos(phase)
        s = sin(phase)
        kc = k * c
        drive_coef = drive_scale * (g * relaxed)
        yield ((g * omega_sq + kc * j_sq) / om2,  # a11
               omega_j * (g - kc) / om2,  # a12 = a21
               k * j * s / big_omega,  # a13 = -a31
               (g * j_sq + kc * omega_sq) / om2,  # a22
               k * omega * s / big_omega,  # a32 = -a23
               kc, g, g * g,  # a33, the b4 and b5 scales
               eq1 * relaxed, eq2 * relaxed,  # the shift
               drive_coef * omega, drive_coef * j,  # the b5 drive
               eq5 * relaxed ** 2)  # the b5 shift


def isochore_partials(p: IsochoreParams, times) -> list[AffinePropagator]:
    """Closed-form maps of the first t time units of a constant-field bath
    branch, one for each t in times.

    The (b1, b2, b3) block combines a rotation by sqrt(2)*Omega*t about the
    field axis (omega, J, 0)/Omega with longitudinal decay at rate Gamma
    toward the thermal values and transverse decay at Gamma + 2*gamma*Omega^2.
    b4 decays at rate Gamma toward zero; b5 decays at 2*Gamma toward its
    thermal value while driven by the decaying energy, which keeps the full
    map completely positive.  The maps are built from the entries
    :func:`_isochore_factors` gives, the closed form's one source.
    """
    if not all(t >= 0.0 for t in times):
        raise ValueError("times must be >= 0")
    new = tuple.__new__
    return [new(AffinePropagator, (
        ((a11, a12, a13), (a12, a22, -a32), (-a13, a32, a33)),
        (v1, v2, 0.0), g, g2, (d1, d2, 0.0), h,
    )) for a11, a12, a13, a22, a32, a33, g, g2, v1, v2, d1, d2, h
        in _isochore_factors(p, times)]


def _isochore_states(p: IsochoreParams, times, start: BlochVector) -> list:
    """start, then the states of the bath branch p from start at each t in
    times: its maps (:func:`isochore_partials`) applied to start in
    :meth:`AffinePropagator.apply`'s order of operations, so bit for bit
    their states, without forming a map."""
    x, y, z, b4, b5 = start
    zero_z = 0.0 * z  # the zero third entry of the b5 drive, times b3
    new = tuple.__new__
    states = [start]
    for a11, a12, a13, a22, a32, a33, g, g2, v1, v2, d1, d2, h in _isochore_factors(p, times):
        states.append(new(BlochVector, (
            a11 * x + a12 * y + a13 * z + v1,
            a12 * x + a22 * y - a32 * z + v2,
            -a13 * x + a32 * y + a33 * z + 0.0,
            g * b4,
            g2 * b5 + (d1 * x + d2 * y + zero_z) + h,
        )))
    return states


def isochore_propagator(p: IsochoreParams) -> AffinePropagator:
    """Closed-form map of a whole constant-field bath branch; see
    :func:`isochore_partials`."""
    return isochore_partials(p, (p.tau,))[0]


def _rotation_block(w: float, x: float, y: float, z: float) -> tuple:
    """Rows of the rotation of the quaternion (w, x, y, z), normalized here."""
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return (
        (1.0 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)),
        (s * (x * y + w * z), 1.0 - s * (x * x + z * z), s * (y * z - w * x)),
        (s * (x * z - w * y), s * (y * z + w * x), 1.0 - s * (x * x + y * y)),
    )


def _step_coefficients(a_y, d) -> tuple:
    """The coefficients (x_0, x_2, y_0, y_2, y_4, z_0, z_2, z_4, z_6) of the
    tenth-order Magnus exponent of a sweep step (:func:`_sweep_blocks`) as
    polynomials in the midpoint a_x: with |a|^2 = a_x^2 + a_y^2 it is

        (a_x (x_0 + x_2 |a|^2),
         y_0 + a_x^2 (y_2 + a_x^2 y_4),
         z_0 + |a|^2 (z_2 + |a|^2 (z_4 + |a|^2 z_6))).

    The constants are integers, so rational a_y and d give the exact
    coefficients, and floats give what float constants would."""
    a_y_sq = a_y * a_y
    d_sq = d * d
    y_d = a_y * d_sq
    z_d = a_y * d
    return (1 - a_y_sq * d_sq / 30240,
            -(a_y_sq * d_sq) / 604800,
            a_y - y_d * (1008 + 32 * a_y_sq - d_sq + a_y_sq * a_y_sq) / 241920,
            -(y_d * (15 + a_y_sq)) / 151200,
            -y_d / 403200,
            z_d * (20160 - d_sq * (36 + a_y_sq)) / 241920,
            z_d * (336 - d_sq) / 241920,
            z_d / 30240,
            z_d / 1209600)


def _sweep_blocks(p: AdiabatParams, segments: int, per_segment: int) -> list[tuple]:
    """Rotation blocks of the first k segments, k = 0..segments.

    The generator sqrt(2) [(omega(t), J, 0)]_x is linear in t, so the
    tenth-order Magnus exponent of a step of length h is a closed-form
    rotation vector; its terms through h^5 are the sixth-order exponent of
    Blanes, Casas & Ros, BIT 40, 434 (2000), and the h^7 and h^9 terms come
    from the same Magnus series (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)); the h^8 and h^10 terms vanish by time symmetry.  With
    a = sqrt(2) h (omega_mid, J, 0), |a|^2 = a_x^2 + a_y^2 and
    d = sqrt(2) omega' h^2 it is the part of degree <= 9 (a of degree 1, d
    of degree 2) of the exact exponent,

        x = a_x (1 - a_y^2 d^2/30240 - a_y^2 d^2 |a|^2/604800)
        y = a_y (1 - d^2/240 - d^2 (3 a_x^2 + 4 a_y^2)/30240
                 + d^2 (5 d^2 - (3 a_x^2 + 5 a_y^2) |a|^2)/1209600)
        z = a_y d (1/12 + |a|^2/720 + |a|^4/30240 + |a|^6/1209600
                   - d^2/6720 - d^2 (a_x^2 + 2 a_y^2)/241920),

    evaluated through the coefficients of :func:`_step_coefficients`.
    Each step is the unit quaternion of that vector, and the steps are
    multiplied in time order, one at a time.
    """
    n = segments * per_segment
    h = p.tau / n
    sweep = p.omega_end - p.omega_start
    a_y = SQRT2 * h * p.j
    # d = sqrt(2) omega' h^2 = sqrt(2) sweep h / n: no division by a tau
    # that may be subnormal
    d = SQRT2 * sweep * h / n
    a_y_sq = a_y * a_y
    x_0, x_2, y_0, y_2, y_4, z_0, z_2, z_4, z_6 = _step_coefficients(a_y, d)
    x_start = SQRT2 * h * p.omega_start
    sqrt, cos, sin = math.sqrt, math.cos, math.sin
    qw, qx, qy, qz = 1.0, 0.0, 0.0, 0.0
    blocks = [_IDENTITY_BLOCK]
    for segment in range(segments):
        for k in range(segment * per_segment, (segment + 1) * per_segment):
            a_x = x_start + d * (k + 0.5)
            a_x_sq = a_x * a_x
            a_sq = a_x_sq + a_y_sq
            x = a_x * (x_0 + x_2 * a_sq)
            y = y_0 + a_x_sq * (y_2 + a_x_sq * y_4)
            z = z_0 + a_sq * (z_2 + a_sq * (z_4 + a_sq * z_6))
            theta = sqrt(x * x + y * y + z * z)
            half = 0.5 * theta
            c = cos(half)
            s = sin(half) / theta if theta else 0.5
            sx, sy, sz = s * x, s * y, s * z
            qw, qx, qy, qz = (
                c * qw - sx * qx - sy * qy - sz * qz,
                c * qx + sx * qw + sy * qz - sz * qy,
                c * qy - sx * qz + sy * qw + sz * qx,
                c * qz + sx * qy - sy * qx + sz * qw,
            )
        blocks.append(_rotation_block(qw, qx, qy, qz))
    return blocks


# Three-point Gauss-Legendre nodes and weights on [0, 1] between the ends
_RAMP_POINTS = ((0.0, 0.0), (0.5 - math.sqrt(0.15), 5.0 / 18.0), (0.5, 4.0 / 9.0),
                (0.5 + math.sqrt(0.15), 5.0 / 18.0), (1.0, 0.0))

# 1 / (2 sin(theta / 2)) <= _TURN_FACTOR / theta for theta <= _MAX_STEP_ANGLE
_TURN_FACTOR = 0.5 * _MAX_STEP_ANGLE / math.sin(0.5 * _MAX_STEP_ANGLE)


def _leading_error(p: AdiabatParams) -> float:
    """Estimated truncation error, in every block entry at every sample, of
    the one-step product of :func:`_sweep_blocks` for sweep p; the n-step
    product's is this times n^-10.

    A step's exact exponent solves Omega' = g - Omega x g / 2 +
    F(|Omega|^2) Omega x (Omega x g), F(u) = sum_k |B_2k| u^(k-1) / (2k)!,
    g = a + d (sigma - 1/2) e_x in step time sigma in [0, 1] (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009), section 2).  The step's exponent
    is its part of degree <= 9 (a of degree 1, d of degree 2), the part of
    degree 10 vanishes, and its error is led, for steps up to
    _MAX_STEP_ANGLE, by the part of degree 11, which this recursion gives in
    exact rationals as

        W_11 = (a_x a_y^2 d^2 (2 d^2 - 5 |a|^4) / 79833600,
                a_y d^2 (2 d^2 (a_x^2 + 3 a_y^2) - |a|^4 (a_x^2 + 2 a_y^2)) / 15966720,
                a_y d (10 |a|^8 - d^2 (51 a_x^4 + 224 a_x^2 a_y^2 + 173 a_y^4)
                       + 45 d^4) / 479001600).

    W_11 is homogeneous of degree 11: in the one-step variables (a_x from
    sqrt(2) tau omega_start over the span d = sqrt(2) tau (omega_end -
    omega_start), a_y = sqrt(2) tau J) step k of n errs by n^-11 W_11 at its
    midpoint, and the product by about |sum_k R_k^T W_11,k|, R_k the
    rotation through step k.  Per n^-10 this returns the smaller of two
    estimates of that sum:
    - the mean of |W_11| along the ramp, which short sweeps reach;
    - the mean of |W_11 . e|, e the field axis, plus the part across e, which
      R_k turns about e by theta = |a| / n per step: by Abel summation its
      sum is at most (c(0) + c(tau) + TV c) / (2 sin(theta / 2)),
      c = n^-11 |W_11 x e|, so per n^-10 at most _TURN_FACTOR (f(0) + f(1) +
      TV f), f = |W_11 x e| / |a|.  Sweeps of many turns reach it.
    The means take the Gauss-Legendre nodes of _RAMP_POINTS, and TV f all
    five points.  Dropping degrees from 13 up, sampling the ramp and turning
    about a moving axis as about a fixed one make this an estimate, not a
    bound: over 10,000 random sweeps (J of both signs, up to 1,000 rad,
    ramps up to 1e6 per unit time) the error of products of steps up to
    _MAX_STEP_ANGLE was at most 1.21 times it, and two steps of
    _MAX_STEP_ANGLE on a ramp through zero field at small J reach about
    1.26.  J = 0 or a constant field
    give 0.  Nothing is divided by tau or by zero, so a tiny or subnormal
    duration gives a finite value.
    """
    x_start = SQRT2 * p.tau * p.omega_start
    span = SQRT2 * p.tau * (p.omega_end - p.omega_start)
    a_y = SQRT2 * p.tau * p.j
    a_y_sq = a_y * a_y
    d_sq = span * span
    scale = a_y * d_sq / 79833600.0
    normal = a_y * span / 479001600.0
    sqrt, hypot = math.sqrt, math.hypot
    whole = along = 0.0
    f = []
    for t, weight in _RAMP_POINTS:
        a_x = x_start + span * t
        a_x_sq = a_x * a_x
        a_sq = a_x_sq + a_y_sq
        a_6 = a_sq * a_sq * a_sq
        a = sqrt(a_sq) or 1.0  # a = 0 only where a_y^2 underflows, and W_11 with it
        # |a| W_11 . e and |a| times W_11's in-plane part across e are
        # a_y d^2 / 79833600 times polynomials; the rest of the part across e
        # is W_11's z entry
        planar = scale / a
        axial = planar * a_y * (6.0 * d_sq * (2.0 * a_x_sq + 5.0 * a_y_sq) - 10.0 * a_6)
        across = hypot(
            planar * a_x * (2.0 * d_sq * (5.0 * a_x_sq + 14.0 * a_y_sq) - 5.0 * a_6),
            normal * (10.0 * a_6 * a_sq + 45.0 * d_sq * d_sq
                      - d_sq * (a_x_sq * (51.0 * a_x_sq + 224.0 * a_y_sq) + 173.0 * a_y_sq * a_y_sq)))
        whole += weight * hypot(axial, across)
        along += weight * abs(axial)
        f.append(across / a)
    f_0, f_1, f_2, f_3, f_4 = f
    variation = abs(f_1 - f_0) + abs(f_2 - f_1) + abs(f_3 - f_2) + abs(f_4 - f_3)
    return min(whole, along + _TURN_FACTOR * (f_0 + f_4 + variation))


def _sampled_blocks(p: AdiabatParams, samples: int) -> list[tuple]:
    """Rotation blocks of the sweep's first t time units at samples >= 2
    evenly spaced t in [0, tau], from one tenth-order Magnus product
    (:func:`_sweep_blocks`) over uniform steps, at least one per sample
    interval and each turning by at most _MAX_STEP_ANGLE.  Its error falls
    as n^-10 in the step count n, which is the smallest whose estimated
    error (:func:`_leading_error`), times _ERROR_SAFETY, is at most
    SWEEP_TOLERANCE: an estimate, not a bound.  J = 0 and a constant field
    give exact steps of any length, one per sample interval."""
    if p.tau == 0.0:
        return [_IDENTITY_BLOCK] * samples
    segments = samples - 1
    error = _leading_error(p)
    steps = max(p.rotation_angle / _MAX_STEP_ANGLE,
                (_ERROR_SAFETY * error / SWEEP_TOLERANCE) ** 0.1) if error else 1
    return _sweep_blocks(p, segments, math.ceil(steps / segments))


def _sweep_map(block: tuple) -> AffinePropagator:
    """The sweep map of a rotation block: a sweep leaves all but the block
    alone."""
    return tuple.__new__(AffinePropagator, (block, _ZERO3, 1.0, 1.0, _ZERO3, 0.0))


def adiabat_partials(p: AdiabatParams, samples: int) -> list[AffinePropagator]:
    """Sweep maps of the first t time units at samples evenly spaced t in
    [0, tau], the blocks of :func:`_sampled_blocks`.

    The (b1, b2, b3) blocks are rotations to rounding; (b4, b5) commute with
    the generator for every field value and stay constant.
    """
    samples = _count(samples, "samples")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    return [_sweep_map(block) for block in _sampled_blocks(p, samples)]


def _sweep_states(blocks, start: BlochVector) -> list:
    """start, then the states of a sweep from start under its rotation
    blocks after t = 0 (:func:`_sampled_blocks`): their maps applied to
    start in :meth:`AffinePropagator.apply`'s order of operations, so bit
    for bit their states, without forming a map."""
    x, y, z, b4, b5 = start
    # a sweep's zero b5 drive and shift, as apply adds them
    b5 = b5 + (0.0 * x + 0.0 * y + 0.0 * z) + 0.0
    new = tuple.__new__
    states = [start]
    for (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) in blocks:
        states.append(new(BlochVector, (a11 * x + a12 * y + a13 * z + 0.0,
                                        a21 * x + a22 * y + a23 * z + 0.0,
                                        a31 * x + a32 * y + a33 * z + 0.0, b4, b5)))
    return states


def _time_reversed(block: tuple) -> tuple:
    """R U^T R, R = diag(1, 1, -1), the block U transposed with entries
    (0, 2), (1, 2), (2, 0) and (2, 1) negated: the block of the sweep with
    block U (:func:`_sampled_blocks`) run backwards for its whole duration
    tau.

    Run backwards, the sweep's generator at time t is G(tau - t), where
    G = sqrt(2) [(omega, J, 0)]_x and R G R = -G.  So, as U(tau)^T =
    U(tau)^-1, V(t) = R U(tau - t) U(tau)^T R solves V' = G(tau - t) V from
    V(0) = I: it is the block of the first t time units.  At t = tau it is
    this block; on a state b it is R U(tau - t) R c from the end corner
    c = R U(tau)^T R b, the state form of :func:`_time_reversed_states`."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = block
    return ((a11, a21, -a31), (a12, a22, -a32), (-a13, -a23, a33))


def _time_reversed_states(ramp, start: BlochVector) -> list:
    """States of a sweep run backwards from start at n evenly spaced t_k in
    [0, tau], from the blocks U(t_k) of its ramp at t_k > 0
    (:func:`_sampled_blocks`, :func:`_time_reversed`): start,
    R U(tau - t_k) R c with U(tau - t_k) the block n - 1 - k, and the end
    corner c, the reversed ramp's whole map applied to start."""
    c = c1, c2, c3, b4, b5 = _sweep_states((_time_reversed(ramp[-1]),), start)[1]
    new = tuple.__new__
    states = [start]
    for (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) in ramp[-2::-1]:
        states.append(new(BlochVector, (a11 * c1 + a12 * c2 - a13 * c3,
                                        a21 * c1 + a22 * c2 - a23 * c3,
                                        -(a31 * c1 + a32 * c2 - a33 * c3), b4, b5)))
    return states + [c]


def adiabat_propagator_direct(p: AdiabatParams, n_steps: int) -> AffinePropagator:
    """Brute-force sweep propagator: product of midpoint-field rotations.

    Each step is a bath-free constant-field map at the field sampled at the
    step midpoint; the product converges to the true propagator as
    O(1/n_steps^2).  The steps are multiplied as a pairwise tree in batched
    numpy matmuls, about log2(n_steps) passes.  It shares no code with the
    Magnus integrator and is an oracle for :func:`adiabat_partials`
    (imports numpy).
    """
    import numpy as np

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if p.tau == 0.0:
        return _sweep_map(_IDENTITY_BLOCK)
    dt = p.tau / n_steps
    t_mid = (np.arange(n_steps) + 0.5) * dt
    omega = p.omega_start + (p.omega_end - p.omega_start) * t_mid / p.tau
    j = p.j
    big = np.hypot(omega, j)
    c = np.cos(SQRT2 * big * dt)
    s = np.sin(SQRT2 * big * dt)
    blocks = np.empty((n_steps, 3, 3))
    blocks[:, 0, 0] = (omega**2 + c * j**2) / big**2
    blocks[:, 0, 1] = omega * j * (1.0 - c) / big**2
    blocks[:, 0, 2] = j * s / big
    blocks[:, 1, 0] = blocks[:, 0, 1]
    blocks[:, 1, 1] = (j**2 + c * omega**2) / big**2
    blocks[:, 1, 2] = -omega * s / big
    blocks[:, 2, 0] = -blocks[:, 0, 2]
    blocks[:, 2, 1] = omega * s / big
    blocks[:, 2, 2] = c
    # pairwise tree product, the later step acting last
    while blocks.shape[0] > 1:
        n = blocks.shape[0]
        paired = np.matmul(blocks[1 : n - n % 2 : 2], blocks[0 : n - n % 2 : 2])
        if n % 2:
            paired = np.concatenate([paired, blocks[-1:]])
        blocks = paired
    m = np.eye(4)
    m[:3, :3] = blocks[0]
    return AffinePropagator(m=m)
