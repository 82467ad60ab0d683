"""Completely positive branch maps of the four-stroke cycle.

A branch propagator acts on the column (b1, b2, b3, 1) through a 4x4 affine
matrix whose bottom row is (0, 0, 0, 1), plus a closure rule for the (b4, b5)
pair.  Constant-field bath branches have a closed form, evaluated at many
times at once by :func:`isochore_partials`.  The driven branches
(linear field sweep, no bath) are rotations whose generator is linear in the
field; they are integrated with an eighth-order Magnus product of unit
quaternions (Blanes, Casas & Ros, BIT 40, 434 (2000); Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)), accepted on a proven truncation bound or
on the change between two products.  Maps are plain floats and tuples; only
the ``m`` accessor and the brute-force midpoint-field oracle
:func:`adiabat_propagator_direct` import numpy.  Every path, the in-branch
samplers :func:`isochore_partials` and :func:`adiabat_partials` included,
works with the one map type :class:`AffinePropagator`.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from itertools import chain

from .algebra import SQRT2, BlochVector, field_magnitude, thermal_state
from .records import IdentityRecord, Record

# Error target of the sweep integrator.  The first product is accepted when
# its proven truncation bound is at most SWEEP_TOLERANCE.  Otherwise two
# products at step counts n and r n differ by about (r^8 - 1) times the error
# of the finer one, which is accepted when that estimate is at most
# SWEEP_TOLERANCE.
SWEEP_TOLERANCE = 1e-12

# Safety factor on the error the next step count is predicted to reach: the
# prediction aims at SWEEP_TOLERANCE / _STEP_SAFETY.
_STEP_SAFETY = 2.0

# Largest accepted sweep rotation angle sqrt(2) * max Omega * tau in radians;
# it bounds the integrator work: about 1.5e4 steps in all for a fast sweep at
# the limit, about 3.3e4 for a slow one.
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


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


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
    returns that matrix as a numpy array.  Maps compose; immutable and safe
    to share.  The map is the tuple of its fields in field order; the
    samplers build it with ``tuple.__new__``, since their fields are already
    tuples and the constructor would check nothing more.
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
        return tuple.__new__(cls, (block, shift, b4_scale, b5_scale, tuple(b5_drive), b5_shift))

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


def identity_propagator() -> AffinePropagator:
    return AffinePropagator(block=_IDENTITY_BLOCK)


def compose(*props: AffinePropagator) -> AffinePropagator:
    """Compose branch maps; the rightmost argument acts first.

    Each step maps `outer` after `acc`: block O A, shift O t + v, b4 scales
    multiplied, b5 scale s5 a5, b5 drive s5 e + A^T d and b5 shift
    s5 h + d . t + h_outer, where (v, s5, d, h_outer) are `outer`'s and
    (t, a5, e, h) `acc`'s shift, b5 scale, b5 drive and b5 shift.
    """
    if not props:
        return identity_propagator()
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


def isochore_partials(p: IsochoreParams, times) -> list[AffinePropagator]:
    """Closed-form maps of the first t time units of a constant-field bath
    branch, one for each t in times.

    The (b1, b2, b3) block combines a rotation by sqrt(2)*Omega*t about the
    field axis (omega, J, 0)/Omega with longitudinal decay at rate Gamma
    toward the thermal values and transverse decay at Gamma + 2*gamma*Omega^2.
    b4 decays at rate Gamma toward zero; b5 decays at 2*Gamma toward its
    thermal value while driven by the decaying energy, which keeps the full
    map completely positive.
    """
    if not all(t >= 0.0 for t in times):
        raise ValueError("times must be >= 0")
    omega, j = p.omega, p.j
    gam = p.bath.conductance
    big_omega = math.hypot(omega, j)
    transverse_rate = gam + 2.0 * p.bath.dephasing * big_omega**2
    eq = thermal_state(omega, j, p.bath.temperature)
    om2 = big_omega**2
    omega_sq, j_sq, omega_j = omega**2, j**2, omega * j
    # Exact solution of db5/dt = -2 Gamma b5 + sqrt(2) (k_up - k_down) E(t) / Omega
    # with E(t) relaxing exponentially toward its thermal value.
    t_th = math.tanh(big_omega / (2.0 * SQRT2 * p.bath.temperature))
    drive_scale = -(SQRT2 * t_th / big_omega)
    angular_rate = SQRT2 * big_omega
    exp, cos, sin = math.exp, math.cos, math.sin
    new = tuple.__new__
    maps = []
    for tau in times:
        # tau = 0 is no decay even when a rate is or overflows to inf (inf * 0 is NaN)
        k = exp(-transverse_rate * tau) if tau > 0.0 else 1.0
        g = exp(-gam * tau) if tau > 0.0 else 1.0
        phase = angular_rate * tau
        c = cos(phase)
        s = sin(phase)
        kc = k * c
        mixed = omega_j * (g - kc) / om2
        rot_j = k * j * s / big_omega
        rot_omega = k * omega * s / big_omega
        block = (
            ((g * omega_sq + kc * j_sq) / om2, mixed, rot_j),
            (mixed, (g * j_sq + kc * omega_sq) / om2, -rot_omega),
            (-rot_j, rot_omega, kc),
        )
        drive_coef = drive_scale * (g - g * g)
        relaxed = 1.0 - g
        maps.append(new(AffinePropagator, (
            block,
            (eq.b1 * relaxed, eq.b2 * relaxed, 0.0),
            g,
            g * g,
            (drive_coef * omega, drive_coef * j, 0.0),
            eq.b5 * relaxed ** 2,
        )))
    return maps


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


def _sweep_blocks(p: AdiabatParams, segments: int, per_segment: int) -> list[tuple]:
    """Rotation blocks of the first k segments, k = 0..segments.

    The generator sqrt(2) [(omega(t), J, 0)]_x is linear in t, so the
    eighth-order Magnus exponent of a step of length h is a closed-form
    rotation vector; its terms through h^5 are the sixth-order exponent of
    Blanes, Casas & Ros, BIT 40, 434 (2000), and the h^7 terms come from the
    same Magnus series (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009)); the h^8 terms vanish by time symmetry.  With
    a = sqrt(2) h (omega_mid, J, 0), |a|^2 = a_x^2 + a_y^2 and
    d = sqrt(2) omega' h^2 it is

        x = a_x (1 - a_y^2 d^2/30240)
        y = a_y (1 - d^2/240 - d^2 (3 a_x^2 + 4 a_y^2)/30240)
        z = a_y d (1/12 + |a|^2/720 + |a|^4/30240 - d^2/6720)

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
    d_sq = d * d
    x_scale = 1.0 - a_y_sq * d_sq / 30240.0
    y_const = a_y * (1.0 - d_sq / 240.0 - a_y_sq * d_sq / 7560.0)
    y_quad = a_y * d_sq / 10080.0
    # z = z_0 + |a|^2 (z_2 + |a|^2 z_4)
    z_0 = a_y * d * (1.0 / 12.0 - d_sq / 6720.0)
    z_2 = a_y * d / 720.0
    z_4 = a_y * d / 30240.0
    x_start = SQRT2 * h * p.omega_start
    sqrt, cos, sin = math.sqrt, math.cos, math.sin
    qw, qx, qy, qz = 1.0, 0.0, 0.0, 0.0
    blocks = [_IDENTITY_BLOCK]
    for segment in range(segments):
        for k in range(segment * per_segment, (segment + 1) * per_segment):
            a_x = x_start + d * (k + 0.5)
            a_x_sq = a_x * a_x
            a_sq = a_x_sq + a_y_sq
            x = a_x * x_scale
            y = y_const - y_quad * a_x_sq
            z = z_0 + a_sq * (z_2 + a_sq * z_4)
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


# F(2.25) = (1 - 0.75 cot 0.75) / 2.25, about 0.08664: a bound on the
# dexp^-1 coefficient F(|Omega|^2) of a step while |Omega| <= 1.5
_F_BOUND = (1.0 - 0.75 / math.tan(0.75)) / 2.25


def _truncation_bound(p: AdiabatParams, n: int) -> float:
    """Proven upper bound on the truncation error of every block entry, at
    every sample, of the n-step product of :func:`_sweep_blocks` for sweep
    p; inf where the proof below does not apply.

    In step time sigma in [0, 1] a step's generator is g = a + delta e_x,
    with a and d as in :func:`_sweep_blocks` and delta = d (sigma - 1/2):
    |a| <= A = rotation_angle / n and |delta| <= D = |d| / 2.  The exact
    step exponent solves Omega' = dexp^-1_Omega(g) =
    g - Omega x g / 2 + F(|Omega|^2) Omega x (Omega x g), where
    F(u) = (1 - (sqrt(u)/2) cot(sqrt(u)/2)) / u = sum_k |B_2k| u^(k-1) / (2k)!
    has positive coefficients only (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009), section 2).  W = Omega - sigma a starts at 0 and solves

        W' = delta e_x - (V + W x g) / 2 + F(|Omega|^2) Omega x (V + W x g),
        V = sigma a x delta e_x,

    so every term of W carries a factor delta or W.  Sort W by its degree k
    in the step (a of degree 1, d of degree 2).  The exponent of
    :func:`_sweep_blocks` is the part of Omega(1) of degree <= 8 (degree 8
    vanishes by time symmetry), so a step errs by at most the sum of
    |W_k(1)| over k >= 9.  Since W_k(a, d) = s^k W_k(a / s, d / s^2), for
    s = max(A, sqrt(D / 0.1)) <= 1 that sum is at most s^9 w(1), where w
    majorizes the sum of all |W_k| at |a| <= 1 and D' = D / s^2 <= 0.1.
    While w <= 1/2, |Omega| <= 1 + w <= 1.5, F <= F* = _F_BOUND and
    w' <= K1 D' + K2 w, K1 = 1.5 (1 + F*), K2 = (1 + D') (0.5 + 1.5 F*);
    so w(1) <= K1 D' expm1(K2) / K2, below 0.24 at D' = 0.1 (and 0.49 at
    0.2, room for the rounding of s): w never reaches 1/2.  exp is
    1-Lipschitz from so(3) to the rotations in the operator norm, which
    bounds every entry, and rotations keep the norm, so the step errors
    add: n of them bound every sample.  D = 0 is a constant field, whose
    steps are exact.  Nothing is divided by a rotation angle, so a
    subnormal or tiny duration gives 0, not an overflow.
    """
    h = p.tau / n
    half_range = SQRT2 * abs(p.omega_end - p.omega_start) * h / (2 * n)
    if half_range == 0.0:
        return 0.0
    s = max(math.sqrt(half_range / 0.1), p.rotation_angle / n)  # max keeps a first NaN
    if not s <= 1.0:
        return math.inf
    scaled = half_range / (s * s)
    k2 = (1.0 + scaled) * (0.5 + 1.5 * _F_BOUND)
    return n * s**9 * 1.5 * (1.0 + _F_BOUND) * scaled * math.expm1(k2) / k2


def _max_change(fine: list[tuple], coarse: list[tuple]) -> float:
    """Largest entry change between two equally long lists of 3x3 blocks."""
    flat_fine = chain.from_iterable(chain.from_iterable(fine))
    flat_coarse = chain.from_iterable(chain.from_iterable(coarse))
    return max(map(abs, map(operator.sub, flat_fine, flat_coarse)))


def adiabat_partials(p: AdiabatParams, samples: int) -> list[AffinePropagator]:
    """Sweep maps of the first t time units at samples evenly spaced t in
    [0, tau].

    An eighth-order Magnus product over uniform steps, whose error falls as
    n^-8 in the step count n.  The first product takes a step count near
    half the rotation angle, and one of two routes accepts a product:
    - the first product alone, when its proven truncation bound
      (:func:`_truncation_bound`) is at most SWEEP_TOLERANCE.  Densely
      sampled sweeps take this route, since their steps are short;
    - otherwise an a-posteriori pair.  The second product takes twice the
      first count.  Two successive products at counts n and r n that differ
      by `change` at most, over all samples, put the error of the finer one
      at change / (r^8 - 1); it is accepted when that is at most
      SWEEP_TOLERANCE.  Otherwise the next count is the one the n^-8 law
      predicts for half the tolerance, and the check repeats.
    The (b1, b2, b3) blocks are rotations to rounding; (b4, b5) commute with
    the generator for every field value and stay constant.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    segments = samples - 1
    if p.tau == 0.0:
        blocks = [_IDENTITY_BLOCK] * samples
    else:
        per_segment = max(1, math.ceil(p.rotation_angle / (2 * segments)))
        blocks = _sweep_blocks(p, segments, per_segment)
        if not _truncation_bound(p, segments * per_segment) <= SWEEP_TOLERANCE:
            finer = 2 * per_segment
            while True:
                coarse, coarse_per = blocks, per_segment
                per_segment = finer
                blocks = _sweep_blocks(p, segments, per_segment)
                gain = (per_segment / coarse_per) ** 8 - 1.0
                change = _max_change(blocks, coarse)
                if not change > gain * SWEEP_TOLERANCE:
                    break
                err = change / gain
                finer = max(per_segment + 1, math.ceil(
                    per_segment * (_STEP_SAFETY * err / SWEEP_TOLERANCE) ** (1.0 / 8.0)
                ))
    # a sweep leaves all but the block alone
    return [tuple.__new__(AffinePropagator, (block, _ZERO3, 1.0, 1.0, _ZERO3, 0.0))
            for block in blocks]


def adiabat_propagator(p: AdiabatParams) -> AffinePropagator:
    """Map of the whole sweep; see :func:`adiabat_partials`."""
    return adiabat_partials(p, 2)[-1]


def _time_reversed(u: AffinePropagator) -> AffinePropagator:
    """R U^T R, R = diag(1, 1, -1), the block of U transposed with entries
    (0, 2), (1, 2), (2, 0) and (2, 1) negated: the map of the sweep with map
    U (:func:`adiabat_partials`) run backwards for its whole duration tau.

    Run backwards, the sweep's generator at time t is G(tau - t), where
    G = sqrt(2) [(omega, J, 0)]_x and R G R = -G.  So, as U(tau)^T =
    U(tau)^-1, V(t) = R U(tau - t) U(tau)^T R solves V' = G(tau - t) V from
    V(0) = I: it is the map of the first t time units.  At t = tau it is
    this map; on a state b it is R U(tau - t) R c from the end corner
    c = R U(tau)^T R b, the state form of :func:`_time_reversed_states`."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = u.block
    return tuple.__new__(AffinePropagator, (
        ((a11, a21, -a31), (a12, a22, -a32), (-a13, -a23, a33)), _ZERO3, 1.0, 1.0, _ZERO3, 0.0))


def _time_reversed_states(ramp: list[AffinePropagator], start: BlochVector) -> list:
    """States of a sweep run backwards from start at n evenly spaced t_k in
    [0, tau], from its maps U(t_k) at t_k > 0 (:func:`_time_reversed`):
    start, R U(tau - t_k) R c with U(tau - t_k) the sample n - 1 - k, and the
    end corner c."""
    c = c1, c2, c3, b4, b5 = _time_reversed(ramp[-1]).apply(start)
    new = tuple.__new__
    states = [start]
    for ((a11, a12, a13), (a21, a22, a23), (a31, a32, a33)), _, _, _, _, _ in ramp[-2::-1]:
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
    Magnus integrator and is an oracle for :func:`adiabat_propagator`
    (imports numpy).
    """
    import numpy as np

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if p.tau == 0.0:
        return identity_propagator()
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
