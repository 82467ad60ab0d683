"""Cycle composition, limit-cycle analysis and the thermodynamic ledger.

A cycle runs four strokes from anchor point A (start of the hot bath
branch): hot isochore A->B at field omega_b, sweep B->C down to omega_a,
cold isochore C->D, sweep D->A back up.  The one-period map is the product
of the branch propagators; its unit-eigenvalue eigenvector is the limit
cycle and the remaining spectrum sets the relaxation rates toward it.  The
map's closed-set part is a 3x3 block M.  Without dephasing M = mu4 O, mu4 =
g_hot g_cold and O a rotation, so the spectrum is mu4 and mu4 e^{+-i phi},
phi O's angle from the product of the strokes' quaternions
(:func:`_cycle_rotation`), and the fixed point is solved along and across
O's axis (:func:`_fixed_point`).  With dephasing the fixed point is a 3x3
solve with partial pivoting and the spectrum shifted QR steps on M's
Hessenberg form, the first shifted by a real root of the characteristic
cubic, until a 1x1 and a 2x2 block split off.  :func:`_spectrum_of` is
the one place where the two paths part.
:func:`compose_cycle` forms each stroke's whole map; :func:`trajectory`
steps the previous stroke's last state through each stroke's per-time
factors, the bath closed form or the sweep's blocks, and gives each
stroke's states as columns, the CSV trajectory rows', without forming a map
or a state record per sample; :func:`iterate` gives the anchor states of
repeated periods as columns too.  Only ascending field ramps
are integrated (:func:`_ramps`): the hot->cold stroke reverses the
cold->hot ramp run for its duration (with equally long sweeps, the
cold->hot sweep itself), by its whole map or from the stroke's end corner.
Everything is plain floats, tuples and complex numbers.

A limit-cycle row is one flat pass: :class:`CycleSpec` checks every bound
once, those of its four strokes with the checks their constructors run, so
its stroke methods build the stroke records without the constructors;
:func:`compose_cycle` takes the strokes from those methods, builds the
branch records and composes the four maps; :func:`_fixed_point` reads the
spectrum, solves and checks physicality, and :func:`_ledger` the
corner entropies, all on unpacked floats.  Each step does the float
operations of the generic loops it replaced, in their order, so no printed
digit depends on the flattening.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import SQRT2, BlochVector, eigenvalue_tuple, is_physical
from .measures import _state_entropies
from .propagators import (
    _ZERO3,
    AdiabatParams,
    BathParams,
    IsochoreParams,
    _check_bath_stroke,
    _check_sweep,
    _count,
    _isochore_states,
    _sampled_blocks,
    _sweep_map,
    _sweep_states,
    _time_reversed_states,
    compose,
    isochore_propagator,
)
from .records import IdentityRecord, Record

# A spectral gap 1 - mu4 below this means a second eigenvalue within it of
# unit modulus: the fixed point is not unique.  mu4 = g_hot g_cold bounds
# every modulus after mu0 (:func:`_spectrum_of`), so the test reads the
# baths' contraction, not the eigensolver's output.
UNIQUENESS_GAP = 1e-9

# the 3x3 eigensolver's split test (relative to the diagonal) and its step
# cap; 6,000 random cycle blocks split in at most 9 steps
_EPS = 2.0**-52
_MAX_QR_STEPS = 100


class NonUniqueLimitCycleError(RuntimeError):
    """The cycle map has no isolated unit eigenvalue; no unique limit cycle."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class CycleSpec(Record, namedtuple("CycleSpec", (
    "t_cold t_hot omega_a omega_b j gamma_cold gamma_hot dephasing_cold dephasing_hot "
    "tau_cold tau_hot tau_ab tau_ba"
))):
    """All external controls of one engine cycle."""

    __slots__ = ()

    def __new__(cls, t_cold, t_hot, omega_a, omega_b, j, gamma_cold, gamma_hot,
                dephasing_cold, dephasing_hot, tau_cold, tau_hot, tau_ab, tau_ba):
        self = tuple.__new__(cls, (
            t_cold, t_hot, omega_a, omega_b, j, gamma_cold, gamma_hot,
            dephasing_cold, dephasing_hot, tau_cold, tau_hot, tau_ab, tau_ba,
        ))
        # written as `not x > 0.0`, so that NaN fails them too
        for name in ("t_cold", "t_hot"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"bath temperatures must be > 0, got {name} = {value!r}")
        for name in ("gamma_cold", "gamma_hot", "dephasing_cold", "dephasing_hot",
                     "tau_cold", "tau_hot", "tau_ab", "tau_ba"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if not omega_a < omega_b:
            raise ValueError(f"omega_a must be < omega_b, got omega_a = {omega_a!r}, "
                             f"omega_b = {omega_b!r}")
        if math.isnan(j):
            raise ValueError("j must be a number, got nan")
        # the bounds of the four strokes, by the checks their constructors
        # run, in the order adiabat_ab, adiabat_ba, hot_isochore,
        # cold_isochore: the stroke methods build the records of a checked
        # spec without the constructors
        _check_sweep(omega_a, omega_b, j, tau_ab)
        _check_sweep(omega_b, omega_a, j, tau_ba)
        _check_bath_stroke(omega_b, j, tau_hot)
        _check_bath_stroke(omega_a, j, tau_cold)
        period = self.period
        if not math.isfinite(period):
            raise ValueError(f"period tau_hot + tau_ba + tau_cold + tau_ab = {period} "
                             "is not finite")
        return self

    @property
    def period(self) -> float:
        return self.tau_hot + self.tau_ba + self.tau_cold + self.tau_ab

    def hot_isochore(self) -> IsochoreParams:
        new = tuple.__new__
        return new(IsochoreParams, (
            self.omega_b, self.j,
            new(BathParams, (self.gamma_hot, self.dephasing_hot, self.t_hot)), self.tau_hot))

    def cold_isochore(self) -> IsochoreParams:
        new = tuple.__new__
        return new(IsochoreParams, (
            self.omega_a, self.j,
            new(BathParams, (self.gamma_cold, self.dephasing_cold, self.t_cold)), self.tau_cold))

    def adiabat_ba(self) -> AdiabatParams:
        return tuple.__new__(AdiabatParams, (self.omega_b, self.omega_a, self.j, self.tau_ba))

    def adiabat_ab(self) -> AdiabatParams:
        return tuple.__new__(AdiabatParams, (self.omega_a, self.omega_b, self.j, self.tau_ab))


class CycleBranch(IdentityRecord, namedtuple("CycleBranch", "name stroke prop")):
    """One stroke: its name, its :class:`IsochoreParams` or
    :class:`AdiabatParams` ``stroke`` (both give the duration ``tau`` and
    the field ``omega_at(t)``) and the :class:`AffinePropagator` ``prop`` of
    the whole stroke."""

    __slots__ = ()


class CyclePropagator(IdentityRecord, namedtuple("CyclePropagator", "cycle branches spec rotation")):
    """One-period map anchored at point A, with its branches retained.

    ``cycle`` is the :class:`AffinePropagator` of the period, ``branches``
    the four :class:`CycleBranch` in time order (A->B, B->C, C->D, D->A)
    and ``spec`` the :class:`CycleSpec` they were built from.  Without
    dephasing ``rotation`` is the unit quaternion (w, x, y, z) of the
    period, whose block is ``b4_scale`` times its rotation; with it None.
    """

    __slots__ = ()


class CycleSpectrum(IdentityRecord, namedtuple("CycleSpectrum", "eigenvalues phi")):
    """Eigenvalues mu0..mu5 of the one-period map (six complex, in order)
    and the transverse phase.  mu1 is real on every cycle (mu4 itself
    without dephasing; with it the eigensolver's split-off root, or the
    largest when all three are real).  ``gap`` is
    1 - |mu4|: the b4 rate mu4 = g_hot g_cold bounds every modulus after mu0
    (:func:`_spectrum_of`)."""

    __slots__ = ()

    @property
    def gap(self) -> float:
        return 1.0 - abs(self.eigenvalues[4])


class LimitCycleReport(IdentityRecord, namedtuple(
    "LimitCycleReport", "b_a eigenvalues phi gap propagator ledger",
)):
    """Fixed point at the anchor, the full relaxation spectrum, the one-period
    map they were solved from and the thermodynamic ledger at the fixed point.

    ``b_a`` is a :class:`BlochVector`, ``eigenvalues`` and ``phi`` are as in
    :class:`CycleSpectrum`, ``propagator`` is the :class:`CyclePropagator`
    and ``ledger`` the :class:`ThermoLedger`.
    """

    __slots__ = ()


class ThermoLedger(Record, namedtuple("ThermoLedger", (
    "q_hot q_cold w_ab w_ba power ds_ext ds_u_hot ds_u_cold ds_e_hot ds_e_cold "
    "ds_e_ab ds_e_ba b_a b_b b_c b_d"
))):
    """Per-cycle heats, works, power and entropy productions at the limit cycle.

    Heats are positive into the working medium; w_ab/w_ba are the medium
    energy changes on the field sweeps; power > 0 means net work delivered.
    The ds_u entries are the per-branch conditional-entropy productions
    evaluated with von Neumann entropies, the ds_e entries their energy-basis
    counterparts, and ds_e_ab/ds_e_ba the energy-entropy changes across the
    sweeps.  b_a..b_d are the corner states (:class:`BlochVector`); the repr
    leaves them out.  A heat over its bath temperature can overflow (a
    subnormal temperature): then ds_ext, that bath's ds_u and ds_e entries,
    and ds_u_total, are +-inf; the CLI refuses such a row.
    """

    __slots__ = ()

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:12], self))
        return f"{type(self).__qualname__}({shown})"

    @property
    def ds_u_total(self) -> float:
        return self.ds_u_hot + self.ds_u_cold


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num >= 1 evenly spaced floats from start to stop, with numpy.linspace's
    arithmetic (start + i * step, the last of two or more points pinned to
    stop; one point is start)."""
    if num == 1:
        return [start]
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def _check_start(b: BlochVector, name: str) -> None:
    """ValueError naming the argument when the start b is not a physical
    state, by the CLI's check of a given start; a NaN or infinite component
    fails it."""
    if not is_physical(eigenvalue_tuple(b)):
        raise ValueError(f"{name} must be a physical state, got {tuple(b)!r}")


def energy(b: BlochVector, omega: float, j: float) -> float:
    """Expected energy omega*b1 + J*b2 at field omega.  ValueError naming
    the argument when omega, j, b1 or b2 is not finite, and naming the
    overflow when the finite arguments' energy is not finite."""
    for name, value in (("omega", omega), ("j", j), ("b.b1", b.b1), ("b.b2", b.b2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    e = omega * b.b1 + j * b.b2
    if not math.isfinite(e):
        raise ValueError(f"energy overflows: omega * b1 + j * b2 is {e!r}")
    return e


def _ramps(hot_cold: AdiabatParams, cold_hot: AdiabatParams, samples: int) -> tuple:
    """Rotation blocks at samples evenly spaced t in [0, tau], and quaternion,
    of the cold->hot field ramp run for the hot->cold duration and for the
    cold->hot one (:func:`_sampled_blocks`).  Only ascending ramps are
    integrated, the hot->cold one for its consumers to run backwards; with
    equally long sweeps it is the cold->hot ramp itself, integrated once."""
    rise = _sampled_blocks(cold_hot, samples)
    if hot_cold.tau == cold_hot.tau:
        return rise, rise
    start, end, j, tau = hot_cold  # run backwards, the same checked bounds
    return _sampled_blocks(tuple.__new__(AdiabatParams, (end, start, j, tau)), samples), rise


def compose_cycle(spec: CycleSpec) -> CyclePropagator:
    """The spec's four strokes (its stroke methods), their whole-stroke maps
    and the one-period product: the bath strokes' closed form
    (:func:`isochore_propagator`), the cold->hot ramp's last block and the
    reversed hot->cold one (:func:`_ramps` at two samples, the ramps
    :func:`trajectory` samples); without dephasing also the period's
    quaternion (:func:`_cycle_rotation`).

    Run backwards, a ramp U of quaternion (w, x, y, z) has the generator
    G(tau - t), G = sqrt(2) [(omega, J, 0)]_x, and R G R = -G for R =
    diag(1, 1, -1), so V(t) = R U(tau - t) U(tau)^T R solves V' = G(tau - t)
    V from V(0) = I: the stroke is R U^T R, taken from the ramp's last
    block by a transpose and exact sign changes, and the rotation of the
    quaternion (w, x, y, -z)."""
    new = tuple.__new__
    hot, hot_cold, cold, cold_hot = (
        spec.hot_isochore(), spec.adiabat_ba(), spec.cold_isochore(), spec.adiabat_ab())
    (fall, (w, x, y, z)), (rise, q_ab) = _ramps(hot_cold, cold_hot, 2)
    q_ba = w, x, y, -z
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = fall[-1]
    u_ish, u_isc, u_ab = isochore_propagator(hot), isochore_propagator(cold), _sweep_map(rise[-1])
    u_ba = _sweep_map(((a11, a21, -a31), (a12, a22, -a32), (-a13, -a23, a33)))
    branches = (
        new(CycleBranch, ("isochore-hot", hot, u_ish)),
        new(CycleBranch, ("adiabat-hot-cold", hot_cold, u_ba)),
        new(CycleBranch, ("isochore-cold", cold, u_isc)),
        new(CycleBranch, ("adiabat-cold-hot", cold_hot, u_ab)),
    )
    rotation = (_cycle_rotation(hot, q_ba, cold, q_ab)
                if spec.dephasing_hot == spec.dephasing_cold == 0.0 else None)
    return new(CyclePropagator, (compose(u_ab, u_isc, u_ba, u_ish), branches, spec, rotation))


def _cycle_rotation(hot: IsochoreParams, q_ba, cold: IsochoreParams, q_ab) -> tuple:
    """The unit quaternion q_ab q_cold q_ba q_hot of a dephasing-free cycle,
    whose block is mu4 times its rotation; a bath block is g times the
    rotation of (cos(theta/2), sin(theta/2) (omega, J, 0) / Omega), theta =
    sqrt(2) Omega tau the phase of :func:`_isochore_factors`."""
    bath = []
    for p in (hot, cold):
        big_omega = math.hypot(p.omega, p.j)
        half = 0.5 * (SQRT2 * big_omega * p.tau)
        s = math.sin(half) / big_omega
        bath += (math.cos(half), s * p.omega, s * p.j)
    a, b, c, e, f, g = bath
    w, x, y, z = q_ba
    # q_ba q_hot, then q_cold times it, the bath quaternions' zero z dropped
    w, x, y, z = (w * a - x * b - y * c, w * b + x * a - z * c,
                  w * c + y * a + z * b, x * c - y * b + z * a)
    w, x, y, z = (e * w - f * x - g * y, e * x + f * w + g * z,
                  e * y - f * z + g * w, e * z + f * y - g * x)
    qw, qx, qy, qz = q_ab
    return (qw * w - qx * x - qy * y - qz * z, qw * x + qx * w + qy * z - qz * y,
            qw * y - qx * z + qy * w + qz * x, qw * z + qx * y - qy * x + qz * w)


def _diagonal_minus(x: float, a) -> tuple:
    """Rows of x I - a for a 3x3 block a."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return ((x - a11, 0.0 - a12, 0.0 - a13),
            (0.0 - a21, x - a22, 0.0 - a23),
            (0.0 - a31, 0.0 - a32, x - a33))


def _real_root(a) -> float:
    """A real eigenvalue of the 3x3 block a: Newton on the characteristic
    cubic from the Cauchy bound, kept inside a sign-change bracket."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    c2 = a11 + a22 + a33
    c1 = a11 * a22 - a12 * a21 + a11 * a33 - a13 * a31 + a22 * a33 - a23 * a32
    c0 = (a11 * (a22 * a33 - a23 * a32) + a12 * (a23 * a31 - a21 * a33)
          + a13 * (a21 * a32 - a22 * a31))
    hi = 1.0 + max(abs(c2), abs(c1), abs(c0))
    lo, x = -hi, hi
    for _ in range(200):
        p = ((x - c2) * x + c1) * x - c0
        if p == 0.0:
            break
        if p > 0.0:
            hi = x
        else:
            lo = x
        dp = (3.0 * x - 2.0 * c2) * x + c1
        x_new = x - p / dp if dp else lo
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    return x


def _rotate(h: tuple, k: int, x: float, y: float) -> tuple:
    """G h G^T for the 3x3 block h (nine floats, row by row), where the
    plane rotation G of axes k + 1 and k + 2 takes (x, y) to (hypot(x, y),
    0): its columns, then its rows.  h itself for x = y = 0.  A rotation of
    axes 2, 3 is taken to zero h31, which it sets to 0.0."""
    r = math.hypot(x, y)
    if r == 0.0:
        return h
    c, s = x / r, y / r
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = h
    if k == 0:
        a11, a12 = c * a11 + s * a12, c * a12 - s * a11
        a21, a22 = c * a21 + s * a22, c * a22 - s * a21
        a31, a32 = c * a31 + s * a32, c * a32 - s * a31
        return (c * a11 + s * a21, c * a12 + s * a22, c * a13 + s * a23,
                c * a21 - s * a11, c * a22 - s * a12, c * a23 - s * a13, a31, a32, a33)
    a12, a13 = c * a12 + s * a13, c * a13 - s * a12
    a22, a23 = c * a22 + s * a23, c * a23 - s * a22
    a32, a33 = c * a32 + s * a33, c * a33 - s * a32
    return (a11, a12, a13, c * a21 + s * a31, c * a22 + s * a32, c * a23 + s * a33,
            0.0, c * a32 - s * a22, c * a33 - s * a23)


def _eigenvalues3(a) -> tuple[complex, complex, complex]:
    """Eigenvalues of a real 3x3 block: a real one, then the other two from
    the closed form of the 2x2 block it splits off, positive imaginary part
    first.  Shifted QR steps on the block's Hessenberg form h (Golub & Van
    Loan, Matrix Computations, 7.5), each a rotation of axes 1, 2 by the
    shifted first column and one of axes 2, 3 that restores the form, until
    a subdiagonal entry is at most eps times its two diagonal neighbours.
    The first shift is a real eigenvalue (:func:`_real_root`), which splits
    off in one step since an unreduced h has one eigenvector per
    eigenvalue; each later shift is h33, which converges quadratically.
    NaN past _MAX_QR_STEPS steps."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    h = _rotate((a11, a12, a13, a21, a22, a23, a31, a32, a33), 1, a21, a31)
    for step in range(_MAX_QR_STEPS):
        h11, h12, h13, h21, h22, h23, _, h32, h33 = h
        if abs(h32) <= _EPS * (abs(h22) + abs(h33)):
            x, b11, b12, b21, b22 = h33, h11, h12, h21, h22
            break
        if abs(h21) <= _EPS * (abs(h11) + abs(h22)):
            x, b11, b12, b21, b22 = h11, h22, h23, h32, h33
            break
        shift = _real_root(a) if step == 0 else h33
        h = _rotate(h, 0, h11 - shift, h21)
        h = _rotate(h, 1, h[3], h[6])
    else:
        return (complex(math.nan),) * 3
    mid = 0.5 * (b11 + b22)
    half_diff = 0.5 * (b11 - b22)
    disc = half_diff * half_diff + b12 * b21
    root = 1j * math.sqrt(-disc) if disc < 0.0 else math.sqrt(disc)
    return complex(x), complex(mid + root), complex(mid - root)


def _angle_and_axis(q: tuple) -> tuple:
    """(phi, axis) of the rotation of the quaternion q = (w, x, y, z): its
    angle phi = 2 atan2(|(x, y, z)|, |w|) in [0, pi], which keeps its digits
    near pi as near 0, and its unit axis, oriented so that the rotation
    turns by +phi about it, or the zero vector at phi = 0, where it has no
    axis.  A NaN quaternion gives NaN."""
    w, x, y, z = q
    # (w, x, y, z) and its negative are the same rotation: take w >= 0
    sin_half = math.copysign(math.hypot(x, y, z), w)
    if sin_half == 0.0:
        return 0.0, _ZERO3
    return 2.0 * math.atan2(abs(sin_half), abs(w)), (
        x / sin_half, y / sin_half, z / sin_half)


def _spectrum_of(prop: CyclePropagator) -> tuple:
    """(eigenvalues mu0..mu5, phi, gap, axis) of ``prop``'s one-period map,
    as :class:`CycleSpectrum` defines them, and the axis of its rotation
    without dephasing (``prop.rotation``; :func:`_fixed_point` solves along
    it), else None: the one place where the two eigen paths part, so that
    :func:`spectrum` and :func:`limit_cycle` report the same eigenvalues bit
    for bit and the solve takes the matching path.

    The gap is 1 - mu4, the map's b4 rate, read rather than searched for
    among the computed moduli, with this proof that mu4 = g_hot g_cold is
    the largest modulus after mu0 (g = exp(-Gamma tau), a bath stroke's b4
    scale):
    - a bath block is Q (g (+) k R(phi)) Q^T, with Q the orthogonal frame
      of the field axis (omega, J, 0) / Omega, its in-plane normal and the
      third axis, R(phi) a plane rotation and k = g exp(-2 gamma Omega^2
      tau) <= g (:func:`isochore_propagator`); so its 2-norm is g;
    - a sweep block is a rotation, of 2-norm 1;
    - so the cycle block M, their product, has ||M||_2 <= g_hot g_cold,
      which bounds |mu1|, |mu2| and |mu3|;
    - the b4 rule multiplies the strokes' b4 scales, g on a bath stroke
      and 1 on a sweep, so mu4 = g_hot g_cold is itself an eigenvalue, and
      the b5 rate is mu5 = g_hot^2 g_cold^2 = mu4^2 <= mu4.
    The gap thus depends on the spec alone, never on the eigensolver's
    error, and is never negative.

    Without dephasing (gamma = 0 in both baths) k = g, so each bath block
    is g times a rotation, and M = mu4 O with O a rotation by phi about an
    axis n.  Its eigenvalues are mu1 = mu4 (along n) and the pair mu2, mu3
    = mu4 e^{+-i phi} (across n): the paper's longitudinal mode and its
    transverse pair, with phi and n read from O's quaternion
    (:func:`_angle_and_axis`), not from M, which a subnormal mu4 leaves a
    few bits.  mu4 = 0 gives M = 0: three zero eigenvalues, phi = 0 and the
    zero axis.

    With dephasing the roles come from the shifted-QR eigensolver's split
    (:func:`_eigenvalues3`), with no tolerance: mu1 is the real root split
    off first and mu2, mu3 the 2x2 block's pair, unless its discriminant is
    >= 0 (imaginary parts exactly 0.0); then all three are sorted by
    modulus."""
    cycle, rotation = prop.cycle, prop.rotation
    block, mu4 = cycle.block, cycle.b4_scale
    axis = None
    if rotation is not None:
        phi, axis = _angle_and_axis(rotation) if mu4 else (0.0, _ZERO3)
        re, im = mu4 * math.cos(phi), mu4 * math.sin(phi)
        eigs = (complex(mu4), complex(re, im), complex(re, 0.0 - im))
    else:
        top = max(map(abs, (*block[0], *block[1], *block[2])))
        if top < 2.0**-500:
            # the 2x2 discriminant of so small a block underflows: solve it
            # scaled by an exact power of two, which changes no digit
            _, exponent = math.frexp(top)
            eigs = [complex(math.ldexp(e.real, exponent), math.ldexp(e.imag, exponent))
                    for e in _eigenvalues3([[math.ldexp(x, -exponent) for x in row]
                                            for row in block])]
        else:
            eigs = _eigenvalues3(block)
        if eigs[1].imag == 0.0:
            # all real (strong dephasing or degenerate rotation); the largest
            # modulus plays the longitudinal role
            eigs = tuple(sorted(eigs, key=lambda e: -abs(e)))
        phi = abs(math.atan2(eigs[1].imag, eigs[1].real))
    mu = (1.0 + 0j, *eigs, complex(mu4), complex(cycle.b5_scale))
    return mu, phi, 1.0 - mu4, axis


def spectrum(spec: CycleSpec) -> CycleSpectrum:
    """Full eigenvalue set mu0..mu5 of the one-period map, plus the phase phi.

    mu0 = 1 belongs to the fixed point; mu1 is the real (longitudinal)
    eigenvalue of the closed-set block, mu2/mu3 the transverse conjugate
    pair, however close to real, mu4/mu5 the (b4, b5) block rates.  When
    all three block eigenvalues are real they come by decreasing modulus.
    Without dephasing mu1 = mu4 and mu2, mu3 = mu4 e^{+-i phi}.
    """
    mu, phi, _, _ = _spectrum_of(compose_cycle(spec))
    return CycleSpectrum(eigenvalues=mu, phi=phi)


def _solve3(a, b) -> list[float]:
    """Solve a x = b for a 3x3 block a by Gaussian elimination with partial
    pivoting; a zero pivot gives NaN.  A pivot is the first largest |entry|
    of its column (max()'s rule: strict >, so a NaN never replaces one);
    the back substitution sums left to right from 0.0 (sum() compensates
    rounding from Python 3.12 on)."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    b1, b2, b3 = b
    # column 1: the pivot row t, then rows u and w in order
    t, u, w = (a11, a12, a13, b1), (a21, a22, a23, b2), (a31, a32, a33, b3)
    if abs(a21) > abs(a11):
        if abs(a31) > abs(a21):
            t, w = w, t
        else:
            t, u = u, t
    elif abs(a31) > abs(a11):
        t, w = w, t
    t1, t2, t3, t4 = t
    if t1 == 0.0:
        return [math.nan] * 3
    u1, u2, u3, u4 = u
    factor = u1 / t1
    u2, u3, u4 = u2 - factor * t2, u3 - factor * t3, u4 - factor * t4
    w1, w2, w3, w4 = w
    factor = w1 / t1
    w2, w3, w4 = w2 - factor * t2, w3 - factor * t3, w4 - factor * t4
    # column 2
    if abs(w2) > abs(u2):
        u2, u3, u4, w2, w3, w4 = w2, w3, w4, u2, u3, u4
    if u2 == 0.0:
        return [math.nan] * 3
    factor = w2 / u2
    w3, w4 = w3 - factor * u3, w4 - factor * u4
    if w3 == 0.0:
        return [math.nan] * 3
    x3 = w4 / w3
    x2 = (u4 - (0.0 + u3 * x3)) / u2
    return [(t4 - (0.0 + t2 * x2 + t3 * x3)) / t1, x2, x3]


def _fixed_point(prop: CyclePropagator) -> tuple:
    """(b_a, eigenvalues, phi, gap): the fixed point at the anchor and the
    spectrum (:func:`_spectrum_of`) of ``prop``'s one-period map, whose
    closed-set part is b -> M b + v.  Only the gap test and the physicality
    test refuse; past the gap test the solve is finite.  A NaN in what the
    solve reads (v, and M or ``prop.rotation``) gives a non-finite b_a,
    which is no state.

    Without dephasing M = mu4 O, O a rotation by phi about the axis n, and
    (I - M) b = v splits along n: there I - M is the number 1 - mu4, and
    across n, in the coordinate v1 + i v2 of an orthonormal pair (e1, e2)
    with e1 x e2 = n, it is 1 - mu4 e^{i phi} = (1 - mu4) + 2 mu4
    sin^2(phi/2) - i mu4 sin phi, whose modulus is at least 1 - mu4.  So
    b = (v . n) n / (1 - mu4) + (A v_perp + B n x v) / (A^2 + B^2), with
    v_perp = v - (v . n) n, A = (1 - mu4) + 2 mu4 sin^2(phi/2) and B = mu4
    sin phi, and 1 - mu4 formed as -expm1(-(Gamma_hot tau_hot + Gamma_cold
    tau_cold)), zero-length strokes left out so that inf * 0 never enters
    (1 - mu5 = 1 - mu4^2 likewise, for b5).  Past the gap test A >= 1 - mu4
    >= 0.99e-9, so the solve is finite, and it never sees the
    ill-conditioned direction, on which elimination loses digits in
    proportion to 1 / (1 - mu4).  At phi = 0, where O = I has no axis, and
    at mu4 = 0, where M = 0, the axis is the zero vector: then B = 0 and
    b = A v / A^2 = v / (1 - mu4) = (I - M)^-1 v, exactly v at mu4 = 0
    (A = 1 - mu4 = 1).

    With dephasing the solve is Gaussian elimination with partial pivoting
    (:func:`_solve3`): ||M||_2 <= mu4 (1 + 1.3e-15, measured) <= 1 - 0.99e-9,
    so sigma_min(I - M) >= 0.99e-9 dwarfs the 1e-14 backward error of
    partial pivoting on a 3x3 (Higham, Accuracy and Stability, Thm 9.3): no
    pivot is 0 and |b| <= 2e9.  Either way 1 - mu4^2 >= 2e-9 divides b5."""
    mu, phi, gap, axis = _spectrum_of(prop)
    if gap < UNIQUENESS_GAP:
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: spectral gap {gap:.3e} below {UNIQUENESS_GAP}",
            eigenvalues=mu,
        )
    block, shift, mu4, b5_scale, (d1, d2, d3), b5_shift = prop.cycle
    if axis is None:
        b1, b2, b3 = _solve3(_diagonal_minus(1.0, block), shift)
        b5_relaxed = 1.0 - b5_scale
    else:
        spec = prop.spec
        decay = 0.0
        if spec.tau_hot > 0.0:
            decay += spec.gamma_hot * spec.tau_hot
        if spec.tau_cold > 0.0:
            decay += spec.gamma_cold * spec.tau_cold
        relaxed = -math.expm1(-decay)
        b5_relaxed = -math.expm1(-2.0 * decay)  # 1 - mu5 = 1 - mu4^2
        (n1, n2, n3), (v1, v2, v3) = axis, shift
        along = n1 * v1 + n2 * v2 + n3 * v3
        b_n = along / relaxed
        sin_half = math.sin(0.5 * phi)
        a = relaxed + 2.0 * mu4 * sin_half * sin_half
        c = mu4 * math.sin(phi)
        scale = a * a + c * c
        a, c = a / scale, c / scale
        b1 = b_n * n1 + a * (v1 - along * n1) + c * (n2 * v3 - n3 * v2)
        b2 = b_n * n2 + a * (v2 - along * n2) + c * (n3 * v1 - n1 * v3)
        b3 = b_n * n3 + a * (v3 - along * n3) + c * (n1 * v2 - n2 * v1)
    # b4 has no inhomogeneous term on any branch; its fixed point is 0
    b_a = tuple.__new__(BlochVector, (
        b1, b2, b3, 0.0, (d1 * b1 + d2 * b2 + d3 * b3 + b5_shift) / b5_relaxed))
    if not is_physical(eigenvalue_tuple(b_a)):
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: the fixed point {tuple(b_a)} is not a physical "
            f"state (spectral gap {gap:.3e})",
            eigenvalues=mu,
        )
    return b_a, mu, phi, gap


def limit_cycle(spec: CycleSpec) -> LimitCycleReport:
    """Compose the cycle once; solve for its fixed point, spectrum and ledger.

    Raises :class:`NonUniqueLimitCycleError` for two reasons only: a spectral
    gap 1 - mu4 below 1e-9 (say, no time in either bath), or a fixed point
    that is not a physical state.  The ledger's ds_ext, ds_u and ds_e
    entries can be +-inf where a heat divided by a bath temperature
    overflows (:class:`ThermoLedger`); the limit cycle is still returned.
    """
    prop = compose_cycle(spec)
    b_a, mu, phi, gap = _fixed_point(prop)
    return tuple.__new__(LimitCycleReport, (b_a, mu, phi, gap, prop, _ledger(prop, b_a)))


def iterate(prop: CyclePropagator, b0: BlochVector, n: int) -> tuple:
    """The columns (b1, b2, b3, b4, b5) of the anchor-point states b_k, k =
    0..n, under repeated cycle maps, b0's components first, each state
    stepped from the map's entries, unpacked once, in
    :meth:`AffinePropagator.apply`'s order of operations, so bit for bit its
    states; ``zip(*columns)`` gives them one per cycle.  ValueError when n
    is not an integer >= 0 or b0 is not a physical state."""
    n = _count(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_start(b0, "b0")
    block, (v1, v2, v3), b4_scale, b5_scale, (d1, d2, d3), b5_shift = prop.cycle
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = block
    x, y, z, b4, b5 = b0
    c1, c2, c3, c4, c5 = columns = [x], [y], [z], [b4], [b5]
    for _ in range(n):
        x, y, z, b4, b5 = (
            a11 * x + a12 * y + a13 * z + v1,
            a21 * x + a22 * y + a23 * z + v2,
            a31 * x + a32 * y + a33 * z + v3,
            b4_scale * b4,
            b5_scale * b5 + (d1 * x + d2 * y + d3 * z) + b5_shift,
        )
        c1.append(x)
        c2.append(y)
        c3.append(z)
        c4.append(b4)
        c5.append(b5)
    return columns


def trajectory(prop: CyclePropagator, b_start: BlochVector, samples_per_branch: int) -> list:
    """Densely sampled states over one period: one tuple (branch, t, omega,
    b1, b2, b3, b4, b5) per stroke in time order, the stroke's
    samples_per_branch samples as columns, at evenly spaced times in [0,
    tau] (:func:`linspace`) offset by the stroke's start time since A.  A
    number in place of a column is shared by the stroke's samples: a bath
    stroke's field, and a sweep's b4 and b5, which it keeps.

    A stroke's first state is its start state itself: b_start for the first
    stroke, the previous stroke's last state for the others, so consecutive
    strokes share their corner state bit for bit.  Its later states are its
    maps at those times applied to the start state, computed from the
    stroke's per-time factors without forming a map: a bath stroke's closed
    form (:func:`_isochore_states`), the cold->hot sweep's blocks
    (:func:`_sweep_states`) and the hot->cold stroke's ramp run backwards
    from its end corner (:func:`_time_reversed_states`), both ramps from
    :func:`_ramps`.  ValueError when samples_per_branch is not an integer
    >= 2 or b_start is not a physical state; no later state is checked.
    """
    samples = _count(samples_per_branch, "samples_per_branch")
    if samples < 2:
        raise ValueError("samples_per_branch must be >= 2")
    _check_start(b_start, "b_start")
    branches = prop.branches
    (ramp, _), (rise, _) = _ramps(branches[1].stroke, branches[3].stroke, samples)
    strokes = []
    t0 = 0.0
    start = b_start
    for index, (name, stroke, _) in enumerate(branches):
        times = linspace(0.0, stroke.tau, samples)
        if index == 1:
            columns = _time_reversed_states(ramp[1:], start)
        elif index == 3:
            columns = _sweep_states(rise[1:], start)
        else:
            columns = _isochore_states(stroke, times[1:], start)
        # strokes 1 and 3 are the sweeps; a bath stroke's field is constant
        omega = list(map(stroke.omega_at, times)) if index % 2 else stroke.omega
        strokes.append((name, [t0 + t for t in times], omega, *columns))
        start = [c[-1] if isinstance(c, list) else c for c in columns]
        t0 += stroke.tau
    return strokes


def _ledger(prop: CyclePropagator, b_a: BlochVector) -> ThermoLedger:
    spec = prop.spec
    omega_b, j = spec.omega_b, spec.j
    (_, _, u_ish), (_, _, u_ba), (_, _, u_isc), _ = prop.branches
    b_b = u_ish.apply(b_a)
    b_c = u_ba.apply(b_b)
    b_d = u_isc.apply(b_c)

    # von Neumann entropy, energy entropy and energy of each corner
    (s_a, s_b, s_c, s_d), (se_a, se_b, se_c, se_d), (e_a, e_b, e_c, e_d) = _state_entropies(
        tuple(zip(b_a, b_b, b_c, b_d)), (omega_b, omega_b, spec.omega_a, spec.omega_a), j)

    q_hot = e_b - e_a
    q_cold = e_d - e_c
    # the heats over the bath temperatures: the external entropy flows
    hot = q_hot / spec.t_hot
    cold = q_cold / spec.t_cold
    return tuple.__new__(ThermoLedger, (
        q_hot, q_cold,
        e_a - e_d,  # w_ab
        e_c - e_b,  # w_ba
        (q_hot + q_cold) / spec.period,  # power
        -(hot + cold),  # ds_ext
        s_a - s_b - hot, s_c - s_d - cold,  # ds_u_hot, ds_u_cold
        se_a - se_b - hot, se_c - se_d - cold,  # ds_e_hot, ds_e_cold
        se_a - se_d, se_c - se_b,  # ds_e_ab, ds_e_ba
        b_a, b_b, b_c, b_d,
    ))
