"""Cycle composition, limit-cycle analysis and the thermodynamic ledger.

A cycle runs four strokes from anchor point A (start of the hot bath
branch): hot isochore A->B at field omega_b, sweep B->C down to omega_a,
cold isochore C->D, sweep D->A back up.  The one-period map is the product
of the branch propagators; its unit-eigenvalue eigenvector is the limit
cycle and the remaining spectrum sets the relaxation rates toward it.  The
map's closed-set part is a 3x3 block, so the fixed point is a 3x3 solve with
partial pivoting and the spectrum a small 3x3 eigensolver: one real root of
the characteristic cubic, refined by a two-sided Rayleigh quotient, and the
remaining pair from the 2x2 block left when its eigenvector is deflated.
:func:`_stroke_partials` gives each stroke's maps at its sample times after
t = 0, the whole-stroke maps of :func:`compose_cycle` at two samples, and
:func:`trajectory` applies them to the previous stroke's last sample.  Only
ascending field ramps are integrated: the hot->cold stroke reverses the
cold->hot ramp run for its duration (with equally long sweeps, the cold->hot
sweep itself), by its whole map or from the stroke's end corner.
Everything is plain floats, tuples and complex numbers.

A limit-cycle row is one flat pass: :class:`CycleSpec` checks every bound
once, those of its four strokes with the checks their constructors run, so
its stroke methods build the stroke records without the constructors;
:func:`compose_cycle` takes the strokes from those methods, builds the
branch records and composes the four maps; :func:`_fixed_point` runs the
eigensolver, the solve and the physicality check, and :func:`_ledger` the
corner entropies, all on unpacked floats.  Each step does the float
operations of the generic loops it replaced, in their order, so no printed
digit depends on the flattening.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import BlochVector, eigenvalue_tuple, is_physical
from .measures import _state_entropies
from .propagators import (
    AdiabatParams,
    BathParams,
    IsochoreParams,
    _IDENTITY_BLOCK,
    _check_bath_stroke,
    _check_sweep,
    _dot,
    _time_reversed,
    _time_reversed_states,
    adiabat_partials,
    compose,
    isochore_partials,
)
from .records import IdentityRecord, Record

# A second unit-modulus eigenvalue within this gap of 1 means the fixed
# point is not unique.
UNIQUENESS_GAP = 1e-9


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


class CyclePropagator(IdentityRecord, namedtuple("CyclePropagator", "cycle branches spec")):
    """One-period map anchored at point A, with its branches retained.

    ``cycle`` is the :class:`AffinePropagator` of the period, ``branches``
    the four :class:`CycleBranch` in time order (A->B, B->C, C->D, D->A)
    and ``spec`` the :class:`CycleSpec` they were built from.
    """

    __slots__ = ()


class CycleSpectrum(IdentityRecord, namedtuple("CycleSpectrum", "eigenvalues phi")):
    """Eigenvalues mu0..mu5 of the one-period map (six complex, in order)
    and the transverse phase."""

    __slots__ = ()

    @property
    def gap(self) -> float:
        return 1.0 - max(abs(mu) for mu in self.eigenvalues[1:])


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
), defaults=(None,) * 4)):
    """Per-cycle heats, works, power and entropy productions at the limit cycle.

    Heats are positive into the working medium; w_ab/w_ba are the medium
    energy changes on the field sweeps; power > 0 means net work delivered.
    The ds_u entries are the per-branch conditional-entropy productions
    evaluated with von Neumann entropies, the ds_e entries their energy-basis
    counterparts, and ds_e_ab/ds_e_ba the energy-entropy changes across the
    sweeps.  b_a..b_d are the corner states (:class:`BlochVector`); the repr
    leaves them out.
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


def energy(b: BlochVector, omega: float, j: float) -> float:
    """Expected energy omega*b1 + J*b2 at field omega."""
    return omega * b.b1 + j * b.b2


def _stroke_partials(strokes, samples: int) -> tuple:
    """Maps of the first t time units of the four strokes, in time order, at
    the samples - 1 times t > 0 of samples evenly spaced t in [0, tau]
    (:func:`linspace`): the bath-stroke closed form (:func:`isochore_partials`)
    and the ascending sweep (:func:`adiabat_partials`).  The hot->cold entry
    is the ascending ramp run for its duration, with equally long sweeps the
    cold->hot sweep itself, which its consumers run backwards."""
    hot, hot_cold, cold, cold_hot = strokes
    ramp = u_ab = adiabat_partials(cold_hot, samples)[1:]
    if hot_cold.tau != cold_hot.tau:
        start, end, j, tau = hot_cold  # run backwards, the same checked bounds
        ramp = adiabat_partials(tuple.__new__(AdiabatParams, (end, start, j, tau)), samples)[1:]
    return (isochore_partials(hot, linspace(0.0, hot.tau, samples)[1:]), ramp,
            isochore_partials(cold, linspace(0.0, cold.tau, samples)[1:]), u_ab)


def compose_cycle(spec: CycleSpec) -> CyclePropagator:
    """The spec's four strokes (its stroke methods), their whole-stroke maps
    and the one-period product.  The maps are :func:`_stroke_partials` at
    two samples per stroke, the sampler :func:`trajectory` uses."""
    new = tuple.__new__
    strokes = hot, hot_cold, cold, cold_hot = (
        spec.hot_isochore(), spec.adiabat_ba(), spec.cold_isochore(), spec.adiabat_ab())
    (u_ish,), (ramp,), (u_isc,), (u_ab,) = _stroke_partials(strokes, 2)
    u_ba = _time_reversed(ramp)
    branches = (
        new(CycleBranch, ("isochore-hot", hot, u_ish)),
        new(CycleBranch, ("adiabat-hot-cold", hot_cold, u_ba)),
        new(CycleBranch, ("isochore-cold", cold, u_isc)),
        new(CycleBranch, ("adiabat-cold-hot", cold_hot, u_ab)),
    )
    return new(CyclePropagator, (compose(u_ab, u_isc, u_ba, u_ish), branches, spec))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _diagonal_minus(x: float, a) -> tuple:
    """Rows of x I - a for a 3x3 block a."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return ((x - a11, 0.0 - a12, 0.0 - a13),
            (0.0 - a21, x - a22, 0.0 - a23),
            (0.0 - a31, 0.0 - a32, x - a33))


def _null_vector(rows) -> tuple:
    """A vector orthogonal to all three rows: the first largest of their
    pairwise cross products (r1 x r2, r1 x r3, r2 x r3; max()'s rule, so a
    NaN norm never replaces one), or for rank <= 1 one orthogonal to the
    largest row."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    x, y, z = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    size = x * x + y * y + z * z
    u1, u2, u3 = a2 * c3 - a3 * c2, a3 * c1 - a1 * c3, a1 * c2 - a2 * c1
    norm = u1 * u1 + u2 * u2 + u3 * u3
    if norm > size:
        x, y, z, size = u1, u2, u3, norm
    u1, u2, u3 = b2 * c3 - b3 * c2, b3 * c1 - b1 * c3, b1 * c2 - b2 * c1
    norm = u1 * u1 + u2 * u2 + u3 * u3
    if norm > size:
        x, y, z, size = u1, u2, u3, norm
    if size == 0.0:
        top = max(rows, key=lambda r: _dot(r, r))
        best = max((_cross(top, e) for e in _IDENTITY_BLOCK), key=lambda u: _dot(u, u))
        return _IDENTITY_BLOCK[0] if _dot(best, best) == 0.0 else best
    return x, y, z


def _real_root(a) -> float:
    """A real eigenvalue of the 3x3 block a: Newton on the characteristic
    cubic from the Cauchy bound, kept inside a sign-change bracket."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    c2 = a11 + a22 + a33
    c1 = a11 * a22 - a12 * a21 + a11 * a33 - a13 * a31 + a22 * a33 - a23 * a32
    c0 = _dot(a[0], _cross(a[1], a[2]))
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


def _eigenvalues3(a) -> tuple[complex, complex, complex]:
    """Eigenvalues of a real 3x3 block: a real one, then the other two from
    the 2x2 block U^T a U on an orthonormal complement U = (u, p) of its
    eigenvector v, where u is the axis least along v with v's component
    removed (the first such axis, as min() picks it) and p = v x u."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    x = _real_root(a)
    shifted = (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = _diagonal_minus(x, a)
    v1, v2, v3 = _null_vector(shifted)  # right eigenvector
    w1, w2, w3 = _null_vector(((s11, s21, s31), (s12, s22, s32), (s13, s23, s33)))  # left
    vv = v1 * v1 + v2 * v2 + v3 * v3
    wv = w1 * v1 + w2 * v2 + w3 * v3
    if abs(wv) > 1e-8 * math.sqrt((w1 * w1 + w2 * w2 + w3 * w3) * vv):
        # two-sided Rayleigh quotient w . a v / w . v
        x = (w1 * (a11 * v1 + a12 * v2 + a13 * v3) + w2 * (a21 * v1 + a22 * v2 + a23 * v3)
             + w3 * (a31 * v1 + a32 * v2 + a33 * v3)) / wv
    norm = math.sqrt(vv)
    v1, v2, v3 = v1 / norm, v2 / norm, v3 / norm
    k, vk = 0, v1
    if abs(v2) < abs(vk):
        k, vk = 1, v2
    if abs(v3) < abs(vk):
        k, vk = 2, v3
    e1, e2, e3 = _IDENTITY_BLOCK[k]
    u1, u2, u3 = e1 - vk * v1, e2 - vk * v2, e3 - vk * v3
    norm = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3)
    u1, u2, u3 = u1 / norm, u2 / norm, u3 / norm
    p1, p2, p3 = v2 * u3 - v3 * u2, v3 * u1 - v1 * u3, v1 * u2 - v2 * u1
    au1, au2, au3 = (a11 * u1 + a12 * u2 + a13 * u3, a21 * u1 + a22 * u2 + a23 * u3,
                     a31 * u1 + a32 * u2 + a33 * u3)
    ap1, ap2, ap3 = (a11 * p1 + a12 * p2 + a13 * p3, a21 * p1 + a22 * p2 + a23 * p3,
                     a31 * p1 + a32 * p2 + a33 * p3)
    b11 = u1 * au1 + u2 * au2 + u3 * au3
    b12 = u1 * ap1 + u2 * ap2 + u3 * ap3
    b21 = p1 * au1 + p2 * au2 + p3 * au3
    b22 = p1 * ap1 + p2 * ap2 + p3 * ap3
    mid = 0.5 * (b11 + b22)
    half_diff = 0.5 * (b11 - b22)
    disc = half_diff * half_diff + b12 * b21
    root = 1j * math.sqrt(-disc) if disc < 0.0 else math.sqrt(disc)
    return complex(x), complex(mid + root), complex(mid - root)


def _spectrum_of(cycle) -> tuple:
    """(eigenvalues mu0..mu5, phi, gap) of the one-period map ``cycle``, as
    :class:`CycleSpectrum` defines them."""
    eigs = _eigenvalues3(cycle.block)
    # the first is real; the other two are real together or a conjugate
    # pair, the positive imaginary part first, whose |imag| are equal
    if abs(eigs[1].imag) <= 1e-10 * max(1.0, max(map(abs, eigs))):
        # all real (strong dephasing or degenerate rotation); the largest
        # modulus plays the longitudinal role
        eigs = tuple(sorted(eigs, key=lambda e: -abs(e)))
    mu = (1.0 + 0j, *eigs, complex(cycle.b4_scale), complex(cycle.b5_scale))
    return mu, abs(math.atan2(mu[2].imag, mu[2].real)), 1.0 - max(map(abs, mu[1:]))


def spectrum(spec: CycleSpec) -> CycleSpectrum:
    """Full eigenvalue set mu0..mu5 of the one-period map, plus the phase phi.

    mu0 = 1 belongs to the fixed point; mu1 is the real (longitudinal)
    eigenvalue of the closed-set block, mu2/mu3 the transverse conjugate
    pair, mu4/mu5 the (b4, b5) block rates.
    """
    mu, phi, _ = _spectrum_of(compose_cycle(spec).cycle)
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
    spectrum (:func:`_spectrum_of`) of ``prop``'s one-period map."""
    cycle = prop.cycle
    mu, phi, gap = _spectrum_of(cycle)
    if gap < UNIQUENESS_GAP:
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: spectral gap {gap:.3e} below {UNIQUENESS_GAP}",
            eigenvalues=mu,
        )
    block, shift, _, b5_scale, (d1, d2, d3), b5_shift = cycle
    b1, b2, b3 = _solve3(_diagonal_minus(1.0, block), shift)
    if not (math.isfinite(b1) and math.isfinite(b2) and math.isfinite(b3)):
        raise NonUniqueLimitCycleError(
            "no unique limit cycle: the fixed-point solve is not finite",
            eigenvalues=mu,
        )
    # b4 has no inhomogeneous term on any branch; its fixed point is 0
    b_a = tuple.__new__(BlochVector, (
        b1, b2, b3, 0.0, (d1 * b1 + d2 * b2 + d3 * b3 + b5_shift) / (1.0 - b5_scale)))
    # the fixed point of a physical map is a state; a solve that leaves the
    # state space has lost its accuracy to a gap too close to 1
    if not is_physical(eigenvalue_tuple(b_a)):
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: the fixed point {tuple(b_a)} is not a physical "
            f"state (spectral gap {gap:.3e})",
            eigenvalues=mu,
        )
    return b_a, mu, phi, gap


def limit_cycle(spec: CycleSpec) -> LimitCycleReport:
    """Compose the cycle once; solve for its fixed point, spectrum and ledger.

    Raises :class:`NonUniqueLimitCycleError` when a second eigenvalue sits
    within 1e-9 of unit modulus (for example when no time is allocated to
    either bath branch), or when the fixed-point solve is not finite or not
    a physical state.
    """
    prop = compose_cycle(spec)
    b_a, mu, phi, gap = _fixed_point(prop)
    return tuple.__new__(LimitCycleReport, (b_a, mu, phi, gap, prop, _ledger(prop, b_a)))


def iterate(prop: CyclePropagator, b0: BlochVector, n: int) -> list[BlochVector]:
    """Anchor-point states b_k for k = 0..n under repeated cycle maps."""
    if n < 0:
        raise ValueError("n must be >= 0")
    states = [b0]
    b = b0
    for _ in range(n):
        b = prop.cycle.apply(b)
        states.append(b)
    return states


class TrajectorySample(Record, namedtuple("TrajectorySample", "branch t omega state")):
    """One sampled point along the cycle trajectory: the branch name, the
    time since A, the field and the state (a :class:`BlochVector`)."""

    __slots__ = ()


def trajectory(
    prop: CyclePropagator, b_start: BlochVector, samples_per_branch: int
) -> list[TrajectorySample]:
    """Densely sampled states over one period, branch by branch.

    Each branch contributes samples_per_branch points including both
    endpoints.  A stroke's first sample is its start state itself: b_start
    for the first stroke, the previous stroke's last sample for the others,
    so consecutive branches share their corner state bit for bit.  Its
    state at a later time t is the map of the stroke's first t time units
    applied to that start state; :func:`_stroke_partials`, the sampler of
    :func:`compose_cycle`, gives each stroke's maps for all sample times in
    one pass, the hot->cold ramp run backwards from the stroke's end corner
    (:func:`_time_reversed_states`).  ValueError when samples_per_branch < 2.
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    strokes = [branch.stroke for branch in prop.branches]
    new = tuple.__new__
    samples = []
    t0 = 0.0
    start = b_start
    for index, ((name, stroke, _), maps) in enumerate(zip(
            prop.branches, _stroke_partials(strokes, samples_per_branch))):
        omega_at = stroke.omega_at
        states = (_time_reversed_states(maps, start) if index == 1
                  else [start] + [m.apply(start) for m in maps])
        for t, state in zip(linspace(0.0, stroke.tau, samples_per_branch), states):
            samples.append(new(TrajectorySample, (name, t0 + t, omega_at(t), state)))
        start = states[-1]
        t0 += stroke.tau
    return samples


def _ledger(prop: CyclePropagator, b_a: BlochVector) -> ThermoLedger:
    spec = prop.spec
    omega_b, j = spec.omega_b, spec.j
    (_, _, u_ish), (_, _, u_ba), (_, _, u_isc), _ = prop.branches
    b_b = u_ish.apply(b_a)
    b_c = u_ba.apply(b_b)
    b_d = u_isc.apply(b_c)

    # von Neumann entropy, energy entropy and energy of each corner
    s_a, se_a, e_a = _state_entropies(b_a, omega_b, j)
    s_b, se_b, e_b = _state_entropies(b_b, omega_b, j)
    s_c, se_c, e_c = _state_entropies(b_c, spec.omega_a, j)
    s_d, se_d, e_d = _state_entropies(b_d, spec.omega_a, j)

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
