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
Inside a period, :func:`_stroke_partials` gives each stroke's maps at all
its sample times in one pass, and :func:`trajectory` applies them to the
stroke's start corner.  Only ascending field ramps are integrated: the
hot->cold sweep is the time reversal of the cold->hot ramp run for its
duration, which with equally long sweeps is the cold->hot sweep itself,
integrated once.  Everything is plain floats, tuples and complex numbers.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import BlochVector, eigenvalue_tuple, is_physical
from .measures import energy_entropy, vn_entropy
from .propagators import (
    AdiabatParams,
    BathParams,
    IsochoreParams,
    _dot,
    _time_reversed,
    adiabat_partials,
    compose,
    isochore_partials,
    isochore_propagator,
)
from .records import IdentityRecord, Record, replace

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
        # building the strokes bounds the sweep rotation angles
        # (MAX_SWEEP_ANGLE) and the bath-stroke fields (FIELD_RANGE)
        self.adiabat_ab()
        self.adiabat_ba()
        self.hot_isochore()
        self.cold_isochore()
        if not math.isfinite(self.period):
            raise ValueError(f"period tau_hot + tau_ba + tau_cold + tau_ab = {self.period} "
                             "is not finite")
        return self

    @property
    def period(self) -> float:
        return self.tau_hot + self.tau_ba + self.tau_cold + self.tau_ab

    def hot_isochore(self) -> IsochoreParams:
        return IsochoreParams(
            omega=self.omega_b,
            j=self.j,
            bath=BathParams(self.gamma_hot, self.dephasing_hot, self.t_hot),
            tau=self.tau_hot,
        )

    def cold_isochore(self) -> IsochoreParams:
        return IsochoreParams(
            omega=self.omega_a,
            j=self.j,
            bath=BathParams(self.gamma_cold, self.dephasing_cold, self.t_cold),
            tau=self.tau_cold,
        )

    def adiabat_ba(self) -> AdiabatParams:
        return AdiabatParams(self.omega_b, self.omega_a, self.j, self.tau_ba)

    def adiabat_ab(self) -> AdiabatParams:
        return AdiabatParams(self.omega_a, self.omega_b, self.j, self.tau_ab)


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


def _sweep_partials(hot_cold, cold_hot, samples: int) -> tuple[list, list]:
    """(hot->cold, cold->hot) sweep maps at samples evenly spaced times over
    each sweep.  Only the ascending ramp is integrated
    (:func:`adiabat_partials`), for each duration; the hot->cold maps are its
    time reversals (:func:`_time_reversed`).  With equally long sweeps that
    ramp is the cold->hot sweep, integrated once."""
    ramp = cold_hot_maps = adiabat_partials(cold_hot, samples)
    if hot_cold.tau != cold_hot.tau:
        ramp = adiabat_partials(replace(cold_hot, tau=hot_cold.tau), samples)
    return _time_reversed(ramp), cold_hot_maps


def _stroke_partials(strokes, samples: int) -> tuple:
    """Maps of the first t time units of the four strokes, in time order, at
    samples evenly spaced t in [0, tau] (:func:`linspace`): the bath-stroke
    closed form (:func:`isochore_partials`) and :func:`_sweep_partials`."""
    hot, hot_cold, cold, cold_hot = strokes
    u_ba, u_ab = _sweep_partials(hot_cold, cold_hot, samples)
    return (isochore_partials(hot, linspace(0.0, hot.tau, samples)), u_ba,
            isochore_partials(cold, linspace(0.0, cold.tau, samples)), u_ab)


def compose_cycle(spec: CycleSpec) -> CyclePropagator:
    """Build the four strokes, their whole-stroke maps and the one-period
    product.  The maps come from the functions :func:`_stroke_partials`
    samples with: :func:`isochore_propagator`, and the last of two
    :func:`_sweep_partials` samples."""
    hot, cold = spec.hot_isochore(), spec.cold_isochore()
    hot_cold, cold_hot = spec.adiabat_ba(), spec.adiabat_ab()
    u_ish = isochore_propagator(hot)
    u_isc = isochore_propagator(cold)
    u_ba, u_ab = (maps[-1] for maps in _sweep_partials(hot_cold, cold_hot, 2))
    branches = (
        CycleBranch("isochore-hot", hot, u_ish),
        CycleBranch("adiabat-hot-cold", hot_cold, u_ba),
        CycleBranch("isochore-cold", cold, u_isc),
        CycleBranch("adiabat-cold-hot", cold_hot, u_ab),
    )
    cycle = compose(u_ab, u_isc, u_ba, u_ish)
    return CyclePropagator(cycle=cycle, branches=branches, spec=spec)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _diagonal_minus(x: float, a) -> tuple:
    """Rows of x I - a for a 3x3 block a."""
    return tuple(
        tuple((x if i == k else 0.0) - value for k, value in enumerate(row))
        for i, row in enumerate(a)
    )


def _null_vector(rows) -> tuple:
    """A vector orthogonal to all three rows: their largest pairwise cross
    product, or for rank <= 1 one orthogonal to the largest row."""
    r1, r2, r3 = rows
    best = max((_cross(r1, r2), _cross(r1, r3), _cross(r2, r3)), key=lambda u: _dot(u, u))
    if _dot(best, best) == 0.0:
        top = max(rows, key=lambda r: _dot(r, r))
        best = max((_cross(top, e) for e in _AXES), key=lambda u: _dot(u, u))
        if _dot(best, best) == 0.0:
            best = _AXES[0]
    return best


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
    the 2x2 block U^T a U on an orthonormal complement U of its eigenvector."""
    x = _real_root(a)
    shifted = _diagonal_minus(x, a)
    v = _null_vector(shifted)  # right eigenvector
    w = _null_vector(tuple(zip(*shifted)))  # left eigenvector
    av = tuple(_dot(row, v) for row in a)
    wv = _dot(w, v)
    if abs(wv) > 1e-8 * math.sqrt(_dot(w, w) * _dot(v, v)):
        x = _dot(w, av) / wv  # two-sided Rayleigh quotient
    norm = math.sqrt(_dot(v, v))
    v = tuple(c / norm for c in v)
    k = min(range(3), key=lambda i: abs(v[i]))
    u1 = tuple((1.0 if i == k else 0.0) - v[k] * v[i] for i in range(3))
    norm = math.sqrt(_dot(u1, u1))
    u1 = tuple(c / norm for c in u1)
    u2 = _cross(v, u1)
    au1 = tuple(_dot(row, u1) for row in a)
    au2 = tuple(_dot(row, u2) for row in a)
    b11, b12, b21, b22 = _dot(u1, au1), _dot(u1, au2), _dot(u2, au1), _dot(u2, au2)
    mid = 0.5 * (b11 + b22)
    half_diff = 0.5 * (b11 - b22)
    disc = half_diff * half_diff + b12 * b21
    root = 1j * math.sqrt(-disc) if disc < 0.0 else math.sqrt(disc)
    return complex(x), complex(mid + root), complex(mid - root)


def _spectrum_of(prop: CyclePropagator) -> CycleSpectrum:
    eigs = _eigenvalues3(prop.cycle.block)
    scale = max(1.0, max(abs(e) for e in eigs))
    real = [abs(e.imag) <= 1e-10 * scale for e in eigs]
    if sum(real) == 1:
        pair = sorted((e for e, r in zip(eigs, real) if not r), key=lambda e: -e.imag)
        mu123 = (eigs[real.index(True)], *pair)
    else:
        # all real (strong dephasing or degenerate rotation); the largest
        # modulus plays the longitudinal role
        mu123 = tuple(sorted(eigs, key=lambda e: -abs(e)))
    mu = (1.0 + 0j, *mu123, complex(prop.cycle.b4_scale), complex(prop.cycle.b5_scale))
    return CycleSpectrum(eigenvalues=mu, phi=abs(math.atan2(mu[2].imag, mu[2].real)))


def spectrum(spec: CycleSpec) -> CycleSpectrum:
    """Full eigenvalue set mu0..mu5 of the one-period map, plus the phase phi.

    mu0 = 1 belongs to the fixed point; mu1 is the real (longitudinal)
    eigenvalue of the closed-set block, mu2/mu3 the transverse conjugate
    pair, mu4/mu5 the (b4, b5) block rates.
    """
    return _spectrum_of(compose_cycle(spec))


def _solve3(a, b) -> list[float]:
    """Solve a x = b for a 3x3 block a by Gaussian elimination with partial
    pivoting; a zero pivot gives NaN."""
    rows = [list(row) + [value] for row, value in zip(a, b)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        if top[col] == 0.0:
            return [math.nan] * 3
        for row in rows[col + 1 :]:
            factor = row[col] / top[col]
            for c in range(col, 4):
                row[c] -= factor * top[c]
    x = [0.0] * 3
    for r in (2, 1, 0):
        row = rows[r]
        # summed left to right: sum() compensates rounding from Python 3.12 on
        known = 0.0
        for c in range(r + 1, 3):
            known += row[c] * x[c]
        x[r] = (row[3] - known) / row[r]
    return x


def _fixed_point(prop: CyclePropagator) -> tuple[BlochVector, CycleSpectrum]:
    spec_info = _spectrum_of(prop)
    if spec_info.gap < UNIQUENESS_GAP:
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: spectral gap {spec_info.gap:.3e} below "
            f"{UNIQUENESS_GAP}",
            eigenvalues=spec_info.eigenvalues,
        )
    cycle = prop.cycle
    b123 = _solve3(_diagonal_minus(1.0, cycle.block), cycle.shift)
    if not all(math.isfinite(v) for v in b123):
        raise NonUniqueLimitCycleError(
            "no unique limit cycle: the fixed-point solve is not finite",
            eigenvalues=spec_info.eigenvalues,
        )
    # b4 has no inhomogeneous term on any branch; its fixed point is 0
    b5 = (_dot(cycle.b5_drive, b123) + cycle.b5_shift) / (1.0 - cycle.b5_scale)
    b_a = BlochVector(b123[0], b123[1], b123[2], 0.0, b5)
    # the fixed point of a physical map is a state; a solve that leaves the
    # state space has lost its accuracy to a gap too close to 1
    if not is_physical(eigenvalue_tuple(b_a)):
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: the fixed point {tuple(b_a)} is not a physical "
            f"state (spectral gap {spec_info.gap:.3e})",
            eigenvalues=spec_info.eigenvalues,
        )
    return b_a, spec_info


def limit_cycle(spec: CycleSpec) -> LimitCycleReport:
    """Compose the cycle once; solve for its fixed point, spectrum and ledger.

    Raises :class:`NonUniqueLimitCycleError` when a second eigenvalue sits
    within 1e-9 of unit modulus (for example when no time is allocated to
    either bath branch), or when the fixed-point solve is not finite or not
    a physical state.
    """
    prop = compose_cycle(spec)
    b_a, spec_info = _fixed_point(prop)
    return LimitCycleReport(
        b_a=b_a,
        eigenvalues=spec_info.eigenvalues,
        phi=spec_info.phi,
        gap=spec_info.gap,
        propagator=prop,
        ledger=_ledger(prop, b_a),
    )


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
    endpoints, so consecutive branches share their corner state.  The state
    at time t of a branch is the map of the stroke's first t time units
    applied to its start corner; :func:`_stroke_partials` gives each
    stroke's maps for all sample times in one pass (the bath-stroke closed
    form, or the sweep's rotation blocks), integrating only ascending ramps
    as :func:`compose_cycle` does.  ValueError when samples_per_branch < 2.
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    strokes = [branch.stroke for branch in prop.branches]
    new = tuple.__new__
    samples = []
    t0 = 0.0
    state = b_start
    for (name, stroke, whole), maps in zip(prop.branches,
                                           _stroke_partials(strokes, samples_per_branch)):
        omega_at = stroke.omega_at
        for t, m in zip(linspace(0.0, stroke.tau, samples_per_branch), maps):
            samples.append(new(TrajectorySample, (name, t0 + t, omega_at(t), m.apply(state))))
        state = whole.apply(state)
        t0 += stroke.tau
    return samples


def _ledger(prop: CyclePropagator, b_a: BlochVector) -> ThermoLedger:
    spec = prop.spec
    u_ish, u_ba, u_isc, u_ab = (br.prop for br in prop.branches)
    b_b = u_ish.apply(b_a)
    b_c = u_ba.apply(b_b)
    b_d = u_isc.apply(b_c)

    e_a = energy(b_a, spec.omega_b, spec.j)
    e_b = energy(b_b, spec.omega_b, spec.j)
    e_c = energy(b_c, spec.omega_a, spec.j)
    e_d = energy(b_d, spec.omega_a, spec.j)

    q_hot = e_b - e_a
    q_cold = e_d - e_c
    w_ba = e_c - e_b
    w_ab = e_a - e_d
    power = (q_hot + q_cold) / spec.period
    ds_ext = -(q_hot / spec.t_hot + q_cold / spec.t_cold)

    s_a, s_b = vn_entropy(b_a), vn_entropy(b_b)
    s_c, s_d = vn_entropy(b_c), vn_entropy(b_d)
    se_a = energy_entropy(b_a, spec.omega_b, spec.j)
    se_b = energy_entropy(b_b, spec.omega_b, spec.j)
    se_c = energy_entropy(b_c, spec.omega_a, spec.j)
    se_d = energy_entropy(b_d, spec.omega_a, spec.j)

    return ThermoLedger(
        q_hot=q_hot,
        q_cold=q_cold,
        w_ab=w_ab,
        w_ba=w_ba,
        power=power,
        ds_ext=ds_ext,
        ds_u_hot=s_a - s_b - q_hot / spec.t_hot,
        ds_u_cold=s_c - s_d - q_cold / spec.t_cold,
        ds_e_hot=se_a - se_b - q_hot / spec.t_hot,
        ds_e_cold=se_c - se_d - q_cold / spec.t_cold,
        ds_e_ab=se_a - se_d,
        ds_e_ba=se_c - se_b,
        b_a=b_a,
        b_b=b_b,
        b_c=b_c,
        b_d=b_d,
    )
