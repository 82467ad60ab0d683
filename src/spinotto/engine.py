"""Cycle composition, limit-cycle analysis and the thermodynamic ledger.

A cycle runs four strokes from anchor point A (start of the hot bath
branch): hot isochore A->B at field omega_b, sweep B->C down to omega_a,
cold isochore C->D, sweep D->A back up.  The one-period map is the product
of the branch propagators; its unit-eigenvalue eigenvector is the limit
cycle and the remaining spectrum sets the relaxation rates toward it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import BlochVector
from .measures import energy_entropy, vn_entropy
from .propagators import (
    AdiabatParams,
    AffinePropagator,
    BathParams,
    IsochoreParams,
    adiabat_partials,
    adiabat_propagator,
    compose,
    identity_propagator,
    isochore_propagator,
    partial_isochore,
)

# A second unit-modulus eigenvalue within this gap of 1 means the fixed
# point is not unique.
UNIQUENESS_GAP = 1e-9


class NonUniqueLimitCycleError(RuntimeError):
    """The cycle map has no isolated unit eigenvalue; no unique limit cycle."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class SingularSystemError(RuntimeError):
    """The linear fixed-point system is numerically singular."""


@dataclass(frozen=True)
class CycleSpec:
    """All external controls of one engine cycle."""

    t_cold: float
    t_hot: float
    omega_a: float
    omega_b: float
    j: float
    gamma_cold: float
    gamma_hot: float
    dephasing_cold: float
    dephasing_hot: float
    tau_cold: float
    tau_hot: float
    tau_ab: float
    tau_ba: float

    def __post_init__(self):
        if self.t_cold <= 0.0 or self.t_hot <= 0.0:
            raise ValueError("bath temperatures must be > 0")
        for name in ("tau_cold", "tau_hot", "tau_ab", "tau_ba"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.gamma_cold < 0.0 or self.gamma_hot < 0.0:
            raise ValueError("heat conductances must be >= 0")
        if self.dephasing_cold < 0.0 or self.dephasing_hot < 0.0:
            raise ValueError("dephasing constants must be >= 0")
        if not self.omega_a < self.omega_b:
            raise ValueError("omega_a must be < omega_b")
        # building the strokes bounds the sweep rotation angles
        # (MAX_SWEEP_ANGLE) and the bath-stroke fields (FIELD_RANGE)
        self.adiabat_ab()
        self.adiabat_ba()
        self.hot_isochore()
        self.cold_isochore()

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


@dataclass(frozen=True, eq=False)
class CycleBranch:
    """One stroke with enough context to sample states inside it."""

    name: str
    kind: str  # "isochore" | "adiabat"
    duration: float
    prop: AffinePropagator
    isochore: IsochoreParams = None
    adiabat: AdiabatParams = None

    def omega_at(self, t: float) -> float:
        if self.kind == "isochore":
            return self.isochore.omega
        return self.adiabat.omega_at(t)

    def partials(self, samples: int) -> list[AffinePropagator]:
        """Maps of the first t time units of this branch at samples evenly
        spaced t in [0, duration] (np.linspace)."""
        if self.duration == 0.0:
            return [identity_propagator()] * samples
        if self.kind == "isochore":
            return [
                partial_isochore(self.isochore, float(t))
                for t in np.linspace(0.0, self.duration, samples)
            ]
        return adiabat_partials(self.adiabat, samples)


@dataclass(frozen=True, eq=False)
class CyclePropagator:
    """One-period map anchored at point A, with its branches retained."""

    cycle: AffinePropagator
    branches: tuple  # four CycleBranch in time order (A->B, B->C, C->D, D->A)
    spec: CycleSpec


@dataclass(frozen=True, eq=False)
class CycleSpectrum:
    """Eigenvalues mu0..mu5 of the one-period map and the transverse phase."""

    eigenvalues: np.ndarray  # shape (6,), complex, ordered mu0..mu5
    phi: float

    @property
    def gap(self) -> float:
        return 1.0 - float(np.max(np.abs(self.eigenvalues[1:])))


@dataclass(frozen=True, eq=False)
class LimitCycleReport:
    """Fixed point at the anchor, the full relaxation spectrum, the one-period
    map they were solved from and the thermodynamic ledger at the fixed point."""

    b_a: BlochVector
    eigenvalues: np.ndarray
    phi: float
    gap: float
    propagator: CyclePropagator
    ledger: ThermoLedger


@dataclass(frozen=True)
class ThermoLedger:
    """Per-cycle heats, works, power and entropy productions at the limit cycle.

    Heats are positive into the working medium; w_ab/w_ba are the medium
    energy changes on the field sweeps; power > 0 means net work delivered.
    The ds_u entries are the per-branch conditional-entropy productions
    evaluated with von Neumann entropies, the ds_e entries their energy-basis
    counterparts, and ds_e_ab/ds_e_ba the energy-entropy changes across the
    sweeps.
    """

    q_hot: float
    q_cold: float
    w_ab: float
    w_ba: float
    power: float
    ds_ext: float
    ds_u_hot: float
    ds_u_cold: float
    ds_e_hot: float
    ds_e_cold: float
    ds_e_ab: float
    ds_e_ba: float
    b_a: BlochVector = field(repr=False, default=None)
    b_b: BlochVector = field(repr=False, default=None)
    b_c: BlochVector = field(repr=False, default=None)
    b_d: BlochVector = field(repr=False, default=None)

    @property
    def ds_u_total(self) -> float:
        return self.ds_u_hot + self.ds_u_cold


def energy(b: BlochVector, omega: float, j: float) -> float:
    """Expected energy omega*b1 + J*b2 at field omega."""
    return omega * b.b1 + j * b.b2


def compose_cycle(spec: CycleSpec) -> CyclePropagator:
    """Build the four branch maps and their one-period product."""
    iso_h = spec.hot_isochore()
    iso_c = spec.cold_isochore()
    ad_ba = spec.adiabat_ba()
    ad_ab = spec.adiabat_ab()

    u_ish = isochore_propagator(iso_h)
    u_ba = adiabat_propagator(ad_ba)
    u_isc = isochore_propagator(iso_c)
    u_ab = adiabat_propagator(ad_ab)

    branches = (
        CycleBranch("isochore-hot", "isochore", spec.tau_hot, u_ish, isochore=iso_h),
        CycleBranch("adiabat-hot-cold", "adiabat", spec.tau_ba, u_ba, adiabat=ad_ba),
        CycleBranch("isochore-cold", "isochore", spec.tau_cold, u_isc, isochore=iso_c),
        CycleBranch("adiabat-cold-hot", "adiabat", spec.tau_ab, u_ab, adiabat=ad_ab),
    )
    cycle = compose(u_ab, u_isc, u_ba, u_ish)
    return CyclePropagator(cycle=cycle, branches=branches, spec=spec)


def _spectrum_of(prop: CyclePropagator) -> CycleSpectrum:
    block = prop.cycle.m[:3, :3]
    eigs = np.linalg.eigvals(block)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    real_mask = np.abs(eigs.imag) <= 1e-10 * scale
    idx = np.arange(3)
    if real_mask.sum() == 1:
        i1 = idx[real_mask][0]
        pair = sorted(idx[~real_mask], key=lambda i: -eigs[i].imag)
        order = [i1, pair[0], pair[1]]
    else:
        # all real (strong dephasing or degenerate rotation); the largest
        # modulus plays the longitudinal role
        order = list(np.argsort(-np.abs(eigs)))
    mu123 = eigs[order]
    mu = np.empty(6, dtype=complex)
    mu[0] = 1.0
    mu[1:4] = mu123
    mu[4] = prop.cycle.b4_scale
    mu[5] = prop.cycle.b5_scale
    phi = float(abs(np.angle(mu[2])))
    return CycleSpectrum(eigenvalues=mu, phi=phi)


def spectrum(spec: CycleSpec) -> CycleSpectrum:
    """Full eigenvalue set mu0..mu5 of the one-period map, plus the phase phi.

    mu0 = 1 belongs to the fixed point; mu1 is the real (longitudinal)
    eigenvalue of the closed-set block, mu2/mu3 the transverse conjugate
    pair, mu4/mu5 the (b4, b5) block rates.
    """
    return _spectrum_of(compose_cycle(spec))


def _fixed_point(prop: CyclePropagator) -> tuple[BlochVector, CycleSpectrum]:
    spec_info = _spectrum_of(prop)
    if spec_info.gap < UNIQUENESS_GAP:
        raise NonUniqueLimitCycleError(
            f"no unique limit cycle: spectral gap {spec_info.gap:.3e} below "
            f"{UNIQUENESS_GAP}",
            eigenvalues=spec_info.eigenvalues,
        )
    block = prop.cycle.m[:3, :3]
    inhom = prop.cycle.m[:3, 3]
    system = np.eye(3) - block
    try:
        b123 = np.linalg.solve(system, inhom)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(b123)):
        raise SingularSystemError("fixed-point solve produced non-finite values")
    # b4 has no inhomogeneous term on any branch; its fixed point is 0
    b4 = 0.0
    b5 = (float(prop.cycle.b5_drive @ b123) + prop.cycle.b5_shift) / (
        1.0 - prop.cycle.b5_scale
    )
    b_a = BlochVector(b123[0], b123[1], b123[2], b4, b5)
    return b_a, spec_info


def limit_cycle(spec: CycleSpec) -> LimitCycleReport:
    """Compose the cycle once; solve for its fixed point, spectrum and ledger.

    Raises :class:`NonUniqueLimitCycleError` when a second eigenvalue sits
    within 1e-9 of unit modulus (for example when no time is allocated to
    either bath branch) and :class:`SingularSystemError` if the linear
    system cannot be solved.
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


@dataclass(frozen=True)
class TrajectorySample:
    """One sampled point along the cycle trajectory."""

    branch: str
    t: float
    omega: float
    state: BlochVector


def trajectory(
    prop: CyclePropagator, b_start: BlochVector, samples_per_branch: int
) -> list[TrajectorySample]:
    """Densely sampled states over one period, branch by branch.

    Each branch contributes samples_per_branch points including both
    endpoints, so consecutive branches share their corner state.
    """
    if samples_per_branch < 2:
        raise ValueError("samples_per_branch must be >= 2")
    out = []
    t0 = 0.0
    state = b_start
    for branch in prop.branches:
        times = np.linspace(0.0, branch.duration, samples_per_branch)
        for t, partial in zip(times, branch.partials(samples_per_branch)):
            out.append(TrajectorySample(
                branch.name, t0 + float(t), branch.omega_at(float(t)), partial.apply(state)
            ))
        state = branch.prop.apply(state)
        t0 += branch.duration
    return out


def thermo_ledger(spec: CycleSpec) -> ThermoLedger:
    """Heats, works, power and entropy productions at the limit cycle.

    Requires a unique limit cycle; :class:`NonUniqueLimitCycleError`
    propagates otherwise.
    """
    return limit_cycle(spec).ledger


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
