"""Completely positive branch maps of the four-stroke cycle.

A branch propagator acts on the column (b1, b2, b3, 1) through a 4x4 affine
matrix whose bottom row is (0, 0, 0, 1), plus a closure rule for the (b4, b5)
pair.  Constant-field bath branches have a closed form; the driven branches
(linear field sweep, no bath) are built from three elementary rotation angles
obtained by integrating a small ODE system, with a brute-force time-ordered
product as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import SQRT2, BlochVector, thermal_state

# |cos(alpha2)| below this invalidates the angle ODEs (division blows up).
SINGULARITY_GUARD = 1e-6

# Relative and absolute tolerance of the angle-ODE integration.
SWEEP_TOLERANCE = 1e-10


class AdiabatSingularityError(RuntimeError):
    """The angle ODEs hit the cos(alpha2) ~ 0 singularity.

    The rotation-product construction is invalid there; fall back to
    :func:`adiabat_propagator_direct`.
    """


@dataclass(frozen=True)
class BathParams:
    """Bath coupling on a constant-field branch.

    ``conductance`` is the heat conductance Gamma = k_up + k_down,
    ``dephasing`` the dephasing constant (rate per squared frequency), and
    ``temperature`` the bath temperature.
    """

    conductance: float
    dephasing: float
    temperature: float

    def __post_init__(self):
        if self.conductance < 0.0:
            raise ValueError("conductance must be >= 0")
        if self.dephasing < 0.0:
            raise ValueError("dephasing must be >= 0")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")


@dataclass(frozen=True)
class IsochoreParams:
    """Constant-field branch: field omega, coupling j, bath, duration tau."""

    omega: float
    j: float
    bath: BathParams
    tau: float

    def __post_init__(self):
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")
        if math.hypot(self.omega, self.j) == 0.0:
            raise ValueError("omega and J cannot both vanish")


@dataclass(frozen=True)
class AdiabatParams:
    """Bath-free branch with the field swept linearly in time."""

    omega_start: float
    omega_end: float
    j: float
    tau: float

    def __post_init__(self):
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")

    def omega_at(self, t: float) -> float:
        if self.tau == 0.0:
            return self.omega_end
        return self.omega_start + (self.omega_end - self.omega_start) * t / self.tau


@dataclass(frozen=True)
class WeiNormanAngles:
    """The three rotation angles of the sweep propagator at a fixed time."""

    alpha1: float
    alpha2: float
    alpha3: float


@dataclass(frozen=True, eq=False)
class WeiNormanPath:
    """Angle solution over a whole sweep, with dense in-branch evaluation."""

    final: WeiNormanAngles
    max_abs_alpha2: float
    tau: float
    _dense: object = None

    def at(self, t: float) -> WeiNormanAngles:
        """Angles at elapsed time t in [0, tau]."""
        if not 0.0 <= t <= self.tau:
            raise ValueError(f"t = {t} outside [0, {self.tau}]")
        if t == 0.0 or self._dense is None:
            return WeiNormanAngles(0.0, 0.0, 0.0) if t < self.tau else self.final
        if t == self.tau:
            return self.final
        a1, a2, a3 = self._dense(t)
        return WeiNormanAngles(float(a1), float(a2), float(a3))


@dataclass(frozen=True, eq=False)
class AffinePropagator:
    """One branch map: affine action on (b1, b2, b3) plus the (b4, b5) rule.

    ``m`` is the 4x4 matrix acting on the column (b1, b2, b3, 1); its bottom
    row must be (0, 0, 0, 1).  The closure rule is

        b4' = b4_scale * b4
        b5' = b5_scale * b5 + b5_drive . (b1, b2, b3) + b5_shift

    where the drive couples b5 to the initial closed-set components.  Maps
    compose; immutable and safe to share.
    """

    m: np.ndarray
    b4_scale: float = 1.0
    b5_scale: float = 1.0
    b5_drive: np.ndarray = None
    b5_shift: float = 0.0

    def __post_init__(self):
        if self.b5_drive is None:
            object.__setattr__(self, "b5_drive", np.zeros(3))
        if self.m.shape != (4, 4):
            raise ValueError("m must be 4x4")
        if not np.array_equal(self.m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError("bottom row of m must be (0, 0, 0, 1)")

    def apply(self, b: BlochVector) -> BlochVector:
        v = np.array([b.b1, b.b2, b.b3])
        image = self.m[:3, :3] @ v + self.m[:3, 3]
        b4 = self.b4_scale * b.b4
        b5 = self.b5_scale * b.b5 + float(self.b5_drive @ v) + self.b5_shift
        return BlochVector(image[0], image[1], image[2], b4, b5)


def identity_propagator() -> AffinePropagator:
    return AffinePropagator(m=np.eye(4))


def compose(*props: AffinePropagator) -> AffinePropagator:
    """Compose branch maps; the rightmost argument acts first."""
    if not props:
        return identity_propagator()
    acc = props[-1]
    for outer in reversed(props[:-1]):
        a_in, v_in = acc.m[:3, :3], acc.m[:3, 3]
        acc = AffinePropagator(
            m=outer.m @ acc.m,
            b4_scale=outer.b4_scale * acc.b4_scale,
            b5_scale=outer.b5_scale * acc.b5_scale,
            b5_drive=outer.b5_scale * acc.b5_drive + a_in.T @ outer.b5_drive,
            b5_shift=outer.b5_scale * acc.b5_shift
            + float(outer.b5_drive @ v_in)
            + outer.b5_shift,
        )
    return acc


def isochore_propagator(p: IsochoreParams) -> AffinePropagator:
    """Closed-form map of a constant-field bath branch.

    The (b1, b2, b3) block combines a rotation by sqrt(2)*Omega*tau about the
    field axis (omega, J, 0)/Omega with longitudinal decay at rate Gamma
    toward the thermal values and transverse decay at Gamma + 2*gamma*Omega^2.
    b4 decays at rate Gamma toward zero; b5 decays at 2*Gamma toward its
    thermal value while driven by the decaying energy, which keeps the full
    map completely positive.
    """
    omega, j, tau = p.omega, p.j, p.tau
    gam = p.bath.conductance
    big_omega = math.hypot(omega, j)
    k = math.exp(-(gam + 2.0 * p.bath.dephasing * big_omega**2) * tau)
    x = math.exp(2.0 * p.bath.dephasing * big_omega**2 * tau)
    c = math.cos(SQRT2 * big_omega * tau)
    s = math.sin(SQRT2 * big_omega * tau)
    g = math.exp(-gam * tau)

    eq = thermal_state(omega, j, p.bath.temperature)
    om2 = big_omega**2
    m = np.array([
        [k * (x * omega**2 + c * j**2) / om2,
         k * omega * j * (x - c) / om2,
         k * j * s / big_omega,
         eq.b1 * (1.0 - g)],
        [k * omega * j * (x - c) / om2,
         k * (x * j**2 + c * omega**2) / om2,
         -k * omega * s / big_omega,
         eq.b2 * (1.0 - g)],
        [-k * j * s / big_omega,
         k * omega * s / big_omega,
         k * c,
         0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])

    # Exact solution of db5/dt = -2 Gamma b5 + sqrt(2) (k_up - k_down) E(t) / Omega
    # with E(t) relaxing exponentially toward its thermal value.
    t_th = math.tanh(big_omega / (2.0 * SQRT2 * p.bath.temperature))
    drive_coef = -(SQRT2 * t_th / big_omega) * (g - g * g)
    return AffinePropagator(
        m=m,
        b4_scale=g,
        b5_scale=g * g,
        b5_drive=drive_coef * np.array([omega, j, 0.0]),
        b5_shift=eq.b5 * (1.0 - g) ** 2,
    )


def _angle_odes(j: float, omega_of_t):
    def rhs(t, a):
        s1, c1 = math.sin(a[0]), math.cos(a[0])
        s2, c2 = math.sin(a[1]), math.cos(a[1])
        return (
            SQRT2 * omega_of_t(t) + SQRT2 * j * s1 * s2 / c2,
            SQRT2 * j * c1,
            SQRT2 * j * s1 / c2,
        )
    return rhs


def wei_norman_alphas(p: AdiabatParams) -> WeiNormanPath:
    """Integrate the coupled angle ODEs over the sweep.

    alpha1 accumulates the field rotation, alpha2/alpha3 the coupling-induced
    tilt.  Raises :class:`AdiabatSingularityError` if |cos(alpha2)| falls
    below the guard anywhere on the accepted path.
    """
    if p.tau == 0.0:
        return WeiNormanPath(WeiNormanAngles(0.0, 0.0, 0.0), 0.0, 0.0)

    # a sign change of cos(alpha2) catches paths that cross the singularity
    # inside a step; the guard band itself is checked on the accepted nodes
    def crossing(t, a):
        return math.cos(a[1])

    crossing.terminal = True

    sol = solve_ivp(
        _angle_odes(p.j, p.omega_at),
        (0.0, p.tau),
        [0.0, 0.0, 0.0],
        method="RK45",
        rtol=SWEEP_TOLERANCE,
        atol=SWEEP_TOLERANCE,
        dense_output=True,
        events=crossing,
    )
    singular = sol.t_events[0].size > 0 or not sol.success
    if not singular:
        nodes = np.abs(np.cos(sol.y[1]))
        dense = np.abs(np.cos(sol.sol(np.linspace(0.0, p.tau, 257))[1]))
        singular = min(nodes.min(), dense.min()) < SINGULARITY_GUARD
    if singular:
        raise AdiabatSingularityError(
            f"cos(alpha2) guard hit integrating sweep "
            f"{p.omega_start} -> {p.omega_end} over tau = {p.tau}"
        )
    max_a2 = float(np.max(np.abs(sol.y[1])))
    a1, a2, a3 = sol.y[:, -1]
    return WeiNormanPath(
        final=WeiNormanAngles(float(a1), float(a2), float(a3)),
        max_abs_alpha2=max_a2,
        tau=p.tau,
        _dense=sol.sol,
    )


def _axis_rotations(a1: float, a2: float, a3: float) -> np.ndarray:
    s1, c1 = math.sin(a1), math.cos(a1)
    s2, c2 = math.sin(a2), math.cos(a2)
    s3, c3 = math.sin(a3), math.cos(a3)
    r1 = np.array([[1.0, 0.0, 0.0], [0.0, c1, -s1], [0.0, s1, c1]])
    r2 = np.array([[c2, 0.0, s2], [0.0, 1.0, 0.0], [-s2, 0.0, c2]])
    r3 = np.array([[c3, -s3, 0.0], [s3, c3, 0.0], [0.0, 0.0, 1.0]])
    return r1 @ r2 @ r3


def adiabat_propagator(angles: WeiNormanAngles) -> AffinePropagator:
    """Assemble the sweep propagator from the integrated angles.

    The (b1, b2, b3) block is the rotation product R1(alpha1) @ R2(alpha2)
    @ R3(-alpha3); the sign of the third angle is fixed by the time-ordered
    product oracle (the naive ordering only agrees for constant fields).
    (b4, b5) commute with the generator for every field value and stay
    constant.
    """
    for a in (angles.alpha1, angles.alpha2, angles.alpha3):
        if not math.isfinite(a):
            raise ValueError("angles must be finite")
    m = np.eye(4)
    m[:3, :3] = _axis_rotations(angles.alpha1, angles.alpha2, -angles.alpha3)
    return AffinePropagator(m=m)


def adiabat_propagator_direct(p: AdiabatParams, n_steps: int) -> AffinePropagator:
    """Brute-force sweep propagator: product of midpoint-field rotations.

    Each step is a bath-free constant-field map at the field sampled at the
    step midpoint; the product converges to the true propagator as
    O(1/n_steps^2).  Independent oracle for :func:`adiabat_propagator`.
    """
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
    # pairwise tree product, index order = time order (rightmost acts first)
    while blocks.shape[0] > 1:
        n = blocks.shape[0]
        paired = np.matmul(blocks[1 : n - n % 2 : 2], blocks[0 : n - n % 2 : 2])
        if n % 2:
            blocks = np.concatenate([paired, blocks[-1:]], axis=0)
        else:
            blocks = paired
    m = np.eye(4)
    m[:3, :3] = blocks[0]
    return AffinePropagator(m=m)


def partial_isochore(p: IsochoreParams, t: float) -> AffinePropagator:
    """Map of the first t time units of a constant-field branch."""
    if not 0.0 <= t <= p.tau:
        raise ValueError(f"t = {t} outside [0, {p.tau}]")
    return isochore_propagator(replace(p, tau=t))
