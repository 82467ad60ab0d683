"""Completely positive branch maps of the four-stroke cycle.

A branch propagator acts on the column (b1, b2, b3, 1) through a 4x4 affine
matrix whose bottom row is (0, 0, 0, 1), plus a closure rule for the (b4, b5)
pair.  Constant-field bath branches have a closed form.  The driven branches
(linear field sweep, no bath) are rotations whose generator is linear in the
field; they are integrated with a fourth-order Magnus product (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), and a brute-force
midpoint-field product serves as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import SQRT2, BlochVector, field_magnitude, thermal_state

# Error target of the sweep integrator: the step count doubles until the
# error estimate of the finer product, (change on doubling) / 15, is below it.
SWEEP_TOLERANCE = 1e-12

# Largest accepted sweep rotation angle sqrt(2) * max Omega * tau in radians;
# it bounds the integrator work (about 4e4 steps at the limit).
MAX_SWEEP_ANGLE = 1e4


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
        field_magnitude(self.omega, self.j)


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
        if not self.rotation_angle <= MAX_SWEEP_ANGLE:
            raise ValueError(
                f"sweep rotation angle {self.rotation_angle:.4g} rad exceeds the "
                f"limit MAX_SWEEP_ANGLE = {MAX_SWEEP_ANGLE:g} rad"
            )

    @property
    def rotation_angle(self) -> float:
        """Upper bound sqrt(2) * max Omega * tau of the total rotation angle."""
        big = math.hypot(max(abs(self.omega_start), abs(self.omega_end)), self.j)
        return SQRT2 * big * self.tau

    def omega_at(self, t: float) -> float:
        if self.tau == 0.0:
            return self.omega_end
        return self.omega_start + (self.omega_end - self.omega_start) * t / self.tau


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
    transverse_rate = gam + 2.0 * p.bath.dephasing * big_omega**2
    # tau = 0 is no decay even when the rate overflows to inf (inf * 0 is NaN)
    k = math.exp(-transverse_rate * tau) if tau > 0.0 else 1.0
    c = math.cos(SQRT2 * big_omega * tau)
    s = math.sin(SQRT2 * big_omega * tau)
    g = math.exp(-gam * tau)

    eq = thermal_state(omega, j, p.bath.temperature)
    om2 = big_omega**2
    m = np.array([
        [(g * omega**2 + k * c * j**2) / om2,
         omega * j * (g - k * c) / om2,
         k * j * s / big_omega,
         eq.b1 * (1.0 - g)],
        [omega * j * (g - k * c) / om2,
         (g * j**2 + k * c * omega**2) / om2,
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


def _rotations(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rodrigues exponentials exp([r]_x) of the rotation vectors r = (x, y, z)."""
    theta = np.sqrt(x * x + y * y + z * z)
    a = np.sinc(theta / np.pi)  # sin(theta) / theta
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2  # (1 - cos(theta)) / theta^2
    out = np.empty(theta.shape + (3, 3))
    out[..., 0, 0] = 1.0 - b * (y * y + z * z)
    out[..., 0, 1] = b * x * y - a * z
    out[..., 0, 2] = b * x * z + a * y
    out[..., 1, 0] = b * x * y + a * z
    out[..., 1, 1] = 1.0 - b * (x * x + z * z)
    out[..., 1, 2] = b * y * z - a * x
    out[..., 2, 0] = b * x * z - a * y
    out[..., 2, 1] = b * y * z + a * x
    out[..., 2, 2] = 1.0 - b * (x * x + y * y)
    return out


def _time_ordered_product(blocks: np.ndarray) -> np.ndarray:
    """Product of the blocks along axis -3, the last index acting last.

    Pairwise tree product: each pass multiplies neighbours in one batched
    matmul, so n blocks take about log2(n) passes.
    """
    while blocks.shape[-3] > 1:
        n = blocks.shape[-3]
        paired = np.matmul(blocks[..., 1 : n - n % 2 : 2, :, :],
                           blocks[..., 0 : n - n % 2 : 2, :, :])
        if n % 2:
            paired = np.concatenate([paired, blocks[..., -1:, :, :]], axis=-3)
        blocks = paired
    return blocks[..., 0, :, :]


def _magnus_maps(p: AdiabatParams, segments: int, per_segment: int) -> np.ndarray:
    """Rotation blocks of the first k segments, k = 0..segments.

    The generator sqrt(2) [(omega(t), J, 0)]_x is linear in t, so the
    fourth-order Magnus exponent of a step of length h is the rotation
    vector (sqrt(2) omega_mid h, sqrt(2) J h, omega' J h^3 / 6): the field
    integral plus the one commutator term, both in closed form.
    """
    n = segments * per_segment
    h = p.tau / n
    sweep = p.omega_end - p.omega_start
    omega_mid = p.omega_start + sweep * (np.arange(n) + 0.5) / n
    # omega' h^3 = sweep h^2 / n: no division by a tau that may be subnormal
    steps = _rotations(
        SQRT2 * h * omega_mid,
        np.full(n, SQRT2 * h * p.j),
        np.full(n, sweep * p.j * h * h / (6.0 * n)),
    )
    seg = _time_ordered_product(steps.reshape(segments, per_segment, 3, 3))
    maps = np.empty((segments + 1, 3, 3))
    maps[0] = np.eye(3)
    for k in range(segments):
        maps[k + 1] = seg[k] @ maps[k]
    return maps


def adiabat_partials(p: AdiabatParams, samples: int) -> list[AffinePropagator]:
    """Sweep maps of the first t time units at samples evenly spaced t in [0, tau].

    A fourth-order Magnus product over uniform steps.  The total step count
    starts near the rotation angle and doubles until two successive
    products differ by at most 15 * SWEEP_TOLERANCE at every sample.  The
    (b1, b2, b3) blocks are rotations to rounding; (b4, b5) commute with the
    generator for every field value and stay constant.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    segments = samples - 1
    if p.tau == 0.0:
        maps = np.broadcast_to(np.eye(3), (samples, 3, 3))
    else:
        per_segment = max(1, math.ceil(p.rotation_angle / segments))
        coarse, maps = None, _magnus_maps(p, segments, per_segment)
        while coarse is None or np.abs(maps - coarse).max() > 15.0 * SWEEP_TOLERANCE:
            per_segment *= 2
            coarse, maps = maps, _magnus_maps(p, segments, per_segment)
    out = []
    for block in maps:
        m = np.eye(4)
        m[:3, :3] = block
        out.append(AffinePropagator(m=m))
    return out


def adiabat_propagator(p: AdiabatParams) -> AffinePropagator:
    """Map of the whole sweep; see :func:`adiabat_partials`."""
    return adiabat_partials(p, 2)[-1]


def adiabat_propagator_direct(p: AdiabatParams, n_steps: int) -> AffinePropagator:
    """Brute-force sweep propagator: product of midpoint-field rotations.

    Each step is a bath-free constant-field map at the field sampled at the
    step midpoint; the product converges to the true propagator as
    O(1/n_steps^2).  It shares only the product routine with the Magnus
    integrator and is the oracle for :func:`adiabat_propagator`.
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
    m = np.eye(4)
    m[:3, :3] = _time_ordered_product(blocks)
    return AffinePropagator(m=m)


def partial_isochore(p: IsochoreParams, t: float) -> AffinePropagator:
    """Map of the first t time units of a constant-field branch."""
    if not 0.0 <= t <= p.tau:
        raise ValueError(f"t = {t} outside [0, {p.tau}]")
    return isochore_propagator(replace(p, tau=t))
