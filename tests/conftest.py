"""Shared samplers and oracles for the test suite."""

import functools
import itertools
import math
import os
from dataclasses import dataclass
from functools import reduce
from operator import add

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, settings
from hypothesis import strategies as st

from spinotto import (
    AdiabatParams, BlochVector, CycleSpec, IsochoreParams, adiabat_partials, energy_populations,
    replace,
)
from spinotto import propagators
from spinotto.algebra import LOG_EIGENVALUE_FLOOR, PHYSICALITY_TOL
from spinotto.measures import _SUPPORT_TOL, _SUPPORT_WEIGHT

SQRT2 = math.sqrt(2.0)

# Hypothesis profiles.  tier1, the default, draws the same examples on every
# run and keeps no example database, so its verdict depends on neither a
# seed nor the working tree.  fuzz (HYPOTHESIS_PROFILE=fuzz) searches at
# random, saves and replays counterexamples in .hypothesis/, and runs each
# property test EXAMPLE_SCALE times as many examples as its own count.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(_PROFILE)
EXAMPLE_SCALE = 10 if _PROFILE == "fuzz" else 1


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_bloch(rng, concentration=1.0) -> BlochVector:
    """Random physical state: Dirichlet eigenvalues plus a random direction."""
    lam = rng.dirichlet(concentration * np.ones(4))
    lo, l2, l3, hi = lam
    if lo > hi:
        lo, hi = hi, lo
    d = (hi - lo) / SQRT2
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    v = d * direction
    return BlochVector(v[0], v[1], v[2], (l2 - l3) / SQRT2, lo + hi - 0.5)


def random_spec(rng, dephasing=False, short_adiabats=True) -> CycleSpec:
    """Random engine controls with a comfortably unique limit cycle."""
    omega_a = rng.uniform(3.0, 7.0)
    tau_adiabat = rng.uniform(0.01, 0.05) if short_adiabats else rng.uniform(0.2, 1.0)
    return CycleSpec(
        t_cold=rng.uniform(0.8, 2.5),
        t_hot=rng.uniform(4.0, 10.0),
        omega_a=omega_a,
        omega_b=omega_a + rng.uniform(3.0, 9.0),
        j=rng.uniform(0.8, 3.5),
        gamma_cold=rng.uniform(0.2, 1.6),
        gamma_hot=rng.uniform(0.2, 1.6),
        dephasing_cold=rng.uniform(0.002, 0.02) if dephasing else 0.0,
        dephasing_hot=rng.uniform(0.002, 0.02) if dephasing else 0.0,
        tau_cold=rng.uniform(0.1, 1.2),
        tau_hot=rng.uniform(0.1, 1.2),
        tau_ab=tau_adiabat,
        tau_ba=rng.uniform(0.01, 0.05) if short_adiabats else tau_adiabat,
    )


@st.composite
def cycle_specs(draw) -> CycleSpec:
    """Engine controls over a wide range: fields crossing zero, either bath
    switched off, dephasing or none, short or long sweeps, zero-length
    strokes.  Some draws have no unique limit cycle."""
    omega_a = draw(st.floats(-8.0, 8.0))
    if draw(st.booleans()):
        tau_ab, tau_ba = draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.05))
    else:
        tau_ab, tau_ba = draw(st.floats(0.2, 1.5)), draw(st.floats(0.2, 1.5))
    dephasing = st.sampled_from([0.0]) | st.floats(0.0, 0.05)
    return CycleSpec(
        t_cold=draw(st.floats(0.3, 30.0)),
        t_hot=draw(st.floats(0.3, 30.0)),
        omega_a=omega_a,
        omega_b=omega_a + draw(st.floats(0.5, 15.0)),
        j=draw(st.floats(0.05, 4.0)) * draw(st.sampled_from([1.0, -1.0])),
        gamma_cold=draw(st.floats(0.0, 2.0)),
        gamma_hot=draw(st.floats(0.0, 2.0)),
        dephasing_cold=draw(dephasing),
        dephasing_hot=draw(dephasing),
        tau_cold=draw(st.floats(0.0, 3.0)),
        tau_hot=draw(st.floats(0.0, 3.0)),
        tau_ab=tau_ab,
        tau_ba=tau_ba,
    )


@st.composite
def physical_states(draw) -> BlochVector:
    """Physical states, as random_bloch builds them: four eigenvalue weights
    plus a direction of the (b1, b2, b3) block."""
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(weights)
    assume(total > 1e-3)
    lo, l2, l3, hi = (w / total for w in weights)
    lo, hi = min(lo, hi), max(lo, hi)
    direction = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in direction))
    assume(norm > 1e-3)
    d = (hi - lo) / SQRT2
    b1, b2, b3 = (d * x / norm for x in direction)
    return BlochVector(b1, b2, b3, (l2 - l3) / SQRT2, lo + hi - 0.5)


def hamiltonian_matrix(omega: float, j: float) -> np.ndarray:
    """H = omega*B1 + J*B2 in the spin-product basis."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = omega / SQRT2
    h[3, 3] = -omega / SQRT2
    h[0, 3] = j / SQRT2
    h[3, 0] = j / SQRT2
    return h


def gibbs_matrix(omega: float, j: float, temperature: float) -> np.ndarray:
    """Independent Gibbs-state oracle exp(-H/T)/Z."""
    g = scipy.linalg.expm(-hamiltonian_matrix(omega, j) / temperature)
    return g / np.trace(g)


# ---------------------------------------------------------------------------
# reference forms of the closed forms in spinotto: the density matrix that
# defines the operator basis, the general-n entropy behind the four-term
# kernel, and the energy-basis relative entropy


def reconstruct_density(b: BlochVector) -> tuple:
    """Rebuild the 4x4 density matrix (spin-product basis) from b1..b5.

    Returns four rows of four complex entries.  The result is Hermitian with
    unit trace by construction for any input.
    """
    quarter = 0.25
    off = (b.b2 - 1j * b.b3) / SQRT2
    zero = 0j
    return (
        (complex(quarter + b.b1 / SQRT2 + b.b5 / 2.0), zero, zero, off),
        (zero, complex(quarter + b.b4 / SQRT2 - b.b5 / 2.0), zero, zero),
        (zero, zero, complex(quarter - b.b4 / SQRT2 - b.b5 / 2.0), zero),
        (off.conjugate(), zero, zero, complex(quarter - b.b1 / SQRT2 + b.b5 / 2.0)),
    )


def measurement_entropy(p) -> float:
    """Shannon entropy -sum p log p of a complete-measurement distribution
    (a sequence of probabilities).  ValueError for a probability below
    PHYSICALITY_TOL, or a sum that misses 1 by more than 1e-10 or is NaN."""
    p = tuple(p)
    if min(p) < PHYSICALITY_TOL:
        raise ValueError(f"negative probability in {p}")
    total = reduce(add, p)
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -reduce(add, [x * math.log(x) for x in p if x > 0.0], 0.0)


def energy_conditional_entropy(
    b: BlochVector, b_ref: BlochVector, omega: float, j: float
) -> float:
    """Relative entropy sum p log(p/q) of the energy-basis populations.

    Nonnegative, zero only for identical populations; +inf when some q_j
    below _SUPPORT_TOL faces a p_j above _SUPPORT_WEIGHT.
    """
    out = 0.0
    for pj, qj in zip(energy_populations(b, omega, j), energy_populations(b_ref, omega, j)):
        if pj <= 0.0:
            continue
        if qj < _SUPPORT_TOL and pj > _SUPPORT_WEIGHT:
            return math.inf
        out += pj * math.log(pj / max(qj, LOG_EIGENVALUE_FLOOR))
    return out


def wootters_distance_oracle(b: BlochVector, b_ref: BlochVector, omega: float, j: float) -> float:
    """The Wootters distance recomputed per state: both states' energy
    populations, each clipped at 0, summed left to right, then arccos."""
    overlap = 0.0
    for pj, qj in zip(energy_populations(b, omega, j), energy_populations(b_ref, omega, j)):
        overlap += math.sqrt(max(pj, 0.0) * max(qj, 0.0))
    if overlap >= 1.0 - 1e-12:
        return 0.0
    return math.acos(max(overlap, -1.0))


# ---------------------------------------------------------------------------
# matrix oracles: 4x4 density matrices, independent of the b-vector closed forms


@dataclass(frozen=True)
class EnergyBasisTransform:
    """The symmetric involution C that diagonalizes H = omega*B1 + J*B2.

    Its nontrivial entries are mu = sign(J) sqrt((Omega - omega)/(2 Omega))
    and chi = sqrt((Omega + omega)/(2 Omega)) with Omega = sqrt(omega^2 + J^2)
    (for omega <= 0, chi takes the sign of J instead: -C, the same C rho C);
    C @ C is the identity.
    """

    omega: float
    j: float
    big_omega: float
    mu: float
    chi: float

    def matrix(self) -> np.ndarray:
        c = np.zeros((4, 4))
        c[0, 0] = -self.mu
        c[0, 3] = self.chi
        c[1, 1] = 1.0
        c[2, 2] = 1.0
        c[3, 0] = self.chi
        c[3, 3] = self.mu
        return c


def energy_basis_transform(omega: float, j: float) -> EnergyBasisTransform:
    """Build the basis change for field omega and coupling j (Omega > 0)."""
    big_omega = math.hypot(omega, j)
    if big_omega == 0.0:
        raise ValueError("energy basis undefined for omega = J = 0")
    # the larger of mu and chi from its square root, the other from
    # mu * chi = J / (2 Omega): it keeps the sign of J, and its digits where
    # Omega -+ omega cancels (a small J / omega)
    if omega > 0.0:
        chi = math.sqrt((big_omega + omega) / (2.0 * big_omega))
        mu = j / (2.0 * big_omega * chi)
    else:
        mu = math.sqrt((big_omega - omega) / (2.0 * big_omega))
        chi = j / (2.0 * big_omega * mu)
    return EnergyBasisTransform(omega, j, big_omega, mu, chi)


def to_energy_basis(b: BlochVector, omega: float, j: float) -> np.ndarray:
    """Return C rho C, the state expressed in the energy eigenbasis."""
    c = energy_basis_transform(omega, j).matrix()
    return c @ reconstruct_density(b) @ c


def matrix_function(rho: np.ndarray, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    ``f`` receives the (real) eigenvalue array and must return an array of
    the same shape.
    """
    lam, q = np.linalg.eigh(rho)
    return (q * f(lam)) @ q.conj().T


def matrix_sqrt(rho: np.ndarray) -> np.ndarray:
    """Spectral square root; tiny negative eigenvalues are clipped to zero."""
    return matrix_function(rho, lambda lam: np.sqrt(np.clip(lam, 0.0, None)))


def matrix_log(rho: np.ndarray) -> np.ndarray:
    """Spectral logarithm with eigenvalues floored at 1e-300."""
    return matrix_function(rho, lambda lam: np.log(np.clip(lam, 1e-300, None)))


def fidelity_matrix(b: BlochVector, b_ref: BlochVector) -> float:
    """tr sqrt(sqrt(rho) rho_ref sqrt(rho)) from the reconstructed matrices."""
    root = matrix_sqrt(reconstruct_density(b))
    m = root @ reconstruct_density(b_ref) @ root
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(m), 0.0, None)).sum())


def quantum_distance_matrix(b: BlochVector, b_ref: BlochVector) -> float:
    """sqrt(2 (1 - fidelity)), zero within 1e-12 of unit fidelity."""
    deficit = 2.0 * (1.0 - fidelity_matrix(b, b_ref))
    return math.sqrt(deficit) if deficit >= 1e-12 else 0.0


def conditional_entropy_matrix(b: BlochVector, b_ref: BlochVector) -> float:
    """tr rho (log rho - log rho_ref) from the matrices; inf when rho has
    more than _SUPPORT_WEIGHT on a reference eigenvector with eigenvalue
    below _SUPPORT_TOL."""
    rho = reconstruct_density(b)
    lam_ref, q_ref = np.linalg.eigh(reconstruct_density(b_ref))
    weights = np.real(np.einsum("ij,jk,ki->i", q_ref.conj().T, rho, q_ref))
    if np.any(weights[lam_ref < _SUPPORT_TOL] > _SUPPORT_WEIGHT):
        return math.inf
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 0.0]
    log_ref = np.log(np.clip(lam_ref, 1e-300, None))
    return float((lam * np.log(lam)).sum() - (weights * log_ref).sum())


# 50-digit oracles: the float inputs are taken as exact and every step runs
# in mpmath, so their error is far below double-precision rounding


def density_mp(b: BlochVector):
    """reconstruct_density in 50-digit arithmetic."""
    with mpmath.workdps(50):
        b1, b2, b3, b4, b5 = (mpmath.mpf(float(v)) for v in b)
        s2, q = mpmath.sqrt(2), mpmath.mpf(1) / 4
        rho = mpmath.zeros(4, 4)
        rho[0, 0] = q + b1 / s2 + b5 / 2
        rho[1, 1] = q + b4 / s2 - b5 / 2
        rho[2, 2] = q - b4 / s2 - b5 / 2
        rho[3, 3] = q - b1 / s2 + b5 / 2
        rho[0, 3] = mpmath.mpc(b2, -b3) / s2
        rho[3, 0] = mpmath.mpc(b2, b3) / s2
        return rho


def eigenvalues_mp(block) -> list[complex]:
    """The eigenvalues of a 3x3 block in 50-digit arithmetic (mpmath.eig)."""
    with mpmath.workdps(50):
        a = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in block])
        return [complex(e) for e in mpmath.eig(a, left=False, right=False)]


def eigenvalue_error(got, block) -> float:
    """The largest |got - exact| over the eigenvalues of a 3x3 block, the
    three paired with the oracle's (:func:`eigenvalues_mp`) in the order
    that makes it least."""
    exact = eigenvalues_mp(block)
    return min(max(abs(g - e) for g, e in zip(got, order))
               for order in itertools.permutations(exact))


def quantum_distance_mp(b: BlochVector, b_ref: BlochVector) -> float:
    with mpmath.workdps(50):
        lam, q = mpmath.eighe(density_mp(b))
        root = q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in lam]) * q.H
        m = root * density_mp(b_ref) * root
        xi, _ = mpmath.eighe((m + m.H) / 2)
        fidelity = sum(mpmath.sqrt(max(x, 0)) for x in xi)
        return float(mpmath.sqrt(max(2 * (1 - fidelity), 0)))


def conditional_entropy_mp(b: BlochVector, b_ref: BlochVector) -> float:
    with mpmath.workdps(50):
        rho = density_mp(b)
        lam, _ = mpmath.eighe(rho)
        mu, q = mpmath.eighe(density_mp(b_ref))
        out = sum(x * mpmath.log(x) for x in lam if x > 0)
        for i in range(4):
            v = q[:, i]
            weight = mpmath.re((v.H * rho * v)[0, 0])
            if mu[i] <= 0:
                if weight > 0:
                    return math.inf
                continue
            out -= weight * mpmath.log(mu[i])
        return float(out)


# ---------------------------------------------------------------------------
# exact sweep oracle: the finite-time Landau-Zener problem
#
# The sweep generator sqrt(2) [(omega(t), J, 0)]_x is the SO(3) image of the
# spin-1/2 Hamiltonian a(t) sz + beta sx with a = omega(t)/sqrt(2) = k s,
# k = (omega_end - omega_start)/(sqrt(2) tau), s = t + omega_start tau /
# (omega_end - omega_start) and beta = J/sqrt(2); (b1, b2, b3) <-> (sz, sx, sy).
# The amplitude c1 obeys c1'' + (k^2 s^2 + beta^2 + i k) c1 = 0, solved by the
# parabolic-cylinder functions D_nu(+-lam s), lam^2 = 2ik, nu = -i beta^2/(2k),
# and c2 = (i c1' - a c1)/beta (Zener, Proc. R. Soc. A 137, 696 (1932);
# Vitanov & Garraway, Phys. Rev. A 53, 4288 (1996)).  Where D_nu is out of
# reach (|nu| large: a nearly constant field) or the 1/beta step cancels
# (tiny J tau), the Taylor series of the same 2x2 equation is summed instead;
# its coefficients follow from an exact three-term recurrence.

LZ_DIGITS = 30

# Simplifications whose effect on the map is bounded by the Duhamel estimate
# |R - R'| <= integral of |generator difference| dt, kept below 1e-25.
_LZ_NEGLIGIBLE = mpmath.mpf("1e-25")


def _su2_to_so3(u):
    """R_ij = tr(s_i U s_j U^+)/2 with (s1, s2, s3) = (sz, sx, sy), as an
    mpmath matrix at the working precision."""
    basis = (
        mpmath.matrix([[1, 0], [0, -1]]),
        mpmath.matrix([[0, 1], [1, 0]]),
        mpmath.matrix([[0, -1j], [1j, 0]]),
    )
    uh = u.H
    out = mpmath.matrix(3, 3)
    for i, si in enumerate(basis):
        for k, sk in enumerate(basis):
            m = si * u * sk * uh
            out[i, k] = mpmath.re(m[0, 0] + m[1, 1]) / 2
    return out


def _lz_constant_field(omega, beta, tau):
    """exp(-i (omega/sqrt2 sz + beta sx) tau)."""
    a = omega / mpmath.sqrt(2)
    big = mpmath.sqrt(a * a + beta * beta)
    c, s = mpmath.cos(big * tau), mpmath.sin(big * tau)
    nz, nx = a / big, beta / big
    return mpmath.matrix([[c - 1j * s * nz, -1j * s * nx], [-1j * s * nx, c + 1j * s * nz]])


def _lz_parabolic_cylinder(w0, w1, beta, tau):
    k = (w1 - w0) / (mpmath.sqrt(2) * tau)
    lam = mpmath.sqrt(2j * k)
    nu = -1j * beta**2 / (2 * k)

    def fundamental(s):
        cols = []
        for sign in (1, -1):
            z = sign * lam * s
            d = mpmath.pcfd(nu, z)
            # D_nu'(z) = z/2 D_nu(z) - D_{nu+1}(z)
            c1_prime = sign * lam * (z / 2 * d - mpmath.pcfd(nu + 1, z))
            cols.append((d, (1j * c1_prime - k * s * d) / beta))
        return mpmath.matrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])

    s0 = w0 * tau / (w1 - w0)
    return fundamental(s0 + tau) * mpmath.inverse(fundamental(s0))


def _lz_taylor(w0, w1, beta, tau):
    """Time-ordered product of Taylor-summed pieces of at most ~1 rad; on a
    piece of length h, d_n = c_n h^n obeys d_{n+1} = -i (h H0 d_n +
    h^2 H1 d_{n-1})/(n+1) for H = H0 + H1 t."""
    s2 = mpmath.sqrt(2)
    slope = (w1 - w0) / (s2 * tau)
    pieces = int(mpmath.ceil((max(abs(w0), abs(w1)) / s2 + abs(beta)) * tau)) + 1
    h = tau / pieces
    h1 = mpmath.matrix([[slope, 0], [0, -slope]])
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)
    u = mpmath.eye(2)
    for i in range(pieces):
        a = w0 / s2 + slope * h * i
        h0 = mpmath.matrix([[a, beta], [beta, -a]])
        d_prev, d_cur, total, n = mpmath.zeros(2), mpmath.eye(2), mpmath.eye(2), 0
        while mpmath.mnorm(d_cur, 1) + mpmath.mnorm(d_prev, 1) > eps:
            d_prev, d_cur = d_cur, -1j * (h * (h0 * d_cur) + h * h * (h1 * d_prev)) / (n + 1)
            total += d_cur
            n += 1
        u = total * u
    return u


@functools.lru_cache(maxsize=64)
def landau_zener_rotation_mp(p: AdiabatParams, method: str = "auto"):
    """Exact (b1, b2, b3) rotation of a linear sweep as a 3x3 mpmath matrix,
    at LZ_DIGITS digits; cached, so callers must not modify it.

    The float inputs are taken as exact.  J = 0 and omega_start = omega_end
    have closed forms; ``method`` ("auto", "pcfd" or "taylor") picks the
    solution of the general case.
    """
    if p.tau == 0.0:
        return mpmath.eye(3)
    with mpmath.workdps(LZ_DIGITS):
        w0, w1, j, tau = (mpmath.mpf(v) for v in (p.omega_start, p.omega_end, p.j, p.tau))
        s2 = mpmath.sqrt(2)
        beta = j / s2
        # fields this small move the map by at most sqrt(2) |omega| tau
        w0, w1 = (w if abs(w) * tau > _LZ_NEGLIGIBLE else mpmath.mpf(0) for w in (w0, w1))
        if abs(j) * tau * s2 <= _LZ_NEGLIGIBLE:
            # rotation about b1 by the field integral
            phase = (w0 + w1) * tau / (2 * s2)
            u = mpmath.diag([mpmath.exp(-1j * phase), mpmath.exp(1j * phase)])
        elif abs(w1 - w0) * tau * s2 / 4 <= _LZ_NEGLIGIBLE:
            u = _lz_constant_field((w0 + w1) / 2, beta, tau)
        else:
            nu = beta**2 * s2 * tau / (2 * abs(w1 - w0))
            if method == "auto":
                method = "pcfd" if nu <= 100 and abs(j) * tau * s2 >= 1e-6 else "taylor"
            solve = _lz_parabolic_cylinder if method == "pcfd" else _lz_taylor
            u = solve(w0, w1, beta, tau)
        return _su2_to_so3(u)


def landau_zener_map(p: AdiabatParams, method: str = "auto") -> np.ndarray:
    """Exact (b1, b2, b3) rotation of a linear sweep, at LZ_DIGITS digits,
    rounded to floats (:func:`landau_zener_rotation_mp`; ``method`` "auto",
    "pcfd" or "taylor" picks the solution of the general case)."""
    rotation = landau_zener_rotation_mp(p, method)
    return np.array([[float(rotation[i, k]) for k in range(3)] for i in range(3)])


# ---------------------------------------------------------------------------
# 50-digit fixed-point oracle: the bath strokes' closed form evaluated in
# mpmath, the sweeps' exact rotations (landau_zener_rotation_mp), their
# composition and an mpmath solve of (I - M) b = v.  It checks the
# arithmetic of the fixed point, not the model (the 16x16 Lindblad oracle
# of the bath stroke does that)


def _bath_map_mp(p: IsochoreParams) -> tuple:
    """(block, shift, g, drive, h) of a whole bath stroke at the working
    precision: the closed form of propagators.isochore_partials (b4 scale g,
    b5 scale g^2, b5 drive and b5 shift), from the float inputs taken as
    exact."""
    if p.tau == 0.0:
        return mpmath.eye(3), mpmath.zeros(3, 1), mpmath.mpf(1), mpmath.zeros(3, 1), 0
    omega, j, tau = (mpmath.mpf(v) for v in (p.omega, p.j, p.tau))
    gam, dephasing, temperature = (mpmath.mpf(v) for v in p.bath)
    big = mpmath.sqrt(omega**2 + j**2)
    g = mpmath.exp(-gam * tau)
    k = mpmath.exp(-(gam + 2 * dephasing * big**2) * tau)
    phase = mpmath.sqrt(2) * big * tau
    c, s = mpmath.cos(phase), mpmath.sin(phase)
    a11 = (g * omega**2 + k * c * j**2) / big**2
    a12 = omega * j * (g - k * c) / big**2
    a13 = k * j * s / big
    a22 = (g * j**2 + k * c * omega**2) / big**2
    a32 = k * omega * s / big
    block = mpmath.matrix([[a11, a12, a13], [a12, a22, -a32], [-a13, a32, k * c]])
    # the Gibbs state: (b1, b2) = (omega, J) e, e = -tanh(Omega / (2 sqrt(2)
    # T)) / (sqrt(2) Omega), and b5 = tanh^2 / 2
    t_th = mpmath.tanh(big / (2 * mpmath.sqrt(2) * temperature))
    e = -t_th / (mpmath.sqrt(2) * big)
    drive = -(mpmath.sqrt(2) * t_th / big) * g * (1 - g)
    return (block, mpmath.matrix([omega * e * (1 - g), j * e * (1 - g), 0]), g,
            mpmath.matrix([drive * omega, drive * j, 0]), t_th**2 / 2 * (1 - g) ** 2)


@dataclass(frozen=True)
class FixedPointOracle:
    """The exact fixed point (b1, b2, b3, b5) of a dephasing-free cycle, as
    floats (b4 is 0), and the factors by which errors of its cycle map move
    it, to first order.  With M = mu4 O, O a rotation by phi about n, a
    rotation error eps of the cycle block moves (b1, b2, b3) by at most
    eps * along along n and eps * across across it, where along = |b_perp|
    / (1 - mu4) and across = |b| / |1 - mu4 e^{i phi}|, b_perp the part of b
    across n.  b5 = (d . b + h) / (1 - mu4^2), with the cycle's b5 drive d
    and b5 shift h, moves by drive = |d| / (1 - mu4^2) times an error of b
    and by eps * scale5, scale5 = (|d| |b| + |h|) / (1 - mu4^2) + |b5|, for
    relative errors eps of d, h and 1 - mu4^2."""

    b: tuple
    along: float
    across: float
    drive: float
    scale5: float


def fixed_point_mp(spec: CycleSpec) -> FixedPointOracle:
    """The 50-digit fixed point of a dephasing-free spec's cycle map: its
    four strokes composed in time order, the b5 rule as
    propagators.compose composes it."""
    assert spec.dephasing_cold == spec.dephasing_hot == 0.0, spec
    with mpmath.workdps(50):
        block, shift, mu4 = mpmath.eye(3), mpmath.zeros(3, 1), mpmath.mpf(1)
        drive, h = mpmath.zeros(3, 1), 0
        for stroke in (spec.hot_isochore(), spec.adiabat_ba(), spec.cold_isochore(),
                       spec.adiabat_ab()):
            if isinstance(stroke, IsochoreParams):
                u, t, g, d, h_stroke = _bath_map_mp(stroke)
                # b5' = g^2 b5 + d . x + h_stroke after the map so far, x = block b + shift
                drive = g**2 * drive + block.T * d
                h = g**2 * h + (d.T * shift)[0] + h_stroke
                mu4 *= g
            else:
                u, t = landau_zener_rotation_mp(stroke), mpmath.zeros(3, 1)
            block, shift = u * block, u * shift + t
        b = mpmath.lu_solve(mpmath.eye(3) - block, shift)
        b5 = ((drive.T * b)[0] + h) / (1 - mu4**2)
        # the axis: the null vector of M - mu4 I, the largest cross product of
        # two of its rows; with none (phi = 0) every direction is the axis's
        rows = [[block[i, k] - (mu4 if i == k else 0) for k in range(3)] for i in range(3)]
        cross = max((mpmath.matrix([r[1] * q[2] - r[2] * q[1], r[2] * q[0] - r[0] * q[2],
                                    r[0] * q[1] - r[1] * q[0]])
                     for r, q in itertools.combinations(rows, 2)), key=mpmath.norm)
        size = mpmath.norm(b)
        if mpmath.norm(cross) > mpmath.mpf(10) ** -40:
            b_perp = mpmath.sqrt(max(size**2 - (b.T * cross)[0] ** 2 / mpmath.norm(cross) ** 2, 0))
        else:
            b_perp = size
        # |1 - mu4 e^{i phi}|^2 = (1 - mu4)^2 + 2 mu4 (1 - cos phi), tr M = mu4 (1 + 2 cos phi)
        distance = mpmath.sqrt((1 - mu4) ** 2 + 3 * mu4 - sum(block[i, i] for i in range(3)))
        relaxed5 = 1 - mu4**2
        return FixedPointOracle(
            (*(float(x) for x in b), float(b5)), float(b_perp / (1 - mu4)),
            float(size / distance), float(mpmath.norm(drive) / relaxed5),
            float((mpmath.norm(drive) * size + abs(h)) / relaxed5 + abs(b5)))


def cycle_angle_mp(spec: CycleSpec) -> float:
    """The angle phi in [0, pi] of a dephasing-free cycle's rotation O (its
    block is M = mu4 O): the four strokes' rotations composed at 50 digits
    in time order, the bath strokes' closed form with g = 1 (no conductance)
    and the sweeps' exact maps (landau_zener_rotation_mp), and phi from
    tr O = 1 + 2 cos phi."""
    assert spec.dephasing_cold == spec.dephasing_hot == 0.0, spec
    with mpmath.workdps(50):
        rotation = mpmath.eye(3)
        for stroke in (spec.hot_isochore(), spec.adiabat_ba(), spec.cold_isochore(),
                       spec.adiabat_ab()):
            if isinstance(stroke, IsochoreParams):
                unit = replace(stroke, bath=replace(stroke.bath, conductance=0.0))
                u = _bath_map_mp(unit)[0]
            else:
                u = landau_zener_rotation_mp(stroke)
            rotation = u * rotation
        trace = rotation[0, 0] + rotation[1, 1] + rotation[2, 2]
        return float(mpmath.acos((trace - 1) / 2))


def fig1_spec() -> CycleSpec:
    return CycleSpec(
        t_cold=1.5, t_hot=7.5, omega_a=5.08364, omega_b=12.6355, j=2.0,
        gamma_cold=0.3423, gamma_hot=0.3423, dephasing_cold=0.0, dephasing_hot=0.0,
        tau_cold=3.0, tau_hot=2.5, tau_ab=0.01, tau_ba=0.01,
    )


def fig5_spec(tau_hot: float, tau_cold: float) -> CycleSpec:
    return CycleSpec(
        t_cold=1.5, t_hot=7.5, omega_a=5.0836387, omega_b=12.63545, j=2.0,
        gamma_cold=0.10662, gamma_hot=1.0048, dephasing_cold=0.0, dephasing_hot=0.0,
        tau_cold=tau_cold, tau_hot=tau_hot, tau_ab=0.05, tau_ba=0.06,
    )


FIG5_TIMES = {"1": (0.32, 0.64), "2": (0.581, 1.1602), "3": (1.5, 3.6)}

# Precision of the quoted (tau_hot, tau_cold) above: half a unit in the last
# quoted digit, so the reference point lies within +-these of each value.
FIG5_TIMES_HALF_UNIT = {
    "1": (0.005, 0.005), "2": (0.0005, 0.00005), "3": (0.05, 0.05),
}


def fig6_spec() -> CycleSpec:
    return CycleSpec(
        t_cold=1.5, t_hot=7.5, omega_a=5.0836387, omega_b=12.635485, j=2.0,
        gamma_cold=1.7, gamma_hot=1.7, dephasing_cold=0.0, dephasing_hot=0.0,
        tau_cold=0.6, tau_hot=0.0, tau_ab=0.03, tau_ba=0.03,
    )


def fig3_spec(tau_adiabat: float, dephasing_hot: float, dephasing_cold: float) -> CycleSpec:
    # fields and bath couplings fall back to the fig1 values
    return CycleSpec(
        t_cold=1.5, t_hot=7.5, omega_a=5.08364, omega_b=12.6355, j=2.0,
        gamma_cold=0.3423, gamma_hot=0.3423,
        dephasing_cold=dephasing_cold, dephasing_hot=dephasing_hot,
        tau_cold=0.6, tau_hot=0.6, tau_ab=tau_adiabat, tau_ba=tau_adiabat,
    )


def linear_fit(x, y):
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


class StepCounter:
    """Wraps the Magnus product: sums its steps, counts its calls and records
    the sweeps it integrates."""

    def __init__(self, monkeypatch):
        self.steps = self.calls = 0
        self.sweeps = []
        self._blocks = propagators._sweep_blocks
        monkeypatch.setattr(propagators, "_sweep_blocks", self)

    def __call__(self, p, segments, per_segment):
        self.steps += segments * per_segment
        self.calls += 1
        if p not in self.sweeps:
            self.sweeps.append(p)
        return self._blocks(p, segments, per_segment)

    def count(self, p):
        """Steps of the whole-sweep map of p, which forms one product."""
        self.steps = self.calls = 0
        adiabat_partials(p, 2)[-1]
        assert self.calls == 1, p
        return self.steps


def expand_blocks(blocks) -> list:
    """The rows of a table given as ``cli.render_csv`` blocks: a list, tuple
    or range cell gives each row its own value, any other cell is every
    row's.  A block's columns have one length, its number of rows."""
    rows = []
    for block in blocks:
        is_column = [isinstance(cell, (list, tuple, range)) for cell in block]
        lengths = {len(cell) for cell, column in zip(block, is_column) if column}
        assert len(lengths) == 1, lengths
        for i in range(lengths.pop()):
            rows.append([cell[i] if column else cell for cell, column in zip(block, is_column)])
    return rows
