"""Branch maps: closed-form isochores, sweep propagators and their oracle."""

import copy
import functools
import math
import pickle
from fractions import Fraction
from itertools import chain

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from spinotto import (
    AdiabatParams,
    AffinePropagator,
    BathParams,
    BlochVector,
    IsochoreParams,
    adiabat_partials,
    adiabat_propagator_direct,
    compose,
    compose_cycle,
    eigenvalue_tuple,
    isochore_propagator,
    limit_cycle,
    replace,
    thermal_state,
    trajectory,
)
from spinotto import propagators
from spinotto.engine import _ramps, linspace
from spinotto.propagators import (
    MAX_SWEEP_ANGLE, SWEEP_TOLERANCE, _time_reversed, _time_reversed_states,
)
from conftest import (
    EXAMPLE_SCALE, FIG5_TIMES, SQRT2, StepCounter, cycle_specs, fig1_spec, fig5_spec,
    landau_zener_map, physical_states, random_bloch,
)


def axis_angle_rotation(omega, j, angle):
    big = math.hypot(omega, j)
    n = np.array([omega, j, 0.0]) / big
    cross = np.array([
        [0.0, -n[2], n[1]],
        [n[2], 0.0, -n[0]],
        [-n[1], n[0], 0.0],
    ])
    return (
        math.cos(angle) * np.eye(3)
        + math.sin(angle) * cross
        + (1.0 - math.cos(angle)) * np.outer(n, n)
    )


# ---------------------------------------------------------------------------
# isochores


def _iso(omega=9.0, j=2.0, gamma=0.5, deph=0.0, temp=3.0, tau=0.7):
    return IsochoreParams(omega, j, BathParams(gamma, deph, temp), tau)


def test_isochore_zero_time_is_identity():
    prop = isochore_propagator(_iso(tau=0.0))
    assert np.abs(prop.m - np.eye(4)).max() < 1e-15
    assert prop.b4_scale == 1.0 and prop.b5_scale == 1.0
    assert np.abs(prop.b5_drive).max() == 0.0 and prop.b5_shift == 0.0


@pytest.mark.parametrize("deph", [0.0, math.inf])
def test_isochore_zero_time_with_infinite_conductance_is_finite(deph):
    # no decay at tau = 0, although inf * 0 is NaN: the map is the one at
    # finite rates, bit for bit
    prop = isochore_propagator(_iso(gamma=math.inf, deph=deph, tau=0.0))
    assert tuple(prop) == tuple(isochore_propagator(_iso(tau=0.0)))


def test_isochore_long_time_reaches_thermal_column(rng):
    p = _iso(gamma=1.0, tau=50.0)
    prop = isochore_propagator(p)
    eq = thermal_state(p.omega, p.j, p.bath.temperature)
    image = prop.apply(random_bloch(rng))
    assert np.abs(np.array(image) - np.array(eq)).max() < 1e-10


def test_isochore_without_bath_is_field_axis_rotation():
    p = _iso(gamma=0.0, deph=0.0, tau=0.37)
    prop = isochore_propagator(p)
    block = prop.m[:3, :3]
    assert np.abs(block @ block.T - np.eye(3)).max() < 1e-12
    expected = axis_angle_rotation(p.omega, p.j, SQRT2 * math.hypot(p.omega, p.j) * p.tau)
    assert np.abs(block - expected).max() < 1e-12
    assert np.abs(prop.m[:3, 3]).max() == 0.0


def test_isochore_semigroup_without_dephasing(rng):
    p1 = _iso(tau=0.31)
    p2 = _iso(tau=0.46)
    p12 = _iso(tau=0.77)
    left = compose(isochore_propagator(p2), isochore_propagator(p1))
    right = isochore_propagator(p12)
    for _ in range(20):
        b = random_bloch(rng)
        assert np.abs(np.array(left.apply(b)) - np.array(right.apply(b))).max() < 1e-12


@pytest.mark.parametrize("gamma_tau", [1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.5, 1.0])
def test_bath_shift_keeps_its_digits_as_gamma_tau_gets_small(gamma_tau):
    # 1 - g = -expm1(-Gamma tau): the shift and the b5 shift against their
    # 50-digit values from the same thermal state, to a relative 1e-15; the
    # b5 drive's prefactor takes three more libm calls, so 1e-14 there
    omega, j, temperature, tau = 5.08364, -2.0, 1.5, 0.5
    gam = 2.0 * gamma_tau  # Gamma tau is exact
    prop = isochore_propagator(IsochoreParams(omega, j, BathParams(gam, 0.0, temperature), tau))
    eq = thermal_state(omega, j, temperature)
    with mpmath.workdps(50):
        relaxed = -mpmath.expm1(-mpmath.mpf(gamma_tau))
        big = mpmath.hypot(omega, j)
        drive = (-mpmath.sqrt(2) * mpmath.tanh(big / (2 * mpmath.sqrt(2) * temperature)) / big
                 * (1 - relaxed) * relaxed)
        for actual, exact in [(prop.shift[0], eq.b1 * relaxed), (prop.shift[1], eq.b2 * relaxed),
                              (prop.b5_shift, eq.b5 * relaxed**2)]:
            assert abs(actual - exact) <= 1e-15 * abs(exact), (actual, exact)
        for actual, field in zip(prop.b5_drive, (omega, j)):
            assert abs(actual - drive * field) <= 1e-14 * abs(drive * field), actual


def test_isochore_semigroup_matrix_level():
    left = compose(isochore_propagator(_iso(tau=0.46)), isochore_propagator(_iso(tau=0.31)))
    right = isochore_propagator(_iso(tau=0.77))
    assert np.abs(left.m - right.m).max() < 1e-12


# ---------------------------------------------------------------------------
# Wei-Norman angles: the paper's construction, kept as a cross-check


def wei_norman_map(p: AdiabatParams):
    """Sweep rotation R1(alpha1) R2(alpha2) R3(-alpha3) from the angle ODEs.

    The chart is singular at cos(alpha2) = 0; returns the block and the
    largest |alpha2| on the accepted path.
    """
    def rhs(t, a):
        s1, c1 = math.sin(a[0]), math.cos(a[0])
        s2, c2 = math.sin(a[1]), math.cos(a[1])
        return (
            SQRT2 * p.omega_at(t) + SQRT2 * p.j * s1 * s2 / c2,
            SQRT2 * p.j * c1,
            SQRT2 * p.j * s1 / c2,
        )

    sol = solve_ivp(rhs, (0.0, p.tau), [0.0, 0.0, 0.0], method="RK45",
                    rtol=1e-10, atol=1e-10)
    assert sol.success
    a1, a2, a3 = sol.y[:, -1]
    s1, c1 = math.sin(a1), math.cos(a1)
    s2, c2 = math.sin(a2), math.cos(a2)
    s3, c3 = math.sin(-a3), math.cos(-a3)
    r1 = np.array([[1.0, 0.0, 0.0], [0.0, c1, -s1], [0.0, s1, c1]])
    r2 = np.array([[c2, 0.0, s2], [0.0, 1.0, 0.0], [-s2, 0.0, c2]])
    r3 = np.array([[c3, -s3, 0.0], [s3, c3, 0.0], [0.0, 0.0, 1.0]])
    return r1 @ r2 @ r3, float(np.abs(sol.y[1]).max())


def test_reference_sweep_stays_regular():
    p = AdiabatParams(12.6355, 5.08364, 2.0, 0.01)
    block, max_abs_alpha2 = wei_norman_map(p)
    assert max_abs_alpha2 < math.pi / 2
    assert np.abs(block - adiabat_partials(p, 2)[-1].m[:3, :3]).max() < 1e-9


# ---------------------------------------------------------------------------
# sweep propagator


def test_angles_decouple_for_zero_coupling():
    # with J = 0 the sweep is a pure rotation about axis 1 by the field integral
    p = AdiabatParams(4.0, 10.0, 0.0, 0.5)
    angle = SQRT2 * (4.0 + 10.0) * 0.5 / 2.0
    c, s = math.cos(angle), math.sin(angle)
    expected = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    assert np.abs(adiabat_partials(p, 2)[-1].m[:3, :3] - expected).max() < 1e-12


def test_constant_field_sweep_equals_isochore_rotation():
    omega, j, tau = 8.3, 2.0, 0.41
    prop = adiabat_partials(AdiabatParams(omega, omega, j, tau), 2)[-1]
    iso = isochore_propagator(IsochoreParams(omega, j, BathParams(0.0, 0.0, 1.0), tau))
    assert np.abs(prop.m - iso.m).max() < 1e-8


def test_zero_field_sweep_integrates():
    # the Wei-Norman chart is singular here: the tilt angle reaches pi/2
    omega, j, tau = 0.0, 5.0, 0.4
    prop = adiabat_partials(AdiabatParams(omega, omega, j, tau), 2)[-1]
    iso = isochore_propagator(IsochoreParams(omega, j, BathParams(0.0, 0.0, 1.0), tau))
    assert np.abs(prop.m - iso.m).max() < 1e-12


def test_sweep_samples_end_at_branch_map():
    # the in-period ramps: the cold->hot one's last block is its branch
    # map's, and the hot->cold ramp's last one, reversed, the hot->cold
    # branch map; the public sampler starts at the identity, and the ramp
    # run backwards at its start state and ends at its reversed last map
    # applied to it
    prop = compose_cycle(fig1_spec())
    strokes = [branch.stroke for branch in prop.branches]
    b = BlochVector(0.1, -0.2, 0.3, 0.05, 0.1)
    for samples in (2, 7, 200):
        ramp, rise = _ramps(strokes[1], strokes[3], samples)
        assert len(ramp) == len(rise) == samples
        reverse = AffinePropagator(block=_time_reversed(ramp[-1]))
        assert np.abs(reverse.m - prop.branches[1].prop.m).max() < 1e-12
        assert np.abs(AffinePropagator(block=rise[-1]).m - prop.branches[3].prop.m).max() < 1e-12
        states = _time_reversed_states(ramp[1:], b)
        assert len(states) == samples and states[0] is b
        assert tuple(states[-1]) == tuple(reverse.apply(b))
        forward = adiabat_partials(strokes[3], samples)
        assert np.abs(forward[0].m - np.eye(4)).max() == 0.0


@pytest.mark.parametrize("tau", [5e-324, 2.225073858507e-311, 1e-310, 2.2250738585072014e-308,
                                 1e-300, 0.01, 0.5, 0.8, 1.0, 1.527549237953228])
@pytest.mark.parametrize("fields", [(5.08364, 12.6355), (12.6355, 5.08364), (-14.6254, 13.8973),
                                    (0.01, -3.5), (-1e308, 1e308), (1e308, -1e308)])
def test_sweep_field_stays_on_the_ramp(tau, fields):
    # a subnormal duration is scaled up before it divides, so the field
    # starts and ends on the ramp's end points and never leaves the ramp
    start, end = fields
    if max(map(abs, fields)) * tau > MAX_SWEEP_ANGLE:
        # a 1e308 field sweeps more than MAX_SWEEP_ANGLE unless tau is tiny
        with pytest.raises(ValueError, match="MAX_SWEEP_ANGLE"):
            AdiabatParams(start, end, 2.0, tau)
        return
    if math.isinf(end - start):
        # and when it is tiny, the span omega_end - omega_start overflows
        with pytest.raises(ValueError, match="span omega_end - omega_start = -?inf is not finite"):
            AdiabatParams(start, end, 2.0, tau)
        return
    p = AdiabatParams(start, end, 2.0, tau)
    assert p.omega_at(0.0) == start
    assert abs(p.omega_at(tau) - end) <= 2 * math.ulp(end)
    low, high = min(fields), max(fields)
    for samples in (2, 3, 9, 101):
        for t in linspace(0.0, tau, samples):
            assert low <= p.omega_at(t) <= high, (samples, t)


def test_adiabat_zero_time_is_identity():
    prop = adiabat_partials(AdiabatParams(5.0, 12.0, 2.0, 0.0), 2)[-1]
    assert np.abs(prop.m - np.eye(4)).max() == 0.0


def test_adiabat_block_is_special_orthogonal(rng):
    for _ in range(50):
        p = AdiabatParams(rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0),
                          rng.uniform(0.0, 4.0), rng.uniform(0.0, 1.0))
        block = adiabat_partials(p, 2)[-1].m[:3, :3]
        assert np.abs(block @ block.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(block) - 1.0) < 1e-12


def test_sweep_rotation_angle_is_bounded():
    with pytest.raises(ValueError, match="MAX_SWEEP_ANGLE"):
        AdiabatParams(0.0, 1e300, 2.0, 1.0)
    # a NaN duration is named as such, not as an unbounded angle
    with pytest.raises(ValueError, match="tau must be >= 0, got nan"):
        AdiabatParams(0.0, 1.0, 2.0, math.nan)
    # a NaN end field, which the angle bound's max drops, fails the span
    with pytest.raises(ValueError, match="span omega_end - omega_start = nan is not finite"):
        AdiabatParams(1.0, math.nan, 1.0, 1e-9)
    with pytest.raises(ValueError, match="MAX_SWEEP_ANGLE"):
        AdiabatParams(math.nan, 1.0, 1.0, 1e-9)
    # a span that overflows, however short the sweep
    with pytest.raises(ValueError, match="span omega_end - omega_start = -inf is not finite"):
        AdiabatParams(1e308, -1e308, 1.0, 1e-310)


def test_bath_stroke_nan_duration_is_named():
    with pytest.raises(ValueError, match="tau must be >= 0, got nan"):
        IsochoreParams(5.0, 2.0, BathParams(0.3, 0.0, 1.5), math.nan)


def _richardson_direct(p: AdiabatParams, n: int) -> np.ndarray:
    coarse = adiabat_propagator_direct(p, n).m
    fine = adiabat_propagator_direct(p, 2 * n).m
    return (4.0 * fine - coarse) / 3.0


@st.composite
def sweeps(draw):
    field = st.floats(-15.0, 15.0)
    omega_start = draw(field)
    j = draw(st.sampled_from([0.0, 2.0, -2.0]) | st.floats(-4.0, 4.0))
    kind = draw(st.sampled_from(["short", "long", "steep"]))
    if kind == "short":
        tau = draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1.0))
        omega_end = draw(field)
    elif kind == "long":  # up to about 440 rad
        tau = draw(st.floats(1.0, 20.0))
        omega_end = draw(field)
        # a nearly constant long ramp sends the oracle to its Taylor series,
        # which takes seconds; those sweeps are drawn by the short branch
        assume(abs(omega_end - omega_start) >= 2.0)
    else:  # steep: |d omega / dt| up to 1e6
        tau = draw(st.floats(1e-9, 1e-3))
        omega_end = omega_start + draw(st.floats(-1e6, 1e6)) * tau
    # the oracle divides by the squared field, which must not underflow
    assume(min(math.hypot(omega_start, j), math.hypot(omega_end, j)) > 1e-6)
    return AdiabatParams(omega_start, omega_end, j, tau)


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(sweeps())
@example(AdiabatParams(0.0, 1.0, 2.0, 2.225073858507e-311))  # subnormal tau
def test_adiabat_matches_richardson_oracle_property(p):
    prop = adiabat_partials(p, 2)[-1]
    block = prop.m[:3, :3]
    assert np.abs(block @ block.T - np.eye(3)).max() < 1e-13
    assert np.abs(prop.m - _richardson_direct(p, 20000)).max() < 1e-9


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(sweeps())
@example(AdiabatParams(0.0, 1.0, 2.0, 2.225073858507e-311))  # subnormal tau
def test_adiabat_matches_landau_zener_oracle_property(p):
    err = np.abs(adiabat_partials(p, 2)[-1].m[:3, :3] - landau_zener_map(p)).max()
    assert err <= 10 * SWEEP_TOLERANCE


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(sweeps(), st.integers(3, 5))
def test_adiabat_interior_samples_match_landau_zener_oracle_property(p, samples):
    # the map of the first t time units is the exact map of the sweep cut
    # off at t, at every sample and not only at the endpoints
    times = linspace(0.0, p.tau, samples)
    assume(all(math.hypot(p.omega_at(t), p.j) > 1e-6 for t in times))
    for t, partial in zip(times, adiabat_partials(p, samples)):
        exact = landau_zener_map(AdiabatParams(p.omega_start, p.omega_at(t), p.j, t))
        assert np.abs(np.array(partial.block) - exact).max() <= 10 * SWEEP_TOLERANCE, t


def test_near_limit_sweep_matches_landau_zener_oracle():
    # about 1e4 steps, near MAX_SWEEP_ANGLE
    p = AdiabatParams(1e3, -1e3, 1.0, 7.0)
    assert p.rotation_angle > 0.98 * MAX_SWEEP_ANGLE
    block = adiabat_partials(p, 2)[-1].m[:3, :3]
    assert np.abs(block - landau_zener_map(p)).max() <= SWEEP_TOLERANCE
    assert np.abs(block @ block.T - np.eye(3)).max() < 1e-14


# |B_2k| for k = 1..5: the coefficients |B_2k| / (2k)! of F(u) through u^4
_BERNOULLI = (Fraction(1, 6), Fraction(1, 30), Fraction(1, 42), Fraction(1, 30),
              Fraction(5, 66))


def _poly_mul(p, q, out, factor=1):
    """out += factor p q, for polynomials as dicts from exponents (i, j, k,
    m) of a_x^i a_y^j d^k sigma^m to their rational coefficients."""
    for (i, j, k, m), c in p.items():
        c *= factor
        for (r, s, t, n), e in q.items():
            key = (i + r, j + s, k + t, m + n)
            out[key] = out.get(key, 0) + c * e
    return out


def _poly_cross(u, v, out):
    """out += u x v, for vectors of three polynomials."""
    for o, (i, k) in zip(out, ((1, 2), (2, 0), (0, 1))):
        _poly_mul(u[i], v[k], o)
        _poly_mul(u[k], v[i], o, -1)
    return out


@functools.lru_cache(maxsize=None)
def _dexp_inverse_polynomial(degree):
    """The part of the given degree of a sweep step's exact exponent
    Omega(1), as three polynomials in (a_x, a_y, d): dicts from exponents
    (i, j, k) to exact rational coefficients.  Omega solves Omega' = g -
    Omega x g / 2 + F(|Omega|^2) Omega x (Omega x g), F(u) = sum_k |B_2k|
    u^(k-1) / (2k)!, with generator g = a + d (sigma - 1/2) e_x in step time
    sigma and Omega(0) = 0.  With a of degree 1 and d of degree 2, each
    degree's part of Omega' takes only lower parts of Omega, so the parts are
    built in turn, each once, as polynomials in (a_x, a_y, d, sigma)."""
    g = {1: ({(1, 0, 0, 0): Fraction(1)}, {(0, 1, 0, 0): Fraction(1)}, {}),
         2: ({(0, 0, 1, 1): Fraction(1), (0, 0, 1, 0): Fraction(-1, 2)}, {}, {})}
    omega = [({}, {}, {})]
    twisted = [({}, {}, {})]  # Omega x g, by degree
    square = [{}, {}]  # |Omega|^2, by degree
    f = []  # F(|Omega|^2), by degree
    for n in range(1, degree + 1):
        twisted.append(({}, {}, {}))
        for e in (1, 2):
            if n > e:
                _poly_cross(omega[n - e], g[e], twisted[n])
        top = n - 3  # the highest degree of F that enters degree n
        if top >= 2:
            square.append({})
            for i in range(1, top):
                for u, v in zip(omega[i], omega[top - i]):
                    _poly_mul(u, v, square[top])
        if top >= 0:  # F by Horner's rule in |Omega|^2, through degree top
            f = [{} for _ in range(top + 1)]
            for k in range(len(_BERNOULLI), 0, -1):
                inner, f = f, [{} for _ in range(top + 1)]
                for i, p in enumerate(inner):
                    for s in range(2, top + 1 - i):
                        _poly_mul(p, square[s], f[i + s])
                f[0][0, 0, 0, 0] = _BERNOULLI[k - 1] / math.factorial(2 * k)
        rhs = tuple(dict(c) for c in g.get(n, ({}, {}, {})))
        for r, t in zip(rhs, twisted[n]):
            _poly_mul({(0, 0, 0, 0): Fraction(-1, 2)}, t, r)
        for i in range(1, n - 1):  # F_m (Omega_i x (Omega x g)_j), m + i + j = n
            for j in range(2, n - i + 1):
                if f[n - i - j]:
                    for r, v in zip(rhs, _poly_cross(omega[i], twisted[j], ({}, {}, {}))):
                        _poly_mul(f[n - i - j], v, r)
        omega.append(tuple({(i, j, k, m + 1): c / (m + 1) for (i, j, k, m), c in r.items()}
                           for r in rhs))
    parts = []
    for component in omega[degree]:
        at_one = {}
        for (i, j, k, _), c in component.items():
            at_one[i, j, k] = at_one.get((i, j, k), 0) + c
        parts.append({key: c for key, c in at_one.items() if c})
    return tuple(parts)


def _dexp_inverse_part(a_x, a_y, d, degree):
    """The part of the given degree of a sweep step's exact exponent at
    rational (a_x, a_y, d) (:func:`_dexp_inverse_polynomial`)."""
    return tuple(sum((c * a_x**i * a_y**j * d**k for (i, j, k), c in poly.items()), Fraction(0))
                 for poly in _dexp_inverse_polynomial(degree))


@pytest.mark.parametrize("p", [AdiabatParams(5.08364, 12.6355, -2.0, 0.5),
                               AdiabatParams(-14.0, 3.0, 1.5, 12.0)])
def test_leading_error_is_the_dexp_inverse_degree_11_part(p):
    # _leading_error's W_11 against the exact degree-11 part of the dexp^-1
    # recursion at the ramp's five points (floats are rationals), combined as
    # its docstring says; the grid sweep takes the mean of |W_11| and the
    # 12-long one, of about 200 rad, the axial mean plus the turned part
    x_start = SQRT2 * p.tau * p.omega_start
    span = SQRT2 * p.tau * (p.omega_end - p.omega_start)
    a_y = SQRT2 * p.tau * p.j
    whole = along = 0.0
    across = []
    for t, weight in propagators._RAMP_POINTS:
        a_x = x_start + span * t
        w = np.array([float(c) for c in _dexp_inverse_part(
            Fraction(a_x), Fraction(a_y), Fraction(span), 11)])
        axis = np.array([a_x, a_y, 0.0]) / math.hypot(a_x, a_y)
        whole += weight * np.linalg.norm(w)
        along += weight * abs(w @ axis)
        across.append(np.linalg.norm(w - (w @ axis) * axis) / math.hypot(a_x, a_y))
    turned = across[0] + across[-1] + np.abs(np.diff(across)).sum()
    expected = min(whole, along + propagators._TURN_FACTOR * turned)
    assert (expected == whole) == (p.tau < 1.0)
    assert propagators._leading_error(p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("a_x, a_y, d", [
    (Fraction(3, 2), Fraction(-2, 3), Fraction(5, 7)),
    (Fraction(-7, 3), Fraction(1, 5), Fraction(-9, 4)),
    (Fraction(0), Fraction(3), Fraction(2)),
])
def test_sweep_step_is_the_dexp_inverse_exponent_through_degree_9(a_x, a_y, d):
    # the step's folded coefficients, taken at rationals, give exactly the
    # parts of degree <= 9 of the exact exponent; the part of degree 10,
    # which the step leaves out, is zero
    x_0, x_2, y_0, y_2, y_4, z_0, z_2, z_4, z_6 = propagators._step_coefficients(a_y, d)
    a_sq = a_x * a_x + a_y * a_y
    step = (a_x * (x_0 + x_2 * a_sq),
            y_0 + a_x * a_x * (y_2 + a_x * a_x * y_4),
            z_0 + a_sq * (z_2 + a_sq * (z_4 + a_sq * z_6)))
    parts = [_dexp_inverse_part(a_x, a_y, d, degree) for degree in range(1, 10)]
    assert step == tuple(map(sum, zip(*parts)))
    assert _dexp_inverse_polynomial(10) == ({}, {}, {})


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(sweeps())
@example(AdiabatParams(0.0, 1.0, 2.0, 5e-324))  # subnormal and tiny durations
@example(AdiabatParams(0.0, 1.0, 2.0, 2.2e-311))
@example(AdiabatParams(0.0, 1.0, 2.0, 1e-150))
@example(AdiabatParams(1e3, -1e3, 1.0, 0.1))  # a fast crossing, 141 rad
def test_leading_error_covers_fixed_step_products_property(p):
    # where every step turns by at most _MAX_STEP_ANGLE, the n-step product
    # lies within _ERROR_SAFETY times its estimated error of the exact map,
    # which falls as n^-10, up to the rounding of at most 200 steps and of
    # the rotation angle
    exact = landau_zener_map(p)
    error = propagators._leading_error(p)
    rounding = 1e-14 + 2e-16 * p.rotation_angle
    for n in (1, 3, 10, 40, 200):
        if p.rotation_angle <= n * propagators._MAX_STEP_ANGLE:
            block = np.array(propagators._sweep_blocks(p, 1, n)[-1])
            bound = propagators._ERROR_SAFETY * error / n**10
            assert np.abs(block - exact).max() <= bound + rounding, (n, bound)


@pytest.mark.parametrize("tau", [5e-324, 2.2e-311, 1e-150])
def test_tiny_sweep_takes_one_step(tau, monkeypatch):
    # nothing is divided by tau or a rotation angle, which underflow here:
    # the estimate is finite and the count is one step
    p = AdiabatParams(5.08364, 12.6355, 2.0, tau)
    assert propagators._leading_error(p) == 0.0
    assert StepCounter(monkeypatch).count(p) == 1
    assert np.abs(adiabat_partials(p, 2)[-1].m - np.eye(4)).max() <= p.rotation_angle


@pytest.mark.parametrize("p", [
    AdiabatParams(4.0, 10.0, 0.0, 0.5), AdiabatParams(-5.0, 15.0, 0.0, 20.0),
    AdiabatParams(8.3, 8.3, 2.0, 0.41), AdiabatParams(8.3, 8.3, -4.0, 30.0),
])
def test_exact_sweeps_take_one_step_per_sample(p, monkeypatch):
    # J = 0 and a constant field make every degree of the step error vanish,
    # so the steps may be as long as the sample intervals
    assert propagators._leading_error(p) == 0.0
    counter = StepCounter(monkeypatch)
    for samples in (2, 5):
        counter.steps = 0
        partials = adiabat_partials(p, samples)
        assert counter.steps == samples - 1
        for t, partial in zip(linspace(0.0, p.tau, samples), partials):
            exact = landau_zener_map(AdiabatParams(p.omega_start, p.omega_at(t), p.j, t))
            assert np.abs(np.array(partial.block) - exact).max() <= 10 * SWEEP_TOLERANCE, t


def test_dense_sweep_matches_landau_zener_oracle():
    # trajectory-dense's sweep: 1000 samples of the 1.0-long fig1 sweep, one
    # step per sample interval
    p = replace(fig1_spec().adiabat_ab(), tau=1.0)
    partials = adiabat_partials(p, 1000)
    times = linspace(0.0, p.tau, 1000)
    for k in [*range(0, 1000, 100), 999]:
        t = times[k]
        exact = landau_zener_map(AdiabatParams(p.omega_start, p.omega_at(t), p.j, t))
        assert np.abs(np.array(partials[k].block) - exact).max() <= 10 * SWEEP_TOLERANCE, t


def test_sweep_step_is_tenth_order():
    # fixed step counts, no error control: each halving of the step cuts
    # the error against the exact map by about 2^10 = 1024, within the band
    # 2^10 (0.78, 1.25) that excludes 2^8 and 2^12; at 40 steps the error
    # (about 1e-15) is rounding
    p = AdiabatParams(5.0, 12.6355, 2.0, 0.5)
    exact = landau_zener_map(p)
    errors = [np.abs(np.array(propagators._sweep_blocks(p, 1, n)[-1]) - exact).max()
              for n in (5, 10, 20)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.78 * 2**10 <= coarse / fine <= 1.25 * 2**10, errors


def test_sweep_step_counts(monkeypatch):
    # a work count, not a timing: each sweep forms one product (count
    # asserts it), in grid-long-sweep's shape of 17 steps
    counter = StepCounter(monkeypatch)
    for w in (3.0, 4.5, 5.08364, 6.5, 8.0):
        for p in (AdiabatParams(w, 12.6355, 2.0, 0.5), AdiabatParams(12.6355, w, 2.0, 0.5)):
            assert counter.count(p) <= 17, p
    # near MAX_SWEEP_ANGLE: steps of about 1.5 rad, whose errors across the
    # field axis cancel as the state turns
    assert counter.count(AdiabatParams(1e3, -1e3, 1.0, 7.0)) <= 6848
    # a slow sweep near MAX_SWEEP_ANGLE (9,990 rad) takes the most work
    assert counter.count(AdiabatParams(1.0, 10.0, 10.0, 499.5)) <= 11514
    # iterate-long's shape: fig1's 0.01-long sweep
    assert counter.count(fig1_spec().adiabat_ab()) <= 1
    # trajectory-dense's shape: one step per sample interval
    counter.steps = counter.calls = 0
    adiabat_partials(replace(fig1_spec().adiabat_ab(), tau=1.0), 1000)
    assert (counter.steps, counter.calls) == (999, 1)


def _ascending_ramps(spec):
    """The cold->hot field ramps run for tau_ab and for tau_ba."""
    return [spec.adiabat_ab(), replace(spec.adiabat_ab(), tau=spec.tau_ba)]


def test_compose_cycle_integrates_one_sweep_when_symmetric(monkeypatch):
    counter = StepCounter(monkeypatch)
    compose_cycle(fig1_spec())
    assert counter.sweeps == [fig1_spec().adiabat_ab()]
    counter.sweeps.clear()
    spec = fig5_spec(1.0, 1.0)
    assert spec.tau_ab != spec.tau_ba
    compose_cycle(spec)
    assert counter.sweeps == _ascending_ramps(spec)
    # a work count: a 1.0-long fig1 limit cycle takes one 33-step product
    counter.steps = 0
    limit_cycle(replace(fig1_spec(), tau_ab=1.0, tau_ba=1.0))
    assert counter.steps <= 33


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(sweeps())
@example(AdiabatParams(0.0, 1.0, 2.0, 2.225073858507e-311))  # subnormal tau
def test_time_reversed_sweep_matches_landau_zener_oracle_property(p):
    # R U^T R, R = diag(1, 1, -1), is the map of the field ramp run backwards
    reversed_block = np.array(_time_reversed(adiabat_partials(p, 2)[-1].block))
    reverse = AdiabatParams(p.omega_end, p.omega_start, p.j, p.tau)
    assert np.abs(reversed_block @ reversed_block.T - np.eye(3)).max() < 1e-13
    assert np.abs(reversed_block - landau_zener_map(reverse)).max() <= 10 * SWEEP_TOLERANCE


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), st.booleans())
def test_compose_cycle_reverse_sweep_matches_integrated_property(spec, symmetric):
    # the time-reversed ascending ramp against the descending sweep, which
    # the public adiabat_partials still integrates
    if symmetric:
        spec = replace(spec, tau_ba=spec.tau_ab)
    hot_cold = compose_cycle(spec).branches[1].prop
    integrated = adiabat_partials(spec.adiabat_ba(), 2)[-1]
    assert np.abs(hot_cold.m - integrated.m).max() <= 2e-11


def test_trajectory_integrates_one_sweep_when_symmetric(monkeypatch):
    # a work count in trajectory-dense's shape (1000 samples, 1.0-long
    # sweeps): only the cold->hot sweep is integrated, once at 999 steps,
    # one per sample interval, and the hot->cold samples are its time
    # reversals
    b0 = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    spec = replace(fig1_spec(), tau_ab=1.0, tau_ba=1.0)
    prop = compose_cycle(spec)
    counter = StepCounter(monkeypatch)
    trajectory(prop, b0, 1000)
    assert counter.sweeps == [spec.adiabat_ab()]
    assert counter.steps == 999
    # the three fig5 cycles (unequal sweeps), composed and sampled at 200
    # points each, integrate the two ascending ramps in 1,221 steps: 4 and 5
    # for the composed ramps, 199 for each sampled one
    counter.sweeps.clear()
    counter.steps = 0
    for times in FIG5_TIMES.values():
        trajectory(compose_cycle(fig5_spec(*times)), b0, 200)
    assert counter.sweeps == _ascending_ramps(fig5_spec(*FIG5_TIMES["1"]))
    assert counter.steps <= 1221


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states(), st.sampled_from([2, 3, 17]), st.booleans())
def test_engine_integrates_only_ascending_ramps_property(spec, b0, samples, symmetric):
    # compose_cycle and trajectory integrate the cold->hot ramp for each sweep
    # duration and nothing else: one ramp when the sweeps last equally long
    if symmetric:
        spec = replace(spec, tau_ba=spec.tau_ab)
    with pytest.MonkeyPatch.context() as patch:
        counter = StepCounter(patch)
        trajectory(compose_cycle(spec), b0, samples)
    assert all(p.omega_start < p.omega_end for p in counter.sweeps), counter.sweeps
    expected = {ramp for ramp in _ascending_ramps(spec) if ramp.tau > 0.0}
    assert set(counter.sweeps) == expected


@settings(max_examples=30 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), st.integers(3, 5))
def test_time_reversed_partials_match_reverse_sweep_property(spec, samples):
    # sample k of the reverse sweep, R U(tau - t_k) U(tau)^T R, against the
    # integrated reverse sweep and its exact map at t_k; column i of its map
    # is the state form run from the basis vector e_i
    reverse = replace(spec, tau_ba=spec.tau_ab).adiabat_ba()
    ramp = [u.block for u in adiabat_partials(spec.adiabat_ab(), samples)[1:]]
    columns = [_time_reversed_states(ramp, BlochVector(*e, 0.0, 0.0))
               for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    integrated = adiabat_partials(reverse, samples)
    times = linspace(0.0, reverse.tau, samples)
    for k, (t, direct) in enumerate(zip(times, integrated)):
        block = np.array([tuple(column[k])[:3] for column in columns]).T
        assert np.abs(block @ block.T - np.eye(3)).max() < 1e-13, t
        assert np.abs(block - np.array(direct.block)).max() <= 2e-11, t
        exact = landau_zener_map(AdiabatParams(reverse.omega_start, reverse.omega_at(t),
                                               reverse.j, t))
        assert np.abs(block - exact).max() <= 10 * SWEEP_TOLERANCE, t


def test_landau_zener_oracle_solutions_agree():
    # the parabolic-cylinder solution and the Taylor series of the same
    # equation, and both closed forms, against independent constructions
    for p in (AdiabatParams(12.6355, 5.08364, 2.0, 1.0), AdiabatParams(-40.0, 40.0, 3.0, 0.3),
              AdiabatParams(0.0, 1e-3, 2.0, 1.0)):
        pcfd = landau_zener_map(p, method="pcfd")
        assert np.abs(pcfd - landau_zener_map(p, method="taylor")).max() < 1e-20
        assert np.abs(pcfd @ pcfd.T - np.eye(3)).max() < 1e-15
    angle = SQRT2 * (4.0 + 10.0) * 0.5 / 2.0
    c, s = math.cos(angle), math.sin(angle)
    about_b1 = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    assert np.abs(landau_zener_map(AdiabatParams(4.0, 10.0, 0.0, 0.5)) - about_b1).max() < 1e-15
    iso = isochore_propagator(IsochoreParams(8.3, 2.0, BathParams(0.0, 0.0, 1.0), 0.41))
    constant = landau_zener_map(AdiabatParams(8.3, 8.3, 2.0, 0.41))
    assert np.abs(constant - iso.m[:3, :3]).max() < 1e-15


def test_adiabat_matches_direct_oracle_reference_sweep():
    p = AdiabatParams(12.6355, 5.08364, 2.0, 0.01)
    magnus = adiabat_partials(p, 2)[-1]
    direct = adiabat_propagator_direct(p, 100000)
    assert np.abs(magnus.m - direct.m).max() < 1e-8


def test_adiabat_matches_direct_oracle_random(rng):
    worst = 0.0
    for _ in range(20):
        p = AdiabatParams(
            rng.uniform(2.0, 15.0), rng.uniform(2.0, 15.0),
            rng.uniform(0.5, 4.0), rng.uniform(0.005, 0.8),
        )
        magnus = adiabat_partials(p, 2)[-1]
        direct = adiabat_propagator_direct(p, 30000)
        worst = max(worst, float(np.linalg.norm(magnus.m - direct.m)))
    assert worst < 1e-7


def test_direct_oracle_second_order_convergence():
    p = AdiabatParams(12.0, 5.0, 2.0, 0.4)
    exact = adiabat_partials(p, 2)[-1].m
    err = [np.linalg.norm(adiabat_propagator_direct(p, n).m - exact) for n in (200, 400, 800)]
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)
    assert err[1] / err[2] == pytest.approx(4.0, rel=0.05)


def test_direct_oracle_exact_for_constant_field():
    omega, j, tau = 7.7, 1.5, 0.6
    iso = isochore_propagator(IsochoreParams(omega, j, BathParams(0.0, 0.0, 1.0), tau))
    for n in (1, 7, 64):
        direct = adiabat_propagator_direct(AdiabatParams(omega, omega, j, tau), n)
        assert np.abs(direct.m - iso.m).max() < 1e-12


def test_direct_oracle_zero_time_is_identity():
    direct = adiabat_propagator_direct(AdiabatParams(5.0, 12.0, 2.0, 0.0), 10)
    assert np.abs(direct.m - np.eye(4)).max() == 0.0


def test_adiabat_preserves_spectrum(rng):
    p = AdiabatParams(11.0, 6.0, 2.0, 0.2)
    prop = adiabat_partials(p, 2)[-1]
    for _ in range(50):
        b = random_bloch(rng)
        before = np.sort(eigenvalue_tuple(b))
        after = np.sort(eigenvalue_tuple(prop.apply(b)))
        assert np.abs(before - after).max() < 1e-12


# ---------------------------------------------------------------------------
# application and composition


def test_apply_identity():
    b = BlochVector(0.1, -0.2, 0.05, 0.02, 0.1)
    # the empty composition is the identity map
    assert compose().apply(b) == b


def test_apply_thermal_fixed_point():
    p = _iso()
    b = thermal_state(p.omega, p.j, p.bath.temperature)
    out = isochore_propagator(p).apply(b)
    assert np.abs(np.array(out) - np.array(b)).max() < 1e-12


def test_composition_associativity(rng):
    p1 = isochore_propagator(_iso(tau=0.3))
    p2 = adiabat_partials(AdiabatParams(9.0, 4.0, 2.0, 0.1), 2)[-1]
    p3 = isochore_propagator(_iso(omega=4.0, temp=1.2, tau=0.5))
    chained = compose(p3, p2, p1)
    for _ in range(20):
        b = random_bloch(rng)
        stepped = p3.apply(p2.apply(p1.apply(b)))
        assert np.abs(np.array(chained.apply(b)) - np.array(stepped)).max() < 1e-13


def test_random_branches_preserve_physicality(rng):
    # smaller version of the acceptance sweep
    for _ in range(60):
        if rng.uniform() < 0.5:
            prop = isochore_propagator(IsochoreParams(
                rng.uniform(1.0, 14.0), rng.uniform(0.3, 4.0),
                BathParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.05),
                           rng.uniform(0.3, 10.0)),
                rng.uniform(0.0, 3.0),
            ))
        else:
            prop = adiabat_partials(AdiabatParams(
                rng.uniform(2.0, 14.0), rng.uniform(2.0, 14.0),
                rng.uniform(0.3, 4.0), rng.uniform(0.0, 0.6),
            ), 2)[-1]
        for _ in range(30):
            image = prop.apply(random_bloch(rng))
            assert np.min(eigenvalue_tuple(image)) >= -1e-12


def test_cycle_b45_rates():
    gamma_h, tau_h = 0.7, 0.9
    gamma_c, tau_c = 0.3, 1.4
    u_h = isochore_propagator(_iso(omega=12.0, gamma=gamma_h, temp=7.0, tau=tau_h))
    u_c = isochore_propagator(_iso(omega=5.0, gamma=gamma_c, temp=1.5, tau=tau_c))
    u_ba = adiabat_partials(AdiabatParams(12.0, 5.0, 2.0, 0.04), 2)[-1]
    u_ab = adiabat_partials(AdiabatParams(5.0, 12.0, 2.0, 0.03), 2)[-1]
    cycle = compose(u_ab, u_c, u_ba, u_h)
    accumulated = gamma_h * tau_h + gamma_c * tau_c
    assert abs(cycle.b4_scale - math.exp(-accumulated)) < 1e-13
    assert abs(cycle.b5_scale - math.exp(-2.0 * accumulated)) < 1e-13


def test_affine_propagator_rejects_bad_bottom_row():
    from spinotto import AffinePropagator

    bad = np.eye(4)
    bad[3, 0] = 0.1
    with pytest.raises(ValueError):
        AffinePropagator(m=bad)


def test_affine_propagator_rejects_a_matrix_that_is_not_4x4():
    from spinotto import AffinePropagator

    with pytest.raises(ValueError, match="m must be 4x4"):
        AffinePropagator(m=np.eye(3))


@pytest.mark.parametrize("given", [np.asarray, lambda x: np.asarray(x).tolist()],
                         ids=["numpy", "list"])
def test_affine_propagator_stores_float_tuples(given):
    from spinotto import AffinePropagator

    prop = AffinePropagator(block=given([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
                            shift=given([1, 0, 2]), b4_scale=np.float64(0.5), b5_scale=1,
                            b5_drive=given([0, 1, 0]), b5_shift=np.int64(2))
    expected = (((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)), (1.0, 0.0, 2.0), 0.5, 1.0,
                (0.0, 1.0, 0.0), 2.0)
    for made in (prop, copy.deepcopy(prop), pickle.loads(pickle.dumps(prop))):
        assert tuple(made) == expected
        block, shift, b4_scale, b5_scale, b5_drive, b5_shift = made
        assert all(type(row) is tuple for row in (block, *block, shift, b5_drive))
        assert all(type(x) is float for x in (*chain(*block), *shift, *b5_drive,
                                               b4_scale, b5_scale, b5_shift))


@pytest.mark.parametrize("fields, message", [
    ({"block": np.eye(2)}, "block must be three rows of three numbers"),
    ({"block": [[1.0, 0.0, 0.0]] * 2 + [[0.0, 1.0]]}, "block must be three rows"),
    ({"shift": (1.0, 2.0)}, "shift must be three numbers"),
    ({"b5_drive": 0.0}, "b5_drive must be three numbers"),
    ({"b4_scale": "fast"}, "b4_scale must be a number"),
    ({"b5_shift": 1j}, "b5_shift must be a number"),
], ids=["2x2-block", "short-row", "shift", "drive", "b4_scale", "b5_shift"])
def test_affine_propagator_rejects_a_misshapen_field(fields, message):
    from spinotto import AffinePropagator

    with pytest.raises(ValueError, match=message):
        AffinePropagator(**{"block": np.eye(3), **fields})


@pytest.mark.parametrize("call, message", [
    (lambda p: adiabat_partials(p, 1), "samples must be >= 2"),
    (lambda p: adiabat_propagator_direct(p, 0), "n_steps must be >= 1"),
], ids=["partials", "direct"])
def test_sweep_sample_counts_are_bounded(call, message):
    with pytest.raises(ValueError, match=message):
        call(AdiabatParams(5.0, 12.0, 2.0, 0.1))
