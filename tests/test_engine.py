"""Cycle composition, limit cycle, relaxation spectrum and thermodynamics."""

import cmath
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinotto import (
    AdiabatParams,
    AffinePropagator,
    BathParams,
    BlochVector,
    CycleSpec,
    IsochoreParams,
    NonUniqueLimitCycleError,
    compose,
    compose_cycle,
    eigenvalue_tuple,
    energy,
    energy_entropy,
    isochore_propagator,
    iterate,
    limit_cycle,
    replace,
    spectrum,
    thermal_state,
    trajectory,
    vn_entropy,
)
from spinotto import engine, propagators
from spinotto.algebra import FIELD_RANGE, PHYSICALITY_TOL, is_physical
from spinotto.cli import ITERATE_HEADER, TRAJECTORY_HEADER, iterate_block, trajectory_blocks
from spinotto.engine import (
    UNIQUENESS_GAP,
    _diagonal_minus,
    _fixed_point,
    _solve3,
    linspace,
)
from spinotto.propagators import MAX_SWEEP_ANGLE, SWEEP_TOLERANCE
from conftest import (
    EXAMPLE_SCALE,
    FIG5_TIMES,
    SQRT2,
    StepCounter,
    cycle_angle_mp,
    cycle_specs,
    eigenvalue_error,
    expand_blocks,
    fig1_spec,
    fig3_spec,
    fig5_spec,
    fig6_spec,
    fixed_point_mp,
    gibbs_matrix,
    hamiltonian_matrix,
    linear_fit,
    physical_states,
    random_bloch,
    random_spec,
    reconstruct_density,
    stroke_maps,
)


def test_compose_all_zero_times_is_identity():
    spec = fig1_spec()
    frozen = replace(spec, tau_cold=0.0, tau_hot=0.0, tau_ab=0.0, tau_ba=0.0)
    prop = compose_cycle(frozen)
    assert np.abs(prop.cycle.m - np.eye(4)).max() < 1e-15
    assert prop.cycle.b4_scale == 1.0 and prop.cycle.b5_scale == 1.0
    # a triple eigenvalue: every row of the shifted block vanishes
    assert np.abs(np.array(spectrum(frozen).eigenvalues) - 1.0).max() < 1e-15


def test_compose_unitary_cycle_is_orthogonal():
    spec = fig1_spec()
    unitary = replace(spec, gamma_cold=0.0, gamma_hot=0.0)
    prop = compose_cycle(unitary)
    block = prop.cycle.m[:3, :3]
    assert np.abs(block @ block.T - np.eye(3)).max() < 1e-12
    mus = np.abs(spectrum(unitary).eigenvalues)
    assert np.abs(mus - 1.0).max() < 1e-10


def test_compose_fig1_has_unique_unit_eigenvalue():
    info = spectrum(fig1_spec())
    moduli = np.abs(info.eigenvalues)
    assert abs(moduli[0] - 1.0) < 1e-12
    assert moduli[1:].max() < 1.0 - 1e-3
    assert info.gap > 0.0


def test_cycle_spectral_radius_never_exceeds_one(rng):
    for _ in range(15):
        spec = random_spec(rng, dephasing=rng.uniform() < 0.5)
        moduli = np.abs(spectrum(spec).eigenvalues)
        assert moduli.max() <= 1.0 + 1e-10


def test_compose_cycle_retains_branches_in_time_order():
    spec = fig1_spec()
    prop = compose_cycle(spec)
    names = [br.name for br in prop.branches]
    assert names == ["isochore-hot", "adiabat-hot-cold", "isochore-cold",
                     "adiabat-cold-hot"]
    assert [type(br.stroke) for br in prop.branches] == [IsochoreParams, AdiabatParams] * 2
    assert [br.stroke for br in prop.branches] == [
        spec.hot_isochore(), spec.adiabat_ba(), spec.cold_isochore(), spec.adiabat_ab()]
    assert sum(br.stroke.tau for br in prop.branches) == spec.period


@settings(max_examples=60 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs())
def test_compose_cycle_strokes_are_the_spec_strokes(spec):
    # the spec's stroke methods build its checked strokes without their
    # constructors, and compose_cycle takes its branch strokes from them;
    # both must equal the records the constructors build, type and all
    # (cycle_specs draws the two sweep durations independently)
    expected = (
        IsochoreParams(spec.omega_b, spec.j,
                       BathParams(spec.gamma_hot, spec.dephasing_hot, spec.t_hot), spec.tau_hot),
        AdiabatParams(spec.omega_b, spec.omega_a, spec.j, spec.tau_ba),
        IsochoreParams(spec.omega_a, spec.j, BathParams(spec.gamma_cold, spec.dephasing_cold,
                                                        spec.t_cold), spec.tau_cold),
        AdiabatParams(spec.omega_a, spec.omega_b, spec.j, spec.tau_ab),
    )
    built = (spec.hot_isochore(), spec.adiabat_ba(), spec.cold_isochore(), spec.adiabat_ab())
    branches = tuple(branch.stroke for branch in compose_cycle(spec).branches)
    for strokes in (built, branches):
        for stroke, constructed in zip(strokes, expected, strict=True):
            assert type(stroke) is type(constructed)
            assert stroke == constructed
            if isinstance(constructed, IsochoreParams):
                assert type(stroke.bath) is BathParams
                assert stroke.bath == constructed.bath


def test_unequal_sweeps_build_no_stroke_record_through_a_constructor(monkeypatch):
    # a checked spec's strokes, the second ascending ramp of unequal sweeps
    # included, are built without the stroke constructors
    spec = replace(fig1_spec(), tau_ab=0.5, tau_ba=0.8)
    calls = []
    for cls in (AdiabatParams, IsochoreParams, BathParams):
        def counting(cls, *args, _new=cls.__new__, **kwargs):
            calls.append(cls.__name__)
            return _new(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    IsochoreParams(1.0, 0.5, BathParams(0.3, 0.0, 1.5), 0.1)
    assert calls == ["BathParams", "IsochoreParams"]  # the counters count
    calls.clear()
    prop = limit_cycle(spec).propagator
    trajectory(prop, thermal_state(spec.omega_b, spec.j, spec.t_hot), 5)
    assert calls == []


def _near(draw, x):
    """x moved by a few ulps, or by a factor of two, either way."""
    if draw(st.booleans()):
        return x * draw(st.sampled_from([0.5, 2.0]))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, math.inf)
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, -math.inf)
    return x


@st.composite
def _edge_spec_arguments(draw):
    """CycleSpec arguments whose strokes sit at the MAX_SWEEP_ANGLE and
    FIELD_RANGE edges: fields of magnitude near either end of FIELD_RANGE,
    sweeps near the angle limit and bath strokes near a phase overflow."""
    edge = draw(st.sampled_from(FIELD_RANGE))
    omega_b = draw(st.sampled_from([1.0, -1.0])) * _near(draw, edge)
    omega_a = draw(st.sampled_from([-1.0, 0.5, 0.0])) * _near(draw, edge)
    assume(omega_a < omega_b)
    j = draw(st.sampled_from([0.0, 0.0, 1.0, 1e-3])) * _near(draw, edge)
    big = math.hypot(max(abs(omega_a), abs(omega_b)), j)
    assume(big > 0.0)

    def tau(limit):
        return draw(st.sampled_from([0.0, 1e-3 * limit])) if draw(st.booleans()) else _near(
            draw, limit)

    sweep_limit = MAX_SWEEP_ANGLE / (SQRT2 * big)
    phase_limit = sys.float_info.max / (SQRT2 * big)
    return dict(t_cold=1.5, t_hot=7.5, omega_a=omega_a, omega_b=omega_b, j=j,
                gamma_cold=0.3, gamma_hot=0.3, dephasing_cold=0.0, dephasing_hot=0.01,
                tau_cold=tau(phase_limit), tau_hot=tau(phase_limit),
                tau_ab=tau(sweep_limit), tau_ba=tau(sweep_limit))


@settings(max_examples=300 * EXAMPLE_SCALE, deadline=None)
@given(_edge_spec_arguments())
def test_cycle_spec_checks_its_strokes_as_their_constructors_do(fields):
    # CycleSpec checks the stroke bounds itself, once; it must raise exactly
    # when one of the four stroke constructors would, in time order from the
    # cold->hot sweep, with the same message, and then check the period
    f = fields
    strokes = (
        lambda: AdiabatParams(f["omega_a"], f["omega_b"], f["j"], f["tau_ab"]),
        lambda: AdiabatParams(f["omega_b"], f["omega_a"], f["j"], f["tau_ba"]),
        lambda: IsochoreParams(f["omega_b"], f["j"], BathParams(0.3, 0.01, 7.5), f["tau_hot"]),
        lambda: IsochoreParams(f["omega_a"], f["j"], BathParams(0.3, 0.0, 1.5), f["tau_cold"]),
    )
    expected = None
    for build in strokes:
        try:
            build()
        except ValueError as exc:
            expected = str(exc)
            break
    period = f["tau_hot"] + f["tau_ba"] + f["tau_cold"] + f["tau_ab"]
    if expected is None and not math.isfinite(period):
        expected = (f"period tau_hot + tau_ba + tau_cold + tau_ab = {period} "
                    "is not finite")
    if expected is None:
        spec = CycleSpec(**fields)
        assert tuple(spec) == tuple(fields.values())
    else:
        with pytest.raises(ValueError) as info:
            CycleSpec(**fields)
        assert str(info.value) == expected


# fig1's fields and temperatures with every stroke near the identity and a
# cold bath alone: gap 1 - exp(-2e-8), and the block's three eigenvalues
# within 3e-6 of mu4
NEAR_IDENTITY_SPEC = replace(fig1_spec(), gamma_cold=2.0, gamma_hot=0.0, tau_cold=1e-8,
                             tau_hot=1e-8, tau_ab=1e-7, tau_ba=1e-7)
# a unitary cycle of one 1e-10-long sweep: gap 0
UNITARY_NEAR_IDENTITY_SPEC = CycleSpec(1.0, 1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                       0.0, 1e-10)
# a strongly dephased cycle whose block has determinant exactly 0, so that
# the Newton root of the cubic is a double root
STRONG_DEPHASING_SPEC = CycleSpec(
    t_cold=29.408297758260158, t_hot=1.5975975180611022, omega_a=-5.911453864194131,
    omega_b=3.7780721476950117, j=0.8637303534290872, gamma_cold=0.8328635304826615,
    gamma_hot=0.7477751024239343, dephasing_cold=2.656743367363246,
    dephasing_hot=1.8549557577837719, tau_cold=0.6535727061285856,
    tau_hot=0.48936502900581424, tau_ab=1.1379857750818863, tau_ba=1.194782955385861)


@st.composite
def near_identity_specs(draw, low=-10.0, high=-1.0) -> CycleSpec:
    """cycle_specs() draws with every stroke 10**low to 10**high long
    (log-uniform, by default 1e-10 to 0.1): the block's three eigenvalues
    cluster near mu4."""
    spec = draw(cycle_specs())
    return replace(spec, **{name: 10.0 ** draw(st.floats(low, high))
                            for name in ("tau_cold", "tau_hot", "tau_ab", "tau_ba")})


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(st.one_of(cycle_specs(), near_identity_specs(-14.0, -10.5)))
@example(fig1_spec())
@example(fig6_spec())
@example(fig5_spec(*FIG5_TIMES["3"]))
@example(replace(fig1_spec(), tau_hot=0.0, tau_cold=0.0))
@example(NEAR_IDENTITY_SPEC)
@example(UNITARY_NEAR_IDENTITY_SPEC)
# rotation angles of 1e-10 and 3.2e-12: a transverse pair this close to
# real stays a pair, behind the real mu1 = mu4
@example(CycleSpec(1.0, 1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-11))
@example(CycleSpec(1.0, 1.0, 0.0, 2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 1e-12, 0.0, 0.0, 1e-12))
def test_gap_is_the_baths_contraction_property(spec):
    # every bath block has 2-norm g = exp(-Gamma tau) and every sweep block
    # is a rotation, so mu4 = g_hot g_cold, the b4 rate, bounds every modulus
    # after mu0 and the gap is 1 - mu4: read from the spec's exponentials,
    # whatever the eigensolver's error, and never negative
    eps = sys.float_info.epsilon
    info = spectrum(spec)
    mu = info.eigenvalues
    assert mu[0] == 1.0
    assert mu[4] == compose_cycle(spec).cycle.b4_scale
    x = sum(gamma * tau for gamma, tau in ((spec.gamma_hot, spec.tau_hot),
                                           (spec.gamma_cold, spec.tau_cold)) if tau > 0.0)
    assert abs(mu[4] - math.exp(-x)) <= 4 * eps
    assert abs(mu[5] - mu[4] ** 2) <= 4 * eps
    gap = 1.0 - abs(mu[4])
    assert info.gap == gap >= 0.0
    # the contraction bounds the eigensolver's moduli, and without dephasing
    # M = mu4 O with O a rotation, whose real eigenvalue is mu4 itself; the
    # longitudinal mu1 is real on every cycle, however small the rotation
    assert max(map(abs, mu[1:4])) <= mu[4].real + 2e-15
    assert mu[1].imag == 0.0
    if spec.dephasing_cold == spec.dephasing_hot == 0.0:
        assert abs(mu[1] - mu[4]) <= 2e-15
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError as exc:
        assert len(exc.eigenvalues) == 6
        if gap < UNIQUENESS_GAP:
            assert str(exc) == (f"no unique limit cycle: spectral gap {gap:.3e} "
                                f"below {UNIQUENESS_GAP}")
        else:
            assert "is not a physical state" in str(exc), str(exc)
    else:
        assert gap >= UNIQUENESS_GAP
        assert report.gap == gap


@st.composite
def strong_dephasing_specs(draw) -> CycleSpec:
    """cycle_specs() draws with dephasing 0.05 to 5 in both baths: spectra
    with real pairs, double roots and zero determinants."""
    spec = draw(cycle_specs())
    return replace(spec, dephasing_cold=draw(st.floats(0.05, 5.0)),
                   dephasing_hot=draw(st.floats(0.05, 5.0)))


@settings(max_examples=300 * EXAMPLE_SCALE, deadline=None)
@given(st.one_of(cycle_specs(), near_identity_specs(), strong_dephasing_specs()))
@example(NEAR_IDENTITY_SPEC)
@example(STRONG_DEPHASING_SPEC)
def test_eigenvalues_match_the_oracle_property(spec):
    # every block norm is at most 1, so an absolute bound of a few ulp
    mu = spectrum(spec).eigenvalues
    assert eigenvalue_error(mu[1:4], compose_cycle(spec).cycle.block) <= 2e-15, mu


@st.composite
def _quaternions(draw):
    """(q, phi, axis): the unit quaternion of the rotation by phi in [0, pi]
    about a unit axis, or its negative, the same rotation; angles near 0 and
    pi, and both ends, included."""
    axis = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in axis))
    assume(norm > 1e-3)
    axis = [x / norm for x in axis]
    phi = draw(st.one_of(
        st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi]),
        st.floats(-16.0, -1.0).map(lambda x: 10.0 ** x),
        st.floats(-16.0, -1.0).map(lambda x: math.pi - 10.0 ** x)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    w, s = sign * math.cos(0.5 * phi), sign * math.sin(0.5 * phi)
    return (w, s * axis[0], s * axis[1], s * axis[2]), phi, axis


@settings(max_examples=300 * EXAMPLE_SCALE, deadline=None)
@given(_quaternions())
def test_angle_and_axis_reads_the_quaternion_property(rotation):
    # phi = 2 atan2(|(x, y, z)|, |w|) reads the angle from the components
    # directly, so it is good to a few ulp near 0 and pi alike, and q and
    # -q give the same rotation; the axis is undefined at 0 and its sign at pi
    q, phi, axis = rotation
    got_phi, got_axis = engine._angle_and_axis(q)
    eps = sys.float_info.epsilon
    assert abs(got_phi - phi) <= 8 * eps
    if got_axis == (0.0, 0.0, 0.0):
        assert phi <= 8 * eps
    elif math.sin(0.5 * phi) > 1e-3:
        signs = (1.0,) if phi < 3.0 else (1.0, -1.0)
        assert min(max(abs(g - sign * a) for g, a in zip(got_axis, axis))
                   for sign in signs) <= 8 * eps / math.sin(0.5 * phi)


def test_angle_and_axis_of_the_identity_and_of_nan():
    for w in (1.0, -1.0):
        assert engine._angle_and_axis((w, 0.0, 0.0, 0.0)) == (0.0, (0.0, 0.0, 0.0))
    phi, axis = engine._angle_and_axis((math.nan,) * 4)
    assert math.isnan(phi) and all(map(math.isnan, axis))


# fig1's engine without cold conductance: mu4 = exp(-2.5 gamma_hot) is 7e-142
# at 130, 1e-304 at 280, subnormal at 290 (1.4e-315) and 297 (3.5e-323)
@pytest.mark.parametrize("gamma_hot", [130.0, 280.0, 290.0, 297.0])
def test_phi_is_the_composed_rotation_angle_at_a_subnormal_contraction(gamma_hot):
    # phi comes from the strokes' composed quaternion, not from M = mu4 O,
    # which keeps one or two bits of O when mu4 is subnormal: read from
    # M / mu4 (up to 4.4) phi erred by 1.5e-9 at 290 and by 0.107 at 297.
    # The bound, stated before any run: a rotation error E of the cycle
    # block, each entry within eps as in _oracle_bounds, moves its angle by
    # at most ||E||_2 <= 3 eps to first order, times 2 for the neglect
    eps = 4 * SWEEP_TOLERANCE + 64 * sys.float_info.epsilon
    spec = replace(fig1_spec(), gamma_cold=0.0, gamma_hot=gamma_hot)
    assert abs(spectrum(spec).phi - cycle_angle_mp(spec)) <= 2 * 3 * eps


_ROOT3 = math.sqrt(3.0) / 2.0


@pytest.mark.parametrize("block, expected, steps", [
    (((0.0,) * 3,) * 3, (0.0, 0.0, 0.0), 0),
    (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (1.0, 1.0, 1.0), 0),
    (((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
     (1.0, complex(-0.5, _ROOT3), complex(-0.5, -_ROOT3)), 1),
    (((0.5, 1.0, 0.0), (0.0, 0.5, 1.0), (0.0, 0.0, 0.5)), (0.5, 0.5, 0.5), 0),
    (((0.25, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.0, -0.5)), (-0.5, 0.25, 0.25), 0),
    (((0.5, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)), (0.5, 1j, -1j), 0),
    (((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (1.0, math.nan, math.nan), 0),
], ids=["zero", "identity", "cyclic-permutation", "jordan", "double-root", "top-split", "nan"])
def test_eigenvalues3_of_structured_blocks(monkeypatch, block, expected, steps):
    # the cyclic permutation is a rotation on which Francis double-shift QR
    # stagnates; a real shift splits it in one step.  The top-split block
    # splits at h21, not h32.  Each step is two rotations after the one of
    # the Hessenberg reduction
    calls = []
    rotate = engine._rotate
    monkeypatch.setattr(engine, "_rotate", lambda *args: calls.append(1) or rotate(*args))
    got = engine._eigenvalues3(block)
    assert (len(calls) - 1) // 2 == steps
    for g, e in zip(got, expected):
        assert abs(g - e) <= 4 * sys.float_info.epsilon or (math.isnan(e) and cmath.isnan(g))


def test_eigenvalues3_past_the_step_cap_is_nan():
    # a NaN block never meets the split test
    assert all(map(cmath.isnan, engine._eigenvalues3(((math.nan,) * 3,) * 3)))


def test_limit_cycle_fixed_point_residual(rng):
    for _ in range(10):
        spec = random_spec(rng)
        report = limit_cycle(spec)
        prop = compose_cycle(spec)
        image = prop.cycle.apply(report.b_a)
        assert np.abs(np.array(image) - np.array(report.b_a)).max() < 1e-10


def test_limit_cycle_fig6_exists_with_negative_power():
    limit_cycle(fig6_spec())
    assert limit_cycle(fig6_spec()).ledger.power < 0.0


def test_spectrum_b45_identities():
    for spec in (fig1_spec(), fig6_spec(), fig5_spec(*FIG5_TIMES["3"])):
        mu = spectrum(spec).eigenvalues
        assert abs(mu[4] - mu[1]) < 1e-12
        assert abs(mu[5] - mu[1] ** 2) < 1e-12


def test_spectrum_longitudinal_rate_without_dephasing(rng):
    for _ in range(10):
        spec = random_spec(rng)
        mu1 = spectrum(spec).eigenvalues[1]
        expected = math.exp(-(spec.gamma_hot * spec.tau_hot + spec.gamma_cold * spec.tau_cold))
        assert abs(mu1.imag) < 1e-12
        assert abs(mu1.real - expected) < 1e-12


def test_spectrum_mu1_independent_of_adiabat_times(rng):
    spec = random_spec(rng)
    base = abs(spectrum(spec).eigenvalues[1])
    for tau_ab, tau_ba in [(0.005, 0.03), (0.08, 0.01), (0.2, 0.2)]:
        varied = replace(spec, tau_ab=tau_ab, tau_ba=tau_ba)
        assert abs(abs(spectrum(varied).eigenvalues[1]) - base) / base < 0.01


def test_spectrum_phase_linear_in_adiabat_time():
    taus = np.linspace(0.005, 0.06, 12)
    phis = []
    for tau in taus:
        spec = CycleSpec(
            t_cold=1.5, t_hot=7.5, omega_a=5.0836387, omega_b=12.63545, j=2.0,
            gamma_cold=0.6, gamma_hot=0.6, dephasing_cold=0.0, dephasing_hot=0.0,
            tau_cold=0.05, tau_hot=0.05, tau_ab=float(tau), tau_ba=float(tau),
        )
        phis.append(spectrum(spec).phi)
    _, _, r2 = linear_fit(2 * taus, phis)
    assert r2 >= 0.99


def _numpy_spectrum(block):
    """mu1..mu3 from numpy.linalg.eigvals, ordered and classified the way
    the package documents: one real eigenvalue, then the transverse pair
    with positive imaginary part first; or all real by decreasing modulus.
    LAPACK gives a real eigenvalue an imaginary part of exactly 0."""
    eigs = np.linalg.eigvals(block)
    real = eigs.imag == 0.0
    if real.sum() == 1:
        pair = sorted(eigs[~real], key=lambda e: -e.imag)
        return [eigs[real][0]] + pair, False
    return sorted(eigs, key=lambda e: -abs(e)), True


def test_spectrum_and_fixed_point_match_numpy(rng):
    # long sweeps put the transverse pair near the real root, where Newton
    # on the cubic alone is off by ~2e-13
    specs = [random_spec(rng, dephasing=k % 2 == 1, short_adiabats=k % 4 < 2)
             for k in range(200)]
    specs += [fig1_spec(), fig6_spec(), replace(fig1_spec(), dephasing_hot=1.0)]
    specs += [fig5_spec(*t) for t in FIG5_TIMES.values()]
    specs += [fig3_spec(tau, dh, dc) for tau in (0.01, 1.0) for dh, dc in ((0, 0), (0.01, 0.03))]
    all_real = []
    for spec in specs:
        report = limit_cycle(spec)
        m = report.propagator.cycle.m
        expected, is_real = _numpy_spectrum(m[:3, :3])
        got = spectrum(spec).eigenvalues
        assert len(got) == 6 and all(isinstance(mu, complex) for mu in got)
        assert all(mu.imag == 0.0 for mu in got[1:4]) == is_real
        assert np.abs(np.array(got[1:4]) - np.array(expected)).max() <= 1e-13
        assert got == report.eigenvalues
        b123 = np.linalg.solve(np.eye(3) - m[:3, :3], m[:3, 3])
        assert np.abs(np.array(report.b_a)[:3] - b123).max() <= 1e-13
        all_real.append(is_real)
    # the strong-dephasing cycle takes the all-real branch, the fig presets do not
    assert all_real[202] and not any(all_real[200:202] + all_real[203:])


def test_iterate_fixed_point_is_constant():
    spec = fig1_spec()
    b_lc = limit_cycle(spec).b_a
    states = zip(*iterate(compose_cycle(spec), b_lc, 5))
    for b in states:
        assert np.abs(np.array(b) - np.array(b_lc)).max() < 1e-12


def test_iterate_two_starts_converge_to_same_point():
    spec = fig1_spec()
    cold = thermal_state(spec.omega_b, spec.j, spec.t_cold)
    hot = thermal_state(spec.omega_b, spec.j, 100.0)
    end_cold = [column[-1] for column in iterate(compose_cycle(spec), cold, 40)]
    end_hot = [column[-1] for column in iterate(compose_cycle(spec), hot, 40)]
    assert np.linalg.norm(np.array(end_cold) - np.array(end_hot)) < 1e-8


def test_iterate_convergence_rate_matches_spectrum(rng):
    # slow mixing keeps the error sequence far above the rounding floor
    spec = replace(random_spec(rng), gamma_cold=0.2, gamma_hot=0.2,
                   tau_cold=0.3, tau_hot=0.3)
    report = limit_cycle(spec)
    rate = max(abs(report.eigenvalues[1]), abs(report.eigenvalues[2]))
    b_lc = np.array(report.b_a)
    states = np.array(iterate(compose_cycle(spec), random_bloch(rng), 40)).T
    err = [np.linalg.norm(b - b_lc) for b in states]
    assert err[35] > 1e-9
    # geometric mean over several cycles averages out the rotating factor
    observed = (err[35] / err[25]) ** (1.0 / 10.0)
    assert observed == pytest.approx(rate, rel=0.05)


def test_iterate_states_stay_physical(rng):
    spec = random_spec(rng)
    for b in zip(*iterate(compose_cycle(spec), random_bloch(rng), 30)):
        assert np.min(eigenvalue_tuple(BlochVector(*b))) >= -1e-12


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states())
def test_iterate_approaches_limit_cycle_monotonically_property(spec, b0):
    # the paper's monotone approach: both measures of the distance to the
    # limit cycle are non-increasing from cycle to cycle
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError:
        assume(False)
    rows = expand_blocks([iterate_block(report, b0, 200)])
    for name in ("quantum_distance", "conditional_entropy"):
        index = ITERATE_HEADER.index(name)
        values = [row[index] for row in rows]
        for k, (before, after) in enumerate(zip(values, values[1:])):
            assert after <= before + 1e-12, (name, k, before, after)


@pytest.mark.parametrize("omega_b", [7.0, 8.0])
def test_iterate_relative_entropy_finite_on_cold_limit_cycle(omega_b):
    # a hot stroke alone at T = 0.3125: the limit cycle's upper outer level
    # holds a Boltzmann factor of 1.3e-14 (omega_b 7, resolved) or ~1e-16
    # (omega_b 8, below rounding).  From the pure inner-doublet start the
    # stroke fills that level with ~1e-8, which is no support violation: the
    # relative entropy stays finite and falls from cycle to cycle
    spec = CycleSpec(t_cold=1.0, t_hot=0.3125, omega_a=0.0, omega_b=omega_b, j=1.0,
                     gamma_cold=0.0, gamma_hot=1.0, dephasing_cold=0.0, dephasing_hot=0.0,
                     tau_cold=0.0, tau_hot=1.0, tau_ab=0.0, tau_ba=0.0)
    report = limit_cycle(spec)
    assert min(eigenvalue_tuple(report.b_a)) < 1e-13
    b0 = BlochVector(0.0, 0.0, 0.0, -SQRT2 / 2, -0.5)
    index = ITERATE_HEADER.index("conditional_entropy")
    values = [row[index] for row in expand_blocks([iterate_block(report, b0, 40)])]
    assert all(math.isfinite(v) for v in values)
    assert all(after <= before + 1e-12 for before, after in zip(values, values[1:]))
    assert values[-1] < 1e-6


# a hot stroke of 1e-308 and a cold conductance of 3e-9: a spectral gap of
# 9e-9 (3e-8 at a cold conductance of 1e-8).  Its exact fixed point is a
# state whose smallest eigenvalue is about 1e-9
NEAR_GAP_SPEC = CycleSpec(
    t_cold=0.3423, t_hot=25.333123028855248, omega_a=3.9551421452880096,
    omega_b=4.456230175277123, j=3.2054447220535454, gamma_cold=3e-09,
    gamma_hot=1.9306825859232153, dephasing_cold=0.0, dephasing_hot=0.0,
    tau_cold=2.960504896938179, tau_hot=1.1125369292536007e-308,
    tau_ab=0.04745420709557888, tau_ba=0.006198670441568167)


def _oracle_bounds(oracle) -> tuple:
    """The bounds on the errors of (b1, b2, b3) and of b5 against the
    50-digit fixed point (:func:`fixed_point_mp`), stated before any run and
    never widened: to first order a rotation error of the cycle block of at
    most eps = 4 SWEEP_TOLERANCE + 64 ulp (two sweeps, each within
    SWEEP_TOLERANCE per entry, and rounding) moves each of b1, b2, b3 by at
    most eps (along + across), and b5 by drive |delta b| + eps scale5; each
    bound carries a factor 2 for the first-order neglect."""
    eps = 4 * SWEEP_TOLERANCE + 64 * sys.float_info.epsilon
    bound = 2 * eps * (oracle.along + oracle.across)
    return bound, 2 * (oracle.drive * math.sqrt(3.0) * bound + eps * oracle.scale5)


def _assert_oracle_fixed_point(b_a, spec):
    """b_a is the dephasing-free spec's 50-digit fixed point within
    :func:`_oracle_bounds`."""
    oracle = fixed_point_mp(spec)
    bound, bound5 = _oracle_bounds(oracle)
    for got, exact, tol in zip((b_a.b1, b_a.b2, b_a.b3, b_a.b5), oracle.b,
                               (bound, bound, bound, bound5)):
        assert abs(got - exact) <= tol, (b_a, oracle)
    assert b_a.b4 == 0.0


def _dephasing_free(spec):
    return replace(spec, dephasing_cold=0.0, dephasing_hot=0.0)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(st.one_of(cycle_specs(), near_identity_specs(-12.0, -1.0)).map(_dephasing_free))
@example(fig1_spec())
@example(fig6_spec())
@example(fig5_spec(*FIG5_TIMES["3"]))
@example(NEAR_IDENTITY_SPEC)
@example(NEAR_GAP_SPEC)
def test_fixed_point_matches_the_oracle_property(spec):
    # without dephasing the fixed point is solved along and across the
    # rotation axis of M = mu4 O; near the gap and near the identity it
    # keeps the oracle's digits, where elimination lost 1 / (1 - mu4) ulp
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError as exc:
        if "is not a physical state" not in str(exc):
            assert 1.0 - compose_cycle(spec).cycle.b4_scale < UNIQUENESS_GAP
            return
        # the exact fixed point is a state: a refusal must lie within the
        # solve's bound of the state space's edge
        oracle = fixed_point_mp(spec)
        bound, bound5 = _oracle_bounds(oracle)
        b1, b2, b3, b5 = oracle.b
        exact = eigenvalue_tuple(BlochVector(b1, b2, b3, 0.0, b5))
        assert min(exact) < -PHYSICALITY_TOL + bound5 / 2 + math.sqrt(1.5) * bound, oracle
    else:
        _assert_oracle_fixed_point(report.b_a, spec)


def test_limit_cycle_accepts_the_near_gap_fixed_point():
    # at a gap of 9e-9 the axis split keeps the fixed point within 1.1e-14 of
    # the 50-digit one, a state with a smallest eigenvalue of 1.3e-9;
    # elimination erred by up to 2.6e-8 on this scan and refused this point
    # as not a state (up to 4.0.0)
    report = limit_cycle(NEAR_GAP_SPEC)
    assert report.gap < 1e-8
    _assert_oracle_fixed_point(report.b_a, NEAR_GAP_SPEC)
    assert 1e-9 < min(eigenvalue_tuple(report.b_a)) < 2e-9


# the 1.2.0 scan: 41 cold conductances 1e-9 to 1e-7 on NEAR_GAP_SPEC, gaps 3e-9
# to 3e-7; elimination (4.0.0) read accept/refuse A R x19 A R R A x18 there,
# with fixed points up to 2.6e-8 from the oracle's
@pytest.mark.parametrize("gamma_cold", [10.0 ** x for x in linspace(-9.0, -7.0, 41)],
                         ids=lambda x: f"{x:.3g}")
def test_near_gap_scan_is_accepted_with_the_oracles_digits(gamma_cold):
    spec = replace(NEAR_GAP_SPEC, gamma_cold=gamma_cold)
    report = limit_cycle(spec)
    assert report.gap < 3e-7
    _assert_oracle_fixed_point(report.b_a, spec)
    assert min(eigenvalue_tuple(report.b_a)) > 0.0


def test_fixed_point_rejects_a_non_finite_solve():
    # no spec gives a NaN in the cycle shift, which both solves read, and
    # the gap 1 - mu4 does not see it; the solve is then NaN, a fixed point
    # that is not a state
    prop = compose_cycle(fig1_spec())
    v1, v2, v3 = prop.cycle.shift
    bad = replace(prop, cycle=replace(prop.cycle, shift=(math.nan, v2, v3)))
    with pytest.raises(NonUniqueLimitCycleError, match="is not a physical state") as info:
        _fixed_point(bad)
    assert len(info.value.eigenvalues) == 6


def test_fixed_point_at_a_zero_contraction_and_a_zero_angle():
    # mu4 = 0 (the hot bath relaxes fully) makes M = 0 and b = v exactly; at
    # phi = 0 (here a hand-built M = mu4 I, with the identity's quaternion)
    # O has no axis and b = v / (1 - mu4)
    prop = compose_cycle(replace(fig1_spec(), gamma_hot=300.0))
    assert prop.cycle.b4_scale == 0.0
    b_a, mu, phi, _ = _fixed_point(prop)
    assert tuple(b_a)[:3] == prop.cycle.shift
    assert mu[1:4] == (0j, 0j, 0j) and phi == 0.0
    prop = compose_cycle(fig1_spec())
    mu4 = prop.cycle.b4_scale
    scaled = ((mu4, 0.0, 0.0), (0.0, mu4, 0.0), (0.0, 0.0, mu4))
    b_a, mu, phi, _ = _fixed_point(replace(prop, cycle=replace(prop.cycle, block=scaled),
                                           rotation=(1.0, 0.0, 0.0, 0.0)))
    assert mu[1:4] == (mu4, mu4, mu4) and phi == 0.0
    for b, v in zip(b_a, prop.cycle.shift):
        assert abs(b - v / (1.0 - mu4)) <= 4 * sys.float_info.epsilon * abs(b)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs())
@example(NEAR_IDENTITY_SPEC)
@example(NEAR_GAP_SPEC)
@example(replace(NEAR_GAP_SPEC, gamma_cold=1e-8))
def test_fixed_point_solve_is_finite_past_the_gap_property(spec):
    # past the gap test ||M||_2 <= mu4 <= 1 - 1e-9 keeps I - M far from
    # singular, so the solve is finite (_fixed_point's proof), and limit_cycle
    # refuses for one of two reasons only
    cycle = compose_cycle(spec).cycle
    if 1.0 - cycle.b4_scale >= UNIQUENESS_GAP:
        solved = _solve3(_diagonal_minus(1.0, cycle.block), cycle.shift)
        assert all(map(math.isfinite, solved)), solved
    try:
        limit_cycle(spec)
    except NonUniqueLimitCycleError as exc:
        assert (re.fullmatch(rf"no unique limit cycle: spectral gap \S+ below {UNIQUENESS_GAP}",
                             str(exc))
                or "is not a physical state" in str(exc)), str(exc)


def test_solve3_with_a_zero_column_is_nan():
    rows = ((1.0, 0.0, 2.0), (0.0, 0.0, 1.0), (3.0, 0.0, 1.0))
    assert all(map(math.isnan, _solve3(rows, (1.0, 2.0, 3.0))))


@pytest.mark.parametrize("call, message", [
    (lambda prop, b: iterate(prop, b, -1), "n must be >= 0"),
    (lambda prop, b: trajectory(prop, b, 1), "samples_per_branch must be >= 2"),
], ids=["iterate", "trajectory"])
def test_iterate_and_trajectory_reject_bad_counts(call, message):
    with pytest.raises(ValueError, match=message):
        call(compose_cycle(fig1_spec()), BlochVector(0.0, 0.0, 0.0, 0.0, 0.0))


_COUNTED = {
    "n": lambda count: iterate(compose_cycle(fig1_spec()), BlochVector(0.0, 0.0, 0.0, 0.0, 0.0),
                               count),
    "samples_per_branch": lambda count: trajectory(
        compose_cycle(fig1_spec()), BlochVector(0.0, 0.0, 0.0, 0.0, 0.0), count),
}


@pytest.mark.parametrize("count", [2.5, math.nan, math.inf], ids=["fraction", "nan", "inf"])
@pytest.mark.parametrize("name", list(_COUNTED))
def test_non_integer_counts_are_value_errors(name, count):
    # a count operator.index refuses is a ValueError naming the argument;
    # numpy integers are counts
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count!r}$"):
        _COUNTED[name](count)
    _COUNTED[name](np.int64(3))


def test_linspace_equals_numpy(rng):
    # one point is the start, as numpy.linspace(a, b, 1) is [a]
    pairs = [(0.4, 2.4), (-3.0, 7.0), (2.5, 2.5), (1.0, 1.0 + 1e-15)]
    pairs += [tuple(rng.uniform(-10.0, 10.0, 2)) for _ in range(10)]
    for start, stop in pairs:
        for num in range(1, 12):
            assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def test_isochore_partials_equal_per_sample_maps(rng):
    # the closed form's entries at many times at once (stroke_maps, from
    # propagators._isochore_factors) against one whole-stroke map per
    # sample, the per-sample path kept as the reference
    fields = ("block", "shift", "b4_scale", "b5_scale", "b5_drive", "b5_shift")
    for dephasing in (False, True):
        prop = compose_cycle(random_spec(rng, dephasing=dephasing))
        for branch in (prop.branches[0], prop.branches[2]):
            times = linspace(0.0, branch.stroke.tau, 40)
            for t, partial in zip(times, stroke_maps(branch.stroke, times)):
                expected = isochore_propagator(replace(branch.stroke, tau=t))
                for name in fields:
                    assert getattr(partial, name) == getattr(expected, name), (t, name)


_MIXED = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
_THERMAL = thermal_state(12.6355, 2.0, 7.5)
# A sweep's row carries s_vn of the stroke's start state; vn_entropy of a
# later sample differs from it by rounding alone.  Each outer eigenvalue
# 0.25 -+ |(b1, b2, b3)| / sqrt2 + b5 / 2 is rounded anew from the rotated
# components, by up to a few ulp of 1; an error e moves p log p by at most
# e (|log e| + 1), largest where p is within rounding of 0 (a pure state):
# 7.6e-14 for e = 10 ulp = 2.2e-15, so 1e-13.  s_e >= s_vn takes the same
# slack: the two distributions of an energy-diagonal state coincide up to
# that rounding.  Measured: 1.1e-15 over 300 random_spec cycles (mixed
# states); over 20,000 draws of the friction property's strategy, 9.3e-15 on
# sweep rows, 6.1e-15 between corners and s_vn - s_e at most 4.3e-15.
_UNITARY_ROUNDING = 1e-13


_NEGATIVE_ZEROS = BlochVector(-0.0, -0.0, -0.0, -0.0, -0.0)


@st.composite
def _signed_zero_starts(draw) -> BlochVector:
    """Physical states with some components -0.0: b1..b4 set to -0.0 keep
    the state physical (the outer pair and the inner doublet close in), b5
    only where the state stays physical."""
    b = list(draw(physical_states()))
    for i, zeroed in enumerate(draw(st.lists(st.booleans(), min_size=5, max_size=5))):
        if zeroed and (i < 4 or is_physical(eigenvalue_tuple(BlochVector(*b[:4], -0.0)))):
            b[i] = -0.0
    return BlochVector(*b)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(st.one_of(cycle_specs(), strong_dephasing_specs()),
       physical_states() | _signed_zero_starts(), st.sampled_from([0, 1, 40]))
@example(fig1_spec(), _NEGATIVE_ZEROS, 40)
@example(replace(fig1_spec(), dephasing_cold=0.01, tau_hot=0.0), _NEGATIVE_ZEROS, 40)
def test_iterate_steps_equal_cycle_apply_property(spec, b0, n):
    # iterate steps the cycle map from its entries unpacked once, as
    # columns: state k of them is k applications of prop.cycle.apply, bit
    # for bit, signs of zero included, from starts with -0.0 components,
    # with or without dephasing, b0's components first
    prop = compose_cycle(spec)
    columns = iterate(prop, b0, n)
    assert len(columns) == 5 and all(type(column) is list for column in columns)
    assert [len(column) for column in columns] == [n + 1] * 5
    b = b0
    for k, state in enumerate(zip(*columns)):
        assert list(map(float.hex, state)) == list(map(float.hex, b)), k
        b = prop.cycle.apply(b)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states() | _signed_zero_starts(), st.sampled_from([2, 3, 17]),
       st.booleans())
@example(replace(fig1_spec(), tau_hot=0.0), _THERMAL, 17, True)  # a zero-length bath stroke
@example(replace(fig1_spec(), tau_hot=0.0, tau_cold=0.0), _NEGATIVE_ZEROS, 3,
         False)  # -0.0 components through zero-length bath strokes
@example(replace(fig1_spec(), omega_a=-5.0, gamma_cold=0.0, gamma_hot=0.0, tau_cold=0.7,
                 tau_ab=1.0), _NEGATIVE_ZEROS, 17, False)  # a -0.0 b2 into the cold->hot sweep
@example(replace(fig1_spec(), tau_ab=0.0, tau_ba=0.0), _MIXED, 17, True)  # zero-length sweeps
@example(replace(fig1_spec(), tau_ab=5e-324, tau_ba=2.2e-311), _THERMAL, 3,
         False)  # subnormal sweep durations
@example(replace(fig1_spec(), omega_a=-3.0, j=0.0, tau_ab=0.4), _MIXED, 17, True)  # J = 0
@example(replace(fig1_spec(), dephasing_cold=0.05, dephasing_hot=0.03), _THERMAL, 17,
         True)  # dephasing on both baths
@example(replace(fig1_spec(), tau_ab=0.7, tau_ba=0.3), _THERMAL, 17, False)  # unequal sweeps
def test_trajectory_states_equal_public_maps_property(spec, b0, samples, symmetric):
    # the one-pass sampler against the public per-branch maps: each sample is
    # the stroke's partial map applied to the branch's start corner, which is
    # the previous branch's last sample, and the entropy cells of the CSV rows
    # are the public functions of that state; the hot->cold samples run the
    # cold->hot field ramp U, run for the hot->cold duration, backwards from
    # the end corner c = R U(tau)^T R b, R = diag(1, 1, -1): sample k is
    # R U(tau - t_k) R c, whether or not the sweeps last equally long.  The
    # bath strokes and the cold->hot sweep apply the maps' operations in
    # their order, so their states are compared by float.hex, signs of zero
    # included; the hot->cold reference is formed in numpy
    if symmetric:
        spec = replace(spec, tau_ba=spec.tau_ab)
    prop = compose_cycle(spec)
    points = expand_blocks(trajectory(prop, b0, samples))
    rows = expand_blocks(trajectory_blocks(prop, b0, samples))
    assert len(points) == len(rows) == 4 * samples
    s_vn, s_e = TRAJECTORY_HEADER.index("s_vn"), TRAJECTORY_HEADER.index("s_e")
    hot, hot_cold, cold, cold_hot = (branch.stroke for branch in prop.branches)
    ramp = stroke_maps(replace(cold_hot, tau=hot_cold.tau), samples)
    flip = np.diag([1.0, 1.0, -1.0])

    def reflected(b):  # R b
        return BlochVector(b.b1, b.b2, -b.b3, b.b4, b.b5)

    def ramp_backwards(corner):
        back = flip @ np.array(ramp[-1].block).T @ flip  # R U(tau)^T R
        end = AffinePropagator(block=back).apply(corner)
        return ([corner] + [reflected(u.apply(reflected(end))) for u in ramp[-2:0:-1]]
                + [end])

    def applied(maps):  # the maps after t = 0, from the start corner
        return lambda corner: [corner] + [m.apply(corner) for m in maps]

    public_states = (
        applied(stroke_maps(hot, linspace(0.0, hot.tau, samples)[1:])),
        ramp_backwards,
        applied(stroke_maps(cold, linspace(0.0, cold.tau, samples)[1:])),
        applied(stroke_maps(cold_hot, samples)[1:]),
    )
    corner, t0 = b0, 0.0
    for index, (branch, states_from) in enumerate(zip(prop.branches, public_states)):
        times = linspace(0.0, branch.stroke.tau, samples)
        for i, expected in enumerate(states_from(corner)):
            point, row = points[index * samples + i], rows[index * samples + i]
            assert point == row[:8]
            assert point[:3] == [branch.name, t0 + times[i], branch.stroke.omega_at(times[i])]
            state = point[3:]
            if index == 1:
                assert tuple(state) == tuple(expected), (index, i)
            else:
                assert list(map(float.hex, state)) == list(map(float.hex, expected)), (index, i)
            if index % 2:  # a sweep's rows carry its start corner's s_vn
                assert row[s_vn] == vn_entropy(corner)
                assert abs(row[s_vn] - vn_entropy(expected)) <= _UNITARY_ROUNDING
            else:
                assert row[s_vn] == vn_entropy(expected)
            assert row[s_e] == energy_entropy(expected, point[2], spec.j)
        corner = expected
        t0 += branch.stroke.tau


def test_trajectory_forms_no_map_and_no_sample_record(monkeypatch):
    # the trajectory path steps one state through each stroke's per-time
    # factors: no map is formed, and no state record per sample
    # (tuple.__new__ would refuse None)
    spec = replace(fig1_spec(), tau_ab=0.7, tau_ba=0.3)
    prop = compose_cycle(spec)
    b0 = limit_cycle(spec).b_a
    strokes, blocks = trajectory(prop, b0, 9), trajectory_blocks(prop, b0, 9)

    def refuse(*args, **kwargs):
        raise AssertionError("a map formed on the trajectory path")

    for name in ("isochore_propagator", "_sweep_map"):
        monkeypatch.setattr(propagators, name, refuse)
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(engine, "BlochVector", None)
    monkeypatch.setattr(propagators, "BlochVector", None)
    assert trajectory(prop, b0, 9) == strokes
    assert trajectory_blocks(prop, b0, 9) == blocks


def test_trajectory_forms_one_product_per_ramp(monkeypatch):
    # a work count in trajectory-dense's shape (1000 samples, equal 1.0-long
    # sweeps), through trajectory itself: one product of 999 steps; unequal
    # sweeps take two, as compose_cycle does, which forms one per ramp
    b0 = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    spec = replace(fig1_spec(), tau_ab=1.0, tau_ba=1.0)
    unequal = replace(spec, tau_ba=0.5)
    props = compose_cycle(spec), compose_cycle(unequal)
    counter = StepCounter(monkeypatch)
    trajectory(props[0], b0, 1000)
    assert (counter.steps, counter.calls) == (999, 1)
    counter.calls = 0
    trajectory(props[1], b0, 1000)
    assert counter.calls == 2
    for cycle, calls in ((spec, 1), (unequal, 2)):
        counter.calls = 0
        compose_cycle(cycle)
        assert counter.calls == calls


_NAN_STATE = BlochVector(0.0, 0.0, 0.0, 0.0, math.nan)
# each of b1..b3 the largest float: |(b1, b2, b3)| overflows, and from this
# start the strokes' sums would reach inf and then NaN
_OVERFLOWING_STATE = BlochVector(sys.float_info.max, sys.float_info.max, sys.float_info.max,
                                 0.1, 0.2)


@pytest.mark.parametrize("call, message", [
    (lambda prop: trajectory(prop, BlochVector(math.inf, 0.0, 0.0, 0.0, 0.0), 2),
     "b_start must be a physical state, got (inf, 0.0, 0.0, 0.0, 0.0)"),
    (lambda prop: trajectory_blocks(prop, _NAN_STATE, 2), "b_start must be a physical state"),
    (lambda prop: trajectory(compose_cycle(replace(fig1_spec(), tau_hot=1e-3)),
                             _OVERFLOWING_STATE, 2), "b_start must be a physical state"),
    (lambda prop: iterate(prop, BlochVector(math.inf, 0.0, 0.0, 0.0, 0.0), 3),
     "b0 must be a physical state"),
    (lambda prop: iterate(prop, _NAN_STATE, 0), "b0 must be a physical state"),
    (lambda prop: iterate(prop, BlochVector(1.0, 0.0, 0.0, 0.0, 0.0), 3),
     "b0 must be a physical state, got (1.0, 0.0, 0.0, 0.0, 0.0)"),
    (lambda prop: energy(_MIXED, math.nan, 1.0), "omega must be finite, got nan"),
    (lambda prop: energy(_MIXED, 1.0, -math.inf), "j must be finite, got -inf"),
    (lambda prop: energy(BlochVector(math.inf, 0.0, 0.0, 0.0, 0.0), 1.0, 1.0),
     "b.b1 must be finite, got inf"),
    (lambda prop: energy(BlochVector(0.0, math.nan, 0.0, 0.0, 0.0), 1.0, 1.0),
     "b.b2 must be finite, got nan"),
    (lambda prop: energy(BlochVector(1e308, 1e308, 0.0, 0.0, 0.0), 10.0, 10.0),
     "energy overflows: omega * b1 + j * b2 is inf"),
    (lambda prop: energy(BlochVector(1e308, -1e308, 0.0, 0.0, 0.0), 10.0, 10.0),
     "energy overflows: omega * b1 + j * b2 is nan"),
], ids=["trajectory", "trajectory_blocks", "trajectory-overflowing", "iterate", "iterate-0",
        "iterate-non-physical",
        "energy-omega", "energy-j", "energy-b1", "energy-b2", "energy-overflow",
        "energy-overflow-nan"])
def test_public_functions_refuse_non_finite_starts(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call(compose_cycle(fig1_spec()))


def test_eigenvalue_tuple_passes_non_finite_states_to_is_physical():
    # not refused: the spectrum carries the NaN or infinity, and the
    # physicality check refuses it
    for component in range(5):
        for value in (math.nan, math.inf, -math.inf):
            b = [0.0] * 5
            b[component] = value
            lam = eigenvalue_tuple(BlochVector(*b))
            assert not all(map(math.isfinite, lam))
            assert not is_physical(lam)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states(), st.sampled_from([2, 3, 17]),
       st.sampled_from(["tau_hot", "tau_cold"]))
def test_trajectory_bath_stroke_ends_where_next_sweep_starts_property(spec, b0, samples, idle):
    # each stroke's last sample and the next stroke's first are equal in
    # every component, a zero-length bath stroke (fig6's shape) included
    spec = replace(spec, **{idle: 0.0})
    strokes = trajectory(compose_cycle(spec), b0, samples)
    for index in (0, 1, 2):
        end = [c[-1] if isinstance(c, list) else c for c in strokes[index][3:]]
        start = [c[0] if isinstance(c, list) else c for c in strokes[index + 1][3:]]
        assert end == start, (index, end, start)


def test_trajectory_branch_endpoints_coincide():
    spec = fig1_spec()
    b0 = limit_cycle(spec).b_a
    samples = expand_blocks(trajectory(compose_cycle(spec), b0, 7))
    for i in range(3):
        end = samples[(i + 1) * 7 - 1]
        start = samples[(i + 1) * 7]
        assert np.abs(np.array(end[3:]) - np.array(start[3:])).max() < 1e-12
        assert abs(end[1] - start[1]) < 1e-12
    closing = samples[-1]
    assert np.abs(np.array(closing[3:]) - np.array(b0)).max() < 1e-10
    assert abs(closing[1] - spec.period) < 1e-12


def test_trajectory_vn_entropy_constant_on_sweeps():
    spec = fig1_spec()
    b0 = limit_cycle(spec).b_a
    for sample_count in (5,):
        samples = expand_blocks(trajectory(compose_cycle(spec), b0, sample_count))
        for branch_index in (1, 3):  # the two field sweeps
            branch = samples[branch_index * sample_count : (branch_index + 1) * sample_count]
            entropies = [vn_entropy(BlochVector(*p[3:])) for p in branch]
            assert max(entropies) - min(entropies) < 1e-10


def test_trajectory_fig6_vn_entropy_flat_over_whole_cycle():
    spec = fig6_spec()
    b0 = limit_cycle(spec).b_a
    samples = expand_blocks(trajectory(compose_cycle(spec), b0, 40))
    entropies = [vn_entropy(BlochVector(*p[3:])) for p in samples]
    # cycle closure pins the corner entropies exactly; in between the
    # entropy may bow by a few 1e-3, far below the figure's resolution
    corners = [entropies[i * 40] for i in range(4)] + [entropies[-1]]
    assert max(corners) - min(corners) < 1e-10
    spread = max(entropies) - min(entropies)
    print(f"fig6 von Neumann entropy spread over the cycle: {spread:.3e}")
    assert spread <= 5e-3


# ci/trajectory-zero-field's engine: J = 0, sweeps through zero field, a
# dephased cold bath
_ZERO_FIELD_SPEC = replace(fig1_spec(), omega_a=-4.0, omega_b=4.0, j=0.0, dephasing_cold=0.01,
                           tau_ab=1.0, tau_ba=1.0)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states(), st.booleans())
@example(_ZERO_FIELD_SPEC, _MIXED, False)
@example(replace(fig1_spec(), tau_ab=0.7, tau_ba=0.3, j=-2.0), _THERMAL, False)
def test_sweeps_are_frictionless_in_von_neumann_entropy_property(spec, b0, symmetric):
    # the paper's friction is a change of the energy entropy, never of the
    # von Neumann entropy: both sweeps, the time-reversed one (equal sweep
    # times) and the integrated one, are unitary, so a sweep's trajectory
    # rows carry one s_vn, bit for bit, that of the stroke's first state,
    # within rounding of each row state's; the ledger's corners agree across
    # each sweep within the same rounding, and s_e >= s_vn on every row, from
    # the limit cycle and from a drawn start
    if symmetric:
        spec = replace(spec, tau_ba=spec.tau_ab)
    prop = compose_cycle(spec)
    starts = [b0]
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError:
        pass
    else:
        ledger = report.ledger
        assert abs(vn_entropy(ledger.b_c) - vn_entropy(ledger.b_b)) <= _UNITARY_ROUNDING
        assert abs(vn_entropy(ledger.b_a) - vn_entropy(ledger.b_d)) <= _UNITARY_ROUNDING
        starts.append(report.b_a)
    s_vn, s_e = TRAJECTORY_HEADER.index("s_vn"), TRAJECTORY_HEADER.index("s_e")
    bloch = slice(TRAJECTORY_HEADER.index("b1"), TRAJECTORY_HEADER.index("b5") + 1)
    for start in starts:
        rows = expand_blocks(trajectory_blocks(prop, start, 9))
        for row in rows:
            assert row[s_e] >= row[s_vn] - _UNITARY_ROUNDING
        for name in ("adiabat-hot-cold", "adiabat-cold-hot"):
            sweep = [row for row in rows if row[0] == name]
            first = vn_entropy(BlochVector(*sweep[0][bloch]))
            for row in sweep:
                assert row[s_vn] == first, name
                assert abs(row[s_vn] - vn_entropy(BlochVector(*row[bloch]))) <= _UNITARY_ROUNDING


def test_energy_trivial_and_linear(rng):
    assert energy(BlochVector(0, 0, 0, 0, 0), 9.0, 2.0) == 0.0
    a, c = rng.normal(size=2)
    b1, b2 = random_bloch(rng), random_bloch(rng)
    mixed = BlochVector(*(a * np.array(b1) + c * np.array(b2)))
    lhs = energy(mixed, 7.0, 2.0)
    rhs = a * energy(b1, 7.0, 2.0) + c * energy(b2, 7.0, 2.0)
    assert abs(lhs - rhs) < 1e-12


def test_energy_thermal_matches_gibbs_trace(rng):
    for _ in range(20):
        omega, j = rng.uniform(0.5, 14.0, size=2)
        temp = rng.uniform(0.4, 10.0)
        expected = np.real(np.trace(hamiltonian_matrix(omega, j) @ gibbs_matrix(omega, j, temp)))
        assert abs(energy(thermal_state(omega, j, temp), omega, j) - expected) < 1e-12


def test_thermo_ledger_fig6_matches_reference_values():
    ledger = limit_cycle(fig6_spec()).ledger
    assert ledger.power == pytest.approx(-4.293e-2, rel=0.05)
    assert ledger.ds_u_total == pytest.approx(1.889e-2, rel=0.05)
    assert ledger.q_hot == 0.0  # no time on the hot branch


def test_thermo_ledger_first_law_and_entropy_identities(rng):
    specs = [fig1_spec(), fig6_spec()] + [fig5_spec(*t) for t in FIG5_TIMES.values()]
    specs += [random_spec(rng) for _ in range(10)]
    for spec in specs:
        led = limit_cycle(spec).ledger
        assert abs(led.q_hot + led.q_cold + led.w_ab + led.w_ba) < 1e-10
        assert abs(led.ds_u_total - led.ds_ext) < 1e-10
        entace_lhs = led.ds_e_hot + led.ds_e_cold
        entace_rhs = led.ds_ext + led.ds_e_ba + led.ds_e_ab
        assert abs(entace_lhs - entace_rhs) < 1e-10
        assert led.ds_ext >= -1e-12


def test_thermo_ledger_fig5_onset_cycles():
    p1 = limit_cycle(fig5_spec(*FIG5_TIMES["1"])).ledger.power
    p2 = limit_cycle(fig5_spec(*FIG5_TIMES["2"])).ledger.power
    assert p1 < 0.0
    assert abs(p2) < 0.1 * abs(p1)


def _column_vec(rho):
    return rho.reshape(-1, order="F")


def _bath_generator(omega, j, conductance, dephasing, temperature):
    """16x16 Lindblad generator of a bath stroke, column-stacked vec(rho).

    Jumps run between the outer energy states |+>, |-> (E = +-Omega/sqrt(2))
    and the inner doublet |01>, |10> (E = 0); dephasing is sqrt(2 gamma) H.
    """
    h = hamiltonian_matrix(omega, j)
    _, vecs = np.linalg.eigh(h)
    outer = [k for k in range(4) if abs(vecs[0, k]) + abs(vecs[3, k]) > 0.5]
    minus, plus = vecs[:, outer[0]], vecs[:, outer[1]]
    s01, s10 = np.eye(4)[1], np.eye(4)[2]
    a1 = np.outer(s01, plus.conj()) + np.outer(minus, s10)
    a2 = np.outer(s10, plus.conj()) + np.outer(minus, s01)
    boltzmann = math.exp(-math.hypot(omega, j) / (math.sqrt(2.0) * temperature))
    k_down = conductance / (1.0 + boltzmann)
    k_up = conductance - k_down
    eye = np.eye(4)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    jumps = [(k_down, a1), (k_down, a2), (k_up, a1.conj().T), (k_up, a2.conj().T),
             (1.0, math.sqrt(2.0 * dephasing) * h)]
    for rate, op in jumps:
        op_sq = op.conj().T @ op
        gen += rate * (np.kron(op.conj(), op)
                       - 0.5 * np.kron(eye, op_sq) - 0.5 * np.kron(op_sq.T, eye))
    return gen


def _sweep_superoperator(omega_start, omega_end, j, tau, n_steps=20000):
    """conj(U) x U, U the time-ordered product of midpoint-field exponentials."""
    if tau == 0.0:
        return np.eye(16)
    omega = omega_start + (omega_end - omega_start) * (np.arange(n_steps) + 0.5) / n_steps
    h = np.zeros((n_steps, 4, 4))
    h[:, 0, 0] = omega / math.sqrt(2.0)
    h[:, 3, 3] = -omega / math.sqrt(2.0)
    h[:, 0, 3] = h[:, 3, 0] = j / math.sqrt(2.0)
    lam, vecs = np.linalg.eigh(h)
    steps = (vecs * np.exp(-1j * lam * tau / n_steps)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    # pairwise tree product, index order = time order (rightmost acts first)
    while steps.shape[0] > 1:
        n = steps.shape[0]
        paired = np.matmul(steps[1 : n - n % 2 : 2], steps[0 : n - n % 2 : 2])
        steps = np.concatenate([paired, steps[-1:]]) if n % 2 else paired
    u = steps[0]
    return np.kron(u.conj(), u)


def _density_matrix_oracle(spec):
    """Limit-cycle corners and power from 4x4 density-matrix propagation."""
    hot = scipy.linalg.expm(_bath_generator(
        spec.omega_b, spec.j, spec.gamma_hot, spec.dephasing_hot, spec.t_hot) * spec.tau_hot)
    ba = _sweep_superoperator(spec.omega_b, spec.omega_a, spec.j, spec.tau_ba)
    cold = scipy.linalg.expm(_bath_generator(
        spec.omega_a, spec.j, spec.gamma_cold, spec.dephasing_cold, spec.t_cold) * spec.tau_cold)
    ab = _sweep_superoperator(spec.omega_a, spec.omega_b, spec.j, spec.tau_ab)
    vals, vecs = np.linalg.eig(ab @ cold @ ba @ hot)
    order = np.argsort(np.abs(vals - 1.0))
    assert abs(vals[order[0]] - 1.0) < 1e-10 and np.abs(vals[order[1:]]).max() < 0.99
    rho_a = vecs[:, order[0]].reshape(4, 4, order="F")
    corners = [rho_a / np.trace(rho_a)]
    for stroke in (hot, ba, cold):
        corners.append((stroke @ _column_vec(corners[-1])).reshape(4, 4, order="F"))

    def energy_at(rho, omega):
        return float(np.real(np.trace(hamiltonian_matrix(omega, spec.j) @ rho)))

    q_hot = energy_at(corners[1], spec.omega_b) - energy_at(corners[0], spec.omega_b)
    q_cold = energy_at(corners[3], spec.omega_a) - energy_at(corners[2], spec.omega_a)
    return (q_hot + q_cold) / spec.period, corners


def test_density_matrix_oracle_bath_stroke_relaxes_to_gibbs():
    gen = _bath_generator(12.6355, 2.0, 0.3423, 0.01, 7.5)
    relaxed = scipy.linalg.expm(gen * 200.0) @ _column_vec(np.eye(4) / 4.0)
    gibbs = gibbs_matrix(12.6355, 2.0, 7.5)
    assert np.abs(relaxed.reshape(4, 4, order="F") - gibbs).max() < 1e-12


def test_thermo_ledger_matches_density_matrix_oracle():
    specs = {"fig1": fig1_spec(), "fig6": fig6_spec()}
    specs.update({f"fig5-{label}": fig5_spec(*t) for label, t in FIG5_TIMES.items()})
    for name, spec in specs.items():
        power, corners = _density_matrix_oracle(spec)
        ledger = limit_cycle(spec).ledger
        assert abs(ledger.power - power) <= 1e-9, name
        for rho, b in zip(corners, (ledger.b_a, ledger.b_b, ledger.b_c, ledger.b_d)):
            assert np.abs(reconstruct_density(b) - rho).max() <= 1e-9, name
        if name == "fig5-3":
            # the quoted cycle-3 point lies in a negative dip
            assert abs(power - (-4.32815e-3)) <= 5e-9


def test_anchor_invariance_of_cycle_spectrum(rng):
    spec = random_spec(rng)
    prop = compose_cycle(spec)
    branch_maps = [br.prop for br in prop.branches]
    reference = None
    for shift in range(4):
        rotated = branch_maps[shift:] + branch_maps[:shift]
        cycle = compose(*reversed(rotated))
        eigs = np.sort_complex(np.linalg.eigvals(cycle.m[:3, :3]))
        if reference is None:
            reference = eigs
        else:
            assert np.abs(eigs - reference).max() < 1e-12


def test_unitary_subcycle_detection():
    spec = fig1_spec()
    unitary = replace(spec, gamma_cold=0.0, gamma_hot=0.0)
    moduli = np.abs(spectrum(unitary).eigenvalues)
    assert np.all(moduli >= 1.0 - 1e-10)
    assert np.all(moduli <= 1.0 + 1e-10)
    with pytest.raises(NonUniqueLimitCycleError):
        limit_cycle(unitary)


def test_cycle_spec_validation():
    good = fig1_spec()
    with pytest.raises(ValueError):
        replace(good, t_cold=-1.0)
    with pytest.raises(ValueError):
        replace(good, tau_hot=-0.1)
    with pytest.raises(ValueError):
        replace(good, omega_a=20.0)  # must stay below omega_b
    with pytest.raises(ValueError):
        replace(good, omega_a=0.0, j=0.0)  # a bath stroke needs an energy axis


def test_cycle_spec_rejects_an_overflowing_period():
    # each stroke passes its own checks; only their sum overflows
    spec = replace(fig1_spec(), omega_a=0.1, omega_b=0.5, j=0.5, tau_ab=0.0, tau_ba=0.0)
    assert spec.period == 5.5
    with pytest.raises(ValueError, match="period .* = inf is not finite"):
        replace(spec, tau_cold=1e308, tau_hot=1e308)
    assert replace(spec, tau_cold=1e308).period == 1e308
