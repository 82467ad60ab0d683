"""Cycle composition, limit cycle, relaxation spectrum and thermodynamics."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinotto import (
    AdiabatParams,
    AffinePropagator,
    BathParams,
    BlochVector,
    CycleSpec,
    IsochoreParams,
    NonUniqueLimitCycleError,
    adiabat_partials,
    compose,
    compose_cycle,
    eigenvalue_tuple,
    energy,
    energy_entropy,
    isochore_partials,
    isochore_propagator,
    iterate,
    limit_cycle,
    replace,
    spectrum,
    thermal_state,
    trajectory,
    vn_entropy,
)
from spinotto.algebra import FIELD_RANGE
from spinotto.cli import ITERATE_HEADER, TRAJECTORY_HEADER, iterate_rows, trajectory_rows
from spinotto.engine import _fixed_point, _null_vector, _solve3, linspace
from spinotto.propagators import MAX_SWEEP_ANGLE
from conftest import (
    EXAMPLE_SCALE,
    FIG5_TIMES,
    SQRT2,
    cycle_specs,
    fig1_spec,
    fig3_spec,
    fig5_spec,
    fig6_spec,
    gibbs_matrix,
    hamiltonian_matrix,
    linear_fit,
    physical_states,
    random_bloch,
    random_spec,
    reconstruct_density,
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


def test_limit_cycle_raises_without_bath_time():
    spec = fig1_spec()
    unitary = replace(spec, tau_cold=0.0, tau_hot=0.0)
    with pytest.raises(NonUniqueLimitCycleError):
        limit_cycle(unitary)


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
    with positive imaginary part first; or all real by decreasing modulus."""
    eigs = np.linalg.eigvals(block)
    real = np.abs(eigs.imag) <= 1e-10 * max(1.0, np.abs(eigs).max())
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
        assert all(abs(mu.imag) <= 1e-10 for mu in got[1:4]) == is_real
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
    states = iterate(compose_cycle(spec), b_lc, 5)
    for b in states:
        assert np.abs(np.array(b) - np.array(b_lc)).max() < 1e-12


def test_iterate_two_starts_converge_to_same_point():
    spec = fig1_spec()
    cold = thermal_state(spec.omega_b, spec.j, spec.t_cold)
    hot = thermal_state(spec.omega_b, spec.j, 100.0)
    end_cold = iterate(compose_cycle(spec), cold, 40)[-1]
    end_hot = iterate(compose_cycle(spec), hot, 40)[-1]
    assert np.linalg.norm(np.array(end_cold) - np.array(end_hot)) < 1e-8


def test_iterate_convergence_rate_matches_spectrum(rng):
    # slow mixing keeps the error sequence far above the rounding floor
    spec = replace(random_spec(rng), gamma_cold=0.2, gamma_hot=0.2,
                   tau_cold=0.3, tau_hot=0.3)
    report = limit_cycle(spec)
    rate = max(abs(report.eigenvalues[1]), abs(report.eigenvalues[2]))
    b_lc = np.array(report.b_a)
    states = iterate(compose_cycle(spec), random_bloch(rng), 40)
    err = [np.linalg.norm(np.array(b) - b_lc) for b in states]
    assert err[35] > 1e-9
    # geometric mean over several cycles averages out the rotating factor
    observed = (err[35] / err[25]) ** (1.0 / 10.0)
    assert observed == pytest.approx(rate, rel=0.05)


def test_iterate_states_stay_physical(rng):
    spec = random_spec(rng)
    for b in iterate(compose_cycle(spec), random_bloch(rng), 30):
        assert np.min(eigenvalue_tuple(b)) >= -1e-12


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states())
def test_iterate_approaches_limit_cycle_monotonically_property(spec, b0):
    # the paper's monotone approach: both measures of the distance to the
    # limit cycle are non-increasing from cycle to cycle
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError:
        assume(False)
    rows = iterate_rows(report, b0, 200)
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
    values = [row[index] for row in iterate_rows(report, b0, 40)]
    assert all(math.isfinite(v) for v in values)
    assert all(after <= before + 1e-12 for before, after in zip(values, values[1:]))
    assert values[-1] < 1e-6


def test_limit_cycle_rejects_non_physical_fixed_point():
    # a hot stroke of 1e-308 and a cold conductance of 3e-9 leave a spectral
    # gap of 9e-9: the fixed-point solve loses its accuracy and lands outside
    # the state space, which is reported as no unique limit cycle
    spec = CycleSpec(t_cold=0.3423, t_hot=25.333123028855248, omega_a=3.9551421452880096,
                     omega_b=4.456230175277123, j=3.2054447220535454, gamma_cold=3e-09,
                     gamma_hot=1.9306825859232153, dephasing_cold=0.0, dephasing_hot=0.0,
                     tau_cold=2.960504896938179, tau_hot=1.1125369292536007e-308,
                     tau_ab=0.04745420709557888, tau_ba=0.006198670441568167)
    with pytest.raises(NonUniqueLimitCycleError, match="not a physical state"):
        limit_cycle(spec)
    # at a cold conductance of 1e-8 (gap 3e-8) the solve lands inside the
    # state space, by rounding: either outcome is one the contract allows
    report = limit_cycle(replace(spec, gamma_cold=1e-08))
    assert 0.0 <= min(eigenvalue_tuple(report.b_a)) and report.gap < 1e-7


def test_fixed_point_rejects_a_non_finite_solve():
    # a NaN in the cycle block makes the gap NaN, which the gap test lets
    # through; the solve is then named as not finite
    prop = compose_cycle(fig1_spec())
    r1, r2, r3 = prop.cycle.block
    bad = replace(prop, cycle=replace(prop.cycle, block=((math.nan,) + r1[1:], r2, r3)))
    with pytest.raises(NonUniqueLimitCycleError, match="the fixed-point solve is not finite"):
        _fixed_point(bad)


@pytest.mark.parametrize("rows, expected", [
    (((0.0, 0.0, 0.0),) * 3, (1.0, 0.0, 0.0)),
    (((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (0.0, 0.0, 0.0)), (0.0, 6.0, -4.0)),
], ids=["zero", "rank-one"])
def test_null_vector_of_rank_deficient_rows(rows, expected):
    # no two rows span a plane: the largest row's largest cross product with
    # an axis, or the first axis when every row is zero
    assert _null_vector(rows) == expected


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


def test_linspace_equals_numpy(rng):
    # one point is the start, as numpy.linspace(a, b, 1) is [a]
    pairs = [(0.4, 2.4), (-3.0, 7.0), (2.5, 2.5), (1.0, 1.0 + 1e-15)]
    pairs += [tuple(rng.uniform(-10.0, 10.0, 2)) for _ in range(10)]
    for start, stop in pairs:
        for num in range(1, 12):
            assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def test_isochore_partials_equal_per_sample_maps(rng):
    fields = ("block", "shift", "b4_scale", "b5_scale", "b5_drive", "b5_shift")
    for dephasing in (False, True):
        prop = compose_cycle(random_spec(rng, dephasing=dephasing))
        for branch in (prop.branches[0], prop.branches[2]):
            times = linspace(0.0, branch.stroke.tau, 40)
            for t, partial in zip(times, isochore_partials(branch.stroke, times)):
                # one bath-stroke map per sample, the per-sample path kept as
                # the reference
                expected = isochore_propagator(replace(branch.stroke, tau=t))
                for name in fields:
                    assert getattr(partial, name) == getattr(expected, name), (t, name)
    with pytest.raises(ValueError, match="times"):
        isochore_partials(prop.branches[0].stroke, [0.0, -1e-3])


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states(), st.sampled_from([2, 3, 17]), st.booleans())
def test_trajectory_states_equal_public_maps_property(spec, b0, samples, symmetric):
    # the one-pass sampler against the public per-branch maps: each sample is
    # the stroke's partial map applied to the branch's start corner, which is
    # the previous branch's last sample, and the entropy cells of the CSV rows
    # are the public functions of that state; the hot->cold samples run the
    # cold->hot field ramp U, run for the hot->cold duration, backwards from
    # the end corner c = R U(tau)^T R b, R = diag(1, 1, -1): sample k is
    # R U(tau - t_k) R c, whether or not the sweeps last equally long
    if symmetric:
        spec = replace(spec, tau_ba=spec.tau_ab)
    prop = compose_cycle(spec)
    points = trajectory(prop, b0, samples)
    rows = trajectory_rows(prop, b0, samples)
    assert len(points) == len(rows) == 4 * samples
    s_vn, s_e = TRAJECTORY_HEADER.index("s_vn"), TRAJECTORY_HEADER.index("s_e")
    hot, hot_cold, cold, cold_hot = (branch.stroke for branch in prop.branches)
    ramp = adiabat_partials(replace(cold_hot, tau=hot_cold.tau), samples)
    flip = np.diag([1.0, 1.0, -1.0])

    def reflected(b):  # R b
        return BlochVector(b.b1, b.b2, -b.b3, b.b4, b.b5)

    def ramp_backwards(corner):
        back = flip @ np.array(ramp[-1].block).T @ flip  # R U(tau)^T R
        end = AffinePropagator(block=back.tolist()).apply(corner)
        return ([corner] + [reflected(u.apply(reflected(end))) for u in ramp[-2:0:-1]]
                + [end])

    def applied(maps):  # the maps after t = 0, from the start corner
        return lambda corner: [corner] + [m.apply(corner) for m in maps]

    public_states = (
        applied(isochore_partials(hot, linspace(0.0, hot.tau, samples)[1:])),
        ramp_backwards,
        applied(isochore_partials(cold, linspace(0.0, cold.tau, samples)[1:])),
        applied(adiabat_partials(cold_hot, samples)[1:]),
    )
    corner, t0 = b0, 0.0
    for index, (branch, states_from) in enumerate(zip(prop.branches, public_states)):
        times = linspace(0.0, branch.stroke.tau, samples)
        for i, expected in enumerate(states_from(corner)):
            point, row = points[index * samples + i], rows[index * samples + i]
            assert (point.branch, point.t, point.omega) == (
                branch.name, t0 + times[i], branch.stroke.omega_at(times[i])
            )
            for name in ("b1", "b2", "b3", "b4", "b5"):
                assert getattr(point.state, name) == getattr(expected, name), (index, i, name)
            assert row[s_vn] == vn_entropy(expected)
            assert row[s_e] == energy_entropy(expected, point.omega, spec.j)
        corner = expected
        t0 += branch.stroke.tau


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states(), st.sampled_from([2, 3, 17]),
       st.sampled_from(["tau_hot", "tau_cold"]))
def test_trajectory_bath_stroke_ends_where_next_sweep_starts_property(spec, b0, samples, idle):
    # each stroke's last sample and the next stroke's first are equal in
    # every component, a zero-length bath stroke (fig6's shape) included
    spec = replace(spec, **{idle: 0.0})
    points = trajectory(compose_cycle(spec), b0, samples)
    for index in (0, 1, 2):
        end, start = points[(index + 1) * samples - 1], points[(index + 1) * samples]
        assert tuple(end.state) == tuple(start.state), (index, end.state, start.state)


def test_trajectory_branch_endpoints_coincide():
    spec = fig1_spec()
    b0 = limit_cycle(spec).b_a
    samples = trajectory(compose_cycle(spec), b0, 7)
    for i in range(3):
        end = samples[(i + 1) * 7 - 1]
        start = samples[(i + 1) * 7]
        assert np.abs(np.array(end.state) - np.array(start.state)).max() < 1e-12
        assert abs(end.t - start.t) < 1e-12
    closing = samples[-1]
    assert np.abs(np.array(closing.state) - np.array(b0)).max() < 1e-10
    assert abs(closing.t - spec.period) < 1e-12


def test_trajectory_vn_entropy_constant_on_sweeps():
    spec = fig1_spec()
    b0 = limit_cycle(spec).b_a
    for sample_count in (5,):
        samples = trajectory(compose_cycle(spec), b0, sample_count)
        for branch_index in (1, 3):  # the two field sweeps
            branch = samples[branch_index * sample_count : (branch_index + 1) * sample_count]
            entropies = [vn_entropy(p.state) for p in branch]
            assert max(entropies) - min(entropies) < 1e-10


def test_trajectory_fig6_vn_entropy_flat_over_whole_cycle():
    spec = fig6_spec()
    b0 = limit_cycle(spec).b_a
    samples = trajectory(compose_cycle(spec), b0, 40)
    entropies = [vn_entropy(p.state) for p in samples]
    # cycle closure pins the corner entropies exactly; in between the
    # entropy may bow by a few 1e-3, far below the figure's resolution
    corners = [entropies[i * 40] for i in range(4)] + [entropies[-1]]
    assert max(corners) - min(corners) < 1e-10
    spread = max(entropies) - min(entropies)
    print(f"fig6 von Neumann entropy spread over the cycle: {spread:.3e}")
    assert spread <= 5e-3


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), st.booleans())
def test_sweeps_are_frictionless_in_von_neumann_entropy_property(spec, symmetric):
    # the paper's friction is a change of the energy entropy, never of the
    # von Neumann entropy: both sweeps, the time-reversed one (equal sweep
    # times) and the integrated one, are unitary, at the corners and at
    # every trajectory sample inside them, the derived hot->cold ones included
    if symmetric:
        spec = replace(spec, tau_ba=spec.tau_ab)
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError:
        assume(False)
    ledger = report.ledger
    assert abs(vn_entropy(ledger.b_c) - vn_entropy(ledger.b_b)) <= 1e-10
    assert abs(vn_entropy(ledger.b_a) - vn_entropy(ledger.b_d)) <= 1e-10
    rows = trajectory_rows(report.propagator, report.b_a, 9)
    s_vn = TRAJECTORY_HEADER.index("s_vn")
    for name in ("adiabat-hot-cold", "adiabat-cold-hot"):
        entropies = [row[s_vn] for row in rows if row[0] == name]
        assert max(entropies) - min(entropies) <= 1e-12, name


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
