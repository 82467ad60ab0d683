"""Entropies, relative entropies and the two distance measures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinotto import (
    BlochVector,
    CycleSpec,
    compose_cycle,
    conditional_entropy,
    energy,
    energy_entropy,
    energy_populations,
    eigenvalue_tuple,
    iterate,
    limit_cycle,
    quantum_distance,
    replace,
    thermal_state,
    vn_entropy,
    adiabat_partials,
    AdiabatParams,
    trajectory,
    wootters_energy_distance,
)
from spinotto.algebra import is_physical
from spinotto.measures import (
    _OVERLAP_NOISE, _SUPPORT_TOL, _measures_to, _physical_eigenvalues, _state_entropies,
)
from conftest import (
    EXAMPLE_SCALE,
    SQRT2,
    conditional_entropy_matrix,
    conditional_entropy_mp,
    cycle_specs,
    fig1_spec,
    fig3_spec,
    matrix_log,
    matrix_sqrt,
    quantum_distance_matrix,
    quantum_distance_mp,
    physical_states,
    random_bloch,
    random_spec,
    energy_conditional_entropy,
    measurement_entropy,
    reconstruct_density,
    to_energy_basis,
    wootters_distance_oracle,
)


def energy_diagonal_state(rng, omega, j):
    """Random physical state diagonal in the energy basis (b3 = 0, b || field)."""
    big = math.hypot(omega, j)
    while True:
        d = rng.uniform(-0.6, 0.6)
        b = BlochVector(
            d * omega / big, d * j / big, 0.0,
            rng.uniform(-0.3, 0.3), rng.uniform(-0.4, 0.5),
        )
        if np.min(eigenvalue_tuple(b)) >= 0.01:
            return b


# ---------------------------------------------------------------------------
# plain entropies


def test_measurement_entropy_trivials():
    assert measurement_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0
    assert measurement_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-14)
    assert measurement_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-14)


def test_measurement_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        measurement_entropy([0.5, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        measurement_entropy([1.2, -0.2, 0.0, 0.0])


def _raised(f, p):
    """The ValueError message f(p) raises, or None when it returns."""
    try:
        f(p)
    except ValueError as exc:
        return str(exc)
    return None


def _bits(values) -> tuple:
    """The floats as float.hex strings: equal exactly when the bits are,
    NaN and the sign of zero included."""
    return tuple(float.hex(float(v)) for v in values)


def _outcome(f, *args):
    """("value", bits) of f(*args), or ("error", message) of its ValueError."""
    try:
        return "value", _bits(f(*args))
    except ValueError as exc:
        return "error", str(exc)


# fields: zero, below FIELD_RANGE (scaled by 2**600), subnormal, and above
# FIELD_RANGE (scaled by 2**-600; Omega or sqrt2 * Omega overflows)
_fields = st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 4.0)) | st.sampled_from(
    [(0.0, 0.0), (-0.0, 0.0), (1e-200, 0.0), (-3e-160, 1e-170), (2.2250738585e-313, 5e-324),
     (1.5e308, 1.5e308), (-1.7e308, 1e308), (1e308, 1e-300)])


def _unit_field(omega, j):
    """The field's direction as a field of magnitude about 1, by an exact
    power-of-two scaling, so that the matrix oracle squares no subnormal or
    overflowing value; at omega = J = 0 the limit (1.0, 0.0) that the row
    kernel takes."""
    if not (omega or j):
        return 1.0, 0.0
    exponent = math.frexp(max(abs(omega), abs(j)))[1]
    return math.ldexp(omega, -exponent), math.ldexp(j, -exponent)


# lam = (0, 0.5 + x, -x, 0.5): an inner eigenvalue at a rounding residue
# -x within PHYSICALITY_TOL (x = 5e-13), and one beyond it (x = 2e-12)
_RESIDUE = BlochVector(SQRT2 / 4, 0.0, 0.0, (0.5 + 1e-12) / SQRT2, 0.0)
_BEYOND_TOL = BlochVector(SQRT2 / 4, 0.0, 0.0, (0.5 + 4e-12) / SQRT2, 0.0)


@settings(max_examples=300 * EXAMPLE_SCALE, deadline=None)
@given(physical_states(), st.floats(-20.0, 20.0), st.floats(0.0, 4.0))
# a pure outer level in a subnormal field
@example(BlochVector(0.2759441097313356, 0.0, 0.0, 0.12072554800745934, -0.1097560975609756),
         2.2250738585e-313, 0.0)
@example(_RESIDUE, 1.0, 0.5)
def test_entropy_kernel_equals_general_path(b, omega, j):
    # the general-n oracle sums its p log p terms left to right, as the
    # kernel does, so the bits agree
    assert _bits([vn_entropy(b)]) == _bits([measurement_entropy(eigenvalue_tuple(b))])
    if math.hypot(omega, j) > 0.0:
        assert (_bits([energy_entropy(b, omega, j)])
                == _bits([measurement_entropy(energy_populations(b, omega, j))]))


def test_entropy_tolerance_edge():
    assert -1e-12 < eigenvalue_tuple(_RESIDUE)[2] < 0.0
    assert eigenvalue_tuple(_BEYOND_TOL)[2] < -1e-12
    assert vn_entropy(_RESIDUE) == measurement_entropy(eigenvalue_tuple(_RESIDUE))
    for f in (vn_entropy, lambda b: energy_entropy(b, 1.0, 0.5)):
        with pytest.raises(ValueError, match="non-physical state: eigenvalues"):
            f(_BEYOND_TOL)
    # lam1 just above PHYSICALITY_TOL, and in a field along (b1, b2) the
    # lower energy population, lam1 within rounding, just below it (the
    # upper one in the opposite field)
    edge = BlochVector(0.4570498112937808, 0.041139175118178335, 0.0, 0.0, 0.14897913946718935)
    omega, j = 0.9959735259601749, 0.08964784206246693
    assert eigenvalue_tuple(edge)[0] >= -1e-12 > energy_populations(edge, omega, j)[0]
    assert vn_entropy(edge) == measurement_entropy(eigenvalue_tuple(edge))
    for field in ((omega, j), (-omega, -j)):
        with pytest.raises(ValueError, match="non-physical state: energy populations"):
            energy_entropy(edge, *field)


# arbitrary floats: NaN, infinities, huge values, the square-overflow edge
# 1.3e154 and subnormals
_component = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300, 1.3e154, -1.3e154, 5e-324,
     2.2250738585e-313, 0.0])
_tiny = st.floats(-4e-12, 4e-12) | st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 5e-13])


@st.composite
def _states_near_the_cone(draw):
    """Physical states with b4 and b5 moved by about PHYSICALITY_TOL: a zero
    eigenvalue (which physical_states() often draws) crosses the tolerance."""
    b = draw(physical_states())
    return b._replace(b4=b.b4 + draw(_tiny), b5=b.b5 + draw(_tiny))


@settings(max_examples=500 * EXAMPLE_SCALE, deadline=None)
@given(st.builds(BlochVector, _component, _component, _component, _component, _component)
       | _states_near_the_cone(), _fields)
@example(BlochVector(0.1, 0.0, 0.0, math.nan, 0.0), (1.0, 0.5))
@example(_RESIDUE, (1.0, 0.5))
@example(_BEYOND_TOL, (0.0, 0.0))
def test_one_physicality_rule_for_the_entropies_property(b, field):
    # vn_entropy checks what the other measures check, with their message
    message = _raised(_physical_eigenvalues, b)
    assert _raised(vn_entropy, b) == message
    if message is not None:
        with pytest.raises(ValueError):
            energy_entropy(b, *field)
        return
    # energy_entropy then checks the energy populations, with their bits;
    # at omega = J = 0 its field check fails first
    expected = _raised(lambda f: energy_populations(b, *f), field)
    if expected is None:
        p = energy_populations(b, *field)
        expected = None if is_physical(p) else f"non-physical state: energy populations {p}"
    assert _raised(lambda f: energy_entropy(b, *f), field) == expected
    # a state with physical eigenvalues is a distribution within rounding, in
    # the eigenbasis and in the energy basis: no sum needs checking
    for p in (eigenvalue_tuple(b), energy_populations(b, *_unit_field(*field))):
        assert abs(math.fsum(p) - 1.0) <= 1e-15


@settings(max_examples=200 * EXAMPLE_SCALE, deadline=None)
@given(st.builds(BlochVector, _component, _component, _component, _component, _component),
       _fields)
@example(BlochVector(1.3e154, 0.0, 0.0, 0.0, 0.0), (1.0, 0.5))
@example(BlochVector(0.1, 0.0, 0.0, math.nan, 0.0), (0.0, 0.0))
def test_row_kernels_check_no_state_property(b, field):
    # the states a row is computed from were checked where they entered, so
    # neither row kernel checks one again: each returns for any five floats,
    # a square past the float range included
    omega, j = field
    columns = tuple(zip(b, b))
    for b4_b5 in (columns[3:], (b.b4, b.b5)):  # columns, and a sweep's constants
        assert [len(column) for column in _state_entropies(
            columns[:3] + b4_b5, (omega, omega), j)[1:]] == [2, 2]
    assert [len(column) for column in _measures_to(
        BlochVector(0.1, -0.05, 0.02, 0.1, 0.05), 1.0, 0.5)(columns)] == [2, 2, 2]


def test_vn_entropy_trivials():
    assert vn_entropy(BlochVector(0, 0, 0, 0, 0)) == pytest.approx(math.log(4), abs=1e-14)
    pure = BlochVector(SQRT2 / 2, 0, 0, 0, 0.5)  # lam = (0, 0, 0, 1)
    assert vn_entropy(pure) == pytest.approx(0.0, abs=1e-12)


def test_vn_entropy_rejects_non_physical():
    with pytest.raises(ValueError):
        vn_entropy(BlochVector(1.0, 0, 0, 0, 0))


@pytest.mark.parametrize("bad", [
    BlochVector(1.0, 0.0, 0.0, 0.0, 0.0),
    BlochVector(0.0, 0.0, 1e200, 0.0, 0.0),
    BlochVector(0.0, 0.0, 0.0, math.nan, 0.0),
], ids=["outside-cone", "b3-1e200", "b4-nan"])
def test_measures_reject_non_physical_states(bad):
    # the error vn_entropy raises, for either argument
    good = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    for measure, field in ((quantum_distance, ()), (conditional_entropy, ()),
                           (wootters_energy_distance, (9.0, 2.0))):
        for b, b_ref in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="non-physical state"):
                measure(b, b_ref, *field)
    with pytest.raises(ValueError, match="non-physical state"):
        _measures_to(bad, 1.0, 0.0)
    for entropy in (vn_entropy, lambda b: energy_entropy(b, 1.0, 0.5)):
        with pytest.raises(ValueError, match="non-physical state"):
            entropy(bad)


def test_energy_entropy_checks_the_state():
    # a non-physical state whose energy populations form a distribution
    # (energy_entropy gave log 4 here before 3.1)
    bad = BlochVector(0.0, 0.0, 0.4, 0.0, 0.0)
    assert is_physical(energy_populations(bad, 1.0, 0.5))
    with pytest.raises(ValueError, match="non-physical state"):
        energy_entropy(bad, 1.0, 0.5)
    b = BlochVector(0.1, -0.05, 0.02, 0.1, 0.05)
    with pytest.raises(ValueError, match="omega = J = 0"):
        energy_entropy(b, 0.0, 0.0)
    # the row kernel takes the limit there
    assert _state_entropies(tuple(zip(b)), (0.0,), 0.0)[1][0] == energy_entropy(b, 1.0, 0.0)


def test_vn_entropy_thermal_matches_matrix_oracle(rng):
    for _ in range(20):
        omega, j = rng.uniform(0.5, 14.0, size=2)
        temp = rng.uniform(0.4, 10.0)
        b = thermal_state(omega, j, temp)
        rho = reconstruct_density(b)
        oracle = -float(np.real(np.trace(rho @ matrix_log(rho))))
        assert abs(vn_entropy(b) - oracle) < 1e-12


def test_energy_entropy_equals_vn_for_thermal(rng):
    for _ in range(20):
        omega, j = rng.uniform(0.5, 14.0, size=2)
        temp = rng.uniform(0.4, 10.0)
        b = thermal_state(omega, j, temp)
        assert abs(energy_entropy(b, omega, j) - vn_entropy(b)) < 1e-12


def test_energy_entropy_dominates_vn(rng):
    for _ in range(200):
        b = random_bloch(rng)
        omega, j = rng.uniform(0.5, 14.0, size=2)
        assert energy_entropy(b, omega, j) >= vn_entropy(b) - 1e-12


def test_energy_entropy_strictly_larger_off_diagonal():
    omega, j, temp = 9.0, 2.0, 3.0
    b = thermal_state(omega, j, temp)
    perturbed = replace(b, b3=0.05)
    assert energy_entropy(perturbed, omega, j) > vn_entropy(perturbed) + 1e-6


# ---------------------------------------------------------------------------
# conditional entropies


def test_conditional_entropy_zero_on_equal_states(rng):
    for _ in range(20):
        b = random_bloch(rng)
        assert abs(conditional_entropy(b, b)) < 1e-12


def test_conditional_entropy_nonnegative(rng):
    for _ in range(100):
        val = conditional_entropy(random_bloch(rng), random_bloch(rng))
        assert val >= -1e-12


def test_conditional_entropy_support_sentinel():
    mixed = BlochVector(0, 0, 0, 0, 0)
    # kernel in the inner doublet: lam = (0, 0, 0, 1)
    pure_ref = BlochVector(SQRT2 / 4, 0, 0, 0, 0.5)
    assert conditional_entropy(mixed, pure_ref) == math.inf
    assert not math.isnan(conditional_entropy(mixed, pure_ref))
    # kernel in the outer block: lam = (0, 1/4, 1/4, 1/2)
    outer_ref = BlochVector(0, SQRT2 / 4, 0, 0, 0)
    assert conditional_entropy(mixed, outer_ref) == math.inf
    assert conditional_entropy(outer_ref, outer_ref) == 0.0



def test_conditional_entropy_support_weight_threshold():
    # reference lam = (0, 1/4, 1/4, 1/2); the state lam = (0, (1-w)/2,
    # (1-w)/2, w) puts weight w on the reference's null vector
    ref = BlochVector(0, SQRT2 / 4, 0, 0, 0)
    for w, finite in ((1e-7, True), (1e-5, False)):
        b = BlochVector(0.0, -w / SQRT2, 0.0, 0.0, w - 0.5)
        got = conditional_entropy(b, ref)
        assert math.isfinite(got) == finite
        assert math.isfinite(conditional_entropy_matrix(b, ref)) == finite
        if finite:
            # the weight on the null vector is charged at the logarithm floor
            expected = ((1.0 - w) * math.log((1.0 - w) / 2.0) + w * math.log(w)
                        - (1.0 - w) * math.log(0.25) - w * math.log(1e-300))
            assert got == pytest.approx(expected, abs=1e-12)
            assert got == pytest.approx(conditional_entropy_matrix(b, ref), abs=1e-12)

def test_conditional_entropy_contracts_under_cycle_map(rng):
    for _ in range(10):
        spec = random_spec(rng, dephasing=rng.uniform() < 0.5)
        cycle = compose_cycle(spec).cycle
        b, ref = random_bloch(rng), random_bloch(rng)
        before = conditional_entropy(b, ref)
        after = conditional_entropy(cycle.apply(b), cycle.apply(ref))
        if math.isinf(before):
            continue
        assert after <= before + 1e-12


def test_conditional_entropy_closed_form_agrees(rng):
    worst = 0.0
    for _ in range(200):
        b, ref = random_bloch(rng), random_bloch(rng)
        closed = conditional_entropy(b, ref)
        oracle = conditional_entropy_matrix(b, ref)
        assert math.isinf(closed) == math.isinf(oracle)
        if math.isinf(closed):
            continue
        worst = max(worst, abs(closed - oracle))
    assert worst < 1e-8


def test_energy_conditional_entropy_basics(rng):
    omega, j = 9.0, 2.0
    b = random_bloch(rng)
    assert abs(energy_conditional_entropy(b, b, omega, j)) < 1e-12
    for _ in range(50):
        x, y = random_bloch(rng), random_bloch(rng)
        assert energy_conditional_entropy(x, y, omega, j) >= -1e-12


def test_energy_conditional_entropy_vanishes_only_at_convergence(rng):
    spec = random_spec(rng)
    b_lc = limit_cycle(spec).b_a
    b0 = thermal_state(spec.omega_b, spec.j, spec.t_cold)
    states = iterate(compose_cycle(spec), b0, 40)
    first = energy_conditional_entropy(states[0], b_lc, spec.omega_b, spec.j)
    last = energy_conditional_entropy(states[-1], b_lc, spec.omega_b, spec.j)
    assert first > 1e-4
    assert 0.0 - 1e-12 <= last < 1e-10


def test_energy_conditional_entropy_matches_quantum_on_diagonal_states(rng):
    omega, j = 9.0, 2.0
    for _ in range(30):
        b = energy_diagonal_state(rng, omega, j)
        ref = energy_diagonal_state(rng, omega, j)
        classical = energy_conditional_entropy(b, ref, omega, j)
        quantum = conditional_entropy(b, ref)
        assert abs(classical - quantum) < 1e-10


# ---------------------------------------------------------------------------
# distances


def test_wootters_distance_trivials(rng):
    omega, j = 9.0, 2.0
    b = random_bloch(rng)
    assert wootters_energy_distance(b, b, omega, j) == 0.0
    # disjoint supports: outer-pure vs inner-pure
    outer = BlochVector(SQRT2 / 4, 0, 0, 0, 0.5)
    inner = BlochVector(0, 0, 0, SQRT2 / 4, -0.5)
    assert wootters_energy_distance(outer, inner, omega, 0.0) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_wootters_distance_uses_populations_only(rng):
    # b3 enters no energy population: physical references that differ only
    # in b3 (b3 -> -b3 or 0 keeps a state physical) are at one distance from
    # every state; a b3 that makes the reference non-physical is an error
    omega, j = 9.0, 2.0
    for _ in range(20):
        b, ref = random_bloch(rng), random_bloch(rng)
        distance = wootters_energy_distance(b, ref, omega, j)
        for b3 in (-ref.b3, 0.0):
            assert wootters_energy_distance(b, replace(ref, b3=b3), omega, j) == distance
    huge = BlochVector(0.0, 0.0, 1e200, 0.0, 0.0)
    lam = eigenvalue_tuple(huge)
    assert (lam[0], lam[3]) == (-math.inf, math.inf)
    with pytest.raises(ValueError, match="non-physical state"):
        wootters_energy_distance(random_bloch(rng), huge, omega, j)


def test_wootters_distance_range_and_symmetry(rng):
    omega, j = 9.0, 2.0
    for _ in range(100):
        x, y = random_bloch(rng), random_bloch(rng)
        d_xy = wootters_energy_distance(x, y, omega, j)
        d_yx = wootters_energy_distance(y, x, omega, j)
        assert 0.0 <= d_xy <= math.pi / 2
        assert abs(d_xy - d_yx) < 1e-13


def test_wootters_distance_triangle_inequality(rng):
    omega, j = 9.0, 2.0
    for _ in range(100):
        x, y, z = (random_bloch(rng) for _ in range(3))
        d_xz = wootters_energy_distance(x, z, omega, j)
        d_xy = wootters_energy_distance(x, y, omega, j)
        d_yz = wootters_energy_distance(y, z, omega, j)
        assert d_xz <= d_xy + d_yz + 1e-12


def test_quantum_distance_trivials(rng):
    b = random_bloch(rng)
    assert quantum_distance(b, b) == 0.0
    for _ in range(50):
        x, y = random_bloch(rng), random_bloch(rng)
        assert abs(quantum_distance(x, y) - quantum_distance(y, x)) < 1e-13


def test_quantum_distance_closed_form_matches_matrix_oracle(rng):
    worst = 0.0
    for _ in range(1000):
        x, y = random_bloch(rng), random_bloch(rng)
        worst = max(worst, abs(quantum_distance(x, y) - quantum_distance_matrix(x, y)))
    print(f"closed form vs matrix oracle, max deviation: {worst:.3e}")
    assert worst < 1e-7


def test_distance_block_trace_identity(rng):
    # sqrt(rho) rho_ref sqrt(rho) is an outer 2x2 block plus the inner
    # products lam2 lam2', lam3 lam3'; the outer block has trace tr(A A')
    # and determinant lam1 lam4 lam1' lam4'
    for _ in range(300):
        x, y = random_bloch(rng), random_bloch(rng)
        (lx1, lx2, lx3, lx4), (ly1, ly2, ly3, ly4) = eigenvalue_tuple(x), eigenvalue_tuple(y)
        root = matrix_sqrt(reconstruct_density(x))
        m = root @ reconstruct_density(y) @ root
        outer = m[np.ix_([0, 3], [0, 3])]
        overlap = (
            2.0 * (0.25 + x.b5 / 2.0) * (0.25 + y.b5 / 2.0)
            + float(np.array(x)[:3] @ np.array(y)[:3])
        )
        assert abs(float(np.real(np.trace(outer))) - overlap) < 1e-12
        det = lx1 * lx4 * ly1 * ly4
        assert abs(float(np.real(np.linalg.det(outer))) - det) < 1e-12
        inner = np.real(np.diag(m))[1:3]
        assert abs(inner[0] - lx2 * ly2) < 1e-12
        assert abs(inner[1] - lx3 * ly3) < 1e-12
        assert np.abs(m[np.ix_([1, 2], [0, 3])]).max() < 1e-12


def test_measures_match_mpmath_oracle(rng):
    worst_dist = worst_rel = 0.0
    for _ in range(100):
        x, y = random_bloch(rng), random_bloch(rng)
        worst_dist = max(worst_dist, abs(quantum_distance(x, y) - quantum_distance_mp(x, y)))
        oracle = conditional_entropy_mp(x, y)
        value = conditional_entropy(x, y)
        assert math.isinf(value) == math.isinf(oracle)
        if not math.isinf(oracle):
            worst_rel = max(worst_rel, abs(value - oracle) / max(1.0, abs(oracle)))
    print(f"vs 50-digit oracle: distance {worst_dist:.2e}, relative entropy {worst_rel:.2e}")
    assert worst_dist < 1e-12
    assert worst_rel < 1e-12


def test_quantum_distance_contracts_under_cycle_map(rng):
    for _ in range(10):
        spec = random_spec(rng)
        cycle = compose_cycle(spec).cycle
        b, ref = random_bloch(rng), random_bloch(rng)
        before = quantum_distance(b, ref)
        after = quantum_distance(cycle.apply(b), cycle.apply(ref))
        assert after <= before + 1e-12


def test_vn_entropy_invariant_under_sweep_propagation(rng):
    prop = adiabat_partials(AdiabatParams(12.0, 5.0, 2.0, 0.3), 2)[-1]
    for _ in range(50):
        b = random_bloch(rng)
        assert abs(vn_entropy(prop.apply(b)) - vn_entropy(b)) < 1e-12


def test_dephasing_collapses_the_two_distances():
    # strong dephasing wipes the off-diagonal content, so the quantum and
    # energy-projected distances agree along the tail of the approach
    spec = fig3_spec(tau_adiabat=0.01, dephasing_hot=0.01, dephasing_cold=0.03)
    b_lc = limit_cycle(spec).b_a
    b0 = thermal_state(spec.omega_b, spec.j, spec.t_cold)
    states = iterate(compose_cycle(spec), b0, 40)
    for b in states[25:35]:
        qd = quantum_distance(b, b_lc)
        wd = wootters_energy_distance(b, b_lc, spec.omega_b, spec.j)
        assert abs(qd - wd) < 1e-3


def test_energy_distance_oscillates_without_dephasing():
    # starting the engine from its own mid-cycle state leaves a deviation in
    # the rotating sector; its projection onto the energy axis zig-zags even
    # though the quantum distance contracts strictly
    spec = fig3_spec(tau_adiabat=0.01, dephasing_hot=0.0, dephasing_cold=0.0)
    ledger = limit_cycle(spec).ledger
    states = iterate(compose_cycle(spec), ledger.b_c, 30)
    wd = [wootters_energy_distance(b, ledger.b_a, spec.omega_b, spec.j) for b in states]
    qd = [quantum_distance(b, ledger.b_a) for b in states]
    increases = sum(1 for k in range(len(wd) - 1) if wd[k + 1] > wd[k] + 1e-12)
    assert increases >= 1
    assert all(qd[k + 1] <= qd[k] + 1e-12 for k in range(len(qd) - 1))


# ---------------------------------------------------------------------------
# the row kernels against the oracles: the state entropies and the
# reference measures


_PURE_OUTER = BlochVector(SQRT2 / 2, 0.0, 0.0, 0.0, 0.5)  # lam = (0, 0, 0, 1)
_PURE_INNER = BlochVector(0.0, 0.0, 0.0, SQRT2 / 2, -0.5)  # lam = (0, 1, 0, 0)
# a hot stroke alone at T = 0.3 in a field near 15: the limit cycle's
# eigenvalues below the upper level are below _SUPPORT_TOL
_RANK_DEFICIENT = CycleSpec(
    t_cold=0.3, t_hot=0.3, omega_a=10.0, omega_b=15.0, j=1.0, gamma_cold=1.0, gamma_hot=1.0,
    dephasing_cold=0.0, dephasing_hot=0.0, tau_cold=0.0, tau_hot=3.0, tau_ab=0.0, tau_ba=0.0,
)
# J = 0 and sweeps through zero field: 5 samples put a sweep midpoint at omega = 0
_ZERO_FIELD_SWEEPS = CycleSpec(
    t_cold=1.5, t_hot=7.5, omega_a=-4.0, omega_b=4.0, j=0.0, gamma_cold=0.3423,
    gamma_hot=0.3423, dephasing_cold=0.0, dephasing_hot=0.0, tau_cold=3.0, tau_hot=2.5,
    tau_ab=1.0, tau_ba=1.0,
)
# (start, spec, field): pure starts, the approach into the _OVERLAP_NOISE
# floors, a rank-deficient limit cycle (the inf rule) and fields below
# FIELD_RANGE, subnormal and zero
_EDGES = {
    "pure-outer": (_PURE_OUTER, fig1_spec(), (12.6355, 2.0)),
    "pure-inner-tiny-field": (_PURE_INNER, fig1_spec(), (1e-200, 0.0)),
    "rank-deficient-subnormal-field": (BlochVector(0.0, 0.0, 0.0, 0.0, 0.0), _RANK_DEFICIENT,
                                       (2.2250738585e-313, 5e-324)),
    "zero-field-sweeps": (_PURE_INNER, _ZERO_FIELD_SWEEPS, (0.0, 0.0)),
}
@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(physical_states(), cycle_specs(), _fields)
@example(*_EDGES["pure-outer"])
@example(*_EDGES["pure-inner-tiny-field"])
@example(*_EDGES["rank-deficient-subnormal-field"])
@example(*_EDGES["zero-field-sweeps"])
def test_row_kernels_equal_public_measures_property(b, spec, field):
    # the trajectory kernel, which the public entropies index, on each sample
    # of a period from b at its own field and at the drawn one, against the
    # spectrum and the energy-basis diagonal of the density matrix
    for _, _, omega, state in trajectory(compose_cycle(spec), b, 5):
        lam = np.linalg.eigvalsh(np.array(reconstruct_density(state)))
        for f in ((omega, spec.j), field):
            (s_vn,), (s_e,), (e,) = _state_entropies(tuple(zip(state)), f[:1], f[1])
            populations = np.diag(to_energy_basis(state, *_unit_field(*f))).real
            assert abs(s_vn - measurement_entropy(lam)) < 1e-12
            assert abs(s_e - measurement_entropy(populations)) < 1e-12
            assert _bits([e]) == _bits([energy(state, *f)])


@pytest.mark.parametrize("edge", sorted(_EDGES))
def test_reference_measures_match_oracles_at_the_edges(edge):
    # the approach to the limit cycle from the start, the limit cycle itself
    # and a period's samples, against the 50-digit, matrix and per-state
    # oracles
    b, spec, field = _EDGES[edge]
    report = limit_cycle(spec)
    b_ref = report.b_a
    # a deficit 2 (1 - fidelity) below _OVERLAP_NOISE reports as zero; a
    # reference eigenvalue within rounding of 0 puts the square root of that
    # rounding, about 1e-8, into sqrt(lam q)
    slack = 1e-12 if min(eigenvalue_tuple(b_ref)) >= _SUPPORT_TOL else 1e-8
    states = (iterate(report.propagator, b, 40) + [b_ref]
              + [sample.state for sample in trajectory(report.propagator, b, 5)])
    for state in states:
        distance, oracle = quantum_distance(state, b_ref), quantum_distance_mp(state, b_ref)
        assert abs(distance**2 - oracle**2) <= _OVERLAP_NOISE + slack
        # the inf rule as the matrix oracle applies it; a finite value
        # against the 50-digit oracle, whose inf rule is exact support
        entropy = conditional_entropy(state, b_ref)
        assert math.isinf(entropy) == math.isinf(conditional_entropy_matrix(state, b_ref))
        if math.isfinite(entropy):
            assert abs(entropy - conditional_entropy_mp(state, b_ref)) < 1e-12
        for f in ((spec.omega_b, spec.j), field):
            assert (_outcome(lambda *args: [wootters_energy_distance(*args)], state, b_ref, *f)
                    == _outcome(lambda *args: [wootters_distance_oracle(*args)], state, b_ref, *f))


@settings(max_examples=300 * EXAMPLE_SCALE, deadline=None)
@given(physical_states(), physical_states(), _fields)
@example(_PURE_OUTER, _PURE_INNER, (1e-200, 0.0))
@example(_PURE_INNER, _PURE_OUTER, (1.5e308, 1.5e308))
def test_distance_and_relative_entropy_ignore_the_field_property(b, b_ref, field):
    # so quantum_distance and conditional_entropy bind at the field (1.0, 0.0)
    if not math.hypot(*field):
        with pytest.raises(ValueError, match="omega = J = 0"):
            _measures_to(b_ref, *field)
        return
    # the kernel over one state's columns
    at_field, at_unit = ([column[0] for column in _measures_to(b_ref, *f)(tuple(zip(b)))]
                         for f in (field, (1.0, 0.0)))
    assert _bits(at_field[::2]) == _bits(at_unit[::2])


def test_row_kernel_examples_reach_their_edges():
    # the edges the examples above are there for
    zero = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    # 0 log 0 and 1 log 1
    assert _state_entropies(tuple(zip(_PURE_INNER)), (1.0,), 0.5)[0][0] == 0.0
    b_ref = limit_cycle(_RANK_DEFICIENT).b_a
    assert min(eigenvalue_tuple(b_ref)) < _SUPPORT_TOL
    assert conditional_entropy(zero, b_ref) == math.inf
    report = limit_cycle(fig1_spec())
    columns = tuple(zip(*iterate(report.propagator, _PURE_OUTER, 40)))
    rows = list(zip(*_measures_to(report.b_a, 12.6355, 2.0)(columns)))
    assert rows[0][0] > 0.0 and rows[0][1] > 0.0
    assert rows[-1][:2] == (0.0, 0.0)  # within _OVERLAP_NOISE of 1
    samples = trajectory(compose_cycle(_ZERO_FIELD_SWEEPS), _PURE_INNER, 5)
    assert [s.branch for s in samples if s.omega == 0.0] == ["adiabat-hot-cold",
                                                             "adiabat-cold-hot"]
    # the field binding fails as energy_populations does
    for f in ((0.0, 0.0), (-0.0, 0.0)):
        with pytest.raises(ValueError, match="omega = J = 0"):
            _measures_to(b_ref, *f)
        with pytest.raises(ValueError, match="omega = J = 0"):
            wootters_energy_distance(zero, b_ref, *f)


# fields for one kernel call: omega = J = 0 (with J = 0), subnormal fields,
# ones below and above FIELD_RANGE and ordinary ones, of both signs
_CHANGING_FIELDS = st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585e-313, -1e-200, 1e200, -1.5e308,
                     3.0, -4.0]) | st.floats(-20.0, 20.0), min_size=1, max_size=8)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(st.lists(physical_states(), min_size=1, max_size=3), _CHANGING_FIELDS,
       st.sampled_from([0.0, 5e-324, -1e-200, 2.0, 1e200]), st.booleans())
@example([_PURE_OUTER, _PURE_INNER] * 4, [0.0, 0.0, 5e-324, 5e-324, 1e200, 1e200, 0.0, -0.0],
         0.0, True)
def test_state_entropies_over_changing_fields_property(states, omegas, j, repeat):
    # the kernel forms the energy frame where the field changes; over a field
    # that changes between states, through omega = J = 0, subnormal fields and
    # ones outside FIELD_RANGE, or repeats (a frame formed before), one call
    # equals one-state calls bit for bit
    if repeat:
        omegas = [omega for omega in omegas for _ in range(2)]
    states = [states[i % len(states)] for i in range(len(omegas))]
    one_each = [[column[0] for column in _state_entropies(tuple(zip(b)), (omega,), j)]
                for b, omega in zip(states, omegas)]
    columns = tuple(zip(*states))
    together = list(zip(*_state_entropies(columns, omegas, j)))
    assert [_bits(row) for row in together] == [_bits(row) for row in one_each]
    # a sweep's states, b4 and b5 given as its two constants: s_vn is the
    # first state's, s_e and the energy are each state's, bit for bit
    first = states[0]
    swept = columns[:3] + ([first.b4] * len(states), [first.b5] * len(states))
    s_vn, s_e, e = _state_entropies(columns[:3] + (first.b4, first.b5), omegas, j)
    _, swept_s_e, swept_e = _state_entropies(swept, omegas, j)
    assert _bits([s_vn]) == _bits([one_each[0][0]])
    assert _bits(s_e + e) == _bits(swept_s_e + swept_e)
    # the one-state call is the public functions' kernel
    for b, omega, (s_vn, s_e, e) in zip(states, omegas, together):
        assert _bits([s_vn]) == _bits([vn_entropy(b)])
        if omega or j:
            assert _bits([s_e]) == _bits([energy_entropy(b, omega, j)])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("measure", [
    energy_populations,
    energy_entropy,
    lambda b, omega, j: wootters_energy_distance(b, b, omega, j),
], ids=["energy_populations", "energy_entropy", "wootters_energy_distance"])
def test_non_finite_field_is_refused(measure, value):
    # the energy basis of an infinite or NaN field is undefined, as at
    # omega = J = 0: a ValueError, not NaN populations
    b = BlochVector(0.1, -0.05, 0.02, 0.01, 0.1)
    for field in ((value, 2.0), (12.6355, value), (value, 0.0), (value, value)):
        with pytest.raises(ValueError, match="field that is not finite"):
            measure(b, *field)
