"""Entropies, relative entropies and the two distance measures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinotto import (
    BlochVector,
    CycleSpec,
    NonUniqueLimitCycleError,
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
    adiabat_propagator,
    AdiabatParams,
    Reference,
    trajectory,
    wootters_distance_to,
    wootters_energy_distance,
)
from spinotto.measures import _SUPPORT_TOL, _entropy4, _measures_to, _state_entropies
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


@settings(max_examples=300 * EXAMPLE_SCALE, deadline=None)
@given(physical_states(), st.floats(-20.0, 20.0), st.floats(0.0, 4.0))
# a pure outer level in a subnormal field
@example(BlochVector(0.2759441097313356, 0.0, 0.0, 0.12072554800745934, -0.1097560975609756),
         2.2250738585e-313, 0.0)
def test_entropy_kernel_equals_general_path(b, omega, j):
    distributions = [eigenvalue_tuple(b)]
    if math.hypot(omega, j) > 0.0:
        distributions.append(energy_populations(b, omega, j))
    for p in distributions:
        assert _entropy4(p) == measurement_entropy(p)
    assert vn_entropy(b) == measurement_entropy(eigenvalue_tuple(b))


# four probabilities near a distribution: negative entries around
# PHYSICALITY_TOL, NaN and inf, and sums off by about the 1e-10 tolerance
_probability = st.sampled_from([-2e-12, -5e-13, 0.0, math.nan, math.inf]) | st.floats(0.0, 1.0)


@settings(max_examples=500 * EXAMPLE_SCALE, deadline=None)
@given(st.tuples(_probability, _probability, _probability),
       st.sampled_from([0.0, 5e-11, -5e-11, 2e-10, -2e-10, 0.3]))
def test_entropy_kernel_raises_as_general_path(head, offset):
    p = (*head, 1.0 - sum(head) + offset)
    message = _raised(measurement_entropy, p)
    assert _raised(_entropy4, p) == message
    if message is None:
        assert _entropy4(p) == measurement_entropy(p)


def test_entropy_kernel_rejections():
    nan = math.nan
    cases = [
        ((1.1, -0.1, 0.0, 0.0), "negative probability"),
        ((0.5, 0.5 + 2e-12, -2e-12, 0.0), "negative probability"),
        ((0.5, 0.1, 0.1, 0.1), "sum to"),
        ((0.25, 0.25, 0.25, 0.25 + 2e-10), "sum to"),
    ] + [
        (tuple(nan if k == i else x for k, x in enumerate((0.5, 0.5, 0.0, 0.0))), "sum to nan")
        for i in range(4)
    ]
    for p, fragment in cases:
        message = _raised(measurement_entropy, p)
        assert message is not None and fragment in message, p
        assert _raised(_entropy4, p) == message
    # within the tolerances: a -1e-12 rounding residue and a 5e-11 sum error
    for p in ((0.5, 0.5 + 5e-13, -5e-13, 0.0), (0.25, 0.25, 0.25, 0.25 + 5e-11)):
        assert _entropy4(p) == measurement_entropy(p)
    # a NaN state no longer yields the entropy of its finite eigenvalues
    with pytest.raises(ValueError, match="sum to nan"):
        vn_entropy(BlochVector(0.1, 0.0, 0.0, nan, 0.0))
    with pytest.raises(ValueError, match="sum to nan"):
        energy_entropy(BlochVector(0.1, 0.0, 0.0, nan, 0.0), 1.0, 0.5)


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
    for measure in (quantum_distance, conditional_entropy):
        for b, b_ref in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="non-physical state"):
                measure(b, b_ref)
    with pytest.raises(ValueError, match="non-physical state"):
        Reference(bad)
    # the row kernel raises what vn_entropy raises ("sum to nan" for b4-nan)
    assert _raised(lambda b: _state_entropies(b, 1.0, 0.5), bad) == _raised(vn_entropy, bad)


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
    # b3 enters no energy population: a huge b3 sends the reference's
    # eigenvalues to -inf and inf but leaves the distance that to the
    # maximally mixed state
    omega, j = 9.0, 2.0
    huge = BlochVector(0.0, 0.0, 1e200, 0.0, 0.0)
    mixed = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    lam = eigenvalue_tuple(huge)
    assert (lam[0], lam[3]) == (-math.inf, math.inf)
    for _ in range(20):
        b = random_bloch(rng)
        assert wootters_energy_distance(b, huge, omega, j) == wootters_energy_distance(
            b, mixed, omega, j
        )


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
    prop = adiabat_propagator(AdiabatParams(12.0, 5.0, 2.0, 0.3))
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
# the row kernels against the public measures


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


def _public_entropies(b, omega, j):
    """s_vn, s_e and energy of a trajectory row from the public functions, s_e
    at its zero-field limit at omega = J = 0."""
    field = (omega, j) if omega or j else (1.0, 0.0)
    return vn_entropy(b), energy_entropy(b, *field), energy(b, omega, j)


def _public_measures(ref, omega, j):
    """The three iterate-row measures from the public functions."""
    wootters = wootters_distance_to(ref.b, omega, j)

    def measures(b):
        lam = eigenvalue_tuple(b)
        return ref.quantum_distance(b, lam), wootters(b), ref.conditional_entropy(b, lam)

    return measures


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
# besides each state's own field: zero, below FIELD_RANGE (scaled by 2**600)
# and subnormal fields
_fields = st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 4.0)) | st.sampled_from(
    [(0.0, 0.0), (-0.0, 0.0), (1e-200, 0.0), (-3e-160, 1e-170), (2.2250738585e-313, 5e-324)])


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(physical_states(), cycle_specs(), _fields)
@example(_PURE_OUTER, fig1_spec(), (12.6355, 2.0))
@example(_PURE_INNER, fig1_spec(), (1e-200, 0.0))
@example(BlochVector(0.0, 0.0, 0.0, 0.0, 0.0), _RANK_DEFICIENT, (2.2250738585e-313, 5e-324))
@example(_PURE_INNER, _ZERO_FIELD_SWEEPS, (0.0, 0.0))
def test_row_kernels_equal_public_measures_property(b, spec, field):
    # the trajectory kernel: each sample of a period from b at its own field
    # and at the drawn one; a ValueError must be the public path's
    prop = compose_cycle(spec)
    samples = trajectory(prop, b, 5)
    for _, _, omega, state in samples:
        for f in ((omega, spec.j), field):
            assert _outcome(_state_entropies, state, *f) == _outcome(_public_entropies, state, *f)
    try:
        report = limit_cycle(spec)
    except NonUniqueLimitCycleError:
        return
    # the iterate kernel: the approach to the limit cycle from b, into the
    # overlap noise floors, the limit cycle itself and the period's samples
    ref = Reference(report.b_a)
    states = iterate(prop, b, 40) + [report.b_a] + [sample.state for sample in samples]
    for f in ((spec.omega_b, spec.j), field):
        if not math.hypot(*f):
            with pytest.raises(ValueError, match="omega = J = 0"):
                _measures_to(ref, *f)
            continue
        kernel, public = _measures_to(ref, *f), _public_measures(ref, *f)
        for state in states:
            assert _bits(kernel(state)) == _bits(public(state))


def test_row_kernel_examples_reach_their_edges():
    # the edges the examples above are there for
    zero = BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    assert _state_entropies(_PURE_INNER, 1.0, 0.5)[0] == 0.0  # only 0 log 0 and 1 log 1
    ref = Reference(limit_cycle(_RANK_DEFICIENT).b_a)
    assert min(ref.lam) < _SUPPORT_TOL
    assert _measures_to(ref, 15.0, 1.0)(zero)[2] == math.inf
    report = limit_cycle(fig1_spec())
    rows = [_measures_to(Reference(report.b_a), 12.6355, 2.0)(b)
            for b in iterate(report.propagator, _PURE_OUTER, 40)]
    assert rows[0][0] > 0.0 and rows[0][1] > 0.0
    assert rows[-1][:2] == (0.0, 0.0)  # within _OVERLAP_NOISE of 1
    samples = trajectory(compose_cycle(_ZERO_FIELD_SWEEPS), _PURE_INNER, 5)
    assert [s.branch for s in samples if s.omega == 0.0] == ["adiabat-hot-cold",
                                                             "adiabat-cold-hot"]
    # the field binding fails as wootters_distance_to does
    for f in ((0.0, 0.0), (-0.0, 0.0)):
        with pytest.raises(ValueError) as kernel_error:
            _measures_to(ref, *f)
        with pytest.raises(ValueError) as public_error:
            wootters_distance_to(ref.b, *f)
        assert str(kernel_error.value) == str(public_error.value)
