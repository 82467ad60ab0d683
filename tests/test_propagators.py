"""Branch maps: closed-form isochores, sweep propagators and their oracle."""

import math

import numpy as np
import pytest

from spinotto import (
    AdiabatParams,
    AdiabatSingularityError,
    BathParams,
    BlochVector,
    IsochoreParams,
    WeiNormanAngles,
    adiabat_propagator,
    adiabat_propagator_direct,
    compose,
    identity_propagator,
    isochore_propagator,
    thermal_state,
    vn_eigenvalues,
    wei_norman_alphas,
)
from conftest import SQRT2, random_bloch


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


def test_isochore_long_time_reaches_thermal_column(rng):
    p = _iso(gamma=1.0, tau=50.0)
    prop = isochore_propagator(p)
    eq = thermal_state(p.omega, p.j, p.bath.temperature)
    image = prop.apply(random_bloch(rng))
    assert np.abs(image.as_array() - eq.as_array()).max() < 1e-10


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
        assert np.abs(left.apply(b).as_array() - right.apply(b).as_array()).max() < 1e-12


def test_isochore_semigroup_matrix_level():
    left = compose(isochore_propagator(_iso(tau=0.46)), isochore_propagator(_iso(tau=0.31)))
    right = isochore_propagator(_iso(tau=0.77))
    assert np.abs(left.m - right.m).max() < 1e-12


# ---------------------------------------------------------------------------
# sweep angles


def test_angles_decouple_for_zero_coupling():
    p = AdiabatParams(4.0, 10.0, 0.0, 0.5)
    path = wei_norman_alphas(p)
    assert abs(path.final.alpha2) < 1e-12
    assert abs(path.final.alpha3) < 1e-12
    assert abs(path.final.alpha1 - SQRT2 * (4.0 + 10.0) * 0.5 / 2.0) < 1e-8


def test_constant_field_sweep_equals_isochore_rotation():
    omega, j, tau = 8.3, 2.0, 0.41
    path = wei_norman_alphas(AdiabatParams(omega, omega, j, tau))
    prop = adiabat_propagator(path.final)
    iso = isochore_propagator(IsochoreParams(omega, j, BathParams(0.0, 0.0, 1.0), tau))
    assert np.abs(prop.m - iso.m).max() < 1e-8


def test_reference_sweep_stays_regular():
    path = wei_norman_alphas(AdiabatParams(12.6355, 5.08364, 2.0, 0.01))
    assert all(np.isfinite([path.final.alpha1, path.final.alpha2, path.final.alpha3]))
    assert path.max_abs_alpha2 < math.pi / 2


def test_singularity_guard_raises():
    # with the field held at zero the tilt angle grows linearly and must
    # reach the guard before pi/2
    with pytest.raises(AdiabatSingularityError):
        wei_norman_alphas(AdiabatParams(0.0, 0.0, 5.0, 0.4))


def test_dense_angles_match_final():
    p = AdiabatParams(12.0, 5.0, 2.0, 0.3)
    path = wei_norman_alphas(p)
    end = path.at(p.tau)
    assert end == path.final
    start = path.at(0.0)
    assert (start.alpha1, start.alpha2, start.alpha3) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# sweep propagator vs direct oracle


def test_adiabat_zero_angles_is_identity():
    prop = adiabat_propagator(WeiNormanAngles(0.0, 0.0, 0.0))
    assert np.abs(prop.m - np.eye(4)).max() == 0.0


def test_adiabat_block_is_special_orthogonal(rng):
    for _ in range(50):
        angles = WeiNormanAngles(*rng.uniform(-1.2, 1.2, size=3))
        block = adiabat_propagator(angles).m[:3, :3]
        assert np.abs(block @ block.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(block) - 1.0) < 1e-12


def test_adiabat_matches_direct_oracle_reference_sweep():
    p = AdiabatParams(12.6355, 5.08364, 2.0, 0.01)
    wn = adiabat_propagator(wei_norman_alphas(p).final)
    direct = adiabat_propagator_direct(p, 100000)
    assert np.abs(wn.m - direct.m).max() < 1e-8


def test_adiabat_matches_direct_oracle_random(rng):
    worst = 0.0
    for _ in range(20):
        p = AdiabatParams(
            rng.uniform(2.0, 15.0), rng.uniform(2.0, 15.0),
            rng.uniform(0.5, 4.0), rng.uniform(0.005, 0.8),
        )
        wn = adiabat_propagator(wei_norman_alphas(p).final)
        direct = adiabat_propagator_direct(p, 30000)
        worst = max(worst, float(np.linalg.norm(wn.m - direct.m)))
    assert worst < 1e-7


def test_direct_oracle_second_order_convergence():
    p = AdiabatParams(12.0, 5.0, 2.0, 0.4)
    exact = adiabat_propagator(wei_norman_alphas(p).final).m
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
    prop = adiabat_propagator(wei_norman_alphas(p).final)
    for _ in range(50):
        b = random_bloch(rng)
        before = np.sort(vn_eigenvalues(b).as_array())
        after = np.sort(vn_eigenvalues(prop.apply(b)).as_array())
        assert np.abs(before - after).max() < 1e-12


# ---------------------------------------------------------------------------
# application and composition


def test_apply_identity():
    b = BlochVector(0.1, -0.2, 0.05, 0.02, 0.1)
    out = identity_propagator().apply(b)
    assert out == b


def test_apply_thermal_fixed_point():
    p = _iso()
    b = thermal_state(p.omega, p.j, p.bath.temperature)
    out = isochore_propagator(p).apply(b)
    assert np.abs(out.as_array() - b.as_array()).max() < 1e-12


def test_composition_associativity(rng):
    p1 = isochore_propagator(_iso(tau=0.3))
    p2 = adiabat_propagator(wei_norman_alphas(AdiabatParams(9.0, 4.0, 2.0, 0.1)).final)
    p3 = isochore_propagator(_iso(omega=4.0, temp=1.2, tau=0.5))
    chained = compose(p3, p2, p1)
    for _ in range(20):
        b = random_bloch(rng)
        stepped = p3.apply(p2.apply(p1.apply(b)))
        assert np.abs(chained.apply(b).as_array() - stepped.as_array()).max() < 1e-13


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
            prop = adiabat_propagator(wei_norman_alphas(AdiabatParams(
                rng.uniform(2.0, 14.0), rng.uniform(2.0, 14.0),
                rng.uniform(0.3, 4.0), rng.uniform(0.0, 0.6),
            )).final)
        for _ in range(30):
            image = prop.apply(random_bloch(rng))
            assert vn_eigenvalues(image).as_array().min() >= -1e-12


def test_cycle_b45_rates():
    gamma_h, tau_h = 0.7, 0.9
    gamma_c, tau_c = 0.3, 1.4
    u_h = isochore_propagator(_iso(omega=12.0, gamma=gamma_h, temp=7.0, tau=tau_h))
    u_c = isochore_propagator(_iso(omega=5.0, gamma=gamma_c, temp=1.5, tau=tau_c))
    u_ba = adiabat_propagator(wei_norman_alphas(AdiabatParams(12.0, 5.0, 2.0, 0.04)).final)
    u_ab = adiabat_propagator(wei_norman_alphas(AdiabatParams(5.0, 12.0, 2.0, 0.03)).final)
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
