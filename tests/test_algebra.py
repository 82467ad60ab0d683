"""State reconstruction, spectra, energy populations and thermal states.

The energy-basis change and the spectral matrix functions are test oracles
(conftest); their own tests here pin them before they are trusted.
"""

import math

import numpy as np
import pytest

from spinotto import (
    BathParams,
    BlochVector,
    IsochoreParams,
    eigenvalue_tuple,
    energy_populations,
    isochore_propagator,
    thermal_state,
)
from spinotto.algebra import is_physical
from conftest import (
    SQRT2,
    energy_basis_transform,
    gibbs_matrix,
    matrix_log,
    matrix_sqrt,
    random_bloch,
    reconstruct_density,
    to_energy_basis,
)


def test_reconstruct_maximally_mixed():
    rho = reconstruct_density(BlochVector(0, 0, 0, 0, 0))
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_reconstruct_trace_and_hermiticity(rng):
    for _ in range(200):
        b = BlochVector(*rng.normal(size=5))
        rho = np.array(reconstruct_density(b))
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.abs(rho - rho.conj().T).max() < 1e-14


def test_reconstruct_thermal_matches_gibbs_oracle():
    omega, j, temp = 12.6355, 2.0, 7.5
    rho = reconstruct_density(thermal_state(omega, j, temp))
    assert np.abs(rho - gibbs_matrix(omega, j, temp)).max() < 1e-14
    rho_e = to_energy_basis(thermal_state(omega, j, temp), omega, j)
    off = rho_e - np.diag(np.diag(rho_e))
    assert np.abs(off).max() < 1e-12


def test_vn_eigenvalues_maximally_mixed():
    lam = eigenvalue_tuple(BlochVector(0, 0, 0, 0, 0))
    assert np.allclose(lam, 0.25, atol=1e-15)


def test_vn_eigenvalues_outer_pure_example():
    lam = eigenvalue_tuple(BlochVector(SQRT2 / 4, 0, 0, 0, 0))
    assert np.allclose(lam, [0.0, 0.25, 0.25, 0.5], atol=1e-15)


def test_vn_eigenvalues_match_numerical_diagonalization(rng):
    for _ in range(300):
        b = random_bloch(rng)
        closed = np.sort(eigenvalue_tuple(b))
        numeric = np.linalg.eigvalsh(reconstruct_density(b))
        assert np.abs(closed - numeric).max() < 1e-12
        assert abs(np.sum(eigenvalue_tuple(b)) - 1.0) < 1e-12


def test_vn_eigenvalues_flags_non_physical():
    bad = BlochVector(1.0, 0, 0, 0, 0)
    assert not is_physical(eigenvalue_tuple(bad))
    # min() would skip the NaN pair: min((0.25, nan, nan, 0.25)) == 0.25
    assert not is_physical(eigenvalue_tuple(BlochVector(0, 0, 0, math.nan, 0)))
    good = BlochVector(0.1, 0.05, 0.0, 0.0, 0.1)
    assert is_physical(eigenvalue_tuple(good))


def test_physicality_cone(rng):
    for _ in range(200):
        b = random_bloch(rng)
        assert b.d / SQRT2 <= 0.25 + b.b5 / 2.0 + 1e-12


def test_energy_basis_transform_is_involution(rng):
    for _ in range(50):
        omega, j = rng.uniform(0.5, 15.0, size=2)
        tr = energy_basis_transform(omega, j)
        c = tr.matrix()
        assert abs(tr.mu**2 + tr.chi**2 - 1.0) < 1e-14
        assert np.abs(c @ c - np.eye(4)).max() < 1e-14
        b = random_bloch(rng)
        rho = reconstruct_density(b)
        assert np.abs(c @ (c @ rho @ c) @ c - rho).max() < 1e-13


def test_energy_basis_rejects_degenerate_field():
    with pytest.raises(ValueError):
        energy_basis_transform(0.0, 0.0)


def test_to_energy_basis_j_zero_swaps_corners(rng):
    b = random_bloch(rng)
    rho = np.array(reconstruct_density(b))
    rho_e = to_energy_basis(b, 3.7, 0.0)
    swap = np.array([3, 1, 2, 0])
    assert np.abs(rho_e - rho[np.ix_(swap, swap)]).max() < 1e-14


def test_to_energy_basis_diagonal_sums_to_one(rng):
    for _ in range(100):
        b = random_bloch(rng)
        omega, j = rng.uniform(0.5, 15.0, size=2)
        diag = np.real(np.diag(to_energy_basis(b, omega, j)))
        assert abs(diag.sum() - 1.0) < 1e-13
        assert np.abs(diag - energy_populations(b, omega, j)).max() < 1e-13


def test_energy_populations_in_overflowing_fields(rng):
    # hypot(omega, J), or sqrt2 times it, overflows near the largest float;
    # the populations depend on the field's direction only
    b = BlochVector(0.1, 0.05, 0.0, 0.0, 0.0)
    assert energy_populations(b, 1.5e308, 1.5e308) == pytest.approx(
        (0.175, 0.25, 0.25, 0.325), abs=1e-15)
    for _ in range(50):
        b = random_bloch(rng)
        for huge, unit in (((1.5e308, 1.5e308), (1.0, 1.0)), ((-1.7e308, 1e308), (-1.7, 1.0))):
            difference = np.subtract(energy_populations(b, *huge), energy_populations(b, *unit))
            assert np.abs(difference).max() <= 1e-15


def test_matrix_sqrt_of_maximally_mixed():
    rho = np.eye(4) / 4
    assert np.abs(matrix_sqrt(rho) - np.eye(4) / 2).max() < 1e-14
    assert np.abs(matrix_log(rho) + math.log(4) * np.eye(4)).max() < 1e-13


def test_matrix_sqrt_squares_back(rng):
    for _ in range(100):
        rho = reconstruct_density(random_bloch(rng))
        root = matrix_sqrt(rho)
        assert np.abs(root @ root - rho).max() < 1e-12


def test_matrix_function_commutes_with_basis_change(rng):
    for _ in range(50):
        b = random_bloch(rng)
        omega, j = rng.uniform(0.5, 15.0, size=2)
        c = energy_basis_transform(omega, j).matrix()
        rho = reconstruct_density(b)
        assert np.abs(c @ matrix_sqrt(rho) @ c - matrix_sqrt(c @ rho @ c)).max() < 1e-12


def test_matrix_log_never_nan_on_pure_states():
    pure = BlochVector(SQRT2 / 2, 0, 0, 0, 0.5)  # lam = (0, 0, 0, 1)
    out = matrix_log(reconstruct_density(pure))
    assert np.all(np.isfinite(out))


def test_thermal_state_infinite_temperature_limit():
    b = thermal_state(9.0, 2.0, 1e12)
    assert np.abs(np.array(b)).max() < 1e-11


def test_thermal_state_rejects_bad_temperature():
    with pytest.raises(ValueError):
        thermal_state(9.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        thermal_state(9.0, 2.0, -1.0)
    with pytest.raises(ValueError, match="nan"):
        thermal_state(9.0, 2.0, math.nan)


def test_thermal_state_closed_form_populations(rng):
    for _ in range(50):
        omega, j = rng.uniform(0.5, 15.0, size=2)
        temp = rng.uniform(0.3, 20.0)
        b = thermal_state(omega, j, temp)
        big = math.hypot(omega, j)
        z = 2.0 + 2.0 * math.cosh(big / (SQRT2 * temp))
        assert b.b4 == 0.0
        assert abs(b.b5 - (0.5 - 2.0 / z)) < 1e-14
        expected = np.array([
            math.exp(big / (SQRT2 * temp)) / z,
            1.0 / z,
            1.0 / z,
            math.exp(-big / (SQRT2 * temp)) / z,
        ])
        assert np.abs(energy_populations(b, omega, j) - expected).max() < 1e-13
        # (b1, b2) along the field axis
        assert abs(b.b1 * j - b.b2 * omega) < 1e-14


def test_thermal_state_matches_isochore_long_time(rng):
    omega, j, temp = 12.6355, 2.0, 7.5
    gamma = 0.3423
    prop = isochore_propagator(
        IsochoreParams(omega, j, BathParams(gamma, 0.0, temp), 50.0 / gamma)
    )
    image = prop.apply(random_bloch(rng))
    expected = thermal_state(omega, j, temp)
    assert np.abs(np.array(image) - np.array(expected)).max() < 1e-10


def test_thermal_state_invariant_under_isochores(rng):
    for _ in range(30):
        omega, j = rng.uniform(0.5, 12.0, size=2)
        temp = rng.uniform(0.5, 10.0)
        bath = BathParams(rng.uniform(0.01, 2.0), rng.uniform(0.0, 0.05), temp)
        prop = isochore_propagator(
            IsochoreParams(omega, j, bath, rng.uniform(0.01, 5.0))
        )
        b = thermal_state(omega, j, temp)
        assert np.abs(np.array(prop.apply(b)) - np.array(b)).max() < 1e-10
