import math

import numpy as np
import pytest

from qaction import (
    LOG, UNIFORM, QuantumNumbers, RadialGrid, SommerfeldNumbers, bohr_energy,
    count_radial_nodes, epsilon_n, expectation_r, grid_eigenstate, inner_product,
    level_comparison, make_units, numerov_eigenvalue, propagation_grid,
    scaled_eigenfunction, sommerfeld_energy, sommerfeld_nstar_sq, state_norm,
    stationary_closed_form,
)
from qaction.spectrum import RadialState


def test_bohr_energy_values(u_codata):
    assert bohr_energy(1, u_codata) == -0.5
    assert bohr_energy(2, u_codata) == -0.125
    assert bohr_energy(5, u_codata) == -0.02


def test_quantum_numbers_validation():
    QuantumNumbers(3, 2)
    with pytest.raises(ValueError):
        QuantumNumbers(0)
    with pytest.raises(ValueError):
        QuantumNumbers(2, 2)
    with pytest.raises(ValueError):
        QuantumNumbers(2, -1)


@pytest.mark.parametrize("call", [
    lambda u: bohr_energy(1.5, u),
    lambda u: epsilon_n(20.0, 2.7, u),
    lambda u: level_comparison(2.9, u),
    lambda u: stationary_closed_form(1.9, 40.0, u),
    lambda u: grid_eigenstate(1.0, 0, 2.0 * u.mc, propagation_grid(30.0, 600), u),
    lambda u: grid_eigenstate(1, 0.0, 2.0 * u.mc, propagation_grid(30.0, 600), u),
    lambda u: sommerfeld_nstar_sq(1.0, 2, 0.1),
], ids=["bohr_energy", "epsilon_n", "level_comparison", "stationary_closed_form",
        "grid_eigenstate_n", "grid_eigenstate_l", "sommerfeld_nstar_sq"])
def test_float_level_is_refused_not_truncated(u10, call):
    # int(n) once made bohr_energy(1.5) level 1 and level_comparison(2.9) level 2
    with pytest.raises(ValueError, match="must be integers"):
        call(u10)


def test_numpy_integer_levels_accepted(u10):
    n, l = np.int64(2), np.int64(1)
    assert QuantumNumbers(n, l) == QuantumNumbers(2, 1)
    assert SommerfeldNumbers(np.int64(1), np.int64(-2)) == SommerfeldNumbers(1, -2)
    assert sommerfeld_nstar_sq(np.int64(1), np.int64(-2), 0.1) \
        == sommerfeld_nstar_sq(1, -2, 0.1)
    assert bohr_energy(n, u10) == bohr_energy(2, u10)
    assert epsilon_n(20.0, n, u10) == epsilon_n(20.0, 2, u10)
    assert level_comparison(n, u10) == level_comparison(2, u10)
    assert stationary_closed_form(n, 40.0, u10) == stationary_closed_form(2, 40.0, u10)
    g = propagation_grid(60.0, 2400)
    state, eps = grid_eigenstate(n, l, 2.0 * u10.mc, g, u10)
    ref, ref_eps = grid_eigenstate(2, 1, 2.0 * u10.mc, g, u10)
    assert eps == ref_eps
    np.testing.assert_array_equal(state.amplitudes, ref.amplitudes)


@pytest.mark.parametrize("p, k, message", [
    (1.0, 2, "p and k must be integers"),
    (1, 2.0, "p and k must be integers"),
    (-1, 1, "need p >= 0"),
    (0, 0, "k must be a nonzero integer"),
])
def test_sommerfeld_numbers_validation(p, k, message):
    with pytest.raises(ValueError, match=message):
        SommerfeldNumbers(p, k)


def test_epsilon_n_basics(u10, u_codata):
    assert epsilon_n(0.0, 1, u10) == 0.0
    # lambda = 2mc makes the coupling alpha-independent: epsilon_1 = 1 a.u.
    for u in (u10, u_codata):
        assert math.isclose(epsilon_n(2.0 * u.mc, 1, u), 1.0, rel_tol=1e-13)
    e1 = epsilon_n(1.7, 2, u10)
    assert math.isclose(epsilon_n(3.4, 2, u10), 4.0 * e1, rel_tol=1e-15)


def test_epsilon_quadratic_scaling(u10):
    rng = np.random.default_rng(7)
    for lam in rng.uniform(0.1, 40.0, size=20):
        for n in (1, 2, 5):
            a = epsilon_n(lam, n, u10)
            b = lam * lam * epsilon_n(1.0, n, u10)
            assert math.isclose(a, b, rel_tol=5e-16)


def test_sommerfeld_nstar_sq_values():
    assert sommerfeld_nstar_sq(0, 1, 0.1) == 1.0
    assert sommerfeld_nstar_sq(0, -5, 0.3) == 25.0
    assert math.isclose(sommerfeld_nstar_sq(1, 1, 1e-7), 4.0, rel_tol=1e-12)
    # frozen: 2 + 2 sqrt(0.99)
    assert math.isclose(sommerfeld_nstar_sq(1, 1, 0.1), 3.9899748742132397,
                        rel_tol=1e-15)


def test_sommerfeld_sign_degeneracy():
    for p in (0, 1, 3):
        for k in (1, 2, 4):
            assert sommerfeld_nstar_sq(p, k, 0.1) == sommerfeld_nstar_sq(p, -k, 0.1)


def test_sommerfeld_identity():
    # n*^2 - (p + sqrt(k^2 - a^2))^2 == a^2, the algebraic backbone of the level formula
    for alpha in (0.0072973525693, 0.05, 0.3, 0.9):
        for p in range(0, 4):
            for k in (1, -1, 2, -3, 5):
                nsq = sommerfeld_nstar_sq(p, k, alpha)
                root = p + math.sqrt(k * k - alpha * alpha)
                assert abs(nsq - root * root - alpha * alpha) < 1e-13


def test_sommerfeld_domain():
    with pytest.raises(ValueError):
        sommerfeld_nstar_sq(0, 0, 0.1)
    with pytest.raises(ValueError):
        sommerfeld_nstar_sq(-1, 1, 0.1)
    with pytest.raises(ValueError):
        sommerfeld_nstar_sq(1, 1, 1.2)  # |k| <= alpha


def test_sommerfeld_energy_values(u10):
    e = sommerfeld_energy(SommerfeldNumbers(0, 1), u10)
    assert math.isclose(e, u10.rest_energy * math.sqrt(1.0 - 0.01), rel_tol=1e-15)
    # frozen from independent evaluation of both closed forms
    e11 = sommerfeld_energy(SommerfeldNumbers(1, 1), u10)
    assert math.isclose(e11 / u10.rest_energy, 0.9987460731103327, rel_tol=1e-14)


def test_sommerfeld_energy_small_alpha_limit():
    u = make_units(1e-7)
    for p, k in ((0, 1), (1, 1), (2, -3)):
        e = sommerfeld_energy(SommerfeldNumbers(p, k), u)
        assert math.isclose(e, u.rest_energy, rel_tol=1e-13)


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(r_min=0.0, r_max=10.0, num_points=100)
    with pytest.raises(ValueError):
        RadialGrid(r_min=2.0, r_max=1.0, num_points=100)
    with pytest.raises(ValueError):
        RadialGrid(r_min=0.1, r_max=1.0, num_points=8)
    with pytest.raises(ValueError):
        RadialGrid(r_min=0.1, r_max=1.0, num_points=100, spacing="cubic")


def test_step_is_for_uniform_grids_only():
    assert RadialGrid(r_min=0.5, r_max=10.0, num_points=20, spacing=UNIFORM).step == 0.5
    log_grid = RadialGrid(r_min=1e-3, r_max=10.0, num_points=20, spacing=LOG)
    with pytest.raises(ValueError, match="uniform grids only"):
        log_grid.step


def test_grid_points_monotone():
    for spacing in (UNIFORM, LOG):
        g = RadialGrid(r_min=1e-3, r_max=50.0, num_points=64, spacing=spacing)
        r = g.points()
        assert r[0] == pytest.approx(1e-3)
        assert r[-1] == pytest.approx(50.0)
        assert np.all(np.diff(r) > 0)


def test_log_grid_quadrature_accuracy(u_codata):
    # Simpson-in-x weights must integrate a hydrogen density to ~1e-9,
    # otherwise the norm-deficit check in scaled_eigenfunction is meaningless
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=4001, spacing=LOG)
    state = scaled_eigenfunction(QuantumNumbers(1), 2.0 * u_codata.mc, g, u_codata)
    r = g.points()
    u_exact = 2.0 * r * np.exp(-r)
    assert abs(np.sum(g.quad_weights() * u_exact ** 2) - 1.0) < 1e-9
    assert abs(state_norm(state) - 1.0) < 1e-12


def test_scaled_eigenfunction_expectation(u10):
    g = RadialGrid(r_min=1e-6, r_max=400.0, num_points=6001, spacing=LOG)
    s2 = scaled_eigenfunction(QuantumNumbers(1), 2.0 * u10.mc, g, u10)
    s4 = scaled_eigenfunction(QuantumNumbers(1), 4.0 * u10.mc, g, u10)
    r2 = expectation_r(s2)
    r4 = expectation_r(s4)
    assert math.isclose(r2, 1.5 * u10.bohr_radius, rel_tol=1e-8)
    assert math.isclose(r4 / r2, 2.0, rel_tol=1e-8)


def test_scaled_eigenfunction_nodes(u10):
    g = RadialGrid(r_min=1e-6, r_max=400.0, num_points=4001, spacing=LOG)
    assert count_radial_nodes(
        scaled_eigenfunction(QuantumNumbers(2, 1), 2.0 * u10.mc, g, u10)) == 0
    assert count_radial_nodes(
        scaled_eigenfunction(QuantumNumbers(2, 0), 2.0 * u10.mc, g, u10)) == 1
    assert count_radial_nodes(
        scaled_eigenfunction(QuantumNumbers(4, 1), 2.0 * u10.mc, g, u10)) == 2


def test_scaled_eigenfunction_norm_deficit(u10):
    g = RadialGrid(r_min=1e-4, r_max=2.0, num_points=64, spacing=LOG)
    with pytest.raises(ValueError):
        scaled_eigenfunction(QuantumNumbers(3), 2.0 * u10.mc, g, u10)


def test_numerov_matches_formula(u10):
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=4000, spacing=LOG)
    lam = 2.0 * u10.mc
    coupling = lam * u10.coulomb_momentum
    for n in (1, 2, 3):
        e = numerov_eigenvalue(QuantumNumbers(n), coupling, g, u10)
        assert math.isclose(e, -epsilon_n(lam, n, u10), rel_tol=1e-6)


def test_numerov_level_ratios(u10):
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=4000, spacing=LOG)
    coupling = 2.0
    e1 = numerov_eigenvalue(QuantumNumbers(1), coupling, g, u10)
    e2 = numerov_eigenvalue(QuantumNumbers(2), coupling, g, u10)
    e3 = numerov_eigenvalue(QuantumNumbers(3), coupling, g, u10)
    assert math.isclose(e2 / e1, 0.25, rel_tol=1e-5)
    assert math.isclose(e3 / e1, 1.0 / 9.0, rel_tol=1e-5)


def test_numerov_centrifugal_channel(u10):
    # l = 1 reaches the same n = 2 level through a different effective potential
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=4000, spacing=LOG)
    lam = 2.0 * u10.mc
    e = numerov_eigenvalue(QuantumNumbers(2, 1), lam * u10.coulomb_momentum, g, u10)
    assert math.isclose(e, -epsilon_n(lam, 2, u10), rel_tol=1e-6)


def test_numerov_rejects_free_particle(u10):
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=4000, spacing=LOG)
    with pytest.raises(ValueError):
        numerov_eigenvalue(QuantumNumbers(1), 0.0, g, u10)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_scaled_eigenfunction_needs_positive_lambda(u10, lam):
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=2001, spacing=LOG)
    with pytest.raises(ValueError, match="lambda must be positive"):
        scaled_eigenfunction(QuantumNumbers(1), lam, g, u10)


def test_numerov_rejects_uniform_grid(u10):
    g = RadialGrid(r_min=1e-3, r_max=200.0, num_points=4000, spacing=UNIFORM)
    with pytest.raises(ValueError, match="log-spaced grid"):
        numerov_eigenvalue(QuantumNumbers(1), 2.0, g, u10)


def test_numerov_grid_too_small(u10):
    g = RadialGrid(r_min=1e-4, r_max=1.5, num_points=512, spacing=LOG)
    with pytest.raises(RuntimeError):
        numerov_eigenvalue(QuantumNumbers(5), 2.0, g, u10)


def test_numerov_rescales_the_growing_solution(u10):
    # past r ~ 290 the solution at the lower bracket grows beyond 1e250 and is
    # rescaled as it goes; the 1s level of coupling 2 is still -1
    g = RadialGrid(r_min=1e-4, r_max=400.0, num_points=4000, spacing=LOG)
    assert math.isclose(numerov_eigenvalue(QuantumNumbers(1), 2.0, g, u10), -1.0,
                        rel_tol=1e-6)


def test_numerov_lower_bracket_fails_on_a_coarse_mesh(u10):
    # 64 log points to r = 200: far out hx^2 g / 12 > 1, so the recursion
    # alternates in sign and counts nodes even below every bound level
    g = RadialGrid(r_min=1e-4, r_max=200.0, num_points=64, spacing=LOG)
    with pytest.raises(RuntimeError, match="lower bracket fails"):
        numerov_eigenvalue(QuantumNumbers(1), 2.0, g, u10)


def test_numerov_bisection_stops_at_its_step_limit(u10):
    # a tol below an ulp of the level is never met: the bracket stops
    # shrinking at adjacent floats and the 400 steps run out
    g = RadialGrid(r_min=1e-4, r_max=20.0, num_points=200, spacing=LOG)
    with pytest.raises(RuntimeError, match="bisection failed to converge"):
        numerov_eigenvalue(QuantumNumbers(1), 2.0, g, u10, tol=1e-20)
    assert math.isclose(numerov_eigenvalue(QuantumNumbers(1), 2.0, g, u10), -1.0,
                        rel_tol=1e-6)


def test_state_operations(u10):
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=2001, spacing=LOG)
    a = scaled_eigenfunction(QuantumNumbers(1), 2.0 * u10.mc, g, u10)
    b = scaled_eigenfunction(QuantumNumbers(2), 2.0 * u10.mc, g, u10)
    assert abs(state_norm(a) - 1.0) < 1e-12
    assert abs(inner_product(a, b)) < 1e-7  # continuum-exact orthogonality, grid-limited
    other_grid = RadialGrid(r_min=1e-6, r_max=100.0, num_points=2001, spacing=LOG)
    c = scaled_eigenfunction(QuantumNumbers(1), 2.0 * u10.mc, other_grid, u10)
    with pytest.raises(ValueError):
        inner_product(a, c)
    d = scaled_eigenfunction(QuantumNumbers(2, 1), 2.0 * u10.mc, g, u10)
    with pytest.raises(ValueError):
        inner_product(a, d)


def test_radial_state_validation(u10):
    g = RadialGrid(r_min=1e-6, r_max=200.0, num_points=64, spacing=LOG)
    with pytest.raises(ValueError):
        RadialState(g, 0, np.ones(63, dtype=complex))
    with pytest.raises(ValueError):
        RadialState(g, 0, np.full(64, np.nan, dtype=complex))
    with pytest.raises(ValueError, match="l must be non-negative"):
        RadialState(g, -1, np.ones(64, dtype=complex))
