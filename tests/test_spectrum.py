import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from qaction import (
    QuantumNumbers, RadialGrid, RadialState, SommerfeldNumbers, bohr_energy,
    epsilon_n, grid_eigenstate, level_comparison, make_units,
    sommerfeld_energy, sommerfeld_nstar_sq, state_norm, stationary_closed_form,
)
import oracles
from oracles import numerov_eigenvalue


def _hydrogen_u(n, l, lam, grid, u):
    """Closed-form u_nl(r) of H_std = -hbar^2 Delta - lambda kappa_C / r, whose Bohr
    radius is 2 hbar^2 / (lambda kappa_C) = a0 2 m c / lambda, on a propagation grid:
    unit norm in its h-sum, largest sample positive, as grid_eigenstate returns."""
    rho = 2.0 * grid.points() * lam / (n * u.bohr_radius * 2.0 * u.mc)
    v = np.exp(-0.5 * rho) * rho ** (l + 1) * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
    v = v if v[np.argmax(np.abs(v))] > 0.0 else -v
    return v / math.sqrt(grid.step * np.sum(v * v))


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
    lambda u: grid_eigenstate(1.0, 0, 2.0 * u.mc, RadialGrid(30.0, 600), u),
    lambda u: grid_eigenstate(1, 0.0, 2.0 * u.mc, RadialGrid(30.0, 600), u),
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
    g = RadialGrid(60.0, 2400)
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


ENDS, COUNT = "need 0 < r_min < r_max < inf", "need at least 16 grid points"
R_MAX = "need a finite r_max whose r_max / num_points is positive"


@pytest.mark.parametrize("mesh, message", [
    ((0.0, 10.0, 100), ENDS), ((-1.0, 10.0, 100), ENDS), ((2.0, 1.0, 100), ENDS),
    ((1.0, 1.0, 100), ENDS), ((0.1, math.inf, 100), ENDS),
    ((0.1, 1.0, 8), COUNT), ((0.1, 1.0, 15), COUNT),
    # a float count is refused, not left to numpy's TypeError
    ((0.1, 1.0, 100.0), COUNT),
], ids=["r_min_0", "r_min_negative", "r_min_above_r_max", "r_min_equal_r_max",
        "r_max_inf", "points_8", "points_15", "points_float"])
def test_numerov_mesh_validation(u10, mesh, message):
    with pytest.raises(ValueError, match=message):
        numerov_eigenvalue(QuantumNumbers(1), 2.0, *mesh, u10)


@pytest.mark.parametrize("mesh", [(1e-6, 1e200), (1.0, 1e308), (1e-300, 1e300), (1e-170, 10.0),
                                  (1e-160, 1e150)],
                         ids=["r_max_1e200", "r_max_1e308", "span_1e600", "r_min_1e-170",
                              "log_step_inf"])
@pytest.mark.parametrize("l", [0, 1])
def test_numerov_refuses_a_mesh_outside_the_float_range(u10, mesh, l):
    # r^2 q overflows on the first three; r^2 underflows to 0 on the fourth,
    # 0 / 0 at l = 0 and a division by zero at l = 1; on the last r_max / r_min,
    # so the log step, is inf (and at l = 1 the centrifugal term is too).
    # Refused before the first node count, with no numpy warning (the suite
    # makes RuntimeWarning an error)
    with pytest.raises(ValueError, match=rf"log mesh .*, l = {l} leaves the float range"):
        numerov_eigenvalue(QuantumNumbers(2, l), 2.0, *mesh, 4000, u10)


@pytest.mark.parametrize("r_max, num_points, message", [
    (40.0, 8, COUNT), (40.0, 15, COUNT), (40.0, 100.0, COUNT), (40.0, "100", COUNT),
    (0.0, 100, R_MAX), (-1.0, 100, R_MAX), (math.inf, 100, R_MAX), (math.nan, 100, R_MAX),
    # positive, but its first point r_max / num_points rounds to 0
    (1e-321, 2000, R_MAX),
], ids=["points_8", "points_15", "points_float", "points_str", "r_max_0", "r_max_negative",
        "r_max_inf", "r_max_nan", "r_max_first_point_0"])
def test_radial_grid_validation(r_max, num_points, message):
    with pytest.raises(ValueError, match=message):
        RadialGrid(r_max, num_points)


def test_grid_points_monotone():
    g = RadialGrid(50.0, 64)
    r = g.points()
    assert r[0] == 50.0 / 64
    assert r[-1] == 50.0
    assert np.allclose(np.diff(r), g.step, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, l", [(1, 0), (2, 0), (2, 1), (3, 0)])
def test_grid_eigenstate_has_n_minus_l_minus_1_nodes(u10, n, l):
    g = RadialGrid(100.0, 4000)
    state, _ = grid_eigenstate(n, l, 2.0 * u10.mc, g, u10)
    vals = np.real(state.amplitudes)
    vals = vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))]  # away from the noise floor
    assert int(np.sum(vals[1:] * vals[:-1] < 0.0)) == n - l - 1
    diff = state.amplitudes - _hydrogen_u(n, l, 2.0 * u10.mc, g, u10)
    assert math.sqrt(g.step * float(np.sum(np.abs(diff) ** 2))) < 2e-4  # 9.0e-5 at most


def test_grid_eigenstates_are_orthogonal(u10):
    g = RadialGrid(60.0, 2000)
    a, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, g, u10)
    b, _ = grid_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    assert abs(g.step * np.vdot(a.amplitudes, b.amplitudes)) < 1e-12  # 1.4e-14 measured


@pytest.mark.parametrize("lam_mc", [1.0, 2.0, 4.0])
def test_grid_eigenstate_converges_at_second_order_to_the_closed_form(u10, lam_mc):
    # the L2 error to u_1s at radius a0 2 m c / lambda falls by 4 a halving of h
    # (0.2500-0.2510); at a0 lambda / (2 m c) it stays near 0.99 away from 2 m c
    errors = []
    for num_points in (1000, 2000, 4000):
        g = RadialGrid(60.0, num_points)
        state, _ = grid_eigenstate(1, 0, lam_mc * u10.mc, g, u10)
        diff = state.amplitudes - _hydrogen_u(1, 0, lam_mc * u10.mc, g, u10)
        errors.append(math.sqrt(g.step * float(np.sum(np.abs(diff) ** 2))))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine / coarse == pytest.approx(0.25, rel=0.02)


MESH = (1e-6, 200.0, 4000)  # Numerov's log mesh: r_min, r_max, points


def test_numerov_matches_formula(u10):
    lam = 2.0 * u10.mc
    coupling = lam * u10.coulomb_momentum
    for n in (1, 2, 3):
        e = numerov_eigenvalue(QuantumNumbers(n), coupling, *MESH, u10)
        assert math.isclose(e, -epsilon_n(lam, n, u10), rel_tol=1e-6)


def test_numerov_level_ratios(u10):
    coupling = 2.0
    e1 = numerov_eigenvalue(QuantumNumbers(1), coupling, *MESH, u10)
    e2 = numerov_eigenvalue(QuantumNumbers(2), coupling, *MESH, u10)
    e3 = numerov_eigenvalue(QuantumNumbers(3), coupling, *MESH, u10)
    assert math.isclose(e2 / e1, 0.25, rel_tol=1e-5)
    assert math.isclose(e3 / e1, 1.0 / 9.0, rel_tol=1e-5)


def test_numerov_centrifugal_channel(u10):
    # l = 1 reaches the same n = 2 level through a different effective potential
    lam = 2.0 * u10.mc
    e = numerov_eigenvalue(QuantumNumbers(2, 1), lam * u10.coulomb_momentum, *MESH, u10)
    assert math.isclose(e, -epsilon_n(lam, 2, u10), rel_tol=1e-6)


def test_numerov_rejects_free_particle(u10):
    with pytest.raises(ValueError, match="coupling must be positive"):
        numerov_eigenvalue(QuantumNumbers(1), 0.0, *MESH, u10)


def test_numerov_grid_too_small(u10):
    with pytest.raises(RuntimeError):
        numerov_eigenvalue(QuantumNumbers(5), 2.0, 1e-4, 1.5, 512, u10)


def test_numerov_rescales_the_growing_solution(u10):
    # past r ~ 290 the solution at the lower bracket grows beyond 1e250 and is
    # rescaled as it goes; the 1s level of coupling 2 is still -1
    assert math.isclose(numerov_eigenvalue(QuantumNumbers(1), 2.0, 1e-4, 400.0, 4000, u10),
                        -1.0, rel_tol=1e-6)


def test_numerov_lower_bracket_fails_on_a_coarse_mesh(u10):
    # 64 log points to r = 200: far out hx^2 g / 12 > 1, so the recursion
    # alternates in sign and counts nodes even below every bound level
    with pytest.raises(RuntimeError, match="lower bracket fails"):
        numerov_eigenvalue(QuantumNumbers(1), 2.0, 1e-4, 200.0, 64, u10)


def test_numerov_starts_below_the_float_range_of_r_to_the_l(u10):
    # r_min ** (l + 1/2) underflows to 0 at r_min = 1e-140, l = 2; the sweep starts
    # from the same power law scaled to 1 at the mesh's second point instead
    with pytest.raises(RuntimeError, match="lower bracket fails"):
        numerov_eigenvalue(QuantumNumbers(3, 2), 2.0, 1e-140, 200.0, 4000, u10)
    e = numerov_eigenvalue(QuantumNumbers(3, 2), 2.0, 1e-140, 200.0, 40000, u10)
    assert math.isclose(e, -1.0 / 9.0, rel_tol=1e-8)  # -0.11111111112429706 measured


def test_numerov_bisection_stops_at_its_step_limit(u10, monkeypatch):
    # a tol below an ulp of the level is never met: the bracket stops
    # shrinking at adjacent floats and the 400 steps run out
    mesh = (1e-4, 20.0, 200)
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "NUMEROV_TOL", 1e-20)
        with pytest.raises(RuntimeError, match="bisection failed to converge"):
            numerov_eigenvalue(QuantumNumbers(1), 2.0, *mesh, u10)
    assert math.isclose(numerov_eigenvalue(QuantumNumbers(1), 2.0, *mesh, u10), -1.0,
                        rel_tol=1e-6)


def test_state_operations():
    # the norm is the h-weighted sum: exact for a Dirichlet mode of the walled
    # mesh, sum_j sin^2(pi k j / (n + 1)) = (n + 1) / 2, and on 3i u_1s,
    # u_1s = 2 r exp(-r), off 3 by Euler-Maclaurin's -3 h^4 / 30 (u^2's
    # third derivative is -48 at r = 0)
    g = RadialGrid(200.0, 2000)
    r, h = g.points(), g.step
    mode = RadialState(g, 0, 3.0j * np.sin(3.0 * math.pi * r / (2001 * h)))
    assert state_norm(mode) == pytest.approx(3.0 * math.sqrt(h * 2001 / 2), rel=1e-14)
    state = RadialState(g, 0, 6.0j * r * np.exp(-r))
    assert abs(state_norm(state) - 3.0 * (1.0 - h ** 4 / 30.0)) < 1e-7


def test_radial_state_validation(u10):
    g = RadialGrid(200.0, 64)
    with pytest.raises(ValueError):
        RadialState(g, 0, np.ones(63, dtype=complex))
    with pytest.raises(ValueError):
        RadialState(g, 0, np.full(64, np.nan, dtype=complex))
    with pytest.raises(ValueError, match="l must be non-negative"):
        RadialState(g, -1, np.ones(64, dtype=complex))
    # l(l+1) of a float l is no centrifugal term of any level
    for l in (1.5, np.float64(1.0)):
        with pytest.raises(ValueError, match="l must be non-negative"):
            RadialState(g, l, np.ones(64, dtype=complex))


def test_radial_states_compare_by_value():
    g = RadialGrid(200.0, 64)
    amp = np.linspace(0.0, 1.0, 64) + 0.5j
    state = RadialState(g, 1, amp)
    assert state == RadialState(g, np.int64(1), amp.copy())  # a twin built apart
    assert state != RadialState(g, 1, amp + 1e-12)
    assert state != RadialState(g, 2, amp)
    other_grid = RadialGrid(100.0, 64)
    assert state != RadialState(other_grid, 1, amp)
    for other in (g, None, "state"):  # a non-state is never equal, and never raises
        assert (state == other) is False and state != other
    with pytest.raises(TypeError):
        hash(state)
