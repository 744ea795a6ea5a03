import math

import numpy as np
import pytest

import qaction.propagation as propagation
from qaction import (
    LambdaPath, PhaseUndefinedError, RadialState, VariationalProblem,
    action_value, classical_action_part, full_action, grid_eigenstate,
    internal_time_map, lambda_from_trajectory, make_units, optimize_path,
    propagation_grid, state_norm, stationary_closed_form,
)


@pytest.fixture(scope="module")
def coarse_setup(u10):
    g = propagation_grid(25.0, 500)
    state, eps = grid_eigenstate(1, 0, 2.0 * u10.mc, g, u10)
    return g, state, eps


def test_classical_part_mass_scaling():
    # halving alpha^2 doubles m^2 c^2 in Hartree units and shifts the
    # classical action by exactly -m^2 c^2 S at fixed path and multiplier
    u1 = make_units(0.2)
    u2 = make_units(0.2 / math.sqrt(2.0))
    m2c2 = (u1.mass * u1.c) ** 2
    assert math.isclose((u2.mass * u2.c) ** 2, 2.0 * m2c2, rel_tol=1e-13)
    path = LambdaPath.equal_segments([3.0, 7.0, 5.0], 1.7)
    kappa, x10 = 4.2, 6.0
    a1 = classical_action_part(path, kappa, x10, u1)
    a2 = classical_action_part(path, kappa, x10, u2)
    assert math.isclose(a2 - a1, -m2c2 * path.S, rel_tol=1e-12)


def test_classical_part_gradients_match_fd(u10):
    path = LambdaPath.equal_segments([18.0, 22.0], 1.3)
    kappa, x10 = 9.7, 25.0

    def part(p):
        return classical_action_part(p, kappa, x10, u10)

    for j in range(2):
        h = 1e-6 * path.values[j]
        fd = (part(path.with_value(j, path.values[j] + h))
              - part(path.with_value(j, path.values[j] - h))) / (2.0 * h)
        analytic = (-0.5 * path.values[j] + kappa) * path.durations[j]
        assert math.isclose(fd, analytic, rel_tol=1e-7)
    h_s = 1e-6 * path.S
    fd_s = (part(path.scaled_to(path.S + h_s))
            - part(path.scaled_to(path.S - h_s))) / (2.0 * h_s)
    lam = path.values
    analytic_s = float(np.mean(-0.25 * lam * lam - u10.mc ** 2 + kappa * lam))
    assert math.isclose(fd_s, analytic_s, rel_tol=1e-7)


def test_full_action_matches_parameter_form(u10):
    # propagating an eigenstate along a constant path must reproduce the
    # closed-form reduced action at d = lambda / 2, kappa arbitrary
    lam = 2.2 * u10.mc
    g = propagation_grid(25.0, 3000)
    state, _ = grid_eigenstate(1, 0, lam, g, u10)
    S = 0.4
    x10 = 0.9 * lam * S
    kappa = 0.97 * u10.mc
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=x10,
                                 segments=1, u=u10)
    path = LambdaPath.constant(lam, S)
    got = full_action(path, kappa, problem)
    ref = action_value(0.5 * lam, lam, S, kappa, 1, x10, u10).value
    assert abs(got - ref) < 1e-6 * abs(ref)


def test_full_action_finite_for_zero_control(u10, coarse_setup):
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=1.0,
                                 segments=1, u=u10)
    val = full_action(LambdaPath.constant(0.0, 0.05), 1.0, problem)
    assert math.isfinite(val)


def test_full_action_rejects_out_of_bounds_duration(u10, coarse_setup):
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=1, u=u10)
    lo, hi = problem.s_bounds()
    with pytest.raises(ValueError):
        full_action(LambdaPath.constant(20.0, 2.0 * hi), 1.0, problem)


def test_full_action_flags_vanishing_amplitude(u10, coarse_setup):
    g, s1, _ = coarse_setup
    s2, _ = grid_eigenstate(2, 0, 2.0 * u10.mc, g, u10, check_boundaries=False)
    w = g.quad_weights()
    ortho = s2.amplitudes - np.sum(w * np.conj(s1.amplitudes) * s2.amplitudes) \
        * s1.amplitudes
    out = RadialState(g, 0, ortho)
    out = RadialState(g, 0, out.amplitudes / state_norm(out))
    problem = VariationalProblem(phi_in=s1, phi_out=out, x10=1.0, segments=1,
                                 u=u10, S_bounds=(1e-32, 1.0))
    with pytest.raises(PhaseUndefinedError):
        full_action(LambdaPath.constant(2.0 * u10.mc, 1e-30), 1.0, problem)


@pytest.fixture(scope="module")
def pair_problem(u10):
    g = propagation_grid(30.0, 1200)
    state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, g, u10)

    def problem(x10):
        return VariationalProblem(phi_in=state, phi_out=state, x10=x10,
                                  segments=1, u=u10)

    return problem


@pytest.fixture(scope="module")
def optimized_pair(pair_problem):
    return optimize_path(pair_problem(40.0)), optimize_path(pair_problem(80.0))


def test_optimize_single_segment(u10, optimized_pair):
    res, _ = optimized_pair
    ref = stationary_closed_form(1, 40.0, u10)
    assert res.converged
    assert res.residual <= 1e-8
    assert 1 <= res.iterations <= 40
    assert res.path.num_segments == 1
    lam = float(res.path.values[0])
    assert math.isclose(lam, ref.lam, rel_tol=1e-4)
    assert abs(res.path.integral() - 40.0) <= 1e-8 * 40.0
    assert math.isclose(res.kappa, ref.kappa, rel_tol=1e-3)
    assert res.amplitude.phase_valid
    assert math.isfinite(res.action)


def test_optimize_x10_doubling(optimized_pair):
    # lambda is identified only to ~1e-5 at the default residual tolerance
    # (the KKT system is stiff along the constraint manifold), so the scale
    # invariance is asserted at the same 1e-4 level as the closed-form checks
    first, second = optimized_pair
    assert second.converged
    assert math.isclose(second.path.S, 2.0 * first.path.S, rel_tol=1e-4)
    assert math.isclose(float(second.path.values[0]),
                        float(first.path.values[0]), rel_tol=1e-4)


def test_converged_means_residual_within_tol(pair_problem, optimized_pair):
    # the stopping rule is checked after every step, the last allowed one too
    runs = [optimize_path(pair_problem(40.0), max_iters=m) for m in (1, 2)]
    for res in (*runs, optimized_pair[0]):
        assert res.converged == (res.residual <= 1e-8), res.iterations
    assert runs[0].iterations == 1 and not runs[0].converged
    assert runs[1].iterations == 2


def test_one_step_schedule_per_solve(u10, coarse_setup, monkeypatch):
    # the step counts are fixed per problem, so the finite differences of I
    # taken by the solver never straddle a change of discretisation
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=2, u=u10)
    sweep = propagation._cn_sweep
    seen = set()

    def recording(state, path, counts, u, out_conj=None):
        seen.add(tuple(counts))
        return sweep(state, path, counts, u, out_conj)

    monkeypatch.setattr(propagation, "_cn_sweep", recording)
    assert optimize_path(problem).converged
    assert seen == {(problem.steps_per_segment,) * 2}


def test_optimize_argument_validation(u10, coarse_setup):
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=1, u=u10)
    with pytest.raises(ValueError):
        optimize_path(problem, tol=0.0)
    with pytest.raises(ValueError):
        optimize_path(problem, max_iters=0)
    s0 = 40.0 / (2.0 * u10.mc)
    squeezed = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                  segments=1, u=u10,
                                  S_bounds=(2.0 * s0, 3.0 * s0))
    with pytest.raises(ValueError):
        optimize_path(squeezed)  # default start S = s0 is infeasible


def test_problem_validation(u10, coarse_setup):
    g, state, _ = coarse_setup
    with pytest.raises(ValueError):
        VariationalProblem(phi_in=state, phi_out=state, x10=0.0, segments=1, u=u10)
    with pytest.raises(ValueError):
        VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=0, u=u10)
    with pytest.raises(ValueError):
        VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=1,
                           u=u10, S_bounds=(0.5, 0.1))
    # the step schedule is worked out from the problem, not chosen per call
    for knob in ({"steps_per_segment": 100}, {"max_phase_per_step": 0.01}):
        with pytest.raises(TypeError):
            VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=1,
                               u=u10, **knob)


def test_internal_time_map_exact():
    const = LambdaPath.constant(4.0, 3.0)
    assert internal_time_map(const, 1.0) == 1.0 / 4.0
    assert internal_time_map(const, 0.0) == 0.0
    two = LambdaPath(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert internal_time_map(two, 1.0) == 1.0
    assert internal_time_map(two, 2.0) == 1.5
    assert internal_time_map(two, 3.0) == 2.0
    with pytest.raises(ValueError):
        internal_time_map(two, -0.1)
    with pytest.raises(ValueError):
        internal_time_map(two, 3.1)
    signed = LambdaPath(np.array([1.0, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        internal_time_map(signed, 0.5)


def test_internal_time_map_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(20):
        nseg = int(rng.integers(1, 7))
        path = LambdaPath.equal_segments(rng.uniform(0.2, 30.0, size=nseg),
                                         float(rng.uniform(0.1, 4.0)))
        total = path.integral()
        xs = np.sort(rng.uniform(0.0, total, size=12))
        s_prev = -1.0
        for x0 in xs:
            s = internal_time_map(path, float(x0))
            assert s > s_prev  # strictly increasing map
            s_prev = s
            assert abs(path.integral(upto=s) - x0) <= 1e-12 * (1.0 + x0)


def test_lambda_from_trajectory():
    p = lambda_from_trajectory(np.array([0.0, 1.0, 2.0]),
                               np.array([0.0, 3.0, 6.0]))
    assert list(p.breakpoints) == [1.0, 2.0]
    assert list(p.values) == [3.0, 3.0]
    original = LambdaPath(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    s = np.array([0.0, 1.0, 2.0])
    x = np.array([original.integral(upto=v) for v in s])
    recovered = lambda_from_trajectory(s, x)
    assert np.array_equal(recovered.breakpoints, original.breakpoints)
    assert np.array_equal(recovered.values, original.values)


def test_lambda_from_trajectory_validation():
    with pytest.raises(ValueError):
        lambda_from_trajectory(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        lambda_from_trajectory(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        lambda_from_trajectory(np.array([0.1, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        lambda_from_trajectory(np.array([0.0, 1.0, 2.0]),
                               np.array([0.0, 2.0, 1.0]))
