import math

import numpy as np
import pytest

import qaction.propagation as propagation
import qaction.variational as variational
from qaction import (
    LambdaPath, PacketDiagnostics, PhaseUndefinedError, QuantumNumbers,
    RadialGrid, RadialState, VariationalProblem, action_value, chi_initial,
    classical_action_part, full_action, grid_eigenstate, level_comparison,
    make_units, optimize_path, packet_diagnostics, propagation_grid, solve_stationary,
    sommerfeld_nstar_sq, state_norm, stationary_closed_form, transition_amplitude,
)
from conftest import record_calls, truncated_eigenstate
from oracles import numerov_eigenvalue

# the LAPACK module whose routines the package calls, the one to patch
lapack = propagation._lapack()


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
    s2 = truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    ortho = s2.amplitudes - np.sum(g.step * np.conj(s1.amplitudes) * s2.amplitudes) \
        * s1.amplitudes
    out = RadialState(g, 0, ortho)
    out = RadialState(g, 0, out.amplitudes / state_norm(out))
    problem = VariationalProblem(phi_in=s1, phi_out=out, x10=1.0, segments=1,
                                 u=u10)
    with pytest.raises(PhaseUndefinedError):
        full_action(LambdaPath.constant(2.0 * u10.mc, 0.05), 1.0, problem)
    # the same path, S = x10 / lambda = 0.05, as the path search's start residual
    with pytest.raises(PhaseUndefinedError):
        variational._kkt_residual(np.array([2.0 * u10.mc]), problem)


@pytest.mark.parametrize("n_out", [1, 2])
def test_adjoint_gradients_match_central_differences(u10, coarse_setup, n_out):
    # dI/dlambda_j and dI/dS of the residual are exact derivatives of the
    # discrete (2,2) I at the problem's step schedule, so central differences
    # of that I must reproduce them (the difference step's own error is about
    # 1e-7 relative on the 1s -> 2s pair, whose |K| is 2e-3)
    g, s1, _ = coarse_setup
    out = s1 if n_out == 1 else truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    problem = VariationalProblem(phi_in=s1, phi_out=out, x10=10.0, segments=3,
                                 u=u10)
    lam = np.array([1.9, 2.05, 2.1]) * u10.mc
    path = LambdaPath.equal_segments(lam, problem.x10 / float(np.mean(lam)))
    record = []
    amp = variational._forward(path, problem, record)
    assert [ds for ds, _, _, _ in record] == list(path.durations / problem.steps_per_segment)
    dk_dlam, dk_ds = propagation._adjoint_sweep(record, out, path, u10)

    def action(p):
        return variational._forward(p, problem).I

    for j in range(3):
        h = 1e-5 * lam[j]
        fd = (action(path.with_value(j, lam[j] + h))
              - action(path.with_value(j, lam[j] - h))) / (2.0 * h)
        assert math.isclose(-u10.hbar * (dk_dlam[j] / amp.K).imag, fd,
                            rel_tol=1e-6), j
    h = 1e-5 * path.S
    fd = (action(path.scaled_to(path.S + h))
          - action(path.scaled_to(path.S - h))) / (2.0 * h)
    assert math.isclose(-u10.hbar * (dk_ds / amp.K).imag, fd, rel_tol=1e-6)


def test_roundoff_amplitude_at_start_is_flagged(u10):
    # 1s and 2s prepared at lambda = 2 mc are eigenvectors of the start
    # path's generator: K there is roundoff (2.7e-14 on this grid), and the
    # search must refuse it rather than divide an exact gradient by it
    g = propagation_grid(50.0, 1200)
    s1, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, g, u10)
    s2, _ = grid_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    problem = VariationalProblem(phi_in=s1, phi_out=s2, x10=40.0, segments=1,
                                 u=u10)
    with pytest.raises(PhaseUndefinedError):
        optimize_path(problem)


def test_runaway_schedule_rejected_before_any_sweep(u_codata, monkeypatch):
    # steps per residual grow linearly with x10; at x10 = 1e6 the schedule
    # would take hours, so the problem is refused where it is built
    g = propagation_grid(24.0, 600)
    state, _ = grid_eigenstate(1, 0, 2.0 * u_codata.mc, g, u_codata)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in ("zgttrf", "zgttrs"):
        monkeypatch.setattr(lapack, name, no_sweep)
    with pytest.raises(ValueError) as err:
        VariationalProblem(phi_in=state, phi_out=state, x10=1e6, segments=1,
                           u=u_codata)
    message = str(err.value)
    assert "x10" in message
    assert str(variational.MAX_SOLVES_PER_RESIDUAL) in message
    ok = VariationalProblem(phi_in=state, phi_out=state, x10=40.0, segments=1,
                            u=u_codata)
    assert (2 * len(propagation.PADE33_ROOTS) * ok.steps_per_segment
            <= variational.MAX_SOLVES_PER_RESIDUAL)


def test_stored_bytes_over_budget_rejected_before_any_sweep(u10, monkeypatch):
    # the adjoint sweep reads the forward sweep's states from memory; at
    # x10 = 3000 the schedule's solves fit their budget on either grid, but
    # on 20 000 points the states it would keep do not fit theirs
    def problem(points):
        g = propagation_grid(35.0, points)
        state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, g, u10)
        return lambda: VariationalProblem(phi_in=state, phi_out=state, x10=3000.0,
                                          segments=1, u=u10)

    coarse, fine = problem(1500), problem(20_000)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in ("zgttrf", "zgttrs"):
        monkeypatch.setattr(lapack, name, no_sweep)
    ok = coarse()
    assert (2 * len(propagation.PADE33_ROOTS) * ok.steps_per_segment
            <= variational.MAX_SOLVES_PER_RESIDUAL)
    with pytest.raises(ValueError) as err:
        fine()
    message = str(err.value)
    assert "x10" in message and "bytes" in message
    assert str(variational.MAX_STORED_BYTES) in message


def test_schedule_counts_past_the_float_range_are_refused_in_short(u10):
    # x10 = 1.7e308 at a finite rate turns the schedule's phase by inf: once an
    # OverflowError from ceil(inf)
    g = propagation_grid(25.0, 900)
    state = RadialState(g, 0, np.where(np.arange(900) % 2, 1.0, -1.0).astype(complex))
    state = RadialState(g, 0, state.amplitudes / state_norm(state))
    with pytest.raises(ValueError, match=r"x10 = 1\.7e\+308 needs inf tridiagonal solves"):
        VariationalProblem(phi_in=state, phi_out=state, x10=1.7e308, segments=1, u=u10)
    # a count is printed whole up to 16 digits, past them in four, never through a float
    count = propagation._count
    assert [count(12), count(11.2), count(10 ** 16 - 1), count(math.inf)] == [
        "12", "12", "9999999999999999", "inf"]
    assert count(10 ** 16) == "1.000e+16" and count(123456789 * 10 ** 400) == "1.234e+408"


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
    # kappa c is the level energy; measured 8.0e-7 from the closed form here
    assert math.isclose(res.kappa, ref.kappa, rel_tol=5e-6)
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
    # the step counts are fixed per problem, so the I whose exact gradient
    # the solver takes is one smooth function of the unknowns
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=2, u=u10)
    forward = record_calls(monkeypatch, propagation, "_sweep")
    backward = record_calls(monkeypatch, variational, "_adjoint_sweep")
    assert optimize_path(problem).converged
    assert all(args[5] is None for args in forward)  # no cap: exactly steps a segment
    # a segment's record holds its entering state and one per factor and step
    seen = {"forward": {((steps,) * path.num_segments, roots)
                        for _, path, steps, _, roots, *_ in forward},
            "adjoint": {(tuple((len(states) - 1) // len(roots)
                               for _, roots, _, states in record), record[0][1])
                        for record, *_ in backward}}
    assert seen == {"forward": {((problem.steps_per_segment,) * 2,
                                 propagation.PADE33_ROOTS)},
                    "adjoint": {((problem.steps_per_segment,) * 2,
                                 propagation.PADE33_ROOTS)}}


@pytest.mark.parametrize("segments", [1, 4])
def test_one_hamiltonian_build_per_segment_per_sweep(u10, coarse_setup,
                                                     monkeypatch, segments):
    # one residual builds H once per segment: the forward sweep's, shared by
    # its unwrap check and all three (3,3) roots; the adjoint sweep reads the
    # forward sweep's LU factors and builds none. transition_amplitude's
    # sweep sizes each segment's Crank-Nicolson count from the same H
    _, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=segments, u=u10)
    calls = record_calls(monkeypatch, propagation, "_hamiltonian_tridiag")
    variational._kkt_residual(np.full(segments, 2.0 * u10.mc), problem)
    assert len(calls) == segments
    calls.clear()
    path = LambdaPath.equal_segments([2.0 * u10.mc] * segments, 40.0 / (2.0 * u10.mc))
    transition_amplitude(state, state, path, u10)
    assert len(calls) == segments


def test_path_too_fast_for_the_schedule_is_refused(u10):
    # the schedule is 3 steps per segment, sized at lambda = 2 m c; this
    # path, inside the S box, would turn the overlap phase more than 0.5 rad
    # per step on its first segment at that count (it needs 15), so it is
    # refused rather than re-stepped, which would make I jump between trials
    state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, propagation_grid(30.0, 2000), u10)
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=2, u=u10)
    assert problem.steps_per_segment == 3
    path = LambdaPath.equal_segments([5.0 * u10.mc, 0.6 * u10.mc],
                                     40.0 / (2.8 * u10.mc))
    lo, hi = problem.s_bounds()
    assert lo <= path.S <= hi
    for call in (lambda: variational._forward(path, problem),
                 lambda: full_action(path, 1.0, problem)):
        with pytest.raises(RuntimeError, match=r"0\.5 rad .* 3 steps \(it needs 15\)"):
            call()


def test_pade33_constants_and_the_schedule_they_size(u10):
    # each literal root solves 1 + z/2 + z^2/10 + z^3/120 = 0 to a few ulp;
    # they are one conjugate pair and one real root
    pair, real = propagation.PADE33_ROOTS[:2], propagation.PADE33_ROOTS[2]
    for z in propagation.PADE33_ROOTS:
        assert abs(1.0 + z / 2.0 + z * z / 10.0 + z ** 3 / 120.0) <= 4.0 * np.finfo(float).eps, z
    assert pair[0] == pair[1].conjugate() and pair[0].imag > 0.0
    assert isinstance(real, float) and real < 0.0
    # the step is within the accuracy target, x^6 / 100 800 per radian, and
    # under the unwrap limit
    assert variational.STEP_PHASE <= (100_800 * variational.PHASE_ERROR) ** (1.0 / 6.0)
    assert variational.STEP_PHASE <= propagation.UNWRAP_PHASE
    # on the converged acceptance-07 paths every segment's entering state
    # turns the overlap phase less than UNWRAP_PHASE per step at the schedule
    state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, propagation_grid(30.0, 2000), u10)
    schedule = []
    for nseg in (1, 4, 8):
        problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                     segments=nseg, u=u10)
        res = optimize_path(problem)
        assert res.converged
        record = []
        variational._forward(res.path, problem, record)
        for (_, _, _, states), lam, dur in zip(record, res.path.values, res.path.durations):
            ham = propagation._hamiltonian_tridiag(state.grid, 0, lam, u10)
            turn = dur * propagation._energy_moments(states[0], *ham)[1] / u10.hbar
            assert turn / propagation.UNWRAP_PHASE < problem.steps_per_segment, (nseg, turn)
        schedule.append(problem.steps_per_segment)
    assert schedule == [5, 2, 1]


def test_start_is_the_levels_stationary_lambda(u10):
    # the acceptance-07 state's energy at lambda = 2 m c is its discrete
    # level's, so the search starts at that level's lambda* (2.8e-7 below the
    # closed form's here), whatever the segment count
    state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, propagation_grid(30.0, 2000), u10)
    ref = stationary_closed_form(1, 40.0, u10).lam / u10.mc
    for nseg in (1, 4):
        problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                     segments=nseg, u=u10)
        assert math.isclose(problem.start, ref, rel_tol=1e-6), nseg
    # an equal state built apart counts as the same one
    twin = RadialState(state.grid, 0, state.amplitudes.copy())
    assert VariationalProblem(phi_in=state, phi_out=twin, x10=40.0, segments=1,
                              u=u10).start == problem.start


def test_start_stays_classical_between_different_states(u10, coarse_setup):
    # no one level to start at: another level, or the same amplitudes at another l
    g, s1, _ = coarse_setup
    s2 = truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    for phi_in, phi_out in ((s1, s2), (s2, s1), (s1, RadialState(g, 1, s1.amplitudes))):
        problem = VariationalProblem(phi_in=phi_in, phi_out=phi_out, x10=40.0,
                                     segments=1, u=u10)
        assert problem.start == 2.0


def test_start_stays_classical_when_the_level_leaves_the_s_box(u10):
    # a fast packet, <H>/(mc)^2 = 33.6 > 24: its level's lambda* = 2 mc / sqrt(34.6)
    # would stretch S past 5 x10 / (2 m c), so the search starts at 2
    g = propagation_grid(30.0, 2000)
    r = g.points()
    packet = RadialState(g, 0, np.exp(-0.5 * (r - 10.0) ** 2) * np.sin(60.0 * r))
    problem = VariationalProblem(phi_in=packet, phi_out=packet, x10=0.1,
                                 segments=1, u=u10)
    ham = propagation._hamiltonian_tridiag(g, 0, 2.0 * u10.mc, u10)
    mean, _ = propagation._energy_moments(np.asarray(packet.amplitudes), *ham)
    assert mean / u10.mc ** 2 > 24.0
    assert problem.start == 2.0


def _search_at_level(n, l, points, u):
    """N = 4 path search at x10 = 40 between (n, l) states prepared at lambda*_n,
    on r_max = 40 n; returns lambda*_n and the solution."""
    lam_star = 2.0 * u.mc / math.sqrt(1.0 - (u.alpha / n) ** 2)
    phi, _ = grid_eigenstate(n, l, lam_star, propagation_grid(40.0 * n, points), u)
    res = optimize_path(VariationalProblem(phi_in=phi, phi_out=phi, x10=40.0,
                                           segments=4, u=u))
    assert res.converged
    return lam_star, res


@pytest.mark.parametrize("alpha", [0.1, 0.0072973525693])
def test_path_search_gives_the_paper_spectrum(alpha):
    # kappa c at the path search's stationary point is the paper's level
    # m c^2 sqrt(1 - alpha^2 / n^2), for every l. The deviation is the mesh's
    # h^2, about 1e-4 of the binding energy at 2000 n points (measured
    # 1.02e-4 for 1s at both alphas, 8.3e-6 to 2.5e-5 for n = 2, 3). At
    # alpha = 0.1 that is well inside the Sommerfeld splitting alpha^4 mc^2 / 32
    # (worst 5.1e-7 of mc^2 against 3.1e-6); at CODATA alpha the 1s and 2s
    # deviations (2.7e-9, 1.7e-10) exceed the splitting (8.9e-11), so only
    # the binding-energy bound applies there
    u = make_units(alpha)
    for n in (1, 2, 3):
        level = u.rest_energy * math.sqrt(1.0 - (alpha / n) ** 2)
        for l in range(n):
            _, res = _search_at_level(n, l, 2000 * n, u)
            dev = abs(res.kappa * u.c - level)
            assert dev <= 2e-4 * (u.rest_energy - level), (n, l)
            if alpha == 0.1:
                assert dev <= alpha ** 4 / 32.0 / 4.0 * u.rest_energy, (n, l)


def test_path_search_resolves_sommerfeld_at_codata_alpha(u_codata):
    # at the physical alpha the raw h^2 deviation of kappa c exceeds the
    # Sommerfeld splitting, but it falls 4-fold per doubling of the points
    # (measured 3.998 to 4.000), so Richardson's (4 k(h/2) - k(h)) / 3 from
    # 2000 n and 4000 n points leaves the paper's level m c^2 sqrt(1 -
    # alpha^2 / n^2) alone: measured at most 4.6e-13 m c^2 (1s) against
    # quarter-splittings of 2.2e-11 (n = 1, alpha^4 m c^2 / 128), 2.2e-11
    # (n = 2) and 2.2e-12 (n = 3)
    u = u_codata
    for n in (1, 2, 3):
        comparison = level_comparison(n, u)
        gaps = [abs(row.difference) for row in comparison.comparisons if row.difference != 0.0]
        bound = min(gaps) / 4.0 if gaps else u.alpha ** 4 * u.rest_energy / 128.0
        for l in range(n):
            coarse, fine = (_search_at_level(n, l, points * n, u)[1].kappa * u.c
                            for points in (2000, 4000))
            dev_coarse, dev_fine = coarse - comparison.energy, fine - comparison.energy
            assert abs(dev_coarse) >= 3.0 * abs(dev_fine), (n, l, dev_coarse, dev_fine)
            assert abs((4.0 * fine - coarse) / 3.0 - comparison.energy) <= bound, (n, l)


def test_path_search_lambda_deviation_is_mesh_order(u10):
    # with the states prepared at lambda*, what is left of the lambda
    # deviation is the three-point mesh's h^2: doubling the points cuts it
    # about 4-fold (measured 6.1e-6, 1.5e-6, 3.9e-7 relative, ratios 3.99 and 3.96)
    devs = []
    for points in (1000, 2000, 4000):
        lam_star, res = _search_at_level(1, 0, points, u10)
        devs.append(float(np.max(np.abs(res.path.values - lam_star))) / lam_star)
    assert devs[0] >= 3.0 * devs[1] and devs[1] >= 3.0 * devs[2], devs


def test_prepared_state_shift_of_the_extrapolated_kappa(u10):
    # 1s, N = 1, x10 = 40, r_max 24 on 1200 and 2400 points. Boundary states
    # prepared at 2 m c (optimize's default --prep-lam-mc) are not eigenstates
    # of the stationary lambda's generator: Richardson's (4 k(h/2) - k(h)) / 3
    # leaves kappa -2.7855e-8 relative from the closed form (measured), a shift
    # that r_max, tol and the time step do not move. Prepared at lambda* it
    # leaves 5.19e-10, and the raw error falls 3.988-fold per halving of h
    ref = stationary_closed_form(1, 40.0, u10)

    def searches(prep):
        """kappa's relative errors at h and h/2, their Richardson value, chord steps."""
        runs = [optimize_path(VariationalProblem(
            phi_in=phi, phi_out=phi, x10=40.0, segments=1, u=u10))
            for phi, _ in (grid_eigenstate(1, 0, prep, propagation_grid(24.0, points), u10)
                           for points in (1200, 2400))]
        assert all(res.converged for res in runs)
        coarse, fine = (res.kappa for res in runs)
        return (coarse / ref.kappa - 1.0, fine / ref.kappa - 1.0,
                (4.0 * fine - coarse) / 3.0 / ref.kappa - 1.0, [res.iterations for res in runs])

    _, _, shift, iterations = searches(2.0 * u10.mc)
    assert -3.0e-8 <= shift <= -2.6e-8 and iterations == [2, 2]
    coarse, fine, rest, iterations = searches(ref.lam)
    assert abs(rest) <= 1e-9 and iterations == [1, 1]
    assert coarse / fine == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("n, l, r_max, points", [
    (1, 0, 24.0, 1200), (2, 0, 60.0, 1500), (2, 1, 48.0, 1200),
    (3, 0, 100.0, 1500), (3, 1, 100.0, 1500), (3, 2, 100.0, 1500),
], ids=["1s", "2s", "2p", "3s", "3p", "3d"])
def test_path_search_spectrum_table(u10, n, l, r_max, points):
    # the paper's spectrum from the path search (alpha = 0.1, x10 = 40, N = 1,
    # states prepared at lambda*): kappa's error against the closed form is
    # the mesh's h^2 (measured ratios 3.988 to 4.012 per halving of h), so
    # Richardson leaves the closed form alone, measured 4.6e-12 (3d) to
    # 5.2e-10 (1s) relative
    ref = stationary_closed_form(n, 40.0, u10)
    errors = []
    for m in (points, 2 * points):
        phi, _ = grid_eigenstate(n, l, ref.lam, propagation_grid(r_max, m), u10)
        res = optimize_path(VariationalProblem(phi_in=phi, phi_out=phi, x10=40.0,
                                               segments=1, u=u10))
        assert res.converged
        errors.append(res.kappa / ref.kappa - 1.0)
    coarse, fine = errors
    assert coarse / fine == pytest.approx(4.0, abs=0.3)
    assert abs((4.0 * fine - coarse) / 3.0) <= 1e-9


@pytest.fixture(scope="module")
def counted_solves(u10, coarse_setup):
    """One- and two-segment solves on the coarse grid, then N = 1 and 4 on the
    acceptance-07 problem, with the LAPACK tridiagonal work they did."""
    _, coarse, _ = coarse_setup
    fine, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, propagation_grid(30.0, 2000), u10)
    runs = []
    for state, nseg in ((coarse, 1), (coarse, 2), (fine, 1), (fine, 4)):
        problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                     segments=nseg, u=u10)
        with pytest.MonkeyPatch.context() as mp:
            factored = record_calls(mp, lapack, "zgttrf")
            solved = record_calls(mp, lapack, "zgttrs")
            res = optimize_path(problem)
        work = {"zgttrf": len(factored), "zgttrs": len(solved),
                "columns": sum(np.size(b) // len(b) for *_, b in solved)}
        runs.append((nseg, problem, res, work))
    return runs


def test_optimize_meets_constraint_exactly(counted_solves):
    # S = x10 / mean(lambda) for every trial, so the constraint holds to
    # rounding, not to the Newton tolerance
    for nseg, _, res, _ in counted_solves:
        assert res.converged
        assert abs(res.path.integral() - 40.0) <= 1e-14 * 40.0, nseg


def test_optimize_kappa_matches_closed_form(u10, counted_solves):
    # measured 3.16e-6 from the closed form on the 500-point grid, 2.6e-7 on 2000
    ref = stationary_closed_form(1, 40.0, u10)
    for nseg, _, res, _ in counted_solves:
        assert math.isclose(res.kappa, ref.kappa, rel_tol=2e-5), nseg


def test_optimize_solves_per_step(counted_solves):
    # one residual at the start and one line-search trial per step; each is a
    # forward sweep of N * steps_per_segment (3,3) steps, one single-column
    # solve per Cayley factor, and an adjoint sweep, one per factor (the
    # adjoint state; the states are read from the forward sweep's record),
    # with one factorisation per factor and segment, made forward and reused
    # backward, so the work per residual does not grow with N beyond the
    # schedule. The Jacobian is held fixed, S and kappa are
    # closed forms and the returned amplitude is the last forward sweep's:
    # they add none.
    roots = len(propagation.PADE33_ROOTS)
    for nseg, problem, res, work in counted_solves:
        steps = nseg * problem.steps_per_segment
        residuals = 1 + res.iterations
        assert res.iterations >= 1
        assert work == {"zgttrs": 2 * roots * steps * residuals,
                        "columns": 2 * roots * steps * residuals,
                        "zgttrf": roots * nseg * residuals}, nseg
    # N = 1 and 4 on the acceptance-07 problem, gated at 400 solves at N = 4
    # (from problem.start, one chord step fewer than from lambda = 2 m c)
    fine = [(nseg, work["zgttrs"], work["zgttrf"], res.iterations)
            for nseg, _, res, work in counted_solves[2:]]
    assert fine == [(1, 90, 9, 2), (4, 144, 36, 2)] and fine[1][1] <= 400


def test_record_price_is_what_a_residual_keeps_and_solves(counted_solves):
    # propagation._record_price is the one count of a residual's record: on
    # the acceptance-07 problem its bytes are those of the distinct arrays a
    # recorded forward sweep holds (a segment's entering state is its
    # predecessor's last), pivots included, and its solves are the zgttrs
    # calls per residual counted above
    priced = []
    for nseg, problem, res, work in counted_solves[2:]:
        record = []
        variational._forward(res.path, problem, record)
        held = {id(a): a.nbytes for _, _, lus, states in record
                for a in (*(v for lu in lus for v in lu), *states)}
        solves, stored = propagation._record_price(
            problem.phi_in.grid.num_points, nseg, problem.steps_per_segment,
            propagation.PADE33_ROOTS)
        assert stored == sum(held.values()), nseg
        assert solves * (1 + res.iterations) == work["zgttrs"], nseg
        priced.append((nseg, solves, stored))
    assert priced == [(1, 30, 919_808), (4, 48, 2_431_232)]


def test_full_action_keeps_no_record(u10, coarse_setup, monkeypatch):
    # full_action reads only I, so its sweep records nothing; the residual,
    # whose adjoint reads the record, is the one caller that keeps one.
    # record_calls keeps positional arguments, and _transition hands its
    # record on to _sweep as the eighth
    _, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=2, u=u10)
    sweeps = record_calls(monkeypatch, propagation, "_sweep")
    lam = np.full(2, 2.0 * u10.mc)
    full_action(LambdaPath.equal_segments(lam, 40.0 / (2.0 * u10.mc)), 1.0, problem)
    variational._kkt_residual(lam, problem)
    kept_by_action, kept_by_residual = (args[7] for args in sweeps)
    assert kept_by_action is None and isinstance(kept_by_residual, list)


def test_optimize_amplitude_is_last_forward_sweep(u10, counted_solves):
    for nseg, problem, res, _ in counted_solves:
        amp = variational._forward(res.path, problem)
        for name in ("K", "I", "Q", "norm_drift"):
            assert repr(getattr(res.amplitude, name)) == repr(getattr(amp, name)), name
        # the path is the accepted trial's, whose S meets the constraint
        trial = LambdaPath.equal_segments(res.path.values,
                                          40.0 / float(np.mean(res.path.values)))
        assert repr(res.path.S) == repr(trial.S)
        assert res.action == classical_action_part(res.path, res.kappa, 40.0, u10) + amp.I


@pytest.mark.parametrize("nseg", [1, 2])
def test_kkt_jacobian_near_classical_hessian(u10, coarse_setup, nseg):
    # the premise of the chord iteration: at the start point the Jacobian of
    # the scaled lambda rows is -I/2 up to O(alpha^2) from kappa and I
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=nseg, u=u10)
    mc = u10.mc
    z = np.full(nseg, 2.0)
    r0 = variational._kkt_residual(z * mc, problem)[0]
    jac = np.empty((nseg, nseg))
    dz = 1e-6 * z
    for k in range(nseg):
        zp = z.copy()
        zp[k] += dz[k]
        jac[:, k] = (variational._kkt_residual(zp * mc, problem)[0] - r0) / dz[k]
    assert np.max(np.abs(jac + 0.5 * np.eye(nseg))) <= 0.01


def test_optimize_argument_validation(u10, coarse_setup):
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=1, u=u10)
    for tol in (0.0, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            optimize_path(problem, tol=tol)
    for max_iters in (0, 2.5):
        with pytest.raises(ValueError, match="max_iters must be a whole number"):
            optimize_path(problem, max_iters=max_iters)


NAN = float("nan")
LOG_MESH = (1e-4, 40.0, 2000)  # numerov_eigenvalue's r_min, r_max, points


@pytest.mark.parametrize("call", [
    lambda u, p: stationary_closed_form(1, NAN, u),
    lambda u, p: action_value(1.0, 2.0, NAN, 1.0, 1, 1.0, u),
    lambda u, p: action_value(1.0, 2.0, 1.0, 1.0, 1, NAN, u),
    lambda u, p: action_value(1.0, 2.0, 1.0, 1.0, 1, math.inf, u),
    lambda u, p: solve_stationary(1, NAN, u),
    lambda u, p: solve_stationary(1, 1.0, u, tol=NAN),
    lambda u, p: classical_action_part(LambdaPath.constant(1.0, 1.0), 1.0, NAN, u),
    lambda u, p: classical_action_part(LambdaPath.constant(1.0, 1.0), 1.0, math.inf, u),
    lambda u, p: VariationalProblem(phi_in=p.phi_in, phi_out=p.phi_out, x10=NAN,
                                    segments=1, u=u),
    lambda u, p: optimize_path(p, tol=NAN),
    lambda u, p: propagation_grid(NAN, 100),
    lambda u, p: RadialGrid(NAN, 100),
    lambda u, p: PacketDiagnostics(0.0, NAN, 1.0),
    lambda u, p: packet_diagnostics(chi_initial(1.0),
                                    np.append(np.linspace(-6.0, 6.0, 40), NAN)),
    lambda u, p: sommerfeld_nstar_sq(0, 1, NAN),
    lambda u, p: numerov_eigenvalue(QuantumNumbers(1), NAN, *LOG_MESH, u),
    lambda u, p: numerov_eigenvalue(QuantumNumbers(1), u.coulomb_momentum,
                                    NAN, 40.0, 2000, u),
    lambda u, p: numerov_eigenvalue(QuantumNumbers(1), u.coulomb_momentum,
                                    1e-4, NAN, 2000, u),
], ids=["closed_form_x10", "action_S", "action_x10", "action_x10_inf", "solve_x10",
        "solve_tol", "classical_x10", "classical_x10_inf", "problem_x10", "optimize_tol",
        "grid_rmax", "radial_rmax", "packet_width", "packet_grid",
        "nstar_alpha", "numerov_coupling", "numerov_rmin", "numerov_rmax"])
def test_nan_rejected_by_positivity_checks(u10, coarse_setup, call):
    # a check written v <= 0 lets NaN through to the numerics, and one written
    # not v > 0 lets x10 = inf through (action -inf)
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=1, u=u10)
    with pytest.raises(ValueError):
        call(u10, problem)


def test_problem_validation(u10, coarse_setup):
    g, state, _ = coarse_setup
    for x10 in (0.0, math.inf):
        with pytest.raises(ValueError, match="x10 must be positive and finite"):
            VariationalProblem(phi_in=state, phi_out=state, x10=x10, segments=1, u=u10)
    with pytest.raises(ValueError):
        VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=0, u=u10)
    with pytest.raises(ValueError, match="whole number"):
        VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=2.0, u=u10)
    # the step schedule and the S box are worked out from the problem, not
    # chosen per call
    for knob in ({"steps_per_segment": 100}, {"max_phase_per_step": 0.01},
                 {"S_bounds": (0.5, 5.0)}):
        with pytest.raises(TypeError):
            VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=1,
                               u=u10, **knob)
