import math

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

import qaction.propagation as propagation
import qaction.variational as variational
from qaction import (
    LambdaPath, PacketDiagnostics, PhaseUndefinedError, QuantumNumbers,
    RadialGrid, RadialState, VariationalProblem, action_value, chi_initial,
    classical_action_part, full_action, grid_eigenstate, internal_time_map,
    lambda_from_trajectory, make_units, numerov_eigenvalue, optimize_path,
    packet_diagnostics, propagation_grid, solve_stationary,
    sommerfeld_nstar_sq, state_norm, stationary_closed_form, transition_amplitude,
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
    out = s1 if n_out == 1 else grid_eigenstate(2, 0, 2.0 * u10.mc, g, u10,
                                                check_boundaries=False)[0]
    problem = VariationalProblem(phi_in=s1, phi_out=out, x10=10.0, segments=3,
                                 u=u10)
    lam = np.array([1.9, 2.05, 2.1]) * u10.mc
    path = LambdaPath.equal_segments(lam, problem.x10 / float(np.mean(lam)))
    amp, record = variational._forward(path, problem)
    assert [ds for ds, _, _, _ in record] == list(path.durations / problem.steps_per_segment)
    dk_dlam, dk_ds = variational._adjoint_sweep(record, out, path, u10)

    def action(p):
        return variational._forward(p, problem)[0].I

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
    assert (2 * len(propagation.PADE22_ROOTS) * ok.steps_per_segment
            <= variational.MAX_SOLVES_PER_RESIDUAL)


def test_stored_bytes_over_budget_rejected_before_any_sweep(u10, monkeypatch):
    # the adjoint sweep reads the forward sweep's states from memory; at
    # x10 = 2000 the schedule's solves fit their budget on either grid, but
    # on 20 000 points the states it would keep do not fit theirs
    def problem(points):
        g = propagation_grid(35.0, points)
        state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, g, u10)
        return lambda: VariationalProblem(phi_in=state, phi_out=state, x10=2000.0,
                                          segments=1, u=u10)

    coarse, fine = problem(1500), problem(20_000)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in ("zgttrf", "zgttrs"):
        monkeypatch.setattr(lapack, name, no_sweep)
    ok = coarse()
    assert (2 * len(propagation.PADE22_ROOTS) * ok.steps_per_segment
            <= variational.MAX_SOLVES_PER_RESIDUAL)
    with pytest.raises(ValueError) as err:
        fine()
    message = str(err.value)
    assert "x10" in message and "bytes" in message
    assert str(variational.MAX_STORED_BYTES) in message


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
    sweep, adjoint = propagation._sweep, variational._adjoint_sweep
    seen = {"forward": set(), "adjoint": set()}

    def forward(state, path, counts, u, roots, out_conj=None, record=None):
        seen["forward"].add((tuple(counts), roots))
        return sweep(state, path, counts, u, roots, out_conj, record)

    def backward(record, phi_out, path, u):
        # a segment's record holds its entering state and one per factor and step
        seen["adjoint"].add((tuple((len(states) - 1) // len(roots)
                                   for _, roots, _, states in record),
                             record[0][1]))
        return adjoint(record, phi_out, path, u)

    monkeypatch.setattr(propagation, "_sweep", forward)
    monkeypatch.setattr(variational, "_adjoint_sweep", backward)
    assert optimize_path(problem).converged
    assert seen == {"forward": {((problem.steps_per_segment,) * 2,
                                 propagation.PADE22_ROOTS)},
                    "adjoint": {((problem.steps_per_segment,) * 2,
                                 propagation.PADE22_ROOTS)}}


@pytest.mark.parametrize("segments", [1, 4])
def test_one_hamiltonian_build_per_segment_per_sweep(u10, coarse_setup,
                                                     monkeypatch, segments):
    # one residual builds H once per segment: the forward sweep's, shared by
    # its unwrap check and both (2,2) roots; the adjoint sweep reads the
    # forward sweep's LU factors and builds none
    _, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=segments, u=u10)
    build, calls = propagation._hamiltonian_tridiag, []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(propagation, "_hamiltonian_tridiag", counting)
    variational._kkt_residual(np.full(segments, 2.0 * u10.mc), problem)
    assert len(calls) == segments


def test_path_too_fast_for_the_schedule_is_refused(u10):
    # the schedule is 10 steps per segment, sized at the start point; this
    # path, inside the S box, would turn the overlap phase more than 0.5 rad
    # per step on its first segment at that count (it needs 15), so it is
    # refused rather than re-stepped, which would make I jump between trials
    state, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, propagation_grid(30.0, 2000), u10)
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=2, u=u10)
    assert problem.steps_per_segment == 10
    path = LambdaPath.equal_segments([5.0 * u10.mc, 0.6 * u10.mc],
                                     40.0 / (2.8 * u10.mc))
    lo, hi = problem.s_bounds()
    assert lo <= path.S <= hi
    for call in (lambda: variational._forward(path, problem),
                 lambda: full_action(path, 1.0, problem)):
        with pytest.raises(RuntimeError, match=r"0\.5 rad .* 10 steps"):
            call()


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


def test_path_search_lambda_deviation_is_mesh_order(u10):
    # with the states prepared at lambda*, what is left of the lambda
    # deviation is the three-point mesh's h^2: doubling the points cuts it
    # about 4-fold (measured 6.1e-6, 1.5e-6, 3.9e-7 relative, ratios 3.99 and 3.96)
    devs = []
    for points in (1000, 2000, 4000):
        lam_star, res = _search_at_level(1, 0, points, u10)
        devs.append(float(np.max(np.abs(res.path.values - lam_star))) / lam_star)
    assert devs[0] >= 3.0 * devs[1] and devs[1] >= 3.0 * devs[2], devs


@pytest.fixture(scope="module")
def counted_solves(u10, coarse_setup):
    """One- and two-segment solves with the LAPACK tridiagonal work they did."""
    g, state, _ = coarse_setup
    runs = []
    for nseg in (1, 2):
        problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                     segments=nseg, u=u10)
        work = {"zgttrf": 0, "zgttrs": 0, "columns": 0}

        def counting(name):
            fn = getattr(lapack, name)

            def wrapped(*args, **kwargs):
                work[name] += 1
                if name == "zgttrs":
                    b = np.asarray(args[5])
                    work["columns"] += 1 if b.ndim == 1 else b.shape[1]
                return fn(*args, **kwargs)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            for name in ("zgttrf", "zgttrs"):
                mp.setattr(lapack, name, counting(name))
            res = optimize_path(problem)
        runs.append((nseg, problem, res, work))
    return runs


def test_optimize_meets_constraint_exactly(counted_solves):
    # S = x10 / mean(lambda) for every trial, so the constraint holds to
    # rounding, not to the Newton tolerance
    for nseg, _, res, _ in counted_solves:
        assert res.converged
        assert abs(res.path.integral() - 40.0) <= 1e-14 * 40.0, nseg


def test_optimize_kappa_matches_closed_form(u10, counted_solves):
    # measured 3.19e-6 from the closed form at N = 1 and 2 on this 500-point grid
    ref = stationary_closed_form(1, 40.0, u10)
    for nseg, _, res, _ in counted_solves:
        assert math.isclose(res.kappa, ref.kappa, rel_tol=2e-5), nseg


def test_optimize_solves_per_step(counted_solves):
    # one residual at the start and one line-search trial per step; each is a
    # forward sweep of N * steps_per_segment (2,2) steps, one single-column
    # solve per Cayley factor, and an adjoint sweep, one per factor (the
    # adjoint state; the states are read from the forward sweep's record),
    # with one factorisation per factor and segment, made forward and reused
    # backward, so the work per residual does not grow with N beyond the
    # schedule. The Jacobian is held fixed, S and kappa are
    # closed forms and the returned amplitude is the last forward sweep's:
    # they add none.
    roots = len(propagation.PADE22_ROOTS)
    for nseg, problem, res, work in counted_solves:
        steps = nseg * problem.steps_per_segment
        residuals = 1 + res.iterations
        assert res.iterations >= 1
        assert work == {"zgttrs": 2 * roots * steps * residuals,
                        "columns": 2 * roots * steps * residuals,
                        "zgttrf": roots * nseg * residuals}, nseg


def test_optimize_amplitude_is_last_forward_sweep(u10, counted_solves):
    for nseg, problem, res, _ in counted_solves:
        amp = variational._forward(res.path, problem)[0]
        for name in ("K", "I", "Q", "norm_drift"):
            assert repr(getattr(res.amplitude, name)) == repr(getattr(amp, name)), name
        assert repr(res.amplitude.path.S) == repr(amp.path.S)
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
    with pytest.raises(ValueError):
        optimize_path(problem, tol=0.0)
    with pytest.raises(ValueError):
        optimize_path(problem, max_iters=0)


NAN = float("nan")
LOG_GRID = RadialGrid(1e-4, 40.0, 2000)


@pytest.mark.parametrize("call", [
    lambda u, p: stationary_closed_form(1, NAN, u),
    lambda u, p: action_value(1.0, 2.0, NAN, 1.0, 1, 1.0, u),
    lambda u, p: action_value(1.0, 2.0, 1.0, 1.0, 1, NAN, u),
    lambda u, p: solve_stationary(1, NAN, u),
    lambda u, p: solve_stationary(1, 1.0, u, tol=NAN),
    lambda u, p: classical_action_part(LambdaPath.constant(1.0, 1.0), 1.0, NAN, u),
    lambda u, p: VariationalProblem(phi_in=p.phi_in, phi_out=p.phi_out, x10=NAN,
                                    segments=1, u=u),
    lambda u, p: optimize_path(p, tol=NAN),
    lambda u, p: propagation_grid(NAN, 100),
    lambda u, p: RadialGrid(NAN, 1.0, 100),
    lambda u, p: RadialGrid(0.1, NAN, 100),
    lambda u, p: PacketDiagnostics(0.0, NAN, 1.0),
    lambda u, p: packet_diagnostics(chi_initial(1.0),
                                    np.append(np.linspace(-6.0, 6.0, 40), NAN)),
    lambda u, p: sommerfeld_nstar_sq(0, 1, NAN),
    lambda u, p: numerov_eigenvalue(QuantumNumbers(1), NAN, LOG_GRID, u),
    lambda u, p: numerov_eigenvalue(QuantumNumbers(1), u.coulomb_momentum,
                                    LOG_GRID, u, tol=NAN),
], ids=["closed_form_x10", "action_S", "action_x10", "solve_x10", "solve_tol",
        "classical_x10", "problem_x10", "optimize_tol", "grid_rmax", "radial_rmin",
        "radial_rmax", "packet_width", "packet_grid", "nstar_alpha",
        "numerov_coupling", "numerov_tol"])
def test_nan_rejected_by_positivity_checks(u10, coarse_setup, call):
    # a check written v <= 0 lets NaN through to the numerics
    g, state, _ = coarse_setup
    problem = VariationalProblem(phi_in=state, phi_out=state, x10=40.0,
                                 segments=1, u=u10)
    with pytest.raises(ValueError):
        call(u10, problem)


def test_problem_validation(u10, coarse_setup):
    g, state, _ = coarse_setup
    with pytest.raises(ValueError):
        VariationalProblem(phi_in=state, phi_out=state, x10=0.0, segments=1, u=u10)
    with pytest.raises(ValueError):
        VariationalProblem(phi_in=state, phi_out=state, x10=1.0, segments=0, u=u10)
    # the step schedule and the S box are worked out from the problem, not
    # chosen per call
    for knob in ({"steps_per_segment": 100}, {"max_phase_per_step": 0.01},
                 {"S_bounds": (0.5, 5.0)}):
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


def test_internal_time_map_total_is_the_running_sum():
    # the reachable total is the last running sum of the segments, which a
    # dot-product integral would miss by an ulp (here 1.1e-16 above); x0 at
    # that total lies in the last segment and maps to its end
    path = LambdaPath.equal_segments([0.3, 0.6, 0.9, 1.2], 1.1)
    total = float(path.cumulative_integral()[-1])
    assert path.integral() == total
    assert math.isclose(internal_time_map(path, total), path.S, rel_tol=1e-15)
    with pytest.raises(ValueError, match="reachable range"):
        internal_time_map(path, total + 1e-12)


def test_internal_time_map_of_the_integral_is_the_duration():
    # path.integral() is the one total of lambda, so it maps back to S on
    # every path (a dot-product total was refused as out of range on 2 395
    # of these 20 000). The map divides the last segment's share of the total
    # by its lambda, so an ulp of the total moves s by up to that ulp over
    # lambda_last: the tolerance scales with mean(lambda) / lambda_last
    # (measured worst 3.3e-16 relative after that scaling)
    rng = np.random.default_rng(0)
    for _ in range(20_000):
        n = int(rng.integers(2, 6))
        path = LambdaPath(np.cumsum(rng.uniform(0.1, 2.0, n)), rng.uniform(0.1, 3.0, n))
        total = path.integral()
        cond = max(1.0, total / (path.S * path.values[-1]))
        assert math.isclose(internal_time_map(path, total), path.S,
                            rel_tol=1e-15 * cond), path


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
