import cmath
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack as lapack
from scipy.linalg import eigh_tridiagonal

from qaction import (
    BoundaryReflectionError, LambdaPath, RadialGrid, RadialState,
    TransitionAmplitude, evolve, evolve_spectral, grid_eigenstate,
    propagation_grid, state_norm, transition_amplitude, transition_probability,
)
from qaction.propagation import (CN_ROOTS, PADE22_ROOTS, _hamiltonian_tridiag,
                                 _sweep, _transition)
from qaction.spectrum import LOG, UNIFORM


def _eigenpair(n, l, lam_mc, grid, u, **kw):
    return grid_eigenstate(n, l, lam_mc * u.mc, grid, u, **kw)


def test_propagation_grid_geometry():
    g = propagation_grid(40.0, 2000)
    assert g.spacing == "uniform"
    assert math.isclose(g.step, g.r_min, rel_tol=1e-14)
    r = g.points()
    assert r[0] == g.r_min
    assert r[-1] == 40.0
    with pytest.raises(ValueError):
        propagation_grid(-1.0, 100)
    with pytest.raises(ValueError):
        propagation_grid(10.0, 8)


def test_grid_eigenstate_levels(u10):
    g = propagation_grid(40.0, 2000)
    state1, eps1 = _eigenpair(1, 0, 2.0, g, u10)
    assert math.isclose(eps1, 1.0, rel_tol=3e-4)
    assert abs(state_norm(state1) - 1.0) < 1e-12
    assert np.max(np.real(state1.amplitudes)) > 0.0
    assert np.all(state1.amplitudes.imag == 0.0)
    g2 = propagation_grid(60.0, 2400)
    state2, eps2 = _eigenpair(2, 1, 2.0, g2, u10)
    assert math.isclose(eps2, 0.25, rel_tol=3e-4)
    assert state2.l == 1


def test_grid_eigenstate_validation(u10):
    g = propagation_grid(30.0, 600)
    with pytest.raises(ValueError):
        grid_eigenstate(0, 0, 20.0, g, u10)
    with pytest.raises(ValueError):
        grid_eigenstate(2, 2, 20.0, g, u10)
    with pytest.raises(ValueError):
        grid_eigenstate(1, 0, 0.0, g, u10)


def test_grid_eigenstate_boundary_guards(u10):
    # 2s leaks onto a 12 bohr box: refuse unless the caller opts out
    tight = propagation_grid(12.0, 600)
    with pytest.raises(RuntimeError):
        _eigenpair(2, 0, 2.0, tight, u10)
    state, eps = _eigenpair(2, 0, 2.0, tight, u10, check_boundaries=False)
    assert eps > 0.0
    # a 200 mc control squeezes the state below the first mesh cell
    g = propagation_grid(30.0, 1500)
    with pytest.raises(RuntimeError):
        _eigenpair(1, 0, 200.0, g, u10)
    # a feeble control has no bound level inside a 10 bohr box
    small = propagation_grid(10.0, 500)
    with pytest.raises(RuntimeError):
        _eigenpair(1, 0, 0.001, small, u10)


def test_evolve_eigenstate_pure_phase(u10):
    g = propagation_grid(25.0, 1200)
    state, eps = _eigenpair(1, 0, 2.0, g, u10)
    S, steps = 0.4, 400
    ds = S / steps
    final = evolve(state, LambdaPath.constant(2.0 * u10.mc, S), steps, u10)
    # Cayley stepping turns an eigenstate by exactly -2 atan(eps ds / 2 hbar) per step
    phase = -2.0 * steps * math.atan(eps * ds / (2.0 * u10.hbar))
    predicted = state.amplitudes * cmath.exp(1j * phase)
    assert np.max(np.abs(final.amplitudes - predicted)) < 1e-9
    assert abs(state_norm(final) - 1.0) < 1e-12


def test_evolve_identity_at_tiny_duration(u10):
    g = propagation_grid(25.0, 800)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    final = evolve(state, LambdaPath.constant(2.0 * u10.mc, 1e-30), 5, u10)
    assert np.max(np.abs(final.amplitudes - state.amplitudes)) < 1e-12


def test_evolve_norm_conservation(u10):
    g = propagation_grid(40.0, 1300)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s2, _ = _eigenpair(2, 0, 2.0, g, u10, check_boundaries=False)
    mix = s1.amplitudes + 0.3 * s2.amplitudes
    state = RadialState(g, 0, mix)
    state = RadialState(g, 0, state.amplitudes / state_norm(state))
    path = LambdaPath.equal_segments([2.0 * u10.mc, 1.7 * u10.mc], 0.6)
    final = evolve(state, path, 300, u10)
    assert abs(state_norm(final) - 1.0) < 1e-12


def test_evolve_detects_wall_reflection(u10):
    g = propagation_grid(25.0, 900)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    # flipping the control sign makes the potential repulsive: the packet
    # blows outward and must be caught at the wall rather than echoed
    with pytest.raises(BoundaryReflectionError):
        evolve(state, LambdaPath.constant(-2.0 * u10.mc, 9.0), 2000, u10)


@pytest.mark.parametrize("path", [
    LambdaPath.constant(0.0, 2.5),
    LambdaPath(np.array([1.25, 2.5]), np.array([0.0, 0.0])),
], ids=["one-segment", "two-segments"])
def test_reflection_detected_inside_segment(u10, path):
    # a free packet moving outward hits the wall and is back near r = 20 by
    # s = 2.5, so a check at segment ends alone would miss the echo
    g = propagation_grid(40.0, 1600)
    r = g.points()
    packet = RadialState(g, 0, np.exp(-(r - 20.0) ** 2 / 18.0 - 8j * r))
    packet = RadialState(g, 0, packet.amplitudes / state_norm(packet))
    with pytest.raises(BoundaryReflectionError):
        evolve(packet, path, 800, u10)
    with pytest.raises(BoundaryReflectionError):
        transition_amplitude(packet, packet, path, u10, steps_per_segment=800)


def test_grid_eigenstate_sign_is_fixed(u10, monkeypatch):
    # eigh_tridiagonal may return either sign of an eigenvector; the state
    # is the same for both, with its largest sample positive
    g = propagation_grid(25.0, 800)
    state, eps = _eigenpair(1, 0, 2.0, g, u10)
    solve = scipy.linalg.eigh_tridiagonal

    def negated(*args, **kwargs):
        w, v = solve(*args, **kwargs)
        return w, -v

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", negated)
    flipped, eps_flipped = _eigenpair(1, 0, 2.0, g, u10)
    assert eps_flipped == eps
    np.testing.assert_array_equal(flipped.amplitudes, state.amplitudes)
    assert state.amplitudes[np.argmax(np.abs(state.amplitudes))].real > 0.0


def test_evolve_rejects_bad_input(u10):
    g = propagation_grid(25.0, 800)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    with pytest.raises(ValueError):
        evolve(state, LambdaPath.constant(2.0 * u10.mc, 1.0), 0, u10)
    log_grid = RadialGrid(r_min=1e-4, r_max=25.0, num_points=800, spacing=LOG)
    amps = np.exp(-log_grid.points())
    rough = RadialState(log_grid, 0, amps)
    rough = RadialState(log_grid, 0, rough.amplitudes / state_norm(rough))
    with pytest.raises(ValueError):
        evolve(rough, LambdaPath.constant(2.0 * u10.mc, 1.0), 10, u10)


@pytest.mark.parametrize("grid", [
    # uniform, but r_min = 0.5 is ten steps from the wall the operator assumes:
    # the spacing-only check let grid_eigenstate return epsilon_1 = 0.509 on
    # it, where propagation_grid(30, 600) gives 0.9994
    RadialGrid(r_min=0.5, r_max=30.0, num_points=600, spacing=UNIFORM),
    RadialGrid(r_min=1e-4, r_max=30.0, num_points=600, spacing=LOG),
], ids=["uniform_r_min_0.5", "log"])
@pytest.mark.parametrize("call", [
    lambda s, path, u: grid_eigenstate(1, 0, 2.0 * u.mc, s.grid, u),
    lambda s, path, u: evolve(s, path, 10, u),
    lambda s, path, u: transition_amplitude(s, s, path, u),
], ids=["grid_eigenstate", "evolve", "transition_amplitude"])
def test_grid_not_walled_at_origin_is_refused(u10, grid, call):
    state = RadialState(grid, 0, grid.points() * np.exp(-grid.points()))
    state = RadialState(grid, 0, state.amplitudes / state_norm(state))
    path = LambdaPath.constant(2.0 * u10.mc, 0.1)
    with pytest.raises(ValueError, match="walled at r = 0"):
        call(state, path, u10)


@pytest.mark.parametrize("floor", [0, -5])
def test_transition_amplitude_refuses_floor_below_one(u10, floor):
    g = propagation_grid(25.0, 900)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    with pytest.raises(ValueError, match="need at least one step per segment"):
        transition_amplitude(state, state, LambdaPath.constant(2.0 * u10.mc, 0.1),
                             u10, steps_per_segment=floor)


def test_transition_amplitude_same_state_short(u10):
    g = propagation_grid(25.0, 900)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.constant(2.0 * u10.mc, 1e-30)
    amp = transition_amplitude(state, state, path, u10, steps_per_segment=3)
    assert abs(amp.K - 1.0) < 1e-13
    assert abs(amp.I) < 1e-12
    assert abs(amp.Q) < 1e-14
    assert amp.phase_valid
    assert amp.norm_drift < 1e-13
    assert amp.path is path


def test_transition_amplitude_eigenstate_phase(u10):
    g = propagation_grid(25.0, 2000)
    state, eps = _eigenpair(1, 0, 2.0, g, u10)
    S = 0.5
    amp = transition_amplitude(state, state, LambdaPath.constant(2.0 * u10.mc, S),
                               u10, steps_per_segment=1000)
    assert abs(amp.I - eps * S) < 1e-7          # action phase = level * duration
    assert abs(amp.I - 1.0 * S) < 5e-5          # discrete level is h^2-close to exact
    assert amp.Q <= 0.0
    assert amp.norm_drift < 1e-12
    recon = cmath.exp(amp.I / (1j * u10.hbar) + amp.Q)
    assert abs(recon - amp.K) < 1e-12
    assert 0.0 <= transition_probability(amp) <= 1.0


def test_phase_unwraps_beyond_principal_branch(u10):
    g = propagation_grid(25.0, 1000)
    state, eps = _eigenpair(1, 0, 2.0, g, u10)
    S = 10.0  # phase winds past 3 full turns; a principal-branch result would be ~ -2.5
    amp = transition_amplitude(state, state, LambdaPath.constant(2.0 * u10.mc, S),
                               u10, steps_per_segment=5000)
    assert abs(amp.I - eps * S) < 1e-4
    assert amp.I > 9.9


def test_flagged_when_overlap_vanishes(u10):
    g = propagation_grid(30.0, 1200)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s2, _ = _eigenpair(2, 0, 2.0, g, u10, check_boundaries=False)
    # orthogonalize exactly so |K| sits at the numerical floor
    w = g.quad_weights()
    overlap = np.sum(w * np.conj(s1.amplitudes) * s2.amplitudes)
    ortho = s2.amplitudes - overlap * s1.amplitudes
    out = RadialState(g, 0, ortho)
    out = RadialState(g, 0, out.amplitudes / state_norm(out))
    amp = transition_amplitude(s1, out, LambdaPath.constant(2.0 * u10.mc, 1e-30),
                               u10, steps_per_segment=2)
    assert not amp.phase_valid
    assert math.isnan(amp.I)
    assert amp.Q == float("-inf")
    assert abs(amp.K) < 1e-14
    assert transition_probability(amp) <= 1e-20


def test_transition_amplitude_input_checks(u10):
    g = propagation_grid(25.0, 900)
    other = propagation_grid(30.0, 900)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s1b, _ = _eigenpair(1, 0, 2.0, other, u10)
    p1, _ = _eigenpair(2, 1, 2.0, g, u10, check_boundaries=False)
    path = LambdaPath.constant(2.0 * u10.mc, 0.1)
    with pytest.raises(ValueError):
        transition_amplitude(s1, s1b, path, u10)
    with pytest.raises(ValueError):
        transition_amplitude(s1, p1, path, u10)
    unnorm = RadialState(g, 0, 1.1 * s1.amplitudes)
    with pytest.raises(ValueError):
        transition_amplitude(unnorm, s1, path, u10)
    with pytest.raises(TypeError):  # the phase cap is fixed, not per call
        transition_amplitude(s1, s1, path, u10, max_phase_per_step=0.01)


def test_time_reversal_symmetry(u10):
    g = propagation_grid(50.0, 1400)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s2, _ = _eigenpair(2, 0, 2.0, g, u10)
    path = LambdaPath(np.array([0.25, 0.6]), np.array([2.0, 1.7]) * u10.mc)
    fwd = transition_amplitude(s1, s2, path, u10, steps_per_segment=800)
    back = transition_amplitude(
        RadialState(g, 0, np.conj(s2.amplitudes)),
        RadialState(g, 0, np.conj(s1.amplitudes)),
        path.reversed(), u10, steps_per_segment=800)
    # real symmetric generator: conjugation inverts each Cayley factor exactly
    assert abs(back.K - fwd.K) < 1e-7


def test_orthogonal_channel_stays_dark(u10):
    g = propagation_grid(30.0, 1200)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s2, _ = _eigenpair(2, 0, 2.0, g, u10, check_boundaries=False)
    amp = transition_amplitude(s1, s2, LambdaPath.constant(2.0 * u10.mc, 0.3),
                               u10, steps_per_segment=300)
    assert transition_probability(amp) <= 1e-10


def test_completeness_over_low_levels(u10):
    g = propagation_grid(30.0, 1200)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    lam2 = 2.1 * u10.mc
    path = LambdaPath.equal_segments([2.0 * u10.mc, lam2], 0.8)
    final = evolve(state, path, 600, u10)
    diag, off = _hamiltonian_tridiag(g, 0, lam2, u10)
    _, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 9))
    coeffs = math.sqrt(g.step) * (v.T @ final.amplitudes)
    assert np.sum(np.abs(coeffs) ** 2) >= 0.999


def test_spectral_cross_check(u10):
    g = propagation_grid(30.0, 1200)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    const = LambdaPath.constant(2.0 * u10.mc, 0.7)
    a = evolve(state, const, 700, u10)
    b = evolve_spectral(state, const, u10, num_states=10)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-6
    # two segments sharing one lambda exercise the loop and the basis cache
    # while the state stays exactly inside the retained span
    rep = LambdaPath(np.array([0.3, 0.7]), np.array([1.0, 1.0]) * 2.0 * u10.mc)
    a2 = evolve(state, rep, 2000, u10)
    b2 = evolve_spectral(state, rep, u10, num_states=10)
    assert np.max(np.abs(a2.amplitudes - b2.amplitudes)) < 1e-8
    # a quench pushes amplitude outside the span; that part is dropped, and
    # widening the basis must claw it back
    mild = LambdaPath.equal_segments([2.0 * u10.mc, 2.05 * u10.mc], 0.5)
    a3 = evolve(state, mild, 2000, u10)
    d10 = np.max(np.abs(a3.amplitudes
                        - evolve_spectral(state, mild, u10, num_states=10).amplitudes))
    d40 = np.max(np.abs(a3.amplitudes
                        - evolve_spectral(state, mild, u10, num_states=40).amplitudes))
    assert d10 < 2e-2
    assert d40 < d10 / 3.0
    with pytest.raises(ValueError):
        evolve_spectral(state, const, u10, num_states=0)


def test_coarse_and_fine_stepping_agree(u10):
    g = propagation_grid(25.0, 900)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc, 1.9 * u10.mc], 0.2)
    coarse = transition_amplitude(state, state, path, u10, steps_per_segment=1000)
    fine = transition_amplitude(state, state, path, u10, steps_per_segment=8000)
    assert abs(coarse.K - fine.K) < 1e-8
    assert abs(coarse.I - fine.I) < 2e-8


def test_probability_clamps_roundoff(u10):
    g = propagation_grid(25.0, 900)
    amp = TransitionAmplitude(K=complex(1.0 + 1e-13), I=0.0, Q=0.0,
                              path=LambdaPath.constant(2.0 * u10.mc, 1.0),
                              phase_valid=True, norm_drift=0.0)
    assert transition_probability(amp) == 1.0


@pytest.mark.parametrize("roots", [CN_ROOTS, PADE22_ROOTS])
def test_eigenstate_amplitude_never_exceeds_one(u10, roots):
    # an eigenstate's |K| is one up to the sweep's roundoff, which lands on
    # either side of it (1 + 1.5e-14 on the 2000-point grid for both
    # steppers); the amplitude returned is scaled back, phase kept. The step
    # counts are those of a 0.02 and a 0.5 rad per-step phase cap.
    steps = {CN_ROOTS: 35, PADE22_ROOTS: 2}[roots]
    path = LambdaPath.constant(2.0 * u10.mc, 0.7)
    for points, r_max in ((900, 25.0), (1200, 30.0), (2000, 25.0), (1500, 40.0)):
        state, eps = _eigenpair(1, 0, 2.0, propagation_grid(r_max, points), u10)
        amp = _transition(state, state, path, u10, [steps], roots)
        assert abs(amp.K) <= 1.0 and amp.Q <= 0.0, points
        assert abs(amp.K) > 1.0 - 1e-13, points
        assert abs(amp.I - eps * path.S) < 5e-5, points


@pytest.mark.parametrize("roots", [CN_ROOTS, PADE22_ROOTS])
def test_tracked_sweep_refuses_counts_too_coarse_to_unwrap(u10, roots):
    # the 1s level turns the overlap phase 6 rad over S = 6, which needs 12
    # steps at 0.5 rad a step; one step used to return I = 2.50 (CN) or -1.97
    # (2,2) with no error, aliased by whole turns
    state, eps = _eigenpair(1, 0, 2.0, propagation_grid(25.0, 500), u10)
    path = LambdaPath.constant(2.0 * u10.mc, 6.0)
    for steps in (1, 11):
        with pytest.raises(RuntimeError, match=rf"0\.5 rad .* {steps} steps \(it needs 12\)"):
            _transition(state, state, path, u10, [steps], roots)
    amp = _transition(state, state, path, u10, [12], roots)
    assert abs(amp.I - eps * path.S) < 0.2


def test_amplitude_rounded_outside_after_rescale_steps_inside(u10):
    # a |K| within roundoff above one is divided by itself, which can land an
    # ulp outside the unit circle; then it is scaled inside once more. Every
    # rotation of phi_out keeps |K| in (1, 1 + 1e-12), and the division lands
    # outside on about one in twenty (9 of these 200 on numpy 2.4 / scipy 1.17)
    g = propagation_grid(25.0, 400)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.constant(2.0 * u10.mc, 0.1)
    outside = 0
    for k in range(200):
        out = RadialState(g, 0, state.amplitudes * ((1.0 + 4e-13) * cmath.exp(0.01j * k)))
        _, raw, _ = _sweep(state, path, [2], u10, CN_ROOTS,
                           np.conj(np.asarray(out.amplitudes)))
        assert 1.0 < abs(raw) < 1.0 + 1e-12
        outside += abs(raw / abs(raw)) > 1.0
        amp = _transition(state, out, path, u10, [2], CN_ROOTS)
        assert abs(amp.K) <= 1.0 and amp.Q <= 0.0
        assert cmath.isclose(amp.K, raw, rel_tol=1e-12)
    assert outside > 0


def _exact_amplitude(phi_in, phi_out, path, u):
    """K with every segment propagated in the full eigenbasis of its H."""
    g = phi_in.grid
    psi = np.array(phi_in.amplitudes, dtype=complex)
    for lam, dur in zip(path.values, path.durations):
        w, v = eigh_tridiagonal(*_hamiltonian_tridiag(g, phi_in.l, lam, u))
        psi = v @ (np.exp(1j * w * dur / u.hbar) * (v.T @ psi))
    return g.step * np.vdot(phi_out.amplitudes, psi)


def test_pade22_is_fourth_order(u10):
    g = propagation_grid(30.0, 400)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s2, _ = _eigenpair(2, 0, 2.0, g, u10, check_boundaries=False)
    mix = RadialState(g, 0, s1.amplitudes + 0.5 * s2.amplitudes)
    mix = RadialState(g, 0, mix.amplitudes / state_norm(mix))
    path = LambdaPath.equal_segments([2.1 * u10.mc, 1.9 * u10.mc], 1.0)
    ref = _exact_amplitude(mix, s1, path, u10)
    errors = []
    for steps in (8, 16, 32):
        amp = _transition(mix, s1, path, u10, [steps, steps], PADE22_ROOTS)
        assert amp.norm_drift <= 1e-12
        errors.append(abs(amp.K - ref))
    # halving ds cuts the error 16-fold at fourth order, 4-fold at second
    assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0, errors
    # and beats Crank-Nicolson at four times the solves
    cn = _transition(mix, s1, path, u10, [64, 64], CN_ROOTS)
    assert errors[1] < abs(cn.K - ref) / 10.0


def test_explicit_steps_take_one_solve_per_step(u10, monkeypatch):
    # calls that fix the step count stay Crank-Nicolson: one zgttrs per step
    g = propagation_grid(25.0, 600)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc, 1.9 * u10.mc], 0.2)
    calls = []
    solve = lapack.zgttrs

    def counting(*args, **kwargs):
        calls.append(np.asarray(args[5]).ndim)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lapack, "zgttrs", counting)
    transition_amplitude(state, state, path, u10, steps_per_segment=300)
    assert calls == [1] * 600
    calls.clear()
    evolve(state, path, 70, u10)
    assert calls == [1] * 140
