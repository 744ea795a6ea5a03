import cmath
import dataclasses
import math
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from qaction import (
    HARTREE_ATOMIC, SI_LIKE, BoundaryReflectionError, LambdaPath, RadialGrid, RadialState,
    TransitionAmplitude, VariationalProblem, evolve, evolve_spectral, grid_eigenstate,
    make_units, propagation_grid, state_norm, transition_amplitude,
)
from qaction import propagation
from qaction.propagation import (BLAS_SERIAL, CN_ROOTS, H_MAX, MAX_PHASE_PER_STEP,
                                 PADE33_ROOTS, SPLIT_POINTS, _adjoint_sweep,
                                 _cayley, _chunked, _eigenpairs, _energy_moments,
                                 _hamiltonian_tridiag, _sweep, _transition,
                                 _two_blocks, _TwoBlockSolver)
from conftest import record_calls, truncated_eigenstate

# the LAPACK module whose routines the package calls, the one to patch
lapack = propagation._lapack()


def _eigenpair(n, l, lam_mc, grid, u):
    return grid_eigenstate(n, l, lam_mc * u.mc, grid, u)


def test_propagation_grid_geometry():
    g = propagation_grid(40.0, 2000)
    assert g == RadialGrid(40.0, 2000)
    r = g.points()
    assert np.array_equal(r, np.linspace(0.02, 40.0, 2000))  # bit for bit
    assert math.isclose(g.step, r[0], rel_tol=1e-14)  # the wall is one step below r[0]
    with pytest.raises(ValueError):
        propagation_grid(-1.0, 100)
    with pytest.raises(ValueError):
        propagation_grid(10.0, 8)
    with pytest.raises(ValueError, match="need at least 16 grid points"):
        propagation_grid(30.0, 2000.0)


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
    with pytest.raises(ValueError, match="needs more than 16 grid points"):
        grid_eigenstate(17, 0, 20.0, propagation_grid(30.0, 16), u10)
    with pytest.raises(ValueError):
        grid_eigenstate(2, 2, 20.0, g, u10)
    with pytest.raises(ValueError):
        grid_eigenstate(1, 0, 0.0, g, u10)
    # an l whose centrifugal entry leaves the float range is refused by name,
    # as an integer: once an OverflowError converting l (l + 1) to a float
    # (10^310), or the grid blamed for it (10^200)
    for l in (10 ** 200, 10 ** 310):
        with pytest.raises(ValueError, match=r"l is too large for this grid"):
            grid_eigenstate(l + 1, l, 20.0, g, u10)


def _alternating(grid):
    """The grid's most oscillating state, normalised: H phi is largest on it."""
    signs = np.where(np.arange(grid.num_points) % 2, 1.0, -1.0)
    state = RadialState(grid, 0, signs.astype(complex))
    return RadialState(grid, 0, state.amplitudes / state_norm(state))


@pytest.mark.parametrize("system", [HARTREE_ATOMIC, SI_LIKE])
def test_generator_terms_are_bounded_by_h_max(system):
    # each term of the diagonal at r = step just inside and just past its bound:
    # inside, dstein's vectors and the phase-turn rate of the alternating state
    # stay finite; past it, the term's input is named. Once entries near 1.6e150
    # passed, and dstein returned NaN vectors with info 0
    u, n, eps = make_units(0.1, system), 900, 1e-9
    top = u.hbar * math.sqrt(2.0 / H_MAX)  # the step where 2 hbar^2 / step^2 = H_MAX
    low = u.hbar * math.sqrt(2.0 * H_MAX)  # and where it is 1 / H_MAX
    g = propagation_grid(25.0 * u.bohr_radius, n)
    q = H_MAX / (u.hbar * u.hbar / (g.step * g.step))
    l = math.isqrt(int(q))
    while l * (l + 1) > q:
        l -= 1
    lam = H_MAX * g.step / u.coulomb_momentum
    mc2 = 2.0 * u.mc
    for inside, past, says in [
            ((propagation_grid(n * top * (1 + eps), n), 0, mc2),
             (propagation_grid(n * top * (1 - eps), n), 0, mc2), "propagation grid"),
            ((propagation_grid(n * low * (1 - eps), n), 0, mc2),
             (propagation_grid(n * low * (1 + eps), n), 0, mc2), "propagation grid"),
            ((g, l, mc2), (g, l + 1, mc2), "l is too large for this grid"),
            ((g, 0, lam * (1 - eps)), (g, 0, lam * (1 + eps)), "lambda = .* is too large"),
            ((g, 0, -lam * (1 - eps)), (g, 0, -lam * (1 + eps)), "lambda = -.* is too large")]:
        diag, off = _hamiltonian_tridiag(*inside, u)
        w, v = _eigenpairs(diag, off, 0, 0)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
        assert math.isfinite(_energy_moments(_alternating(inside[0]).amplitudes, diag, off)[1])
        with pytest.raises(ValueError, match=says):
            _hamiltonian_tridiag(*past, u)
    # all three at their bounds at once: entries near 3 H_MAX, every vector finite
    g = propagation_grid(n * top * (1 + eps), n)
    diag, off = _hamiltonian_tridiag(g, 1, -H_MAX * g.step / u.coulomb_momentum * (1 - eps), u)
    assert np.max(np.abs(diag)) > 2.9 * H_MAX
    assert np.all(np.isfinite(_eigenpairs(diag, off, 0, n - 1)[1]))
    assert math.isfinite(_energy_moments(_alternating(g).amplitudes, diag, off)[1])


def test_generator_bound_names_the_input_at_fault(u10):
    # hbar^2 / step^2 = 8.1e205 leaves the bound, and LAPACK's dstebz squares
    # the off-diagonal: once LinAlgError "dstebz info 4"
    tiny = propagation_grid(1e-100, 900)
    state = RadialState(tiny, 0, np.ones(900, complex))
    path = LambdaPath.constant(2.0 * u10.mc, 0.5)
    for call in (lambda: grid_eigenstate(1, 0, 2.0 * u10.mc, tiny, u10),
                 lambda: evolve_spectral(state, path, u10)):
        with pytest.raises(ValueError, match="propagation grid r_max = 1e-100 on 900 points"):
            call()
    # entries near 2e140: H phi's squares overflowed, and a variational problem blamed x10
    found = _alternating(propagation_grid(9e-68, 900))
    with pytest.raises(ValueError, match="propagation grid r_max = 9e-68 on 900 points"):
        VariationalProblem(phi_in=found, phi_out=found, x10=40.0, segments=1, u=u10)
    # lambda kappa_C / step = 3.6e160 on a fine grid: lambda is at fault, once the grid
    g = propagation_grid(25.0, 900)
    with pytest.raises(ValueError, match=r"lambda = 1e\+160 is too large for this grid"):
        grid_eigenstate(1, 0, 1e160, g, u10)
    # the grid is judged first, then l, then lambda; l is printed as a count
    with pytest.raises(ValueError, match="propagation grid"):
        _hamiltonian_tridiag(tiny, 10 ** 200, 1e160, u10)
    with pytest.raises(ValueError, match=r"l is too large.*l = 1\.000e\+200$"):
        _hamiltonian_tridiag(g, 10 ** 200, 1e160, u10)


def test_energy_moments_rate_is_never_nan():
    # <H^2> and <H>^2 both overflow: inf - inf once made the rate NaN
    for d in (2e154, 1e154):
        mean, rate = _energy_moments(np.ones(100, complex), np.full(100, d), np.full(99, -1.0))
        assert math.isfinite(mean) and rate == math.inf


def test_tracked_sweep_refuses_an_infinite_turn_by_its_unwrap_count(u10):
    # a duration of 1e306 at a finite rate turns the phase by inf: once an
    # OverflowError from ceil(inf)
    state = _alternating(propagation_grid(25.0, 900))
    path = LambdaPath.constant(2.0 * u10.mc, 1e306)
    with pytest.raises(RuntimeError, match=r"at its 3 steps \(it needs inf\)"):
        _transition(state, state, path, u10, 3, PADE33_ROOTS)


def test_grid_eigenstate_boundary_guards(u10):
    # 2s leaks onto a 12 bohr box
    tight = propagation_grid(12.0, 600)
    with pytest.raises(RuntimeError, match="eigenstate tail at r_max"):
        _eigenpair(2, 0, 2.0, tight, u10)
    # a 200 mc control squeezes the state below the first mesh cell
    g = propagation_grid(30.0, 1500)
    with pytest.raises(RuntimeError, match="first mesh cell under-resolves"):
        _eigenpair(1, 0, 200.0, g, u10)
    # a feeble control has no bound level inside a 10 bohr box
    small = propagation_grid(10.0, 500)
    with pytest.raises(RuntimeError, match="is not bound on this grid"):
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
    s2 = truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
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
    # inverse iteration (dstein) may return either sign of an eigenvector;
    # the state is the same for both, with its largest sample positive
    g = propagation_grid(25.0, 800)
    state, eps = _eigenpair(1, 0, 2.0, g, u10)
    solve = lapack.dstein

    def negated(*args, **kwargs):
        v, info = solve(*args, **kwargs)
        return -v, info

    monkeypatch.setattr(lapack, "dstein", negated)
    flipped, eps_flipped = _eigenpair(1, 0, 2.0, g, u10)
    assert eps_flipped == eps
    np.testing.assert_array_equal(flipped.amplitudes, state.amplitudes)
    assert state.amplitudes[np.argmax(np.abs(state.amplitudes))].real > 0.0


@pytest.mark.parametrize("n, l, r_max, points", [
    (1, 0, 25.0, 800), (2, 1, 60.0, 1500), (3, 2, 100.0, 3000),
    (2, 0, 60.0, SPLIT_POINTS + 1), (1, 0, 25.0, 20000)])
def test_direct_eigenpair_is_eigh_tridiagonals(u10, monkeypatch, n, l, r_max, points):
    # grid_eigenstate makes eigh_tridiagonal(select="i")'s two LAPACK calls
    # itself, so its eigenvalue and vector keep eigh_tridiagonal's bits
    g = propagation_grid(r_max, points)
    ham = _hamiltonian_tridiag(g, l, 2.0 * u10.mc, u10)
    w, v = eigh_tridiagonal(*ham, select="i", select_range=(n - l - 1, n - l - 1))
    returned = {}
    for name in ("dstebz", "dstein"):
        def keep(*args, name=name, solve=getattr(lapack, name)):
            returned[name] = solve(*args)
            return returned[name]
        monkeypatch.setattr(lapack, name, keep)
    _, eps = _eigenpair(n, l, 2.0, g, u10)
    found, w_direct, *_ = returned["dstebz"]
    assert found == 1 and eps == -w[0]
    assert np.array_equal(w_direct[:found], w)
    assert np.array_equal(returned["dstein"][0], v)


@pytest.mark.parametrize("num_states", [10, 400])
def test_evolve_spectral_is_eigh_tridiagonal_per_segment(u10, num_states):
    # its eigenpairs are eigh_tridiagonal(select="i")'s bits, segment by
    # segment, with a few states and with the full basis
    g = propagation_grid(25.0, 400)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc, 2.1 * u10.mc], 0.6)
    phi = np.array(state.amplitudes, dtype=complex)
    for lam, dur in zip(path.values, path.durations):
        w, v = eigh_tridiagonal(*_hamiltonian_tridiag(g, 0, lam, u10), select="i",
                                select_range=(0, num_states - 1))
        phi = v @ ((v.T @ phi) * np.exp(1j * w * dur / u10.hbar))
    assert np.array_equal(evolve_spectral(state, path, u10, num_states).amplitudes, phi)


def test_eigensolves_leave_scipy_linalg_unimported():
    # both eigensolves of the discrete generator call LAPACK through _lapack
    probe = ("import sys; from qaction import *; u = make_units(0.1); "
             "g = propagation_grid(25.0, 400); s, _ = grid_eigenstate(1, 0, 2 * u.mc, g, u); "
             "evolve_spectral(s, LambdaPath.constant(2.1 * u.mc, 0.5), u); "
             "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False True"


def test_lapack_loads_its_file_under_its_own_name(monkeypatch):
    # with no module of that name loaded yet, the extension file is loaded
    # and registered, so a later import of scipy.linalg reuses it; threads
    # loading it at once, under a short switch interval, all get that one
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    loaded = [None] * 3

    def load(k):
        loaded[k] = propagation._lapack()

    workers = [threading.Thread(target=load, args=(k,)) for k in range(len(loaded))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    module = sys.modules["scipy.linalg._flapack"]
    assert all(m is module for m in loaded) and propagation._lapack() is module
    assert module.__file__ == lapack.__file__
    assert all(callable(getattr(module, name))
               for name in ("zgttrf", "zgttrs", "dstebz", "dstein"))


def test_lapack_falls_back_to_the_package_without_its_file(monkeypatch):
    # the path finder finds no file of that name, so the package's module is used
    import importlib.machinery
    finder = importlib.machinery.PathFinder
    find_spec = finder.find_spec
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(finder, "find_spec", lambda name, *args: None
                        if name == "scipy.linalg._flapack" else find_spec(name, *args))
    fallback = object()
    monkeypatch.setattr(scipy.linalg, "_flapack", fallback, raising=False)
    assert propagation._lapack() is fallback


def test_lapack_is_scipys_own_when_scipy_linalg_came_first(u10, split_case, monkeypatch):
    # the benchmark's import order: scipy.linalg, then qaction. The owner
    # returns the module scipy.linalg.lapack reads, and a two-block sweep
    # gives the K of the package's routines read through scipy.linalg.lapack
    assert lapack is scipy.linalg.lapack._flapack
    s1, s2, path = split_case
    amp = transition_amplitude(s1, s2, path, u10)
    monkeypatch.setattr(propagation, "_lapack", lambda: scipy.linalg.lapack)
    ref = transition_amplitude(s1, s2, path, u10)
    assert (amp.K, amp.I, amp.norm_drift) == (ref.K, ref.I, ref.norm_drift)


def test_evolve_rejects_bad_input(u10):
    g = propagation_grid(25.0, 800)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    with pytest.raises(ValueError):
        evolve(state, LambdaPath.constant(2.0 * u10.mc, 1.0), 0, u10)
    with pytest.raises(ValueError, match="whole number"):
        evolve(state, LambdaPath.constant(2.0 * u10.mc, 1.0), 2.5, u10)


@pytest.mark.parametrize("out, message", [
    ((1, 0, propagation_grid(30.0, 600)), "states live on different grids"),
    ((2, 1, propagation_grid(60.0, 1200)), "cross-l overlap is zero"),
], ids=["other_grid", "other_l"])
def test_transition_amplitude_refuses_a_pair_with_no_grid_overlap(u10, out, message):
    state, _ = _eigenpair(1, 0, 2.0, propagation_grid(60.0, 1200), u10)
    other, _ = _eigenpair(*out[:2], 2.0, out[2], u10)
    with pytest.raises(ValueError, match=message):
        transition_amplitude(state, other, LambdaPath.constant(2.0 * u10.mc, 0.1), u10)


@pytest.mark.parametrize("floor", [0, -5, 2.5, 300.5])
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
    assert 0.0 <= amp.probability <= 1.0


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
    s2 = truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    # orthogonalize exactly so |K| sits at the numerical floor
    overlap = np.sum(g.step * np.conj(s1.amplitudes) * s2.amplitudes)
    ortho = s2.amplitudes - overlap * s1.amplitudes
    out = RadialState(g, 0, ortho)
    out = RadialState(g, 0, out.amplitudes / state_norm(out))
    amp = transition_amplitude(s1, out, LambdaPath.constant(2.0 * u10.mc, 1e-30),
                               u10, steps_per_segment=2)
    assert not amp.phase_valid
    assert math.isnan(amp.I)
    assert amp.Q == float("-inf")
    assert abs(amp.K) < 1e-14
    assert amp.probability <= 1e-20


def test_transition_amplitude_input_checks(u10):
    g = propagation_grid(25.0, 900)
    other = propagation_grid(30.0, 900)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s1b, _ = _eigenpair(1, 0, 2.0, other, u10)
    p1 = truncated_eigenstate(2, 1, 2.0 * u10.mc, g, u10)
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
    s2 = truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    amp = transition_amplitude(s1, s2, LambdaPath.constant(2.0 * u10.mc, 0.3),
                               u10, steps_per_segment=300)
    assert amp.probability <= 1e-10


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
    # two segments sharing one lambda exercise the loop over segments while
    # the state stays exactly inside the retained span
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
    for bad in (0, g.num_points + 1, 2.5):
        with pytest.raises(ValueError, match="num_states"):
            evolve_spectral(state, const, u10, num_states=bad)


def test_coarse_and_fine_stepping_agree(u10):
    g = propagation_grid(25.0, 900)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc, 1.9 * u10.mc], 0.2)
    coarse = transition_amplitude(state, state, path, u10, steps_per_segment=1000)
    fine = transition_amplitude(state, state, path, u10, steps_per_segment=8000)
    assert abs(coarse.K - fine.K) < 1e-8
    assert abs(coarse.I - fine.I) < 2e-8


def test_probability_clamps_roundoff():
    # the amplitude owns its probability; no free function computes it beside
    amp = TransitionAmplitude(K=complex(1.0 + 1e-13), I=0.0, norm_drift=0.0)
    assert amp.probability == 1.0
    assert not hasattr(propagation, "transition_probability")


def test_amplitude_derives_q_and_phase_valid():
    # Q and phase_valid follow from K and I, so no amplitude can contradict
    # them: K = 0.5 with I = NaN once came with any Q and phase_valid passed
    assert [f.name for f in dataclasses.fields(TransitionAmplitude)] == ["K", "I", "norm_drift"]
    for stored in ({"Q": 0.0}, {"phase_valid": True}):
        with pytest.raises(TypeError):
            TransitionAmplitude(K=0.5, I=math.nan, norm_drift=0.0, **stored)
    flagged = TransitionAmplitude(K=0.5, I=math.nan, norm_drift=0.0)
    assert not flagged.phase_valid and flagged.Q == -math.inf
    amp = TransitionAmplitude(K=0.5j, I=1.0, norm_drift=0.0)
    assert amp.phase_valid and amp.Q == math.log(0.5)


@pytest.mark.parametrize("roots", [CN_ROOTS, PADE33_ROOTS])
def test_eigenstate_amplitude_never_exceeds_one(u10, roots):
    # an eigenstate's |K| is one up to the sweep's roundoff, which lands on
    # either side of it (1 + 1.5e-14 on the 2000-point grid for both
    # steppers); the amplitude returned is scaled back, phase kept. The step
    # counts are those of a 0.02 and a 0.5 rad per-step phase cap.
    steps = {CN_ROOTS: 35, PADE33_ROOTS: 2}[roots]
    path = LambdaPath.constant(2.0 * u10.mc, 0.7)
    for points, r_max in ((900, 25.0), (1200, 30.0), (2000, 25.0), (1500, 40.0)):
        state, eps = _eigenpair(1, 0, 2.0, propagation_grid(r_max, points), u10)
        amp = _transition(state, state, path, u10, steps, roots)
        assert abs(amp.K) <= 1.0 and amp.Q <= 0.0, points
        assert abs(amp.K) > 1.0 - 1e-13, points
        assert abs(amp.I - eps * path.S) < 5e-5, points


@pytest.mark.parametrize("roots", [CN_ROOTS, PADE33_ROOTS])
def test_tracked_sweep_refuses_counts_too_coarse_to_unwrap(u10, roots):
    # the 1s level turns the overlap phase 6 rad over S = 6, which needs 12
    # steps at 0.5 rad a step; one step used to return I = 2.50 (CN) or -1.97
    # (the former (2,2) Pade step) with no error, aliased by whole turns
    state, eps = _eigenpair(1, 0, 2.0, propagation_grid(25.0, 500), u10)
    path = LambdaPath.constant(2.0 * u10.mc, 6.0)
    for steps in (1, 11):
        with pytest.raises(RuntimeError, match=rf"0\.5 rad .* {steps} steps \(it needs 12\)"):
            _transition(state, state, path, u10, steps, roots)
    amp = _transition(state, state, path, u10, 12, roots)
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
        _, raw, _, _ = _sweep(state, path, 2, u10, CN_ROOTS,
                              out_conj=np.conj(np.asarray(out.amplitudes)))
        assert 1.0 < abs(raw) < 1.0 + 1e-12
        outside += abs(raw / abs(raw)) > 1.0
        amp = _transition(state, out, path, u10, 2, CN_ROOTS)
        assert abs(amp.K) <= 1.0 and amp.Q <= 0.0
        assert cmath.isclose(amp.K, raw, rel_tol=1e-12)
    assert outside > 0


def test_pade33_is_sixth_order(u10):
    # a mix of the 1s and 2s states of the path's own H, so the error is the
    # stepper's eigenphase error alone (a mix outside the eigenbasis of a
    # two-segment path fell only 12.2 and 10.7-fold per halving)
    g = propagation_grid(30.0, 400)
    s1, _ = _eigenpair(1, 0, 2.0, g, u10)
    s2 = truncated_eigenstate(2, 0, 2.0 * u10.mc, g, u10)
    mix = RadialState(g, 0, s1.amplitudes + 0.5 * s2.amplitudes)
    mix = RadialState(g, 0, mix.amplitudes / state_norm(mix))
    path = LambdaPath.constant(2.0 * u10.mc, 1.0)
    # propagated in the full eigenbasis of H
    ref = g.step * np.vdot(s1.amplitudes,
                           evolve_spectral(mix, path, u10, num_states=g.num_points).amplitudes)
    errors = []
    for steps in (4, 8, 16):
        amp = _transition(mix, s1, path, u10, steps, PADE33_ROOTS)
        assert amp.norm_drift <= 1e-12
        errors.append(abs(amp.K - ref))
    # halving ds cuts the error 64-fold at sixth order (measured 63.8 and
    # 60.0), 16-fold at fourth
    assert errors[0] / errors[1] >= 48.0 and errors[1] / errors[2] >= 48.0, errors
    # and at 24 solves beats Crank-Nicolson at 256 a thousandfold
    cn = _transition(mix, s1, path, u10, 256, CN_ROOTS)
    assert errors[1] < abs(cn.K - ref) / 1000.0


def test_explicit_steps_take_one_solve_per_step(u10, monkeypatch):
    # calls that fix the step count stay Crank-Nicolson: one zgttrs per step
    g = propagation_grid(25.0, 600)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc, 1.9 * u10.mc], 0.2)
    calls = record_calls(monkeypatch, lapack, "zgttrs")
    transition_amplitude(state, state, path, u10, steps_per_segment=300)
    assert [np.ndim(args[5]) for args in calls] == [1] * 600
    calls.clear()
    evolve(state, path, 70, u10)
    assert [np.ndim(args[5]) for args in calls] == [1] * 140


@pytest.mark.parametrize("sweep", [
    lambda s, path, steps, u: evolve(s, path, steps, u),
    lambda s, path, steps, u: transition_amplitude(s, s, path, u, steps_per_segment=steps),
], ids=["evolve", "transition_amplitude"])
def test_step_floor_checked_over_the_whole_path_before_any_sweep(u10, monkeypatch, sweep):
    # the floor fits the budget on one segment but not on three: refused
    # before the first factorisation, where once segment 2 was refused after
    # the first two were swept
    state, _ = _eigenpair(1, 0, 2.0, propagation_grid(25.0, 1000), u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc] * 3, 0.6)
    steps = propagation.MAX_SWEEP_WORK // (3 * 1000) + 1

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in ("zgttrf", "zgttrs"):
        monkeypatch.setattr(lapack, name, no_sweep)
    with pytest.raises(ValueError, match=r"the step floor on 3 segment\(s\) of 1000 grid "
                                         r"points is past the sweep's budget"):
        sweep(state, path, steps, u10)


def test_counts_follow_the_state_entering_each_segment(u10, monkeypatch):
    # with no floor, each segment takes the Crank-Nicolson steps that hold the
    # overlap phase of the state entering it under 0.02 rad a step; here the
    # last segment's entering state needs 27, where phi_in at that lambda
    # needs only 10
    g = propagation_grid(60.0, 600)
    s2, _ = _eigenpair(2, 0, 1.7, g, u10)
    s1, _ = _eigenpair(1, 0, 1.75, g, u10)
    path = LambdaPath.equal_segments([1.7 * u10.mc, 2.3 * u10.mc, 1.75 * u10.mc], 2.4)
    phi, counts, turns = s2, [], []
    for lam, dur in zip(path.values, path.durations):
        ham = _hamiltonian_tridiag(g, 0, lam, u10)
        turns.append(dur * _energy_moments(np.asarray(phi.amplitudes), *ham)[1] / u10.hbar)
        counts.append(math.ceil(turns[-1] / MAX_PHASE_PER_STEP))
        phi = evolve(phi, LambdaPath.constant(lam, dur), counts[-1], u10)
    last = _hamiltonian_tridiag(g, 0, path.values[-1], u10)
    from_phi_in = path.durations[-1] * _energy_moments(np.asarray(s2.amplitudes), *last)[1]
    assert counts[-1] > math.ceil(from_phi_in / u10.hbar / MAX_PHASE_PER_STEP)
    calls = record_calls(monkeypatch, lapack, "zgttrs")
    amp = transition_amplitude(s2, s1, path, u10)
    assert len(calls) == sum(counts)
    # the reference propagates in the full eigenbasis of every segment's H,
    # with no time step at all; Crank-Nicolson errs by x^3 / 12 per step on a
    # phase of x rad, so by about turn * 0.02^2 / 12 over a segment (here
    # 1.5e-5 against 4.2e-5; 2.6e-5 at phi_in's counts)
    ref = evolve_spectral(s2, path, u10, num_states=g.num_points)
    k_ref = g.step * np.vdot(s1.amplitudes, ref.amplitudes)
    assert abs(amp.K - k_ref) <= sum(turns) * MAX_PHASE_PER_STEP ** 2 / 12.0


def test_grid_arrays_are_built_once(u10, monkeypatch):
    # the points are built with the grid; every sweep and adjoint sweep after
    # that reads that array
    g = RadialGrid(10.0, 20)
    assert g.points() is g.points() and not g.points().flags.writeable
    spaced = record_calls(monkeypatch, np, "linspace")
    g = propagation_grid(25.0, 600)
    state, _ = _eigenpair(1, 0, 2.0, g, u10)
    path = LambdaPath.equal_segments([2.0 * u10.mc, 1.9 * u10.mc], 0.2)
    for _ in range(3):
        record = []
        _transition(state, state, path, u10, 2, PADE33_ROOTS, record=record)
        _adjoint_sweep(record, state, path, u10)
        evolve(state, path, 20, u10)
    assert len(spaced) == 1


@pytest.fixture(scope="module")
def split_case(u10):
    """1s in, 2s out, a three-segment path, on a grid one point above
    SPLIT_POINTS, so that its two blocks differ in length."""
    g = propagation_grid(60.0, SPLIT_POINTS + 1)
    s1, _ = _eigenpair(1, 0, 1.8, g, u10)
    s2, _ = _eigenpair(2, 0, 1.9, g, u10)
    path = LambdaPath.equal_segments([1.8 * u10.mc, 2.2 * u10.mc, 1.9 * u10.mc], 1.8)
    return s1, s2, path


@pytest.fixture
def dot_lengths(monkeypatch):
    """A call giving the lengths of the numpy.dot, then numpy.vdot, calls so far."""
    logs = [record_calls(monkeypatch, np, name) for name in ("dot", "vdot")]
    return lambda: [np.size(args[0]) for log in logs for args in log]


@pytest.mark.parametrize("n", [1, BLAS_SERIAL, BLAS_SERIAL + 1, 2 * BLAS_SERIAL,
                               2 * BLAS_SERIAL + 1, 24000])
def test_chunked_dot_parts(n, dot_lengths):
    # ceil(n / BLAS_SERIAL) contiguous parts with edges n i // k: from
    # BLAS_SERIAL + 1 to 2 BLAS_SERIAL elements that is the two halves n // 2
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    value = _chunked(np.vdot, a, b)
    k = -(-n // BLAS_SERIAL)
    assert dot_lengths() == [n * (i + 1) // k - n * i // k for i in range(k)]
    assert max(dot_lengths()) <= BLAS_SERIAL
    if k == 2:
        assert value == np.vdot(a[:n // 2], b[:n // 2]) + np.vdot(a[n // 2:], b[n // 2:])
    assert abs(value - np.sum(np.conj(a) * b)) <= 1e-12 * n


@pytest.mark.parametrize("points, r_max, ds", [
    (SPLIT_POINTS + 1, 60.0, 1e-4), (SPLIT_POINTS + 1, 60.0, 0.5), (24000, 240.0, 0.5)],
    ids=["0.0001", "0.5", "24000-0.5"])
def test_two_block_solve_is_the_one_block_solve(u10, points, r_max, ds, dot_lengths):
    # the split algebra on a right-hand side as large at the interface as
    # anywhere; at ds = 1e-4 the interface vectors fall into subnormals and
    # the dots run over a window, at 0.5 they span both blocks, which on
    # 24 000 points is longer than one dot BLAS keeps serial. Every case has
    # the same mesh step: the two solves part by roundoff times the
    # stiffness ds / h^2 (1.2e-13 relative on 24 000 points to r = 60)
    g = propagation_grid(r_max, points)
    ham = _hamiltonian_tridiag(g, 0, 2.0 * u10.mc, u10)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(g.num_points) + 1j * rng.standard_normal(g.num_points)
    one, _ = lapack.zgttrs(*_cayley(*ham, ds, CN_ROOTS[0], u10), b)
    blocks = _two_blocks(*ham, ds, CN_ROOTS[0], u10)
    lo, hi = blocks[4], blocks[6]
    assert (lo > 0 and hi < g.num_points - blocks[2]) == (ds < 0.01)
    solver = _TwoBlockSolver()
    try:
        split = solver(blocks, b.copy())
    finally:
        solver.close()
    assert np.max(np.abs(split - one)) <= 1e-13 * np.max(np.abs(one))
    assert dot_lengths() and max(dot_lengths()) <= BLAS_SERIAL


def test_adjoint_sweep_dots_stay_serial(u10, dot_lengths):
    # the path search's forward and adjoint sweeps on a grid longer than
    # BLAS_SERIAL sum every overlap in parts BLAS keeps on one thread
    g = propagation_grid(40.0, 12000)
    r = g.points()
    state = RadialState(g, 0, r * np.exp(-r))
    state = RadialState(g, 0, state.amplitudes / state_norm(state))
    path = LambdaPath.equal_segments([1.9 * u10.mc, 2.1 * u10.mc], 0.02)
    record = []
    amp = _transition(state, state, path, u10, 2, PADE33_ROOTS, record=record)
    dk_dlam, _ = _adjoint_sweep(record, state, path, u10)
    assert amp.phase_valid and np.all(np.isfinite(dk_dlam))
    assert max(dot_lengths()) <= BLAS_SERIAL < g.num_points


def test_two_block_sweep_matches_one_block(u10, split_case, monkeypatch):
    # the split solve and the one-block LU differ by roundoff only, and the
    # step counts, sized before either solves, are the same
    s1, s2, path = split_case
    out_conj = np.conj(s2.amplitudes)
    split = _sweep(s1, path, 1, u10, CN_ROOTS, MAX_PHASE_PER_STEP, out_conj)
    amp = transition_amplitude(s1, s2, path, u10)
    moved = evolve(s1, path, 40, u10)
    monkeypatch.setattr(propagation, "SPLIT_POINTS", s1.grid.num_points + 1)
    one = _sweep(s1, path, 1, u10, CN_ROOTS, MAX_PHASE_PER_STEP, out_conj)
    ref = transition_amplitude(s1, s2, path, u10)
    assert split[3] == one[3] > 3
    assert np.max(np.abs(split[0] - one[0])) <= 1e-13
    assert abs(amp.K) > 0.05 and amp.phase_valid
    assert abs(amp.K - ref.K) <= 1e-13 and abs(amp.I - ref.I) <= 1e-13
    assert abs(amp.norm_drift - ref.norm_drift) <= 1e-13
    diff = moved.amplitudes - evolve(s1, path, 40, u10).amplitudes
    assert np.max(np.abs(diff)) <= 1e-13


@pytest.mark.parametrize("points, blocks", [(SPLIT_POINTS, 2), (SPLIT_POINTS - 1, 1)])
def test_two_blocks_from_split_points_on(u10, monkeypatch, points, blocks):
    # a Crank-Nicolson segment factors two blocks from SPLIT_POINTS on and
    # solves each step as two half-length zgttrs, plus one per block for the
    # interface vectors; below, one block and one solve a step. The (3,3)
    # path keeps one block per root on any grid.
    g = propagation_grid(40.0, points)
    r = g.points()
    state = RadialState(g, 0, r * np.exp(-r))
    state = RadialState(g, 0, state.amplitudes / state_norm(state))
    path = LambdaPath.equal_segments([1.8 * u10.mc, 2.2 * u10.mc, 1.9 * u10.mc], 0.3)
    factored = record_calls(monkeypatch, lapack, "zgttrf")
    solves = record_calls(monkeypatch, lapack, "zgttrs")
    evolve(state, path, 10, u10)
    sizes = [points // 2, points - points // 2] if blocks == 2 else [points]
    assert [len(args[1]) for args in factored] == sizes * 3
    assert len(solves) == 3 * (10 * blocks + (blocks == 2) * 2)
    assert sorted({len(args[-1]) for args in solves}) == sorted(set(sizes))
    factored.clear()
    _transition(state, state, path, u10, 10, PADE33_ROOTS)
    assert [len(args[1]) for args in factored] == [points] * 9


def test_two_block_sweep_refuses_as_one_block(u10, split_case):
    # the wall check and the unwrap refusal run on the split path too, and a
    # sweep that raises stops its worker thread
    threads = threading.active_count()
    g = propagation_grid(40.0, SPLIT_POINTS + 1)
    r = g.points()
    packet = RadialState(g, 0, np.exp(-(r - 32.0) ** 2 / 8.0 - 8j * r))
    packet = RadialState(g, 0, packet.amplitudes / state_norm(packet))
    with pytest.raises(BoundaryReflectionError):
        evolve(packet, LambdaPath.constant(0.0, 1.0), 200, u10)
    s1, _, _ = split_case
    with pytest.raises(RuntimeError, match=r"0\.5 rad per step at its 9 steps"):
        _transition(s1, s1, LambdaPath.constant(1.8 * u10.mc, 6.0), u10, 9, CN_ROOTS)
    assert threading.active_count() == threads


class _WorkerSolveFailed(RuntimeError):
    pass


def test_two_block_worker_failure_reaches_the_caller(u10, split_case, monkeypatch):
    # a solve that fails on the worker thread is raised on the sweep's own
    # thread, which then stops the worker instead of waiting on it forever
    s1, _, path = split_case
    solve = lapack.zgttrs

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise _WorkerSolveFailed("worker solve")
        return solve(*args, **kwargs)

    monkeypatch.setattr(lapack, "zgttrs", failing)
    threads = threading.active_count()
    with pytest.raises(_WorkerSolveFailed):
        evolve(s1, path, 3, u10)
    assert threading.active_count() == threads


def test_concurrent_two_block_sweeps_are_bit_identical(u10, split_case):
    # every sweep owns its worker and buffers: more sweeps at once than
    # cores, under a short switch interval, give the serial result bit for bit
    s1, s2, path = split_case
    ref = transition_amplitude(s1, s2, path, u10)
    results = [None] * 3

    def run(k):
        results[k] = transition_amplitude(s1, s2, path, u10)

    workers = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for amp in results:
        assert (amp.K, amp.I, amp.norm_drift) == (ref.K, ref.I, ref.norm_drift)
