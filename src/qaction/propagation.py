"""Internal-time propagation of radial states and transition amplitudes.

The generator at control momentum lambda is, in standard sign convention,
H_std = -hbar^2 d^2/dr^2 + hbar^2 l (l+1)/r^2 - lambda kappa_C / r on a
uniform mesh with Dirichlet walls one step outside both ends; the
internal-time equation i hbar dphi/ds = -H_std phi, phi(s + ds) =
exp(z) phi(s) with z = i ds H / hbar, is stepped with products of Cayley
factors

    F_zeta = (1 - z/zeta) (1 + z/zeta)^-1 = 2 (1 + z/zeta)^-1 - 1

over a set of roots zeta: the single root -2 is Crank-Nicolson, second
order, which every call with a requested step count uses; the pair
-3 +- i sqrt(3) is the (2,2) diagonal Pade approximant of exp(z), fourth
order, which the path search uses (qaction.variational). Either step is
exactly unitary for the symmetric tridiagonal H, so norms are conserved to
roundoff over any number of steps. Each factor's matrix 1 + z/zeta is
constant on a constant-lambda segment, so it is LU-factored once per segment
(LAPACK zgttrf) and every factor then costs one back-substitution (zgttrs);
the wall amplitude is checked for reflection after every step. Transition
amplitudes K = <phi_out | U | phi_in> are accumulated with a continuously
unwrapped phase (a segment whose per-step increment may exceed UNWRAP_PHASE
is refused), and split as K = exp(I / (i hbar) + Q): I is the real
quantum-action phase and Q = log |K| <= 0 the dissipative part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import LambdaPath
from .spectrum import QuantumNumbers, RadialGrid, RadialState, UNIFORM, _check_pair, state_norm
from .units import UnitSystem

__all__ = [
    "BoundaryReflectionError", "PhaseUndefinedError", "TransitionAmplitude",
    "propagation_grid", "grid_eigenstate", "evolve", "evolve_spectral",
    "transition_amplitude", "transition_probability",
]

REFLECTION_TOL = 1e-4   # boundary amplitude over max before we call it a reflection
ROUNDOFF_SAFETY = 10.0  # |K| within this many roundoff bounds of zero has no usable phase
CN_ROOTS = (-2.0,)      # Crank-Nicolson: (1 + z/2) / (1 - z/2)
PADE22_ROOTS = (complex(-3.0, math.sqrt(3.0)), complex(-3.0, -math.sqrt(3.0)))
MAX_PHASE_PER_STEP = 0.02  # radians of overlap phase per Crank-Nicolson step, at most
UNWRAP_PHASE = 0.5  # radians per step past which overlap phase unwrapping can alias


class BoundaryReflectionError(RuntimeError):
    """Amplitude reached the outer wall; results would be echo-contaminated."""


class PhaseUndefinedError(RuntimeError):
    """|K| is numerically zero, so the action phase I does not exist."""


@dataclass(frozen=True)
class TransitionAmplitude:
    """K with its decomposition K = exp(I/(i hbar) + Q) and run diagnostics.

    phase_valid is False when |K| is within roundoff of zero (see
    transition_amplitude); then I is NaN and Q is -inf but K itself is still
    the honest propagated overlap.
    """

    K: complex
    I: float
    Q: float
    path: LambdaPath
    phase_valid: bool
    norm_drift: float


def propagation_grid(r_max: float, num_points: int) -> RadialGrid:
    """Uniform mesh whose implicit Dirichlet wall sits exactly at r = 0.

    Chooses r_min equal to the mesh step, so reduced radial functions, which
    vanish linearly at the origin, see a consistent boundary.
    """
    if num_points < 16:
        raise ValueError("need at least 16 grid points")
    return RadialGrid(r_min=r_max / num_points, r_max=r_max,
                      num_points=num_points, spacing=UNIFORM)


def _hamiltonian_tridiag(grid: RadialGrid, l: int, lam: float,
                         u: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """H_std's diagonal and off-diagonal; the one check that grid is a propagation_grid."""
    if grid.spacing != UNIFORM or abs(grid.r_min - grid.step) > 1e-12 * grid.step:
        raise ValueError("propagation needs a uniform grid walled at r = 0, "
                         "r_min equal to the step (see propagation_grid)")
    r = grid.points()
    h = grid.step
    t = u.hbar * u.hbar / (h * h)
    diag = 2.0 * t + u.hbar * u.hbar * l * (l + 1) / (r * r) \
        - lam * u.coulomb_momentum / r
    off = np.full(grid.num_points - 1, -t)
    return diag, off


def grid_eigenstate(n: int, l: int, lam: float, grid: RadialGrid, u: UnitSystem,
                    check_boundaries: bool = True) -> tuple[RadialState, float]:
    """Bound eigenstate of the discrete generator and its level epsilon > 0.

    Diagonalizes the same tridiagonal operator the propagator steps, so the
    returned state is stationary under evolve() apart from time-stepping
    error. Normalized to one in the mesh quadrature; the overall sign makes
    the largest-amplitude sample positive.
    """
    QuantumNumbers(n, l)  # refuses anything that is not a bound level
    if not lam > 0.0:
        raise ValueError("lambda must be positive for bound states")
    # scipy.linalg is imported where it is used, so importing qaction (and the
    # CLI commands that never touch a radial grid) does not pay for it
    from scipy.linalg import eigh_tridiagonal
    diag, off = _hamiltonian_tridiag(grid, l, lam, u)
    index = n - l - 1
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(index, index))
    e_std = float(w[0])
    if e_std >= 0.0:
        raise RuntimeError(
            f"state (n={n}, l={l}) is not bound on this grid (e = {e_std:.3e}); "
            "enlarge r_max or increase lambda")
    vec = v[:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0.0:
        vec = -vec
    state = RadialState(grid, l, vec.astype(complex))
    state = RadialState(grid, l, state.amplitudes / state_norm(state))
    if check_boundaries:
        peak = float(np.max(np.abs(vec)))
        if abs(vec[-1]) > 1e-8 * peak:
            raise RuntimeError(
                f"eigenstate tail at r_max is {abs(vec[-1]) / peak:.2e} of peak; "
                "enlarge r_max")
        # near r = 0 the reduced function grows like r^(l+1), so the first two
        # samples must show the 2^(l+1) doubling ratio; a flat or shallow start
        # means the first cell is wider than the state's inner length scale
        if abs(vec[0]) > 1e-12 * peak:
            ratio = abs(vec[1] / vec[0]) / 2.0 ** (l + 1)
            if abs(ratio - 1.0) > 0.25:
                raise RuntimeError(
                    "first mesh cell under-resolves the state near the origin; "
                    "refine the mesh")
    return state, -e_std


def _energy_scale(phi: np.ndarray, diag: np.ndarray, off: np.ndarray) -> float:
    """|<H>| plus twice the spread, the rate at which overlap phases can turn."""
    hphi = diag * phi
    hphi[:-1] += off * phi[1:]
    hphi[1:] += off * phi[:-1]
    nrm = float(np.real(np.vdot(phi, phi)))
    m1 = float(np.real(np.vdot(phi, hphi))) / nrm
    m2 = float(np.real(np.vdot(hphi, hphi))) / nrm
    spread = math.sqrt(max(m2 - m1 * m1, 0.0))
    return abs(m1) + 2.0 * spread


def _segment_steps(path: LambdaPath, state: RadialState, u: UnitSystem,
                   cap: float) -> list[int]:
    """Per-segment step counts that turn state's overlap phases at most cap rad a step."""
    counts = []
    for lam, dur in zip(path.values, path.durations):
        diag, off = _hamiltonian_tridiag(state.grid, state.l, lam, u)
        eps = _energy_scale(np.asarray(state.amplitudes), diag, off)
        counts.append(max(1, math.ceil(dur * eps / (u.hbar * cap))))
    return counts


def _cayley(diag: np.ndarray, off: np.ndarray, ds: float, zeta: complex,
            u: UnitSystem) -> tuple:
    """LU factors (LAPACK zgttrf) of 1 + z/zeta, z = i ds H / hbar, H = (diag, off).

    They are all a Cayley factor F = (1 - z/zeta)(1 + z/zeta)^-1 needs: since
    F = 2 (1 + z/zeta)^-1 - 1, applying it is one back-substitution of 2 phi
    (zgttrs) and one subtraction, with no matrix-vector product. H is real
    symmetric, so F_zeta^H = 2 (1 + z/zeta)^-H - 1: a trans 'C' solve with
    these factors applies F_zeta^H, the adjoint sweep's step.
    """
    from scipy.linalg.lapack import zgttrf
    c = 1j * ds / (u.hbar * zeta)
    side = c * off
    dl, d, du, du2, ipiv, info = zgttrf(side, 1.0 + c * diag, side)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Cayley matrix is singular (zgttrf info = {info})")
    return dl, d, du, du2, ipiv


def _sweep(state: RadialState, path: LambdaPath, counts: list[int],
           u: UnitSystem, roots: tuple, out_conj: np.ndarray | None = None,
           record: list | None = None
           ) -> tuple[np.ndarray, complex | None, float]:
    """The Cayley loop: counts[j] steps on segment j of path.

    A step is the product of the Cayley factors (1 - z/zeta)(1 + z/zeta)^-1
    over roots, z = i ds H / hbar: one factor at zeta = -2 is Crank-Nicolson,
    the pair -3 +- i sqrt(3) the (2,2) diagonal Pade approximant of exp(z).
    Per segment H is built once, each factor's matrix is LU-factored once
    (_cayley), and each factor then costs one zgttrs solve. After every
    whole step (the state between two factors of a step is not unit-norm)
    the wall sample is tested against a floor under the peak; only when it
    trips does the exact O(N) reflection check run. With out_conj, the overlap
    h sum(out_conj * phi) is recorded after every whole step and its phase
    unwrapped; a segment whose entering state would turn it more than
    UNWRAP_PHASE rad a step is refused (RuntimeError) before it is factored.
    With record, a list, every segment appends (ds, roots, LU factors in
    roots order, states): the states are the one entering the segment and
    the one after every Cayley factor. That is all _adjoint_sweep reads.
    Returns (phi, last overlap, unwrapped phase); without out_conj the overlap
    is None and the phase 0.
    """
    from scipy.linalg.lapack import zgttrs
    grid = state.grid
    phi = np.array(state.amplitudes, dtype=complex)
    # ||phi|| / sqrt(h N) never exceeds max |phi| and every step keeps the
    # norm to roundoff, so a wall sample under this floor is no reflection
    wall_floor = REFLECTION_TOL * math.sqrt(
        float(np.real(np.vdot(phi, phi))) / grid.num_points)
    o_prev, theta = None, 0.0
    if out_conj is not None:
        h = grid.step  # only overlaps need it; _hamiltonian_tridiag checks the grid
        o_prev = complex(h * np.dot(out_conj, phi))
        theta = math.atan2(o_prev.imag, o_prev.real) if abs(o_prev) > 0.0 else 0.0
    for j, (lam, dur, n_steps) in enumerate(zip(path.values, path.durations, counts)):
        ham = _hamiltonian_tridiag(grid, state.l, lam, u)
        if out_conj is not None:
            need = math.ceil(dur * _energy_scale(phi, *ham) / (u.hbar * UNWRAP_PHASE))
            if need > n_steps:
                raise RuntimeError(
                    f"segment {j} turns the overlap phase more than {UNWRAP_PHASE} "
                    f"rad per step at its {n_steps} steps (it needs {need})")
        ds = dur / n_steps
        lus = [_cayley(*ham, ds, zeta, u) for zeta in roots]
        if record is not None:
            states = [phi]
            record.append((ds, roots, lus, states))
        for _ in range(n_steps):
            for lu in lus:
                x, _ = zgttrs(*lu, 2.0 * phi, overwrite_b=1)
                x -= phi
                phi = x  # a fresh array, so the record keeps it without a copy
                if record is not None:
                    states.append(phi)
            if abs(phi[-1]) > wall_floor:
                peak = float(np.max(np.abs(phi)))
                if abs(phi[-1]) > REFLECTION_TOL * peak:
                    raise BoundaryReflectionError(
                        f"boundary amplitude {abs(phi[-1]) / peak:.2e} of peak "
                        f"at r_max = {grid.r_max}; enlarge r_max")
            if out_conj is not None:
                o_new = complex(h * np.dot(out_conj, phi))
                if abs(o_new) > 1e-280 and abs(o_prev) > 1e-280:
                    turn = o_new * o_prev.conjugate()
                    theta += math.atan2(turn.imag, turn.real)
                o_prev = o_new
    return phi, o_prev, theta


def _adjoint_sweep(record: list, phi_out: RadialState, path: LambdaPath,
                   u: UnitSystem) -> tuple[np.ndarray, complex]:
    """Exact dK/dlambda_j and dK/dS of K = h <phi_out | F_T ... F_1 | phi_in>.

    record is what the forward sweep (_sweep along path) recorded: every
    segment's ds, Cayley roots and their LU factors, and the state phi_t after
    every Cayley factor F_t, phi_0 = phi_in. dS is taken at fixed segment
    fractions and step counts. The factors F = F_zeta are walked backward with the
    adjoint state chi_t, chi_T = phi_out, so that K = h <chi_t | phi_t> for
    every t: chi_{t-1} = F^H chi_t is one trans 'C' solve on zeta's stored LU,
    and phi_{t-1}, phi_t are read from the record, so the walk builds no H and
    factorises nothing. With w = z/zeta, dF = -(1/2) (F + 1) dw (F + 1), so
    factor t adds

        -(h/2) <chi_{t-1} + chi_t | dw | phi_{t-1} + phi_t>

    with dw/dlambda = i ds H' / (hbar zeta), H' = -kappa_C / r on its own
    segment, and dw/dS = w / S (ds is proportional to S), where the factor's
    own equation gives w (phi_{t-1} + phi_t) = phi_{t-1} - phi_t. At the
    Crank-Nicolson root zeta = -2 this is the (i beta h / 2) <...|H'|...>
    term of a Cayley step with beta = ds / (2 hbar).
    """
    from scipy.linalg.lapack import zgttrs
    grid = phi_out.grid
    h = grid.step
    dh_dlam = -u.coulomb_momentum / grid.points()
    chi = np.array(phi_out.amplitudes, dtype=complex)
    dk_dlam = np.empty(path.num_segments, dtype=complex)
    sum_s = 0j
    for j in reversed(range(path.num_segments)):
        ds, roots, lus, states = record[j]
        sums = [0j] * len(roots)
        # states[t] follows factor (t - 1) % len(roots) of its step
        for t in range(len(states) - 1, 0, -1):
            k = (t - 1) % len(roots)
            phi_prev, phi = states[t - 1], states[t]
            chi_prev, _ = zgttrs(*lus[k], 2.0 * chi, trans="C", overwrite_b=1)
            chi_prev -= chi
            chi_mid = chi_prev + chi
            sums[k] += np.vdot(chi_mid, dh_dlam * (phi_prev + phi))
            sum_s += np.vdot(chi_mid, phi - phi_prev)
            chi = chi_prev
        dk_dlam[j] = -0.5j * h * ds / u.hbar * sum(s / z for z, s in zip(roots, sums))
    return dk_dlam, complex(0.5 * h * sum_s / path.S)


def _fixed_counts(path: LambdaPath, steps_per_segment: int) -> list[int]:
    """steps_per_segment on every segment of path, which must be at least one."""
    if steps_per_segment < 1:
        raise ValueError("need at least one step per segment")
    return [steps_per_segment] * path.num_segments


def evolve(state: RadialState, path: LambdaPath, steps_per_segment: int,
           u: UnitSystem) -> RadialState:
    """Propagate through the path with the given number of steps per segment.

    Applies exactly steps_per_segment Crank-Nicolson steps, one solve each,
    per constant-lambda segment: the caller picks the resolution, with no
    phase cap (transition_amplitude adds one). Raises
    BoundaryReflectionError when amplitude reaches the outer wall at any step.
    """
    phi, _, _ = _sweep(state, path, _fixed_counts(path, steps_per_segment), u,
                       CN_ROOTS)
    return RadialState(state.grid, state.l, phi)


def evolve_spectral(state: RadialState, path: LambdaPath, u: UnitSystem,
                    num_states: int = 10) -> RadialState:
    """Cross-check propagation in a truncated bound eigenbasis.

    Projects onto the lowest num_states eigenvectors of each segment's
    generator and rotates them by their exact eigenphases. Valid only while
    the state stays inside the retained span; anything outside is dropped.
    """
    if num_states < 1:
        raise ValueError("need at least one basis state")
    from scipy.linalg import eigh_tridiagonal
    phi = np.array(state.amplitudes, dtype=complex)
    basis_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for lam, dur in zip(path.values, path.durations):
        key = float(lam)
        if key not in basis_cache:
            diag, off = _hamiltonian_tridiag(state.grid, state.l, lam, u)
            basis_cache[key] = eigh_tridiagonal(
                diag, off, select="i", select_range=(0, num_states - 1))
        w, v = basis_cache[key]
        coeff = v.T @ phi
        phi = v @ (coeff * np.exp(1j * w * dur / u.hbar))
    return RadialState(state.grid, state.l, phi)


def _transition(phi_in: RadialState, phi_out: RadialState, path: LambdaPath,
                u: UnitSystem, counts: list[int], roots: tuple,
                record: list | None = None) -> TransitionAmplitude:
    """The amplitude of counts[j] steps on the Cayley roots given on segment
    j; a record list is passed on to _sweep, for _adjoint_sweep."""
    _check_pair(phi_in, phi_out)
    norm_in = state_norm(phi_in)
    for name, nrm in (("phi_in", norm_in), ("phi_out", state_norm(phi_out))):
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"{name} is not normalized (norm = {nrm!r})")
    out = np.asarray(phi_out.amplitudes)
    phi, K, theta = _sweep(phi_in, path, counts, u, roots, np.conj(out), record)
    # re-anchor to the principal branch nearest the accumulated estimate, a
    # no-op unless tracking was suspended near |K| = 0
    if abs(K) > 0.0:
        theta += math.remainder(math.atan2(K.imag, K.real) - theta, 2.0 * math.pi)
    h = phi_in.grid.step
    norm_out = math.sqrt(float(np.real(np.vdot(phi, phi))) * h)
    norm_drift = abs(norm_out - norm_in)
    mag = abs(K)
    if mag > 1.0 + 1e-12:
        raise RuntimeError(f"|K| = {mag!r} exceeds unitarity tolerance")
    if mag > 1.0:
        # roundoff above one: back onto the unit circle, phase unchanged (the
        # division may itself land an ulp outside, so step inside once more)
        K /= mag
        if abs(K) > 1.0:
            K /= 1.0 + 2.0 * np.finfo(float).eps
        mag = abs(K)
    # roundoff bound of K: an N-term overlap errs by up to N eps_mach
    # h sum |phi_out| |phi| (as does that of two eigenvectors LAPACK returns
    # orthogonal to O(N eps_mach)), and every solve adds about eps_mach more
    terms = phi.size + len(roots) * sum(counts)
    roundoff = np.finfo(float).eps * terms * h * float(np.dot(np.abs(out), np.abs(phi)))
    valid = not mag <= ROUNDOFF_SAFETY * roundoff
    return TransitionAmplitude(
        K=K, I=-u.hbar * theta if valid else float("nan"),
        Q=math.log(mag) if valid else float("-inf"),
        path=path, phase_valid=valid, norm_drift=norm_drift)


def transition_amplitude(phi_in: RadialState, phi_out: RadialState,
                         path: LambdaPath, u: UnitSystem,
                         steps_per_segment: int | None = None
                         ) -> TransitionAmplitude:
    """K = <phi_out | U_S | phi_in> with its phase/magnitude decomposition.

    Steps with Crank-Nicolson, one solve per step; each segment's count,
    floored at steps_per_segment (at least one, as in evolve), is raised until
    phi_in turns the overlap phase at most MAX_PHASE_PER_STEP (0.02 rad,
    Crank-Nicolson's accuracy step) a step. The overlap's phase is unwrapped by
    nearest-branch continuation, which can alias past UNWRAP_PHASE (0.5 rad)
    a step, so _sweep refuses a segment whose entering state would turn it
    that fast at its count. I = -hbar theta_unwrapped, Q = log |K|.
    A |K| within roundoff above one is scaled back to one, phase kept, so
    |K| <= 1 and Q <= 0 hold for every amplitude returned. When |K| is within
    ROUNDOFF_SAFETY times the sweep's roundoff bound of zero the result is
    flagged instead: phase_valid False, I NaN, Q -inf.
    """
    floors = _fixed_counts(path, 1 if steps_per_segment is None else steps_per_segment)
    counts = list(map(max, _segment_steps(path, phi_in, u, MAX_PHASE_PER_STEP), floors))
    return _transition(phi_in, phi_out, path, u, counts, CN_ROOTS)


def transition_probability(amp: TransitionAmplitude) -> float:
    """|K|^2, clamped into [0, 1] against roundoff."""
    return min(abs(amp.K) ** 2, 1.0)
