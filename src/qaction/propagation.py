"""Internal-time propagation of radial states and transition amplitudes.

The generator at control momentum lambda is, in standard sign convention,
H_std = -hbar^2 d^2/dr^2 + hbar^2 l (l+1)/r^2 - lambda kappa_C / r on a
uniform mesh with Dirichlet walls one step outside both ends; the
internal-time equation i hbar dphi/ds = -H_std phi is stepped with the
Cayley (Crank-Nicolson) form

    (1 - i ds H/(2 hbar)) phi_next = (1 + i ds H/(2 hbar)) phi,

which is exactly unitary for the symmetric tridiagonal H, so norms are
conserved to roundoff over any number of steps. The left-hand Cayley matrix
is constant on each constant-lambda segment, so it is LU-factored once per
segment (LAPACK zgttrf) and every step only back-substitutes (zgttrs); the
wall amplitude is checked for reflection after every step. Transition
amplitudes K = <phi_out | U | phi_in> are accumulated with a continuously
unwrapped phase (per-step increments kept below pi by an energy-based step
cap), and split as K = exp(I / (i hbar) + Q): I is the real quantum-action
phase and Q = log |K| <= 0 the dissipative part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import LambdaPath
from .spectrum import RadialGrid, RadialState, UNIFORM, state_norm
from .units import UnitSystem

__all__ = [
    "BoundaryReflectionError", "PhaseUndefinedError", "TransitionAmplitude",
    "propagation_grid", "grid_eigenstate", "evolve", "evolve_spectral",
    "transition_amplitude", "transition_probability",
]

REFLECTION_TOL = 1e-4      # boundary amplitude over max before we call it a reflection
FLAG_THRESHOLD = 1e-14     # |K| below this has no usable phase
MAX_PHASE_PER_STEP = 0.02  # radians of overlap phase per step, ceiling on the step size


class BoundaryReflectionError(RuntimeError):
    """Amplitude reached the outer wall; results would be echo-contaminated."""


class PhaseUndefinedError(RuntimeError):
    """|K| is numerically zero, so the action phase I does not exist."""


@dataclass(frozen=True)
class TransitionAmplitude:
    """K with its decomposition K = exp(I/(i hbar) + Q) and run diagnostics.

    phase_valid is False when |K| < 1e-14; then I is NaN and Q is -inf but K
    itself is still the honest propagated overlap.
    """

    K: complex
    I: float
    Q: float
    S: float
    path: LambdaPath
    phase_valid: bool
    norm_drift: float


def propagation_grid(r_max: float, num_points: int) -> RadialGrid:
    """Uniform mesh whose implicit Dirichlet wall sits exactly at r = 0.

    Chooses r_min equal to the mesh step, so reduced radial functions, which
    vanish linearly at the origin, see a consistent boundary.
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    if num_points < 16:
        raise ValueError("need at least 16 grid points")
    return RadialGrid(r_min=r_max / num_points, r_max=r_max,
                      num_points=num_points, spacing=UNIFORM)


def _hamiltonian_tridiag(grid: RadialGrid, l: int, lam: float,
                         u: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of H_std on the uniform mesh."""
    if grid.spacing != UNIFORM:
        raise ValueError("propagation needs a uniform grid (see propagation_grid)")
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
    if n < 1 or l < 0 or l >= n:
        raise ValueError(f"need n >= 1 and 0 <= l < n, got n={n}, l={l}")
    if lam <= 0.0:
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


def _check_reflection(phi: np.ndarray, grid: RadialGrid) -> None:
    peak = float(np.max(np.abs(phi)))
    if peak > 0.0 and abs(phi[-1]) > REFLECTION_TOL * peak:
        raise BoundaryReflectionError(
            f"boundary amplitude {abs(phi[-1]) / peak:.2e} of peak at r_max = "
            f"{grid.r_max}; enlarge r_max")


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
                   steps_per_segment: int | None, cap: float) -> list[int]:
    """Per-segment step counts: the explicit request is a floor, the phase cap a ceiling."""
    counts = []
    for lam, dur in zip(path.values, path.durations):
        diag, off = _hamiltonian_tridiag(state.grid, state.l, lam, u)
        eps = _energy_scale(np.asarray(state.amplitudes), diag, off)
        need = max(1, math.ceil(dur * eps / (u.hbar * cap)))
        counts.append(max(need, steps_per_segment or 1))
    return counts


def _cn_sweep(state: RadialState, path: LambdaPath, counts: list[int],
              u: UnitSystem, out_conj: np.ndarray | None = None
              ) -> tuple[np.ndarray, complex | None, float]:
    """The Crank-Nicolson loop: counts[j] Cayley steps on segment j of path.

    Per segment, A = 1 - i beta H is LU-factored once (LAPACK zgttrf, the
    pivoted elimination a gtsv solve would repeat every step) and each step
    solves A phi_next = (1 + i beta H) phi with those factors (zgttrs). After
    every step the wall sample is tested against a floor under the peak; only
    when it trips does the exact O(N) reflection check run. With out_conj,
    the overlap h sum(out_conj * phi) is recorded after every step and its
    phase unwrapped. Returns (phi, last overlap, unwrapped phase); without
    out_conj the overlap is None and the phase 0.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs
    grid = state.grid
    h = grid.step
    phi = np.array(state.amplitudes, dtype=complex)
    # ||phi|| / sqrt(h N) never exceeds max |phi| and the Cayley step keeps the
    # norm to roundoff, so a wall sample under this floor is no reflection
    wall_floor = REFLECTION_TOL * math.sqrt(
        float(np.real(np.vdot(phi, phi))) / grid.num_points)
    o_prev, theta = None, 0.0
    if out_conj is not None:
        o_prev = complex(h * np.sum(out_conj * phi))
        theta = math.atan2(o_prev.imag, o_prev.real) if abs(o_prev) > 0.0 else 0.0
    for lam, dur, n_steps in zip(path.values, path.durations, counts):
        diag, off = _hamiltonian_tridiag(grid, state.l, lam, u)
        ds = dur / n_steps
        beta = 0.5 * ds / u.hbar
        t = -float(off[0])  # hbar^2 / h^2, positive
        side = np.full(grid.num_points - 1, 1j * beta * t)
        dl, d, du, du2, ipiv, info = zgttrf(side, 1.0 - 1j * beta * diag, side)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Cayley matrix is singular (zgttrf info = {info})")
        rhs_diag = 1.0 + 1j * beta * diag
        rhs_off = -1j * beta * t
        for _ in range(n_steps):
            rhs = rhs_diag * phi
            rhs[:-1] += rhs_off * phi[1:]
            rhs[1:] += rhs_off * phi[:-1]
            phi, _ = zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
            if abs(phi[-1]) > wall_floor:
                _check_reflection(phi, grid)
            if out_conj is not None:
                o_new = complex(h * np.sum(out_conj * phi))
                if abs(o_new) > 1e-280 and abs(o_prev) > 1e-280:
                    theta += math.atan2((o_new * o_prev.conjugate()).imag,
                                        (o_new * o_prev.conjugate()).real)
                o_prev = o_new
    return phi, o_prev, theta


def evolve(state: RadialState, path: LambdaPath, steps_per_segment: int,
           u: UnitSystem) -> RadialState:
    """Propagate through the path with the given number of steps per segment.

    Applies exactly steps_per_segment Cayley steps per constant-lambda
    segment (callers pick the resolution; transition_amplitude adds an
    automatic cap). Raises BoundaryReflectionError when amplitude reaches
    the outer wall at any step.
    """
    if steps_per_segment < 1:
        raise ValueError("need at least one step per segment")
    phi, _, _ = _cn_sweep(state, path, [steps_per_segment] * path.num_segments, u)
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


def transition_amplitude(phi_in: RadialState, phi_out: RadialState,
                         path: LambdaPath, u: UnitSystem,
                         steps_per_segment: int | None = None
                         ) -> TransitionAmplitude:
    """K = <phi_out | U_S | phi_in> with its phase/magnitude decomposition.

    The overlap with phi_out is recorded after every step and its phase
    unwrapped by nearest-branch continuation; each segment's step count,
    floored at steps_per_segment, is raised until the expected phase motion
    per step stays under MAX_PHASE_PER_STEP, so the unwrapping cannot alias
    (a floor above that need fixes the counts). I = -hbar * theta_unwrapped
    and Q = log |K| (clamped at zero for |K| within roundoff above one). When
    |K| < 1e-14 the result is flagged instead: phase_valid False, I NaN, Q -inf.
    """
    if phi_in.grid != phi_out.grid:
        raise ValueError("states live on different grids")
    if phi_in.l != phi_out.l:
        raise ValueError("cross-l overlap is zero by orthogonality; refusing mixed-l input")
    for name, st in (("phi_in", phi_in), ("phi_out", phi_out)):
        nrm = state_norm(st)
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"{name} is not normalized (norm = {nrm!r})")
    counts = _segment_steps(path, phi_in, u, steps_per_segment, MAX_PHASE_PER_STEP)
    norm_in = state_norm(phi_in)
    phi, K, theta = _cn_sweep(phi_in, path, counts, u,
                              out_conj=np.conj(np.asarray(phi_out.amplitudes)))
    # re-anchor to the principal branch nearest the accumulated estimate, a
    # no-op unless tracking was suspended near |K| = 0
    if abs(K) > 0.0:
        theta += math.remainder(math.atan2(K.imag, K.real) - theta, 2.0 * math.pi)
    norm_out = math.sqrt(float(np.real(np.vdot(phi, phi))) * phi_in.grid.step)
    norm_drift = abs(norm_out - norm_in)
    mag = abs(K)
    if mag > 1.0 + 1e-12:
        raise RuntimeError(f"|K| = {mag!r} exceeds unitarity tolerance")
    if mag < FLAG_THRESHOLD:
        return TransitionAmplitude(K=K, I=float("nan"), Q=float("-inf"),
                                   S=path.S, path=path, phase_valid=False,
                                   norm_drift=norm_drift)
    return TransitionAmplitude(K=K, I=-u.hbar * theta, Q=math.log(min(mag, 1.0)),
                               S=path.S, path=path, phase_valid=True,
                               norm_drift=norm_drift)


def transition_probability(amp: TransitionAmplitude) -> float:
    """|K|^2, clamped into [0, 1] against roundoff."""
    return min(abs(amp.K) ** 2, 1.0)
