"""Internal-time propagation of radial states and transition amplitudes.

The generator at control momentum lambda is, in standard sign convention,
H_std = -hbar^2 d^2/dr^2 + hbar^2 l (l+1)/r^2 - lambda kappa_C / r on a
uniform mesh with Dirichlet walls one step outside both ends; the
internal-time equation i hbar dphi/ds = -H_std phi, phi(s + ds) =
exp(z) phi(s) with z = i ds H / hbar, is stepped with products of Cayley
factors

    F_zeta = (1 - z/zeta) (1 + z/zeta)^-1 = 2 (1 + z/zeta)^-1 - 1

over a set of roots zeta: the single root -2 is Crank-Nicolson, second
order, which evolve and transition_amplitude use; PADE33_ROOTS, the roots
of 1 + z/2 + z^2/10 + z^3/120, give the sixth-order (3,3) diagonal Pade
approximant, which the path search uses. Either step is exactly unitary for
the symmetric tridiagonal H, so norms are conserved to roundoff over any
number of steps. The sweep sets each segment's step count, from the state
entering it. Each factor's matrix 1 + z/zeta is constant on a
constant-lambda segment, so it is LU-factored once per segment (LAPACK
zgttrf) and every factor then costs one back-substitution (zgttrs). On grids
of SPLIT_POINTS or more a Crank-Nicolson sweep that keeps no record factors
the matrix as two diagonal blocks instead, and solves them at once on two
threads (partition method, H. H. Wang, ACM TOMS 7, 170, 1981). Every sum
over a grid runs in parts of at most BLAS_SERIAL elements, so no result
depends on the core count. The wall is checked for reflection after every
step. Transition amplitudes K = <phi_out | U | phi_in> are accumulated with
a continuously unwrapped phase (a segment whose per-step increment may
exceed UNWRAP_PHASE is refused), and split as K = exp(I / (i hbar) + Q): I
is the real quantum-action phase and Q = log |K| <= 0 the dissipative part.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .paths import LambdaPath
from .spectrum import QuantumNumbers
from .units import UnitSystem

__all__ = [
    "BoundaryReflectionError", "PhaseUndefinedError", "TransitionAmplitude", "RadialGrid",
    "RadialState", "state_norm", "propagation_grid", "grid_eigenstate", "evolve",
    "transition_amplitude",
]

REFLECTION_TOL = 1e-4   # boundary amplitude over max before we call it a reflection
ROUNDOFF_SAFETY = 10.0  # |K| within this many roundoff bounds of zero has no usable phase
CN_ROOTS = (-2.0,)      # Crank-Nicolson: (1 + z/2) / (1 - z/2)
PADE33_ROOTS = (complex(-3.6778146453739144, 3.5087619195674433),  # (3,3) Pade: the roots of
                complex(-3.6778146453739144, -3.5087619195674433),  # 1 + z/2 + z^2/10 + z^3/120
                -4.644370709252171)
MAX_PHASE_PER_STEP = 0.02  # radians of overlap phase per Crank-Nicolson step, at most
UNWRAP_PHASE = 0.5  # radians per step past which overlap phase unwrapping can alias
SPLIT_POINTS = 6000  # grid points from which a CN solve is two blocks on two threads
# grid points x steps of one sweep, at most: five times acceptance 06's 20 000 x 10 000
MAX_SWEEP_WORK = 10 ** 9
# longest dot numpy 2.4.6's OpenBLAS keeps on one thread (10 001 elements give
# other bits on one core than on two); another BLAS may need another value
BLAS_SERIAL = 10000
H_MAX = sys.float_info.max ** 0.25  # each term of H's diagonal at r = step, at most
_LAPACK_LOAD = threading.Lock()  # makes _lapack's look-up and load one step


class BoundaryReflectionError(RuntimeError):
    """Amplitude reached the outer wall; results would be echo-contaminated."""


class PhaseUndefinedError(RuntimeError):
    """|K| is numerically zero, so the action phase I does not exist."""


@dataclass(frozen=True)
class TransitionAmplitude:
    """K with its decomposition K = exp(I/(i hbar) + Q) and run diagnostics.

    I is NaN when |K| is within roundoff of zero (see transition_amplitude),
    K still the honest overlap. Q, phase_valid and probability are read from
    K and I.
    """

    K: complex
    I: float
    norm_drift: float

    @property
    def phase_valid(self) -> bool:
        return not math.isnan(self.I)

    @property
    def Q(self) -> float:
        return math.log(abs(self.K)) if self.phase_valid else -math.inf

    @property
    def probability(self) -> float:
        """|K|^2, clamped into [0, 1] against roundoff."""
        return min(abs(self.K) ** 2, 1.0)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh walled at r = 0, of 16 to MAX_SWEEP_WORK points: built once and
    read-only, they run from r_max / num_points, one step from the Dirichlet wall, to r_max."""

    r_max: float
    num_points: int

    def __post_init__(self):
        if not (isinstance(self.num_points, numbers.Integral) and self.num_points >= 16):
            raise ValueError(f"need at least 16 grid points, an integer, got {self.num_points!r}")
        if self.num_points > MAX_SWEEP_WORK:
            raise ValueError(f"need at most {MAX_SWEEP_WORK:.0e} grid points: one step on more "
                             "is past the sweep's budget of grid points x steps")
        if not (0.0 < self.r_max / self.num_points and self.r_max < math.inf):  # NaN fails
            raise ValueError("need a finite r_max whose r_max / num_points is positive, "
                             f"got r_max = {self.r_max!r} on {self.num_points} points")
        r = np.linspace(self.r_max / self.num_points, self.r_max, self.num_points)
        r.setflags(write=False)
        object.__setattr__(self, "_points", r)

    def points(self) -> np.ndarray:
        return self._points

    @property
    def step(self) -> float:
        """Mesh spacing h."""
        return (self.r_max - self.r_max / self.num_points) / (self.num_points - 1)


@dataclass(frozen=True, eq=False)
class RadialState:
    """Reduced radial wave function u(r) = r R(r) sampled on a grid.

    States are equal when their grids, l and amplitudes are; like their
    amplitude arrays, they are not hashable.
    """

    grid: RadialGrid
    l: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size != self.grid.num_points:
            raise ValueError("amplitudes must be a 1d array matching the grid")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes contain non-finite entries")
        if not (isinstance(self.l, numbers.Integral) and self.l >= 0):
            raise ValueError(f"l must be non-negative and an integer, got {self.l!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def __eq__(self, other):
        if not isinstance(other, RadialState):
            return NotImplemented
        return bool(self.grid == other.grid and self.l == other.l
                    and np.array_equal(self.amplitudes, other.amplitudes))


def state_norm(state: RadialState) -> float:
    """The h-weighted sum, consistent with Dirichlet walls one step outside both ends
    (states vanish there, so this is the norm the propagator conserves exactly)."""
    return math.sqrt(float(np.sum(state.grid.step * np.abs(state.amplitudes) ** 2)))


propagation_grid = RadialGrid  # the name the CLI and the suite build grids by


def _lapack():
    """scipy's LAPACK extension module scipy.linalg._flapack, without scipy.linalg.

    The package calls four of its routines: zgttrf in _cayley, zgttrs in the
    sweeps (_sweep, _two_blocks, _TwoBlockSolver, _adjoint_sweep), and dstebz
    and dstein in _eigenpairs, for grid_eigenstate.
    Importing the scipy.linalg package around them costs about half of a
    fresh propagate or optimize run. A module already imported under that
    name is returned, so a process holds one copy whatever it imported
    first. Otherwise the import system's path finder looks for it in scipy's
    linalg directory, and the module it finds is loaded and registered under
    that name, so a later import of scipy.linalg reuses it; only where it
    finds none is the package imported. Its f2py signatures are scipy
    internals, checked against scipy 1.17.1 only: CI's floors job is the one
    run against scipy 1.10.
    """
    name = "scipy.linalg._flapack"
    with _LAPACK_LOAD:  # threads that load it at once load it once
        if name not in sys.modules:
            roots = importlib.util.find_spec("scipy").submodule_search_locations
            spec = importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(root, "linalg") for root in roots])
            if spec is None:
                from scipy.linalg import _flapack as module
            else:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            sys.modules[name] = module
        return sys.modules[name]


def _hamiltonian_tridiag(grid: RadialGrid, l: int, lam: float,
                         u: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """H_std's diagonal and off-diagonal; the one check that H fits the float range: at
    r = step, where each peaks, the grid's 2 hbar^2 / step^2,
    l's hbar^2 l(l+1) / step^2 and lambda's |lambda| kappa_C / step are each at most H_MAX, so
    no entry passes 3 H_MAX, where dstein's vectors and the squares of H phi stay finite; the
    grid's term is also at least 1 / H_MAX, which keeps r^2 and hbar^2 l(l+1) finite. Judged
    in that order, on scalars, before H is built."""
    h = grid.step
    t = u.hbar * u.hbar / (h * h) if h * h > 0.0 else math.inf
    if not 1.0 / H_MAX <= 2.0 * t <= H_MAX:  # NaN fails too
        raise ValueError(f"propagation grid r_max = {grid.r_max!r} on {grid.num_points} points "
                         f"leaves the float range: 2 hbar^2 / step^2 = {2.0 * float(t)!r} must "
                         f"lie in [1 / H_MAX, H_MAX], H_MAX = {H_MAX:.4g}")
    if int(l) * (int(l) + 1) > H_MAX / t:  # an integer against a float: exact, no conversion
        raise ValueError(f"l is too large for this grid: its centrifugal entry hbar^2 l (l+1) "
                         f"/ step^2 must be at most H_MAX = {H_MAX:.4g}, l = {_count(l)}")
    coulomb = abs(float(lam)) * u.coulomb_momentum / h
    if not coulomb <= H_MAX:
        raise ValueError(f"lambda = {float(lam)!r} is too large for this grid: its Coulomb entry "
                         f"|lambda| kappa_C / step = {coulomb!r} is over H_MAX = {H_MAX:.4g}")
    r = grid.points()
    diag = 2.0 * t + u.hbar * u.hbar * l * (l + 1) / (r * r) - lam * u.coulomb_momentum / r
    off = np.full(grid.num_points - 1, -t)
    return diag, off


def _eigenpairs(diag: np.ndarray, off: np.ndarray, first: int, last: int) -> tuple:
    """Eigenvalues first..last (from 0, ascending) of H = (diag, off), and their vectors.

    grid_eigenstate's eigensolve: eigh_tridiagonal(select="i")'s two LAPACK calls with its
    arguments, so its bits: bisection (dstebz), then inverse iteration (dstein); a nonzero info
    raises, which no input reaches: _hamiltonian_tridiag keeps H's entries within 3 H_MAX.
    """
    lapack = _lapack()
    found, w, block, split, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, first + 1,
                                                 last + 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvalue bisection failed (dstebz info {info})")
    v, info = lapack.dstein(diag, off, w[:found], block, split)
    if info != 0:
        raise np.linalg.LinAlgError(f"inverse iteration failed (dstein info {info})")
    return w[:found], v


def grid_eigenstate(n: int, l: int, lam: float, grid: RadialGrid,
                    u: UnitSystem) -> tuple[RadialState, float]:
    """Bound eigenstate of the discrete generator and its level epsilon > 0.

    Diagonalizes the same tridiagonal operator the propagator steps, so the
    returned state is stationary under evolve() apart from time-stepping
    error. Normalized to one in the mesh quadrature; the overall sign makes
    the largest-amplitude sample positive. A state the grid truncates at r_max
    or under-resolves at the origin is refused.
    """
    QuantumNumbers(n, l)  # refuses anything that is not a bound level
    if not lam > 0.0:
        raise ValueError("lambda must be positive for bound states")
    diag, off = _hamiltonian_tridiag(grid, l, lam, u)
    index = n - l - 1
    if index >= grid.num_points:
        raise ValueError(f"state (n={n}, l={l}) needs more than {grid.num_points} grid points")
    w, v = _eigenpairs(diag, off, index, index)
    e_std = float(w[0])
    if e_std >= 0.0:
        raise RuntimeError(
            f"state (n={n}, l={l}) is not bound on this grid (e = {e_std:.3e}); "
            "enlarge r_max or increase lambda")
    vec = v[:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0.0:
        vec = -vec
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
    state = RadialState(grid, l, vec.astype(complex))
    return RadialState(grid, l, state.amplitudes / state_norm(state)), -e_std


def _chunked(dot, a: np.ndarray, b: np.ndarray):
    """dot(a, b), summed over k = ceil(n / BLAS_SERIAL) contiguous parts, edges n i // k.

    numpy's BLAS threads longer dots: their last bits would then depend on
    the core count, and its threads spin against the two-block solve's worker.
    """
    n = a.size
    if n <= BLAS_SERIAL:
        return dot(a, b)
    k = -(-n // BLAS_SERIAL)
    edges = [n * i // k for i in range(k + 1)]
    parts = [dot(a[i:j], b[i:j]) for i, j in zip(edges, edges[1:])]
    return sum(parts[1:], parts[0])


def _energy_moments(phi: np.ndarray, diag: np.ndarray, off: np.ndarray
                    ) -> tuple[float, float]:
    """<H> in phi, and |<H>| plus twice the spread, the rate at which overlap
    phases can turn: both from one product H phi; past the float range inf, never NaN."""
    hphi = diag * phi
    hphi[:-1] += off * phi[1:]
    hphi[1:] += off * phi[:-1]
    nrm = float(np.real(_chunked(np.vdot, phi, phi)))
    m1 = float(np.real(_chunked(np.vdot, phi, hphi))) / nrm
    m2 = float(np.real(_chunked(np.vdot, hphi, hphi))) / nrm
    rate = abs(m1) + 2.0 * math.sqrt(max(m2 - m1 * m1, 0.0))
    return m1, rate if rate < math.inf else math.inf


def _cayley(diag: np.ndarray, off: np.ndarray, ds: float, zeta: complex,
            u: UnitSystem) -> tuple:
    """LU factors (LAPACK zgttrf) of 1 + z/zeta, z = i ds H / hbar, H = (diag, off).

    They are all a Cayley factor F = (1 - z/zeta)(1 + z/zeta)^-1 needs: since
    F = 2 (1 + z/zeta)^-1 - 1, applying it is one back-substitution of 2 phi
    (zgttrs) and one subtraction, with no matrix-vector product. H is real
    symmetric, so F_zeta^H = 2 (1 + z/zeta)^-H - 1: a trans 'C' solve with
    these factors applies F_zeta^H, the adjoint sweep's step.
    """
    c = 1j * ds / (u.hbar * zeta)
    side = c * off
    dl, d, du, du2, ipiv, info = _lapack().zgttrf(side, 1.0 + c * diag, side)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Cayley matrix is singular (zgttrf info = {info})")
    return dl, d, du, du2, ipiv


def _two_blocks(diag: np.ndarray, off: np.ndarray, ds: float, zeta: complex,
                u: UnitSystem) -> tuple:
    """1 + z/zeta as two diagonal blocks, A1 on rows [0, m) and A2 on rows [m, N), m = N // 2.

    Each block is LU-factored on its own (_cayley). With the coupling
    a = A[m-1, m] = A[m, m-1], g1 = A1^-1 e_{m-1} and g2 = A2^-1 e_0: the
    matrix is complex symmetric, so entry m-1 of A1^-1 b1 is the plain dot
    g1 . b1 and entry m of A2^-1 b2 is g2 . b2, and x_{m-1}, x_m solve a
    2x2 system with determinant det = 1 - a^2 g1[-1] g2[0]. At zeta = -2 the
    matrix is 1 - i beta H with H real symmetric, whose Hermitian part is 1,
    so both blocks and that system are nonsingular with no pivoting across
    the interface; this holds for Crank-Nicolson only. g decays away from
    the interface, into subnormals on fine steps, and a dot over subnormals
    is some 40 times slower: the dots run over the window [lo, m) of g1 and
    [0, hi) of g2 where |g| is at least the smallest normal float, and a
    term dropped is below 2.2e-308 |b|. Returns (LU of A1, LU of A2, m,
    g1[lo:], lo, g2[:hi], hi, a g1[-1], a g2[0], a / det).
    """
    zgttrs = _lapack().zgttrs
    n = diag.size
    m = n // 2
    lu_top = _cayley(diag[:m], off[:m - 1], ds, zeta, u)
    lu_bottom = _cayley(diag[m:], off[m:], ds, zeta, u)
    e = np.zeros(m, dtype=complex)
    e[-1] = 1.0
    g_top, _ = zgttrs(*lu_top, e, overwrite_b=1)
    e = np.zeros(n - m, dtype=complex)
    e[0] = 1.0
    g_bottom, _ = zgttrs(*lu_bottom, e, overwrite_b=1)
    a = complex(1j * ds / (u.hbar * zeta) * off[m - 1])
    q_top, q_bottom = a * complex(g_top[-1]), a * complex(g_bottom[0])
    tiny = np.finfo(float).tiny
    lo = int(np.argmax(np.abs(g_top) >= tiny))
    hi = n - m - int(np.argmax(np.abs(g_bottom[::-1]) >= tiny))
    return (lu_top, lu_bottom, m, g_top[lo:], lo, g_bottom[:hi], hi,
            q_top, q_bottom, a / (1.0 - q_top * q_bottom))


class _TwoBlockSolver:
    """Solves with _two_blocks' factors, the bottom block on a worker thread.

    Per solve, two half-length dots give x_{m-1} and x_m; the coupling
    moves into the right-hand side, b1[-1] -= a x_m and b2[0] -= a x_{m-1};
    then the worker solves A2 while the calling thread solves A1, each one
    zgttrs in place on its contiguous half of b (overwrite_b), which
    releases the GIL. Two queues hand each solve over and back. The thread
    starts with the solver and stops at close().
    """

    def __init__(self):
        # imported here, so that importing qaction does not load queue
        import queue
        self._zgttrs = _lapack().zgttrs  # read here, never on the worker
        self._tasks, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for lu, b in iter(self._tasks.get, None):
            try:
                self._zgttrs(*lu, b, overwrite_b=1)
            except Exception as exc:  # raised again on the calling thread
                self._done.put(exc)
            else:
                self._done.put(None)

    def __call__(self, blocks: tuple, b: np.ndarray) -> np.ndarray:
        """(1 + z/zeta)^-1 b, in place of b, from _two_blocks' tuple."""
        lu_top, lu_bottom, m, g_top, lo, g_bottom, hi, q_top, q_bottom, p = blocks
        top, bottom = b[:m], b[m:]
        y_top = complex(_chunked(np.dot, g_top, top[lo:]))
        y_bottom = complex(_chunked(np.dot, g_bottom, bottom[:hi]))
        top[-1] -= p * (y_bottom - q_bottom * y_top)
        bottom[0] -= p * (y_top - q_top * y_bottom)
        self._tasks.put((lu_bottom, bottom))
        self._zgttrs(*lu_top, top, overwrite_b=1)
        exc = self._done.get()
        if exc is not None:
            raise exc
        return b

    def close(self) -> None:
        self._tasks.put(None)
        self._thread.join()


def _sweep(state: RadialState, path: LambdaPath, steps: int, u: UnitSystem,
           roots: tuple, cap: float | None = None,
           out_conj: np.ndarray | None = None, record: list | None = None
           ) -> tuple[np.ndarray, complex | None, float, int]:
    """The Cayley loop along path, at least steps (an integer >= 1) per segment.

    A step is the product of the Cayley factors over roots (CN_ROOTS or
    PADE33_ROOTS).
    Per segment H is built once; the state entering the segment turns overlap
    phases by about turn = dur scale / hbar over it (scale from
    _energy_moments), and the segment takes steps, or with cap max(steps,
    ceil(turn / cap)): this sizes transition_amplitude's sweeps segment by
    segment. evolve passes its caller's count and a path search the count
    VariationalProblem.steps_per_segment fixes once from the same scale,
    both without a cap. A floor whose steps on all segments take more than
    MAX_SWEEP_WORK grid points x steps is refused (ValueError) before the
    sweep starts, and a segment whose count the cap raises past the budget, or
    whose step ds is subnormal, before it is factored. Each factor's matrix is
    LU-factored once (_cayley), and each factor then costs one zgttrs solve. A
    Crank-Nicolson sweep on SPLIT_POINTS or more points that keeps no record
    (_adjoint_sweep solves with one-block factors) instead factors two
    diagonal blocks per segment (_two_blocks) and solves them at once on two
    threads (_TwoBlockSolver); it does so whatever the core count, so its
    results do not depend on it.
    After every whole step (the state between two factors of a step is not
    unit-norm) the wall sample is tested against a floor under the peak;
    only when it trips does the exact O(N) reflection check run. With
    out_conj, the overlap h sum(out_conj * phi), in parts (_chunked), is
    recorded after every whole step and its phase unwrapped; a segment with
    fewer than ceil(turn / UNWRAP_PHASE) steps is refused (RuntimeError)
    before it is factored. With record, a list, every segment appends (ds,
    roots, LU factors in roots order, states): the states are the one
    entering the segment and the one after every Cayley factor. That is all
    _adjoint_sweep reads, and all _record_price counts. Returns (phi, last
    overlap, unwrapped phase, steps taken); without out_conj the overlap is
    None and the phase 0.
    """
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"need at least one step per segment, a whole number, got {steps!r}")
    if steps < 1:
        raise ValueError("need at least one step per segment")
    grid = state.grid
    if steps * grid.num_points * path.num_segments > MAX_SWEEP_WORK:  # integers: the least work
        raise ValueError(
            f"the step floor on {path.num_segments} segment(s) of {grid.num_points} grid "
            f"points is past the sweep's budget of {MAX_SWEEP_WORK:.0e} grid points x "
            "steps; lower the steps, coarsen the grid or use fewer segments")
    zgttrs = _lapack().zgttrs
    phi = np.array(state.amplitudes, dtype=complex)
    # ||phi|| / sqrt(h N) never exceeds max |phi| and every step keeps the
    # norm to roundoff, so a wall sample under this floor is no reflection
    wall_floor = REFLECTION_TOL * math.sqrt(
        float(np.real(_chunked(np.vdot, phi, phi))) / grid.num_points)
    split = roots == CN_ROOTS and record is None and grid.num_points >= SPLIT_POINTS
    if split:
        factor, solve = _two_blocks, _TwoBlockSolver()
    else:
        factor, solve = _cayley, lambda lu, b: zgttrs(*lu, b, overwrite_b=1)[0]
    o_prev, theta, total = None, 0.0, 0
    try:
        for j, (lam, dur) in enumerate(zip(path.values, path.durations)):
            ham = _hamiltonian_tridiag(grid, state.l, lam, u)
            if cap is not None or out_conj is not None:
                # float arithmetic: a turn past the float range is inf, over both budgets
                turn = float(dur) * _energy_moments(phi, *ham)[1] / u.hbar
            n_steps = steps if cap is None else max(steps, turn / cap)
            if (total + n_steps) * grid.num_points > MAX_SWEEP_WORK:
                raise ValueError(
                    f"segment {j} needs {n_steps:.4g} steps on {grid.num_points} grid "
                    f"points, past the sweep's budget of {MAX_SWEEP_WORK:.0e} grid "
                    "points x steps; shorten the path or coarsen the grid")
            n_steps = math.ceil(n_steps)
            if out_conj is not None:
                need = turn / UNWRAP_PHASE  # above n_steps iff its ceil is; inf has none
                if need > n_steps:
                    raise RuntimeError(
                        f"segment {j} turns the overlap phase more than {UNWRAP_PHASE} "
                        f"rad per step at its {n_steps} steps (it needs {_count(need)})")
                if j == 0:
                    h = grid.step  # read once _hamiltonian_tridiag has checked the grid
                    o_prev = complex(h * _chunked(np.dot, out_conj, phi))
                    theta = math.atan2(o_prev.imag, o_prev.real) if abs(o_prev) > 0.0 else 0.0
            total += n_steps
            ds = dur / n_steps
            if ds < np.finfo(float).tiny:
                raise ValueError(
                    f"segment {j} of duration {float(dur)!r} in {n_steps} steps has the "
                    f"subnormal step ds = {float(ds)!r}; lengthen the path")
            lus = [factor(*ham, ds, zeta, u) for zeta in roots]
            if record is not None:
                states = [phi]
                record.append((ds, roots, lus, states))
            for _ in range(n_steps):
                for lu in lus:
                    x = solve(lu, 2.0 * phi)
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
                    o_new = complex(h * _chunked(np.dot, out_conj, phi))
                    if abs(o_new) > 1e-280 and abs(o_prev) > 1e-280:
                        rot = o_new * o_prev.conjugate()
                        theta += math.atan2(rot.imag, rot.real)
                    o_prev = o_new
    finally:
        if split:
            solve.close()
    return phi, o_prev, theta, total


def _count(n) -> str:
    """ceil(n), n >= 0 or inf, in a message: past 16 digits, 4 in e-notation (no float)."""
    s = str(math.ceil(n) if n < math.inf else n)
    return s if len(s) <= 16 else f"{s[0]}.{s[1:4]}e+{len(s) - 1}"


def _record_price(points: int, segments: int, steps: int, roots: tuple
                  ) -> tuple[int, int]:
    """(solves, bytes) of a recorded _sweep and the _adjoint_sweep that reads it.

    With factors = len(roots) * segments, a sweep of steps a segment applies
    factors * steps Cayley factors, one solve each, and the adjoint as many.
    The record keeps the state entering the sweep and the one after every
    factor, points complex numbers each (a segment's entering state is the
    one its predecessor left), and per root and segment zgttrf's dl, d, du,
    du2 (points - 1, points, points - 1, points - 2 complex numbers) and its
    int32 ipiv (points).
    """
    factors = len(roots) * segments
    states = 16 * points * (1 + factors * steps)
    lu = 16 * (4 * points - 4) + 4 * points
    return 2 * factors * steps, states + factors * lu


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
    zgttrs = _lapack().zgttrs
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
            sums[k] += _chunked(np.vdot, chi_mid, dh_dlam * (phi_prev + phi))
            sum_s += _chunked(np.vdot, chi_mid, phi - phi_prev)
            chi = chi_prev
        dk_dlam[j] = -0.5j * h * ds / u.hbar * sum(s / z for z, s in zip(roots, sums))
    return dk_dlam, complex(0.5 * h * sum_s / path.S)


def evolve(state: RadialState, path: LambdaPath, steps_per_segment: int,
           u: UnitSystem) -> RadialState:
    """Propagate through the path with the given number of steps per segment.

    Applies exactly steps_per_segment (at least one) Crank-Nicolson steps,
    one solve each, per constant-lambda segment: the caller picks the
    resolution, with no phase cap (transition_amplitude adds one). Raises
    BoundaryReflectionError when amplitude reaches the outer wall at any step.
    """
    phi, _, _, _ = _sweep(state, path, steps_per_segment, u, CN_ROOTS)
    return RadialState(state.grid, state.l, phi)


def _transition(phi_in: RadialState, phi_out: RadialState, path: LambdaPath,
                u: UnitSystem, steps: int, roots: tuple, cap: float | None = None,
                record: list | None = None) -> TransitionAmplitude:
    """The amplitude of a _sweep of steps (and cap) on the Cayley roots given;
    a record list is passed on to _sweep, for _adjoint_sweep."""
    if phi_in.grid != phi_out.grid:
        raise ValueError("states live on different grids")
    if phi_in.l != phi_out.l:
        raise ValueError("cross-l overlap is zero by orthogonality; refusing mixed-l input")
    norm_in = state_norm(phi_in)
    for name, nrm in (("phi_in", norm_in), ("phi_out", state_norm(phi_out))):
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"{name} is not normalized (norm = {nrm!r})")
    out = np.asarray(phi_out.amplitudes)
    phi, K, theta, total = _sweep(phi_in, path, steps, u, roots, cap, np.conj(out),
                                  record)
    # re-anchor to the principal branch nearest the accumulated estimate, a
    # no-op unless tracking was suspended near |K| = 0
    if abs(K) > 0.0:
        theta += math.remainder(math.atan2(K.imag, K.real) - theta, 2.0 * math.pi)
    h = phi_in.grid.step
    norm_out = math.sqrt(float(np.real(_chunked(np.vdot, phi, phi))) * h)
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
    terms = phi.size + len(roots) * total
    roundoff = np.finfo(float).eps * terms * h * float(
        _chunked(np.dot, np.abs(out), np.abs(phi)))
    valid = not mag <= ROUNDOFF_SAFETY * roundoff
    return TransitionAmplitude(K=K, I=-u.hbar * theta if valid else math.nan,
                               norm_drift=norm_drift)


def transition_amplitude(phi_in: RadialState, phi_out: RadialState,
                         path: LambdaPath, u: UnitSystem,
                         steps_per_segment: int | None = None
                         ) -> TransitionAmplitude:
    """K = <phi_out | U_S | phi_in> with its phase/magnitude decomposition.

    Steps with Crank-Nicolson, one solve per step. Each segment takes the
    larger of steps_per_segment (at least one, as in evolve) and the count at
    which the state entering it turns the overlap phase at most
    MAX_PHASE_PER_STEP (0.02 rad, Crank-Nicolson's accuracy step) a step, far
    below UNWRAP_PHASE (0.5 rad), where the nearest-branch unwrapping of the
    overlap's phase could alias. I = -hbar theta_unwrapped, Q = log |K|.
    A |K| within roundoff above one is scaled back to one, phase kept, so
    |K| <= 1 and Q <= 0 hold for every amplitude returned. When |K| is within
    ROUNDOFF_SAFETY times the sweep's roundoff bound of zero the result is
    flagged instead: phase_valid False, I NaN, Q -inf.
    """
    return _transition(phi_in, phi_out, path, u,
                       1 if steps_per_segment is None else steps_per_segment,
                       CN_ROOTS, MAX_PHASE_PER_STEP)
