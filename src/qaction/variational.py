"""Variational search for stationary control paths at fixed elapsed distance.

The total action of a piecewise-constant control path lambda(s) with
multiplier kappa is

    A = sum_j (-lambda_j^2/4 - m^2 c^2) ds_j
        + kappa * (integral lambda ds - x10) + I(path),

where I is the quantum action phase extracted from the propagated transition
amplitude. Stationarity in every lambda_j, in the total duration S (at fixed
segment fractions) and in kappa gives a KKT system. Two of its rows are
solved in closed form: the constraint, linear in S, gives S = x10 /
mean(lambda), and the S row, linear in kappa, gives the multiplier. The
remaining lambda rows are solved by a damped chord iteration (Newton with the
Jacobian held at the classical Hessian) over the scaled lambda_j alone. I is
propagated with the fourth-order (2,2) diagonal Pade stepper in factored
form (van Dijk and Toyama, Phys. Rev. E 75, 036707, 2007), two Cayley solves
per step. Its step count is fixed per problem from an accuracy target, so
that I is smooth in the unknowns, and the quantum gradients dI/dlambda_j and
dI/dS are the exact derivatives of that discrete I, from one forward and one
backward (adjoint) sweep. The classical part uses the reduced d = lambda/2
branch throughout, which is where the endpoint phases are stationary for the
straight-line free motion between the fixed events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import LambdaPath
from .propagation import (PADE22_ROOTS, PhaseUndefinedError, TransitionAmplitude,
                          _adjoint_sweep, _segment_steps, _transition)
from .spectrum import RadialState
from .stationary import _damped_newton
from .units import UnitSystem

# accuracy target, relative error of an eigenphase: a tenth of the x^2 / 12 of
# Crank-Nicolson at x = 0.005 rad per step, the path search's former schedule
PHASE_ERROR = 0.1 * 0.005 ** 2 / 12.0
# (2,2) Pade turns an eigenphase x per step with relative error x^4 / 720
STEP_PHASE = (720.0 * PHASE_ERROR) ** 0.25   # 0.11 rad
# work budget: a step is one solve per Cayley root forward and one in the
# adjoint, which reads the forward states from memory instead of re-solving
MAX_SOLVES_PER_RESIDUAL = 20_000
# memory budget of those stored states and LU factors, 16 bytes a grid point
MAX_STORED_BYTES = 2 ** 28

__all__ = [
    "VariationalProblem", "StationaryPath", "classical_action_part",
    "full_action", "optimize_path", "internal_time_map", "lambda_from_trajectory",
]


@dataclass(frozen=True)
class VariationalProblem:
    """Fixed data of one stationary-path search.

    phi_in and phi_out are the boundary states on a shared propagation grid,
    x10 the prescribed integral of lambda over the path (the elapsed
    coordinate distance), and segments the number of equal-fraction path
    pieces being optimized. The path duration S is held in the box (0.2, 5)
    times x10 / (2 m c). steps_per_segment is worked out, not passed: the
    (2,2) step count that holds the overlap phase under STEP_PHASE rad per
    step at optimize_path's start point, and so its eigenphase error under
    PHASE_ERROR per radian; every sweep of the problem takes exactly that
    many per segment and refuses, never re-steps, a trial path too fast for
    it (UNWRAP_PHASE in qaction.propagation). A residual's forward sweep
    keeps a state after every Cayley factor and four LU vectors per factor
    and segment for its adjoint sweep. A schedule of more than MAX_SOLVES_PER_RESIDUAL solves or
    MAX_STORED_BYTES bytes of those vectors per residual is refused with a
    ValueError before any propagation runs.
    """

    phi_in: RadialState
    phi_out: RadialState
    x10: float
    segments: int
    u: UnitSystem
    steps_per_segment: int = field(init=False)

    def __post_init__(self):
        if not self.x10 > 0.0:
            raise ValueError("x10 must be positive")
        if self.segments < 1:
            raise ValueError("need at least one path segment")
        start = LambdaPath.equal_segments([2.0 * self.u.mc] * self.segments,
                                          self.x10 / (2.0 * self.u.mc))
        steps = max(_segment_steps(start, self.phi_in, self.u, STEP_PHASE))
        factors = len(PADE22_ROOTS) * self.segments
        solves = 2 * factors * steps
        if solves > MAX_SOLVES_PER_RESIDUAL:
            raise ValueError(
                f"x10 = {self.x10!r} needs {solves} tridiagonal solves per "
                f"residual, over the budget of {MAX_SOLVES_PER_RESIDUAL}; "
                "lower x10")
        stored = 16 * self.phi_in.grid.num_points * (1 + factors * (steps + 4))
        if stored > MAX_STORED_BYTES:
            raise ValueError(
                f"x10 = {self.x10!r} needs {stored} bytes of stored states per "
                f"residual, over the budget of {MAX_STORED_BYTES}; "
                "lower x10 or the grid points")
        object.__setattr__(self, "steps_per_segment", steps)

    def s_bounds(self) -> tuple[float, float]:
        s0 = self.x10 / (2.0 * self.u.mc)
        return (0.2 * s0, 5.0 * s0)


@dataclass(frozen=True)
class StationaryPath:
    """Solution report of optimize_path.

    residual is the max-norm of the scaled KKT residual at the returned
    point (its constraint and S rows vanish by construction); converged
    indicates it is at most the requested tolerance, and iterations counts
    the chord steps taken.
    """

    path: LambdaPath
    kappa: float
    action: float
    residual: float
    amplitude: TransitionAmplitude
    converged: bool
    iterations: int


def classical_action_part(path: LambdaPath, kappa: float, x10: float,
                          u: UnitSystem) -> float:
    """Reduced classical action of the path plus the constraint term."""
    if not x10 > 0.0:
        raise ValueError("x10 must be positive")
    lam = path.values
    dur = path.durations
    kinetic = float(np.sum((-0.25 * lam * lam - u.mc * u.mc) * dur))
    return kinetic + kappa * (path.integral() - x10)


def _forward(path: LambdaPath, problem: VariationalProblem
             ) -> tuple[TransitionAmplitude, list]:
    """The problem's (2,2) amplitude along path, problem.steps_per_segment
    steps on every segment, and the sweep's record for _adjoint_sweep. A
    path too fast for that count is refused by the sweep (UNWRAP_PHASE in
    qaction.propagation), never re-stepped."""
    record = []
    amp = _transition(problem.phi_in, problem.phi_out, path, problem.u,
                      [problem.steps_per_segment] * path.num_segments,
                      PADE22_ROOTS, record)
    if not amp.phase_valid:
        lams = ", ".join(f"{v / problem.u.mc:.6g}" for v in path.values)
        raise PhaseUndefinedError(
            f"transition amplitude vanished along the path (lambda/mc = [{lams}], "
            f"S = {path.S:.6g}): boundary states orthogonal under the path are "
            "refused, e.g. two levels prepared at lambda = 2 m c")
    return amp, record


def full_action(path: LambdaPath, kappa: float,
                problem: VariationalProblem) -> float:
    """Classical part plus propagated quantum phase for one configuration."""
    lo, hi = problem.s_bounds()
    if not (lo <= path.S <= hi):
        raise ValueError(f"path duration {path.S!r} outside S bounds ({lo}, {hi})")
    return classical_action_part(path, kappa, problem.x10, problem.u) \
        + _forward(path, problem)[0].I


def _kkt_residual(lam: np.ndarray, problem: VariationalProblem
                  ) -> tuple[np.ndarray, float, TransitionAmplitude]:
    """Scaled lambda rows of the KKT residual, the multiplier kappa, and K.

    S = x10 / mean(lambda) meets the constraint exactly and kappa zeroes the
    S row, so those two rows vanish and only the N lambda rows remain. Their
    dI/dlambda_j and dI/dS = -hbar Im(dK/K) are exact at the problem's step
    counts: one forward sweep gives K and records its states, one adjoint
    sweep over that record gives every dK.
    """
    u = problem.u
    mc = u.mc
    mean_lam = float(np.mean(lam))
    path = LambdaPath.equal_segments(lam, problem.x10 / mean_lam)
    amp, record = _forward(path, problem)
    dk_dlam, dk_ds = _adjoint_sweep(record, problem.phi_out, path, u)
    di_dlam = -u.hbar * np.imag(dk_dlam / amp.K)
    di_ds = -u.hbar * (dk_ds / amp.K).imag
    kappa = (float(np.mean(0.25 * lam * lam + mc * mc)) - di_ds) / mean_lam
    ds = path.S / problem.segments
    return ((kappa - 0.5 * lam) * ds + di_dlam) / (mc * ds), kappa, amp


def optimize_path(problem: VariationalProblem, tol: float = 1e-8,
                  max_iters: int = 40) -> StationaryPath:
    """Damped chord solve of the stationarity system on the constraint manifold.

    Runs over the scaled lambda_j / mc alone from (2, ..., 2); every trial
    takes S = x10 / mean(lambda) and the kappa that zeroes the S row (see
    _kkt_residual). Newton's Jacobian is held at the classical Hessian -I/2
    (the chord method, Kelley 1995, section 5.4): linear convergence by a
    factor of order alpha^2, one residual per step. A residual is one forward
    and one adjoint sweep of problem.steps_per_segment (2,2) Pade steps per
    segment, two solves per step forward and two backward, with one LU
    factorisation per Cayley root and segment, made by the forward sweep and
    reused from its record by the adjoint; the returned amplitude is the
    forward sweep of the last residual. Non-convergence is
    reported through the converged flag rather than raised, so callers still
    get the best point found; an amplitude within roundoff of zero raises
    PhaseUndefinedError.
    """
    if not tol > 0.0 or max_iters < 1:
        raise ValueError("tol and max_iters must be positive")
    u = problem.u
    mc = u.mc
    lo, hi = problem.s_bounds()
    evaluated = {}  # kappa and amplitude of every evaluated point, keyed by its bytes

    def feasible(zv: np.ndarray) -> bool:
        return bool(np.all(zv > 0.0)
                    and lo <= problem.x10 / float(np.mean(zv * mc)) <= hi)

    def residual_at(zv: np.ndarray) -> np.ndarray:
        r, kappa, amp = _kkt_residual(zv * mc, problem)
        evaluated[zv.tobytes()] = kappa, amp
        return r

    def jacobian(zv: np.ndarray) -> np.ndarray:
        # -lam_j/2 ds over the row scale mc ds is -z_j/2; kappa and I add O(alpha^2)
        return -0.5 * np.eye(zv.size)

    z, resid, iterations, converged = _damped_newton(
        residual_at, jacobian, np.full(problem.segments, 2.0), feasible, tol,
        max_iters)

    kappa, amp = evaluated[z.tobytes()]
    action = classical_action_part(amp.path, kappa, problem.x10, u) + amp.I
    return StationaryPath(path=amp.path, kappa=kappa, action=action,
                          residual=float(np.max(np.abs(resid))),
                          amplitude=amp, converged=converged,
                          iterations=iterations)


def internal_time_map(path: LambdaPath, x0: float) -> float:
    """Internal time s at which the running integral of lambda reaches x0.

    The map x0(s) = integral_0^s lambda is strictly increasing when every
    segment value is positive, so the inverse is exact piecewise algebra.
    The reachable total is the running sum of the segments, whose last
    segment then holds every x0 past the one before it.
    """
    if np.any(path.values <= 0.0):
        raise ValueError("time map needs strictly positive lambda on every segment")
    cum = path.cumulative_integral()
    total = float(cum[-1])
    if not (0.0 <= x0 <= total):
        raise ValueError(f"x0 = {x0!r} outside the reachable range [0, {total!r}]")
    idx = int(np.searchsorted(cum, x0, side="left"))
    before = cum[idx - 1] if idx > 0 else 0.0
    start = path.starts[idx]
    return float(start + (x0 - before) / path.values[idx])


def lambda_from_trajectory(s_samples: np.ndarray,
                           x0_samples: np.ndarray) -> LambdaPath:
    """Piecewise-constant control reconstructed from a sampled trajectory.

    Consecutive samples define one segment each with value equal to the
    chord slope dx0/ds; both sample arrays must start at the origin and be
    strictly increasing.
    """
    s = np.asarray(s_samples, dtype=float)
    x = np.asarray(x0_samples, dtype=float)
    if s.ndim != 1 or x.ndim != 1 or s.size != x.size:
        raise ValueError("sample arrays must be 1d and of equal length")
    if s.size < 2:
        raise ValueError("need at least two samples")
    if s[0] != 0.0 or x[0] != 0.0:
        raise ValueError("trajectory samples must start at s = 0, x0 = 0")
    if np.any(np.diff(s) <= 0.0) or np.any(np.diff(x) <= 0.0):
        raise ValueError("trajectory samples must be strictly increasing")
    return LambdaPath(breakpoints=s[1:], values=np.diff(x) / np.diff(s))
