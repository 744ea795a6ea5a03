"""Variational search for stationary control paths at fixed elapsed distance.

The total action of a piecewise-constant control path lambda(s) with
multiplier kappa is

    A = sum_j (-lambda_j^2/4 - m^2 c^2) ds_j
        + kappa * (integral lambda ds - x10) + I(path),

where I is the quantum action phase extracted from the propagated transition
amplitude. Stationarity in every lambda_j, in the total duration S (at fixed
segment fractions) and in kappa gives a KKT system; it is solved by a damped
Newton iteration on the scaled residual, with the quantum gradients obtained
by central finite differences of I at step counts fixed per problem, so that
I is smooth in the unknowns. The classical part uses the reduced
d = lambda/2 branch throughout, which is where the endpoint phases are
stationary for the straight-line free motion between the fixed events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import LambdaPath
from .propagation import (PhaseUndefinedError, TransitionAmplitude, _segment_steps,
                          transition_amplitude)
from .spectrum import RadialState
from .stationary import _damped_newton
from .units import UnitSystem

FD_REL_STEP = 1e-5  # relative step of the central differences of I
PHASE_CAP = 0.005   # radians of overlap phase per step at the solver's starting point

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
    pieces being optimized. S_bounds defaults to (0.2, 5) times x10 / (2 m c).
    steps_per_segment is worked out, not passed: the step count that holds the
    overlap phase under PHASE_CAP rad per step at optimize_path's start point;
    every propagation of the problem takes it as its step floor.
    """

    phi_in: RadialState
    phi_out: RadialState
    x10: float
    segments: int
    u: UnitSystem
    S_bounds: tuple[float, float] | None = None
    steps_per_segment: int = field(init=False)

    def __post_init__(self):
        if self.x10 <= 0.0:
            raise ValueError("x10 must be positive")
        if self.segments < 1:
            raise ValueError("need at least one path segment")
        lo, hi = self.s_bounds()
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid S bounds ({lo}, {hi})")
        start = LambdaPath.equal_segments([2.0 * self.u.mc] * self.segments,
                                          self.x10 / (2.0 * self.u.mc))
        object.__setattr__(self, "steps_per_segment", max(
            _segment_steps(start, self.phi_in, self.u, None, PHASE_CAP)))

    def s_bounds(self) -> tuple[float, float]:
        if self.S_bounds is not None:
            return (float(self.S_bounds[0]), float(self.S_bounds[1]))
        s0 = self.x10 / (2.0 * self.u.mc)
        return (0.2 * s0, 5.0 * s0)


@dataclass(frozen=True)
class StationaryPath:
    """Solution report of optimize_path.

    residual is the max-norm of the scaled KKT residual at the returned
    point; converged indicates it is at most the requested tolerance, and
    iterations counts the Newton steps taken.
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
    if x10 <= 0.0:
        raise ValueError("x10 must be positive")
    lam = path.values
    dur = path.durations
    kinetic = float(np.sum((-0.25 * lam * lam - u.mc * u.mc) * dur))
    return kinetic + kappa * (path.integral() - x10)


def _quantum_action(path: LambdaPath, problem: VariationalProblem) -> float:
    amp = transition_amplitude(problem.phi_in, problem.phi_out, path, problem.u,
                               steps_per_segment=problem.steps_per_segment)
    if not amp.phase_valid:
        raise PhaseUndefinedError(
            "transition amplitude vanished along the path; the action phase "
            "is undefined for this configuration")
    return amp.I


def full_action(path: LambdaPath, kappa: float,
                problem: VariationalProblem) -> float:
    """Classical part plus propagated quantum phase for one configuration."""
    lo, hi = problem.s_bounds()
    if not (lo <= path.S <= hi):
        raise ValueError(f"path duration {path.S!r} outside S bounds ({lo}, {hi})")
    return classical_action_part(path, kappa, problem.x10, problem.u) \
        + _quantum_action(path, problem)


def _action_gradients(path: LambdaPath, problem: VariationalProblem
                      ) -> tuple[np.ndarray, float]:
    """Central-difference dI/dlambda_j and dI/dS at fixed segment fractions."""
    grad = np.empty(path.num_segments)
    for j in range(path.num_segments):
        h = FD_REL_STEP * abs(path.values[j])
        up = _quantum_action(path.with_value(j, path.values[j] + h), problem)
        dn = _quantum_action(path.with_value(j, path.values[j] - h), problem)
        grad[j] = (up - dn) / (2.0 * h)
    h_s = FD_REL_STEP * path.S
    up = _quantum_action(path.scaled_to(path.S + h_s), problem)
    dn = _quantum_action(path.scaled_to(path.S - h_s), problem)
    return grad, (up - dn) / (2.0 * h_s)


def _kkt_residual(lam: np.ndarray, S: float, kappa: float,
                  problem: VariationalProblem) -> np.ndarray:
    """Scaled stationarity residual, length segments + 2."""
    u = problem.u
    mc = u.mc
    path = LambdaPath.equal_segments(lam, S)
    di_dlam, di_ds = _action_gradients(path, problem)
    ds = S / problem.segments
    r = np.empty(problem.segments + 2)
    r[:problem.segments] = ((kappa - 0.5 * lam) * ds + di_dlam) / (mc * ds)
    r[problem.segments] = (float(np.mean(-0.25 * lam * lam - mc * mc
                                         + kappa * lam)) + di_ds) / (mc * mc)
    r[problem.segments + 1] = (path.integral() - problem.x10) / problem.x10
    return r


def optimize_path(problem: VariationalProblem, tol: float = 1e-8,
                  max_iters: int = 40) -> StationaryPath:
    """Damped Newton solve of the stationarity system.

    Works in the scaled unknowns (lambda_j / mc, S / S0, kappa / mc) with
    S0 = x10 / (2 m c), starting from (2, ..., 2, 1, 1); the Jacobian is
    forward-differenced from the residual. Every propagation, the last one
    too, takes problem.steps_per_segment as its floor. Non-convergence is
    reported through the converged flag rather than raised, so callers still
    get the best point found.
    """
    if tol <= 0.0 or max_iters < 1:
        raise ValueError("tol and max_iters must be positive")
    u = problem.u
    mc = u.mc
    n_seg = problem.segments
    s0 = problem.x10 / (2.0 * mc)
    lo, hi = problem.s_bounds()
    z0 = np.concatenate([np.full(n_seg, 2.0), [1.0, 1.0]])

    def feasible(zv: np.ndarray) -> bool:
        return bool(np.all(zv[:n_seg] > 0.0) and lo <= zv[n_seg] * s0 <= hi
                    and zv[n_seg + 1] > 0.0)

    def residual_at(zv: np.ndarray) -> np.ndarray:
        return _kkt_residual(zv[:n_seg] * mc, zv[n_seg] * s0,
                             zv[n_seg + 1] * mc, problem)

    def jacobian(zv: np.ndarray, resid: np.ndarray) -> np.ndarray:
        jac = np.empty((n_seg + 2, n_seg + 2))
        for k in range(n_seg + 2):
            dz = 1e-6 * max(abs(zv[k]), 1.0)
            zp = zv.copy()
            zp[k] += dz
            jac[:, k] = (residual_at(zp) - resid) / dz
        return jac

    if not feasible(z0):
        raise ValueError("initial configuration violates positivity or S bounds")
    z, resid, iterations, converged = _damped_newton(
        residual_at, jacobian, z0, feasible, tol, max_iters)

    lam = z[:n_seg] * mc
    S = z[n_seg] * s0
    kappa = z[n_seg + 1] * mc
    path = LambdaPath.equal_segments(lam, S)
    amp = transition_amplitude(problem.phi_in, problem.phi_out, path, u,
                               steps_per_segment=problem.steps_per_segment)
    action = classical_action_part(path, kappa, problem.x10, u) \
        + (amp.I if amp.phase_valid else float("nan"))
    if not amp.phase_valid:
        converged = False
    return StationaryPath(path=path, kappa=kappa, action=action,
                          residual=float(np.max(np.abs(resid))),
                          amplitude=amp, converged=converged,
                          iterations=iterations)


def internal_time_map(path: LambdaPath, x0: float) -> float:
    """Internal time s at which the running integral of lambda reaches x0.

    The map x0(s) = integral_0^s lambda is strictly increasing when every
    segment value is positive, so the inverse is exact piecewise algebra.
    """
    if np.any(path.values <= 0.0):
        raise ValueError("time map needs strictly positive lambda on every segment")
    total = path.integral()
    if not (0.0 <= x0 <= total):
        raise ValueError(f"x0 = {x0!r} outside the reachable range [0, {total!r}]")
    cum = path.cumulative_integral()
    idx = int(np.searchsorted(cum, x0, side="left"))
    if idx >= path.num_segments:
        return path.S
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
