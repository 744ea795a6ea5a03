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
propagated with the sixth-order (3,3) diagonal Pade stepper in factored
form (van Dijk and Toyama, Phys. Rev. E 75, 036707, 2007), three Cayley
solves per step. Its step count is fixed per problem (STEP_PHASE), so that
I is smooth in the unknowns, and the quantum gradients dI/dlambda_j and
dI/dS are the exact derivatives of that discrete I, from one forward and one
backward (adjoint) sweep. The classical part uses the reduced d = lambda/2
branch throughout, which is where the endpoint phases are stationary for the
straight-line free motion between the fixed events.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .paths import LambdaPath
from .propagation import (PADE33_ROOTS, UNWRAP_PHASE, PhaseUndefinedError, RadialState,
                          TransitionAmplitude, _adjoint_sweep, _count, _energy_moments,
                          _hamiltonian_tridiag, _record_price, _transition)
from .stationary import _damped_newton
from .units import UnitSystem

# accuracy target, relative error of an eigenphase: a tenth of the x^2 / 12 of
# Crank-Nicolson at x = 0.005 rad per step, the path search's former schedule
PHASE_ERROR = 0.1 * 0.005 ** 2 / 12.0
# (3,3) Pade's x^6 / 100 800 per radian meets PHASE_ERROR to 0.525 rad: the unwrap limit binds
STEP_PHASE = 0.8 * UNWRAP_PHASE   # 0.4 rad, a fifth of headroom for trial paths
# work and memory budgets of one residual's sweep record and its adjoint
# (qaction.propagation._record_price prices both)
MAX_SOLVES_PER_RESIDUAL = 20_000
MAX_STORED_BYTES = 2 ** 28

__all__ = ["VariationalProblem", "StationaryPath", "classical_action_part",
           "full_action", "optimize_path"]


@dataclass(frozen=True)
class VariationalProblem:
    """Fixed data of one stationary-path search.

    phi_in and phi_out are the boundary states on a shared propagation grid,
    x10 the prescribed integral of lambda over the path (the elapsed
    coordinate distance), and segments the number of equal-fraction path
    pieces being optimized. The path duration S is held in the box (0.2, 5)
    times x10 / (2 m c). steps_per_segment is worked out, not passed: the
    (3,3) step count that holds the overlap phase under STEP_PHASE rad per
    step on the constant path lambda = 2 m c, and so its eigenphase error
    under PHASE_ERROR per radian (one energy scale of phi_in at lambda =
    2 m c, as that path's N segments are alike); every sweep of the problem
    takes exactly that many per segment and refuses, never re-steps, a trial
    path too fast for it (UNWRAP_PHASE in qaction.propagation). start is
    worked out too, optimize_path's scaled start lambda_j / mc: where phi_out
    == phi_in (same grid, l and amplitudes), the closed-form stationary
    2 / sqrt(1 + 2E / mc^2) of the level E = <H_std(2 m c)> / 2m that phi_in
    has at lambda = 2 m c, if that is real and its S inside s_bounds();
    otherwise 2, the classical lambda = 2 m c. A residual's
    forward sweep keeps a record of its states and LU factors for its adjoint
    sweep. A schedule whose residual takes more than MAX_SOLVES_PER_RESIDUAL
    solves or keeps more than MAX_STORED_BYTES bytes of record is refused
    with a ValueError before any propagation runs.
    """

    phi_in: RadialState
    phi_out: RadialState
    x10: float
    segments: int
    u: UnitSystem
    steps_per_segment: int = field(init=False)
    start: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.x10 < math.inf:
            raise ValueError("x10 must be positive and finite")
        if not (isinstance(self.segments, numbers.Integral) and self.segments >= 1):
            raise ValueError(f"segments must be a whole number >= 1, got {self.segments!r}")
        phi, lam = self.phi_in, 2.0 * self.u.mc
        # checked as an integer, before it meets a float: a segment takes
        # `least` solves a residual at one step
        least = _record_price(phi.grid.num_points, 1, 1, PADE33_ROOTS)[0]
        if self.segments * least > MAX_SOLVES_PER_RESIDUAL:
            raise ValueError(
                f"segments must be at most {MAX_SOLVES_PER_RESIDUAL // least}, the budget of "
                f"{MAX_SOLVES_PER_RESIDUAL} tridiagonal solves per residual at one step each")
        ham = _hamiltonian_tridiag(phi.grid, phi.l, lam, self.u)
        mean, scale = _energy_moments(np.asarray(phi.amplitudes), *ham)
        turn = self.x10 / (lam * self.segments) * scale / self.u.hbar
        steps = max(1, math.ceil(x)) if (x := turn / STEP_PHASE) < math.inf else math.inf
        solves, stored = _record_price(phi.grid.num_points, self.segments, steps,
                                       PADE33_ROOTS)
        if solves > MAX_SOLVES_PER_RESIDUAL:
            raise ValueError(
                f"x10 = {self.x10!r} needs {_count(solves)} tridiagonal solves per "
                f"residual, over the budget of {MAX_SOLVES_PER_RESIDUAL}; "
                "lower x10")
        if stored > MAX_STORED_BYTES:
            raise ValueError(
                f"x10 = {self.x10!r} needs {_count(stored)} bytes of stored states and "
                f"LU factors per residual, over the budget of {MAX_STORED_BYTES}; "
                "lower x10 or the grid points")
        object.__setattr__(self, "steps_per_segment", steps)
        shrink = 1.0 + mean / (self.u.mc * self.u.mc)
        start = 2.0 / math.sqrt(shrink) if self.phi_out == phi and shrink > 0.0 else 2.0
        if not self._feasible(np.full(self.segments, start)):
            start = 2.0
        object.__setattr__(self, "start", start)

    def s_bounds(self) -> tuple[float, float]:
        s0 = self.x10 / (2.0 * self.u.mc)
        return (0.2 * s0, 5.0 * s0)

    def _feasible(self, z: np.ndarray) -> bool:
        """Whether the scaled lambda_j = z_j mc are positive with S = x10 /
        mean(lambda) inside s_bounds()."""
        lo, hi = self.s_bounds()
        return bool(np.all(z > 0.0)
                    and lo <= self.x10 / float(np.mean(z * self.u.mc)) <= hi)


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
    if not 0.0 < x10 < math.inf:
        raise ValueError("x10 must be positive and finite")
    lam = path.values
    dur = path.durations
    kinetic = float(np.sum((-0.25 * lam * lam - u.mc * u.mc) * dur))
    return kinetic + kappa * (path.integral() - x10)


def _forward(path: LambdaPath, problem: VariationalProblem,
             record: list | None = None) -> TransitionAmplitude:
    """The problem's (3,3) amplitude along path, problem.steps_per_segment
    steps on every segment; with record, a list, the sweep appends its record
    for _adjoint_sweep to it. A path too fast for that count is refused by
    the sweep (UNWRAP_PHASE in qaction.propagation), never re-stepped."""
    amp = _transition(problem.phi_in, problem.phi_out, path, problem.u,
                      problem.steps_per_segment, PADE33_ROOTS, record=record)
    if not amp.phase_valid:
        lams = ", ".join(f"{v / problem.u.mc:.6g}" for v in path.values)
        raise PhaseUndefinedError(
            f"transition amplitude vanished along the path (lambda/mc = [{lams}], "
            f"S = {path.S:.6g}): boundary states orthogonal under the path are "
            "refused, e.g. two levels prepared at lambda = 2 m c")
    return amp


def full_action(path: LambdaPath, kappa: float,
                problem: VariationalProblem) -> float:
    """Classical part plus propagated quantum phase for one configuration."""
    lo, hi = problem.s_bounds()
    if not (lo <= path.S <= hi):
        raise ValueError(f"path duration {path.S!r} outside S bounds ({lo}, {hi})")
    return classical_action_part(path, kappa, problem.x10, problem.u) \
        + _forward(path, problem).I


def _kkt_residual(lam: np.ndarray, problem: VariationalProblem
                  ) -> tuple[np.ndarray, tuple[float, LambdaPath, TransitionAmplitude]]:
    """Scaled lambda rows of the KKT residual, then kappa, the trial path and K.

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
    record = []
    amp = _forward(path, problem, record)
    dk_dlam, dk_ds = _adjoint_sweep(record, problem.phi_out, path, u)
    di_dlam = -u.hbar * np.imag(dk_dlam / amp.K)
    di_ds = -u.hbar * (dk_ds / amp.K).imag
    kappa = (float(np.mean(0.25 * lam * lam + mc * mc)) - di_ds) / mean_lam
    ds = path.S / problem.segments
    return ((kappa - 0.5 * lam) * ds + di_dlam) / (mc * ds), (kappa, path, amp)


def optimize_path(problem: VariationalProblem, tol: float = 1e-8,
                  max_iters: int = 40) -> StationaryPath:
    """Damped chord solve of the stationarity system on the constraint manifold.

    Runs over the scaled lambda_j / mc alone from (start, ..., start), with
    problem.start the level's stationary value where phi_out is phi_in and 2
    otherwise; every trial takes S = x10 / mean(lambda) and the kappa that
    zeroes the S row (see _kkt_residual). Newton's Jacobian is held at the
    classical Hessian -I/2 (the chord method, Kelley 1995, section 5.4):
    linear convergence by a factor of order alpha^2, one residual per step.
    A residual is one forward and one adjoint sweep of
    problem.steps_per_segment (3,3) Pade steps per segment (the schedule
    sized at lambda = 2 m c, whatever the start), three solves per step
    forward and three backward, one LU factorisation per root and segment,
    made by the forward sweep and reused from its record by the adjoint; the
    returned amplitude is the forward sweep of the last residual.
    Non-convergence is reported through the converged flag rather than
    raised, so callers still get the best point found; an amplitude within
    roundoff of zero raises PhaseUndefinedError.
    """
    mc = problem.u.mc
    # -lam_j/2 ds over the row scale mc ds is -z_j/2, so the chord step is 2 r;
    # kappa and I add O(alpha^2)
    _, resid, (kappa, path, amp), iterations, converged = _damped_newton(
        lambda zv: _kkt_residual(zv * mc, problem), lambda zv, r: 2.0 * r,
        np.full(problem.segments, problem.start), problem._feasible, tol, max_iters)
    action = classical_action_part(path, kappa, problem.x10, problem.u) + amp.I
    return StationaryPath(path=path, kappa=kappa, action=action,
                          residual=float(np.max(np.abs(resid))),
                          amplitude=amp, converged=converged,
                          iterations=iterations)
