"""Stationary points of the reduced action over (d, lambda, S, kappa).

For a level E_n the reduced action of the constant-control problem is

    Lambda(d, lambda, S, kappa) =
        (d^2 - lambda d - m^2 c^2 - lambda^2 E_n / (2 m c^2)) S
        + kappa (lambda S - x10)

with kappa the multiplier pinning the coordinate-time displacement x10.
Its stationary point is known in closed form,

    lambda = 2 d = 2 m c / sqrt(1 + 2 E_n / m c^2),   S = x10 / lambda,
    kappa c = sqrt(m^2 c^4 + 2 m c^2 E_n) = m c^2 sqrt(1 - alpha^2 / n^2),

and kappa c plays the role of the electron energy: it agrees with the
Sommerfeld fine-structure level exactly at (p = 0, k = +-n) and to order
alpha^4 otherwise. That comparison, a closed form alone, is
spectrum.level_comparison. The solver is a damped Newton iteration on the
exact gradient, run in scaled variables so one tolerance covers all
components.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .spectrum import QuantumNumbers, bohr_energy
from .units import UnitSystem

__all__ = [
    "ActionValue", "StationaryPoint", "action_value", "solve_stationary",
    "stationary_closed_form",
]


@dataclass(frozen=True)
class ActionValue:
    """Reduced action and its exact gradient at one parameter point."""

    value: float
    grad_d: float
    grad_lam: float
    grad_S: float
    grad_kappa: float


@dataclass(frozen=True)
class StationaryPoint:
    """Solution of the four stationarity conditions for one level."""

    d: float
    lam: float
    S: float
    kappa: float
    kappa_c: float


def action_value(d: float, lam: float, S: float, kappa: float,
                 n: QuantumNumbers | int, x10: float, u: UnitSystem) -> ActionValue:
    """Evaluate the reduced action and its gradient, no approximations.

    S must be positive and x10 positive and finite; the rest are free (the
    lambda > 0 branch is selected by the solver, not by this evaluation).
    """
    if not S > 0.0:
        raise ValueError("S must be positive")
    if not 0.0 < x10 < math.inf:
        raise ValueError("x10 must be positive and finite")
    e_n = bohr_energy(n, u)
    m2c2 = u.mass * u.mass * u.c * u.c
    ratio = e_n / u.rest_energy
    bracket = d * d - lam * d - m2c2 - 0.5 * lam * lam * ratio
    value = bracket * S + kappa * (lam * S - x10)
    return ActionValue(
        value=value,
        grad_d=(2.0 * d - lam) * S,
        grad_lam=(-d - lam * ratio + kappa) * S,
        grad_S=bracket + kappa * lam,
        grad_kappa=lam * S - x10,
    )


def stationary_closed_form(n: QuantumNumbers | int, x10: float,
                           u: UnitSystem) -> StationaryPoint:
    """Closed-form stationary point; the oracle the solver is tested against."""
    if not 0.0 < x10 < math.inf:
        raise ValueError("x10 must be positive and finite")
    e_n = bohr_energy(n, u)
    shrink = 1.0 + 2.0 * e_n / u.rest_energy  # equals 1 - (alpha/n)^2 > 0
    lam = 2.0 * u.mc / math.sqrt(shrink)
    kappa_c = math.sqrt(u.rest_energy * u.rest_energy + 2.0 * u.rest_energy * e_n)
    if x10 / lam < np.finfo(float).tiny:  # as propagation._sweep refuses a subnormal ds
        raise ValueError(f"x10 = {x10!r} gives S = {x10 / lam!r}, below normal floats; raise x10")
    return StationaryPoint(
        d=0.5 * lam,
        lam=lam,
        S=x10 / lam,
        kappa=kappa_c / u.c,
        kappa_c=kappa_c,
    )


def _jacobian(params: np.ndarray, e_n: float, u: UnitSystem) -> np.ndarray:
    d, lam, S, kappa = params
    ratio = e_n / u.rest_energy
    g2 = -d - lam * ratio + kappa
    return np.array([
        [2.0 * S, -S, 2.0 * d - lam, 0.0],
        [-S, -ratio * S, g2, S],
        [2.0 * d - lam, g2, 0.0, lam],
        [0.0, S, lam, 0.0],
    ])


def _newton_step(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The Newton step -jac^-1 r, in least squares where jac is singular."""
    try:
        return np.linalg.solve(jac, -r)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jac, -r, rcond=None)[0]


def _damped_newton(residual: Callable[[np.ndarray], tuple[np.ndarray, object]],
                   step: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   z0: np.ndarray, feasible: Callable[[np.ndarray], bool],
                   tol: float, max_iters: int
                   ) -> tuple[np.ndarray, np.ndarray, object, int, bool]:
    """Damped Newton-type iteration on a residual in scaled unknowns.

    residual(z) gives (r, data) and step(z, r) the undamped step. Each step
    halves t from 1 down to 1/1024 until z + t step is feasible and passes the
    sufficient-decrease test max|r| <= (1 - 1e-4 t) max|r_prev| (Dennis &
    Schnabel, section 6.3). Stops once max|r| <= tol, after max_iters steps,
    or when no step is accepted. Returns (z, r, data, steps taken, converged)
    of the last accepted point. It checks tol (0 < tol < inf) and max_iters (a
    whole number >= 1) for both callers, before the first residual.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 1):
        raise ValueError(f"max_iters must be a whole number >= 1, got {max_iters!r}")
    z = z0
    r, data = residual(z)
    err = float(np.max(np.abs(r)))
    steps = 0
    while err > tol and steps < max_iters:
        dz = step(z, r)
        t = 1.0
        while t >= 1.0 / 1024.0:
            trial = z + t * dz
            if feasible(trial):
                r_trial, data_trial = residual(trial)
                err_trial = float(np.max(np.abs(r_trial)))
                if err_trial <= (1.0 - 1e-4 * t) * err:
                    break
            t *= 0.5
        else:
            break  # no acceptable step
        z, r, data, err = trial, r_trial, data_trial, err_trial
        steps += 1
    return z, r, data, steps, err <= tol


def solve_stationary(n: QuantumNumbers | int, x10: float, u: UnitSystem,
                     tol: float = 1e-12) -> StationaryPoint:
    """Damped Newton solve of the four stationarity conditions.

    Starts from the non-relativistic guess (d, lambda, S, kappa) =
    (m c, 2 m c, x10 / 2 m c, m c), stays on the lambda > 0 branch, and
    declares convergence when every residual component is at most tol in its
    natural scale (momenta against m c S and m^2 c^2, the constraint against
    x10) within 60 steps. Quadratic convergence makes 1e-12 a cheap default.
    """
    if not 0.0 < x10 < math.inf:
        raise ValueError("x10 must be positive and finite")
    e_n = bohr_energy(n, u)
    S0 = x10 / (2.0 * u.mc)
    if S0 < np.finfo(float).tiny:  # as propagation._sweep refuses a subnormal ds
        raise ValueError(f"x10 = {x10!r} gives S = {S0!r}, below normal floats; raise x10")
    scale = np.array([u.mc, u.mc, S0, u.mc])
    resid_scale = np.array([u.mc * S0, u.mc * S0,
                            u.mass * u.mass * u.c * u.c, x10])

    def residual(z: np.ndarray) -> tuple[np.ndarray, None]:
        # floats, not numpy scalars: the value, which this never reads, may
        # overflow at large x10, and a float product does so silently
        av = action_value(*(z * scale).tolist(), n, x10, u)
        return np.array([av.grad_d, av.grad_lam, av.grad_S,
                         av.grad_kappa]) / resid_scale, None

    def step(z: np.ndarray, r: np.ndarray) -> np.ndarray:
        # rows and columns scaled so the linear solve sees O(1) numbers
        return _newton_step(_jacobian(z * scale, e_n, u) * scale[None, :]
                            / resid_scale[:, None], r)

    def feasible(z: np.ndarray) -> bool:
        return bool(z[1] > 0.0 and z[2] > 0.0)  # lambda > 0 branch, S > 0

    z, r, _, _, converged = _damped_newton(residual, step,
                                           np.array([1.0, 2.0, 1.0, 1.0]),
                                           feasible, tol, 60)
    if not converged:
        raise RuntimeError("stationarity iteration stalled at scaled residual "
                           f"{float(np.max(np.abs(r))):.3e} (tol {tol:.3e})")
    d, lam, S, kappa = (float(v) for v in z * scale)
    return StationaryPoint(d=d, lam=lam, S=S, kappa=kappa, kappa_c=kappa * u.c)
