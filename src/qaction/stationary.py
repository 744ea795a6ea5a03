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
alpha^4 otherwise. The solver is a damped Newton iteration on the exact
gradient, run in scaled variables so one tolerance covers all components.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .spectrum import (QuantumNumbers, SommerfeldNumbers, bohr_energy,
                       sommerfeld_energy, sommerfeld_nstar_sq)
from .units import UnitSystem

__all__ = [
    "ActionValue", "StationaryPoint", "LevelComparison", "SommerfeldComparison",
    "action_value", "solve_stationary", "stationary_closed_form",
    "level_comparison",
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
    x10: float


@dataclass(frozen=True)
class SommerfeldComparison:
    p: int
    k: int
    nstar_sq: float
    energy: float
    difference: float  # stationary-action level minus Sommerfeld level


@dataclass(frozen=True)
class LevelComparison:
    """Stationary-action level energy against every Sommerfeld (p, k) partner."""

    n: int
    energy: float
    comparisons: tuple[SommerfeldComparison, ...]


def action_value(d: float, lam: float, S: float, kappa: float,
                 n: QuantumNumbers | int, x10: float, u: UnitSystem) -> ActionValue:
    """Evaluate the reduced action and its gradient, no approximations.

    S must be positive; the remaining parameters are unconstrained (the
    lambda > 0 branch is selected by the solver, not by this evaluation).
    """
    if not S > 0.0:
        raise ValueError("S must be positive")
    if not x10 > 0.0:
        raise ValueError("x10 must be positive")
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
    if not x10 > 0.0:
        raise ValueError("x10 must be positive")
    e_n = bohr_energy(n, u)
    shrink = 1.0 + 2.0 * e_n / u.rest_energy  # equals 1 - (alpha/n)^2 > 0
    lam = 2.0 * u.mc / math.sqrt(shrink)
    kappa_c = math.sqrt(u.rest_energy * u.rest_energy + 2.0 * u.rest_energy * e_n)
    return StationaryPoint(
        d=0.5 * lam,
        lam=lam,
        S=x10 / lam,
        kappa=kappa_c / u.c,
        kappa_c=kappa_c,
        x10=x10,
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


def _damped_newton(residual: Callable[[np.ndarray], np.ndarray],
                   jacobian: Callable[[np.ndarray], np.ndarray],
                   z0: np.ndarray, feasible: Callable[[np.ndarray], bool],
                   tol: float, max_iters: int
                   ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Damped Newton iteration on a residual in scaled unknowns.

    Each step halves t from 1 down to 1/1024 until z + t dz is feasible and
    passes the sufficient-decrease test max|r| <= (1 - 1e-4 t) max|r_prev|
    (Dennis & Schnabel, section 6.3). Stops once max|r| <= tol, after
    max_iters steps, or when no step is accepted. Returns (z, r, steps taken,
    converged).
    """
    z = z0
    r = residual(z)
    err = float(np.max(np.abs(r)))
    steps = 0
    while err > tol and steps < max_iters:
        jac = jacobian(z)
        try:
            dz = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(jac, -r, rcond=None)[0]
        t = 1.0
        while t >= 1.0 / 1024.0:
            trial = z + t * dz
            if feasible(trial):
                r_trial = residual(trial)
                err_trial = float(np.max(np.abs(r_trial)))
                if err_trial <= (1.0 - 1e-4 * t) * err:
                    break
            t *= 0.5
        else:
            break  # no acceptable step
        z, r, err = trial, r_trial, err_trial
        steps += 1
    return z, r, steps, err <= tol


def solve_stationary(n: QuantumNumbers | int, x10: float, u: UnitSystem,
                     tol: float = 1e-12, max_iters: int = 60) -> StationaryPoint:
    """Damped Newton solve of the four stationarity conditions.

    Starts from the non-relativistic guess (d, lambda, S, kappa) =
    (m c, 2 m c, x10 / 2 m c, m c), stays on the lambda > 0 branch, and
    declares convergence when every residual component is at most tol in its
    natural scale (momenta against m c S and m^2 c^2, the constraint against
    x10). Quadratic convergence makes 1e-12 a cheap default.
    """
    if not x10 > 0.0:
        raise ValueError("x10 must be positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    e_n = bohr_energy(n, u)
    S0 = x10 / (2.0 * u.mc)
    scale = np.array([u.mc, u.mc, S0, u.mc])
    resid_scale = np.array([u.mc * S0, u.mc * S0,
                            u.mass * u.mass * u.c * u.c, x10])

    def residual(z: np.ndarray) -> np.ndarray:
        av = action_value(*(z * scale), n, x10, u)
        return np.array([av.grad_d, av.grad_lam, av.grad_S,
                         av.grad_kappa]) / resid_scale

    def jacobian(z: np.ndarray) -> np.ndarray:
        # rows and columns scaled so the linear solve sees O(1) numbers
        return _jacobian(z * scale, e_n, u) * scale[None, :] / resid_scale[:, None]

    def feasible(z: np.ndarray) -> bool:
        return bool(z[1] > 0.0 and z[2] > 0.0)  # lambda > 0 branch, S > 0

    z, r, _, converged = _damped_newton(residual, jacobian,
                                        np.array([1.0, 2.0, 1.0, 1.0]),
                                        feasible, tol, max_iters)
    if not converged:
        raise RuntimeError("stationarity iteration stalled at scaled residual "
                           f"{float(np.max(np.abs(r))):.3e} (tol {tol:.3e})")
    d, lam, S, kappa = (float(v) for v in z * scale)
    return StationaryPoint(d=d, lam=lam, S=S, kappa=kappa, kappa_c=kappa * u.c,
                           x10=x10)


def level_comparison(n: QuantumNumbers | int, u: UnitSystem) -> LevelComparison:
    """kappa c for level n next to every Sommerfeld level with p + |k| = n.

    The difference column is stationary minus Sommerfeld; it vanishes
    identically at p = 0 and grows like alpha^4 m c^2 / 32 at (p, |k|) = (1, 1).
    """
    n = n if isinstance(n, QuantumNumbers) else QuantumNumbers(n)
    e_n = bohr_energy(n, u)
    energy = math.sqrt(u.rest_energy * u.rest_energy + 2.0 * u.rest_energy * e_n)
    rows = []
    for abs_k in range(n.n, 0, -1):
        for k in (-abs_k, abs_k):
            p = n.n - abs_k
            pk = SommerfeldNumbers(p=p, k=k)
            e_somm = sommerfeld_energy(pk, u)
            rows.append(SommerfeldComparison(
                p=p, k=k,
                nstar_sq=sommerfeld_nstar_sq(p, k, u.alpha),
                energy=e_somm,
                difference=energy - e_somm,
            ))
    return LevelComparison(n=n.n, energy=energy, comparisons=tuple(rows))

