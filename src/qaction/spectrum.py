"""Bound spectra: Bohr levels, the scaled internal-time generator, Sommerfeld.

The radial generator at control momentum lambda is, in the standard sign
convention, H_std = -hbar^2 Delta - lambda kappa_C / r with kappa_C = e2k / c.
Its bound eigenvalues are -lambda^2 kappa_C^2 / (4 hbar^2 n^2); the
internal-time generator is the negative of H_std, so its levels

    epsilon_n(lambda) = -lambda^2 E_n / (2 m c^2),   E_n = -Ry / n^2,

are positive. Everything here computes in the standard convention and flips
the sign at the interface. The Numerov shooting oracle is deliberately
independent of those closed forms, on its own log mesh (propagation owns RadialGrid).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .units import UnitSystem

__all__ = [
    "QuantumNumbers", "SommerfeldNumbers", "bohr_energy", "epsilon_n",
    "numerov_eigenvalue", "sommerfeld_nstar_sq", "sommerfeld_energy",
]

NUMEROV_TOL = 1e-10  # relative width of the Numerov bisection's final bracket


@dataclass(frozen=True)
class QuantumNumbers:
    """Principal and orbital quantum numbers of a bound level, of any integer type."""

    n: int
    l: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.l, numbers.Integral)):
            raise ValueError("quantum numbers must be integers")
        if self.n < 1 or self.l < 0 or self.l >= self.n:
            raise ValueError(f"need n >= 1 and 0 <= l < n, got n={self.n}, l={self.l}")


@dataclass(frozen=True)
class SommerfeldNumbers:
    """Radial quantum number p >= 0 and nonzero signed integer k.

    The fine-structure level depends on |k| only; the sign is carried so the
    degeneracy can be exhibited explicitly.
    """

    p: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.p, numbers.Integral) and isinstance(self.k, numbers.Integral)):
            raise ValueError("p and k must be integers")
        if self.p < 0:
            raise ValueError(f"need p >= 0, got {self.p}")
        if self.k == 0:
            raise ValueError("k must be a nonzero integer")


def bohr_energy(n: QuantumNumbers | int, u: UnitSystem) -> float:
    """Non-relativistic level E_n = -Ry / n^2 (l-independent)."""
    n = n if isinstance(n, QuantumNumbers) else QuantumNumbers(n)
    return -u.rydberg_energy / (n.n * n.n)


def epsilon_n(lam: float, n: QuantumNumbers | int, u: UnitSystem) -> float:
    """Internal-time generator level epsilon_n = -lambda^2 E_n / (2 m c^2).

    Positive for bound states and exactly quadratic in the control momentum;
    epsilon_n(2 m c) = -2 E_n. lambda may be any real value (the formula is
    even in lambda); the bound-state interpretation needs lambda > 0. A
    lambda whose level is not finite is refused.
    """
    level = -lam * lam * bohr_energy(n, u) / (2.0 * u.rest_energy)
    if not math.isfinite(level):
        raise ValueError(f"lambda = {lam!r} makes the level epsilon_n = {level!r}")
    return level


def _numerov_g(eps: float, r: np.ndarray, l: int, coupling: float, hbar: float) -> np.ndarray:
    """g = r^2 q + 1/4 of the log-mesh equation v'' = g v at energy eps."""
    q = (-coupling / r + hbar * hbar * l * (l + 1) / (r * r) - eps) / (hbar * hbar)
    return r * r * q + 0.25


def _numerov_node_count(eps: float, r: np.ndarray, hx: float, l: int,
                        coupling: float, hbar: float) -> int:
    """Outward Numerov sweep on the log mesh; counts nodes of the solution.

    With x = ln r and u = sqrt(r) v, the radial equation u'' = q u becomes
    v'' = g v, g = r^2 q + 1/4, which Numerov integrates at O(h^4). The node
    count at energy eps is the number of bound levels strictly below eps,
    so bisection on it brackets any requested eigenvalue.
    """
    c = (1.0 - (hx * hx / 12.0) * _numerov_g(eps, r, l, coupling, hbar)).tolist()
    # v ~ r^(l + 1/2) scaled to 1 at r[1]: unscaled, it underflows at small r_min, large l
    v_prev = math.exp(-(l + 0.5) * hx)
    v_cur = 1.0
    nodes = 0
    for i in range(1, r.size - 1):
        v_next = ((12.0 - 10.0 * c[i]) * v_cur - c[i - 1] * v_prev) / c[i + 1]
        if (v_next < 0.0 <= v_cur) or (v_cur < 0.0 <= v_next):
            nodes += 1
        v_prev, v_cur = v_cur, v_next
        scale = abs(v_cur)
        if scale > 1e250:
            v_prev /= scale
            v_cur /= scale
    return nodes


def numerov_eigenvalue(n: QuantumNumbers, coupling: float, r_min: float, r_max: float,
                       num_points: int, u: UnitSystem) -> float:
    """Grid oracle: n-th bound eigenvalue of -hbar^2 Delta - coupling / r.

    Standard sign convention (negative for bound states); callers map to the
    internal-time generator by negation. Shooting with node-count bisection on
    its own log mesh of num_points on [r_min, r_max]: the returned energy is
    the point where the outward solution's node count steps from n - l - 1 to
    n - l, i.e. the Dirichlet eigenvalue of the truncated mesh, with no
    closed-form input anywhere.
    """
    if not 0.0 < r_min < r_max < math.inf:
        raise ValueError("need 0 < r_min < r_max < inf")
    if not (isinstance(num_points, numbers.Integral) and num_points >= 16):
        raise ValueError(f"need at least 16 grid points, an integer, got {num_points!r}")
    if not coupling > 0.0:
        raise ValueError("coupling must be positive; no bound states otherwise")
    r = np.geomspace(r_min, r_max, num_points)
    hx = math.log(r_max / r_min) / (num_points - 1)
    target = n.n - n.l - 1  # radial nodes of the requested state

    def count(eps: float) -> int:
        return _numerov_node_count(eps, r, hx, n.l, coupling, u.hbar)

    lo = -coupling * coupling / (u.hbar * u.hbar)  # below any bound level
    hi = -1e-12 * coupling * coupling / (u.hbar * u.hbar)
    # each float operation of g is monotone in eps, so g finite at both brackets
    # is finite at every energy the bisection tries
    with np.errstate(all="ignore"):
        finite = all(np.all(np.isfinite(_numerov_g(eps, r, n.l, coupling, u.hbar)))
                     for eps in (lo, hi))
    if not (finite and math.isfinite(hx)):
        raise ValueError(f"log mesh [{r_min!r}, {r_max!r}] at coupling {coupling!r}, l = {n.l} "
                         "leaves the float range: its log step or r^2 q + 1/4 at the "
                         "brackets is not finite")
    if count(lo) > target:
        raise RuntimeError("grid cannot resolve the requested state (lower bracket fails)")
    if count(hi) <= target:
        raise RuntimeError(
            f"grid holds fewer than {target + 1} bound nodes up to r_max={r_max}; "
            "enlarge the grid")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if count(mid) > target:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= NUMEROV_TOL * abs(hi):
            return 0.5 * (lo + hi)
    raise RuntimeError("bisection failed to converge; grid may be degenerate")


def sommerfeld_nstar_sq(p: int, k: int, alpha: float) -> float:
    """Effective squared principal number p^2 + 2 p sqrt(k^2 - alpha^2) + k^2."""
    SommerfeldNumbers(p, k)  # refuses anything that is not a (p, k) pair
    if not abs(k) > alpha:
        raise ValueError(f"|k| = {abs(k)} must exceed alpha = {alpha}")
    root = math.sqrt(k * k - alpha * alpha)
    return p * p + 2.0 * p * root + k * k


def sommerfeld_energy(pk: SommerfeldNumbers, u: UnitSystem) -> float:
    """Fine-structure level m c^2 sqrt(1 - alpha^2 / n*^2).

    Computed through the n*^2 form and, independently, through the equivalent
    m c^2 [1 + alpha^2 / (p + sqrt(k^2 - alpha^2))^2]^(-1/2); the two must
    agree to 1e-13 relative or the call fails loudly.
    """
    alpha = u.alpha
    nstar_sq = sommerfeld_nstar_sq(pk.p, pk.k, alpha)
    e_a = u.rest_energy * math.sqrt(1.0 - alpha * alpha / nstar_sq)
    denom = pk.p + math.sqrt(pk.k * pk.k - alpha * alpha)
    e_b = u.rest_energy / math.sqrt(1.0 + alpha * alpha / (denom * denom))
    if abs(e_a - e_b) > 1e-13 * u.rest_energy:
        raise ArithmeticError(
            f"fine-structure forms disagree: {e_a!r} vs {e_b!r} at (p={pk.p}, k={pk.k})")
    return e_a
