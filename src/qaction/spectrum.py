"""Bound spectra: Bohr levels, the scaled internal-time generator, Sommerfeld.

The radial generator at control momentum lambda is, in the standard sign
convention, H_std = -hbar^2 Delta - lambda kappa_C / r with kappa_C = e2k / c.
Its bound eigenvalues are -lambda^2 kappa_C^2 / (4 hbar^2 n^2); the
internal-time generator is the negative of H_std, so its levels

    epsilon_n(lambda) = -lambda^2 E_n / (2 m c^2),   E_n = -Ry / n^2,

are positive. Everything here computes in the standard convention and flips
the sign at the interface.

level_comparison sets the stationary-action level energy kappa c =
m c^2 sqrt(1 - alpha^2 / n^2) (the closed form of qaction.stationary) next to
every Sommerfeld level with p + |k| = n. Every function here is a closed form
on the standard library, so the spectrum command needs no numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .units import UnitSystem

__all__ = [
    "QuantumNumbers", "SommerfeldNumbers", "bohr_energy", "epsilon_n",
    "sommerfeld_nstar_sq", "sommerfeld_energy", "LevelComparison",
    "SommerfeldComparison", "level_comparison",
]


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

    energy: float
    comparisons: tuple[SommerfeldComparison, ...]


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
    return LevelComparison(energy=energy, comparisons=tuple(rows))
