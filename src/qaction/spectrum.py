"""Bound spectra: Bohr levels, the scaled internal-time generator, Sommerfeld.

The radial generator at control momentum lambda is, in the standard sign
convention, H_std = -hbar^2 Delta - lambda kappa_C / r with kappa_C = e2k / c.
Its bound eigenvalues are -lambda^2 kappa_C^2 / (4 hbar^2 n^2); the
internal-time generator is the negative of H_std, so its levels

    epsilon_n(lambda) = -lambda^2 E_n / (2 m c^2),   E_n = -Ry / n^2,

are positive. Everything here computes in the standard convention and flips
the sign at the interface. The Numerov shooting oracle is deliberately
independent of those closed forms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .units import UnitSystem

__all__ = [
    "QuantumNumbers", "SommerfeldNumbers", "RadialGrid", "RadialState",
    "bohr_energy", "epsilon_n", "scaled_eigenfunction", "numerov_eigenvalue",
    "sommerfeld_nstar_sq", "sommerfeld_energy",
    "state_norm", "inner_product", "expectation_r", "count_radial_nodes",
    "UNIFORM", "LOG",
]

UNIFORM = "uniform"
LOG = "log"


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


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial mesh on [r_min, r_max], uniform or log spaced."""

    r_min: float
    r_max: float
    num_points: int
    spacing: str = LOG

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise ValueError("need 0 < r_min < r_max < inf")
        if self.num_points < 16:
            raise ValueError("need at least 16 grid points")
        if self.spacing not in (UNIFORM, LOG):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def points(self) -> np.ndarray:
        if self.spacing == UNIFORM:
            return np.linspace(self.r_min, self.r_max, self.num_points)
        return np.geomspace(self.r_min, self.r_max, self.num_points)

    @property
    def step(self) -> float:
        """Uniform mesh spacing (uniform grids only)."""
        if self.spacing != UNIFORM:
            raise ValueError("step is defined for uniform grids only")
        return (self.r_max - self.r_min) / (self.num_points - 1)

    def quad_weights(self) -> np.ndarray:
        """Quadrature weights for integrals of smooth radial functions.

        Uniform grids use the plain h-weighted sum, consistent with Dirichlet
        walls one step outside both ends (states vanish there, so this is the
        rule the propagator conserves exactly). Log grids integrate in
        x = ln r with composite Simpson (trapezoid patch on the last interval
        when the point count is even), whose h^4 accuracy keeps norm checks
        meaningful at the default resolution.
        """
        r = self.points()
        if self.spacing == UNIFORM:
            return np.full(self.num_points, self.step)
        hx = math.log(self.r_max / self.r_min) / (self.num_points - 1)
        w = _simpson_weights(self.num_points, hx)
        return w * r  # dr = r dx


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[0:m:2] += 2.0
    w[1:m:2] += 4.0
    w[0] = 1.0
    w[m - 1] = 1.0
    w[:m] *= h / 3.0
    if m < n:  # even point count: trapezoid on the final interval
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


@dataclass(frozen=True)
class RadialState:
    """Reduced radial wave function u(r) = r R(r) sampled on a grid."""

    grid: RadialGrid
    l: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size != self.grid.num_points:
            raise ValueError("amplitudes must be a 1d array matching the grid")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes contain non-finite entries")
        if self.l < 0:
            raise ValueError("l must be non-negative")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def state_norm(state: RadialState) -> float:
    w = state.grid.quad_weights()
    return math.sqrt(float(np.sum(w * np.abs(state.amplitudes) ** 2)))


def _check_pair(bra: RadialState, ket: RadialState) -> None:
    """Refuse two states whose overlap is not a grid sum: other grid or other l."""
    if bra.grid != ket.grid:
        raise ValueError("states live on different grids")
    if bra.l != ket.l:
        raise ValueError("cross-l overlap is zero by orthogonality; refusing mixed-l input")


def inner_product(bra: RadialState, ket: RadialState) -> complex:
    _check_pair(bra, ket)
    w = bra.grid.quad_weights()
    return complex(np.sum(w * np.conj(bra.amplitudes) * ket.amplitudes))


def expectation_r(state: RadialState) -> float:
    w = state.grid.quad_weights()
    r = state.grid.points()
    dens = np.abs(state.amplitudes) ** 2
    return float(np.sum(w * r * dens) / np.sum(w * dens))


def count_radial_nodes(state: RadialState) -> int:
    """Sign changes of Re u(r) away from the numerical noise floor."""
    vals = np.real(state.amplitudes)
    vals = vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))]
    return int(np.sum(vals[1:] * vals[:-1] < 0.0))


def bohr_energy(n: QuantumNumbers | int, u: UnitSystem) -> float:
    """Non-relativistic level E_n = -Ry / n^2 (l-independent)."""
    n = n if isinstance(n, QuantumNumbers) else QuantumNumbers(n)
    return -u.rydberg_energy / (n.n * n.n)


def epsilon_n(lam: float, n: QuantumNumbers | int, u: UnitSystem) -> float:
    """Internal-time generator level epsilon_n = -lambda^2 E_n / (2 m c^2).

    Positive for bound states and exactly quadratic in the control momentum;
    epsilon_n(2 m c) = -2 E_n. lambda may be any real value (the formula is
    even in lambda); the bound-state interpretation needs lambda > 0.
    """
    return -lam * lam * bohr_energy(n, u) / (2.0 * u.rest_energy)


def _hydrogen_reduced_radial(n: int, l: int, r: np.ndarray, a: float) -> np.ndarray:
    """u_nl(r) = r R_nl(r) for Bohr radius a, unit L2 norm in exact arithmetic."""
    from scipy.special import eval_genlaguerre  # only this oracle needs it

    rho = 2.0 * r / (n * a)
    norm = math.sqrt((2.0 / (n * a)) ** 3
                     * math.factorial(n - l - 1) / (2.0 * n * math.factorial(n + l)))
    R = norm * np.exp(-rho / 2.0) * rho ** l * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
    return r * R


def scaled_eigenfunction(n: QuantumNumbers, lam: float, grid: RadialGrid,
                         u: UnitSystem) -> RadialState:
    """Hydrogen eigenfunction at dilated argument 2 m c r / lambda.

    The state's length scale is lambda / (2 m c) times the Bohr radius, so at
    lambda = 2 m c it is the textbook hydrogen state. Normalized to unit norm
    on the grid; a norm deficit above 1e-6 (grid too short or too coarse to
    hold the state) is an error rather than a silent renormalization.
    """
    if not lam > 0.0:
        raise ValueError("lambda must be positive for a bound scaled state")
    r = grid.points()
    a_eff = u.bohr_radius * lam / (2.0 * u.mc)
    vals = _hydrogen_reduced_radial(n.n, n.l, r, a_eff)
    state = RadialState(grid, n.l, vals.astype(complex))
    norm = state_norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(
            f"grid holds only |norm|={norm:.9f} of the (n={n.n}, l={n.l}) state; "
            "enlarge r_max or refine the mesh")
    return RadialState(grid, n.l, state.amplitudes / norm)


def _numerov_node_count(eps: float, r: np.ndarray, hx: float, l: int,
                        coupling: float, hbar: float) -> int:
    """Outward Numerov sweep on the log mesh; counts nodes of the solution.

    With x = ln r and u = sqrt(r) v, the radial equation u'' = q u becomes
    v'' = g v, g = r^2 q + 1/4, which Numerov integrates at O(h^4). The node
    count at energy eps is the number of bound levels strictly below eps,
    so bisection on it brackets any requested eigenvalue.
    """
    q = (-coupling / r + hbar * hbar * l * (l + 1) / (r * r) - eps) / (hbar * hbar)
    g = r * r * q + 0.25
    c = 1.0 - (hx * hx / 12.0) * g
    v_prev = r[0] ** (l + 0.5)
    v_cur = r[1] ** (l + 0.5)
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


def numerov_eigenvalue(n: QuantumNumbers, coupling: float, grid: RadialGrid,
                       u: UnitSystem, tol: float = 1e-10) -> float:
    """Grid oracle: n-th bound eigenvalue of -hbar^2 Delta - coupling / r.

    Standard sign convention (negative for bound states); callers map to the
    internal-time generator by negation. Shooting with node-count bisection:
    the returned energy is the point where the outward solution's node count
    steps from n - l - 1 to n - l, i.e. the Dirichlet eigenvalue of the
    truncated mesh, with no closed-form input anywhere.
    """
    if not coupling > 0.0:
        raise ValueError("coupling must be positive; no bound states otherwise")
    if grid.spacing != LOG:
        raise ValueError("the shooting oracle wants a log-spaced grid")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    r = grid.points()
    hx = math.log(grid.r_max / grid.r_min) / (grid.num_points - 1)
    target = n.n - n.l - 1  # radial nodes of the requested state

    def count(eps: float) -> int:
        return _numerov_node_count(eps, r, hx, n.l, coupling, u.hbar)

    lo = -coupling * coupling / (u.hbar * u.hbar)  # below any bound level
    hi = -1e-12 * coupling * coupling / (u.hbar * u.hbar)
    if count(lo) > target:
        raise RuntimeError("grid cannot resolve the requested state (lower bracket fails)")
    if count(hi) <= target:
        raise RuntimeError(
            f"grid holds fewer than {target + 1} bound nodes up to r_max={grid.r_max}; "
            "enlarge the grid")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if count(mid) > target:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= tol * abs(hi):
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
