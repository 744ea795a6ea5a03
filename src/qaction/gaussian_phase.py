"""Quadratic-phase Gaussian packets on the coordinate-time axis.

The x0 sector of the internal-time evolution closes on the ansatz
psi0 = exp(chi), chi = chi0 + chi1 x0 + chi2 x0^2 / 2, giving the triangular
system

    i hbar d(chi0)/ds = d^2 - lambda d - m^2 c^2 - i hbar lambda chi1
          d(chi1)/ds = -lambda chi2
          d(chi2)/ds = 0

so chi2 is a constant of motion and chi1 grows with the running integral
L(s) of lambda. For piecewise-constant paths the quadrature solution

    chi1(s) = chi1(0) - chi2 L(s)
    chi0(s) = chi0(0) - (i/hbar) [(d^2 - m^2 c^2) s - d L(s)]
              - chi1(0) L(s) + chi2 L(s)^2 / 2

is exact, which the fixed-step integrator is tested against. A packet that
starts with chi2 = -1/(2 sigma^2) keeps width sigma and unit norm while its
center rides along x0 = L(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import LambdaPath
from .units import UnitSystem

__all__ = [
    "GaussianPhaseState", "PacketDiagnostics",
    "chi_initial", "chi_closed_form", "integrate_chi", "packet_diagnostics",
]


@dataclass(frozen=True)
class GaussianPhaseState:
    """Phase coefficients (chi0, chi1, chi2) at internal time s."""

    chi0: complex
    chi1: complex
    chi2: complex
    s: float

    def __post_init__(self):
        for name in ("chi0", "chi1", "chi2"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name} is not finite")

    @property
    def center(self) -> float:
        """Peak of |psi0|^2, at -Re chi1 / Re chi2."""
        if self.chi2.real >= 0.0:
            raise ValueError("state is not normalizable (Re chi2 >= 0)")
        return -self.chi1.real / self.chi2.real

    @property
    def width(self) -> float:
        """Standard deviation of |psi0|^2, sqrt(-1 / (2 Re chi2))."""
        if self.chi2.real >= 0.0:
            raise ValueError("state is not normalizable (Re chi2 >= 0)")
        return math.sqrt(-0.5 / self.chi2.real)


@dataclass(frozen=True)
class PacketDiagnostics:
    """Moments of |psi0|^2 on an x0 grid."""

    center: float
    width: float
    norm: float

    def __post_init__(self):
        if not (self.width > 0.0 and self.norm > 0.0):
            raise ValueError("width and norm must be positive")


def chi_initial(sigma: float) -> GaussianPhaseState:
    """Unit-norm packet of width sigma centered at x0 = 0.

    chi2 = -1/(2 sigma^2), chi1 = 0, and chi0 = ln A with the L2 normalization
    A = (2 pi sigma^2)^(-1/4).
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return GaussianPhaseState(
        chi0=complex(-0.25 * math.log(2.0 * math.pi * sigma * sigma)),
        chi1=0.0 + 0.0j,
        chi2=complex(-0.5 / (sigma * sigma)),
        s=0.0,
    )


def _default_d(path: LambdaPath) -> float:
    # d only shifts the global phase; the stationary solution has d = lambda/2
    return 0.5 * path.integral() / path.S


def chi_closed_form(path: LambdaPath, sigma: float, d: float | None,
                    u: UnitSystem, s: float) -> GaussianPhaseState:
    """Exact quadrature solution at internal time s for the canonical packet.

    Uses the running integral L(s) of the piecewise-constant path, for which
    the double integral of lambda * L collapses to L^2 / 2 exactly.
    """
    init = chi_initial(sigma)
    if d is None:
        d = _default_d(path)
    L = path.integral(upto=s)
    m2c2 = u.mass * u.mass * u.c * u.c
    phase = ((d * d - m2c2) * s - d * L) / u.hbar
    chi0 = init.chi0 - 1j * phase - init.chi1 * L + init.chi2 * L * L / 2.0
    chi1 = init.chi1 - init.chi2 * L
    return GaussianPhaseState(chi0=chi0, chi1=chi1, chi2=init.chi2, s=float(s))


def integrate_chi(state: GaussianPhaseState, path: LambdaPath, d: float | None,
                  u: UnitSystem, steps: int) -> list[GaussianPhaseState]:
    """Integrate the phase system with fixed-step RK4, segment-aligned.

    Returns the trajectory including the initial state. Steps are distributed
    over segments in proportion to duration (at least one per segment) and
    never straddle a breakpoint, so for this right-hand side, polynomial in s
    within each segment, RK4 reproduces the quadrature solution to roundoff.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if state.s != 0.0:
        raise ValueError("trajectory must start at s = 0")
    if d is None:
        d = _default_d(path)
    m2c2 = u.mass * u.mass * u.c * u.c
    out = [state]
    chi0, chi1, chi2 = complex(state.chi0), complex(state.chi1), complex(state.chi2)
    s_now = 0.0
    for lam, dur in zip(path.values, path.durations):
        n_sub = max(1, math.ceil(steps * dur / path.S))
        h = dur / n_sub
        c0 = (d * d - lam * d - m2c2) / (1j * u.hbar)

        def rate(c1):
            return c0 - lam * c1, -lam * chi2

        for _ in range(n_sub):
            k1_0, k1_1 = rate(chi1)
            k2_0, k2_1 = rate(chi1 + 0.5 * h * k1_1)
            k3_0, k3_1 = rate(chi1 + 0.5 * h * k2_1)
            k4_0, k4_1 = rate(chi1 + h * k3_1)
            chi0 += (h / 6.0) * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
            chi1 += (h / 6.0) * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
            s_now += h
            out.append(GaussianPhaseState(chi0=chi0, chi1=chi1, chi2=chi2, s=s_now))
    return out


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def packet_diagnostics(state: GaussianPhaseState, x0_grid: np.ndarray) -> PacketDiagnostics:
    """Center, width and L2 norm of |psi0|^2 = exp(2 Re chi) on a grid.

    The grid must cover the packet; trapezoid quadrature on a smooth Gaussian
    tail converges far below the tolerances used in tests.
    """
    x = np.asarray(x0_grid, dtype=float)
    if x.ndim != 1 or x.size < 8 or not np.all(np.diff(x) > 0.0):
        raise ValueError("x0 grid must be 1d, increasing, with at least 8 points")
    if state.chi2.real >= 0.0:
        raise ValueError("state is not normalizable (Re chi2 >= 0)")
    re_chi = (state.chi0.real + state.chi1.real * x + 0.5 * state.chi2.real * x * x)
    dens = np.exp(2.0 * re_chi)
    mass = _trapezoid(dens, x)
    if not mass > 0.0:
        raise ValueError("packet density vanishes on the supplied grid")
    center = _trapezoid(x * dens, x) / mass
    var = _trapezoid((x - center) ** 2 * dens, x) / mass
    return PacketDiagnostics(center=center, width=math.sqrt(var), norm=math.sqrt(mass))
