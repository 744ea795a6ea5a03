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

is exact, which the fixed-step integrator is tested against. Within one step
chi1 is linear in s and chi0 quadratic, so RK4's four stages sum to the exact
increment; the integrator takes that increment written out. A packet that
starts with chi2 = -1/(2 sigma^2) keeps width sigma and unit norm while its
center rides along x0 = L(s).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .paths import LambdaPath
from .units import UnitSystem

# RK4 steps of one integrate_chi call, at most: on 2 cores (Python 3.11)
# 10^6 steps took 2.8-3.7 s, each keeping one ~200-byte state, so about
# 200 MB (the CLI renders them in about 20 s and 0.9 GB); the tests run at
# most 2 000 (test_integrate_matches_closed_form)
MAX_RK4_STEPS = 10 ** 6

__all__ = [
    "GaussianPhaseState", "PacketDiagnostics",
    "chi_initial", "integrate_chi", "packet_diagnostics",
]


@dataclass(frozen=True)
class GaussianPhaseState:
    """Phase coefficients (chi0, chi1, chi2) at internal time s, with Re chi2 < 0."""

    chi0: complex
    chi1: complex
    chi2: complex
    s: float

    def __post_init__(self):
        for name in ("chi0", "chi1", "chi2"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name} is not finite")
        if self.chi2.real >= 0.0:
            raise ValueError("state is not normalizable (Re chi2 >= 0)")

    @property
    def center(self) -> float:
        """Peak of |psi0|^2, at -Re chi1 / Re chi2."""
        return -self.chi1.real / self.chi2.real

    @property
    def width(self) -> float:
        """Standard deviation of |psi0|^2, sqrt(-1 / (2 Re chi2))."""
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
    if not (sigma * sigma > 0.0 and 2.0 * math.pi * sigma * sigma < math.inf
            and 0.5 / (sigma * sigma) < math.inf):
        raise ValueError(f"sigma = {sigma!r} is too {'small' if sigma < 1.0 else 'large'}: "
                         "chi0 = -ln(2 pi sigma^2) / 4 and chi2 = -1 / (2 sigma^2) must be finite")
    return GaussianPhaseState(
        chi0=complex(-0.25 * math.log(2.0 * math.pi * sigma * sigma)),
        chi1=0.0 + 0.0j,
        chi2=complex(-0.5 / (sigma * sigma)),
        s=0.0,
    )


def _default_d(path: LambdaPath) -> float:
    # d only shifts the global phase; the stationary solution has d = lambda/2
    return 0.5 * path.integral() / path.S


def integrate_chi(state: GaussianPhaseState, path: LambdaPath, d: float | None,
                  u: UnitSystem, steps: int) -> list[GaussianPhaseState]:
    """Integrate the phase system in fixed steps, segment-aligned.

    Returns the trajectory including the initial state. Steps are distributed
    over segments in proportion to duration (at least one per segment) and
    never straddle a breakpoint, so lambda and chi2 are constant within each:
    chi1 is linear in s there and chi0 quadratic, and RK4's four stages sum to
    the exact increment. Each step takes that increment written out, with
    dL = lambda h and c0 = (d^2 - lambda d - m^2 c^2) / (i hbar),

        chi0 += c0 h - dL (chi1 - dL chi2 / 2),    chi1 -= dL chi2,

    the bracket being chi1 at the step's midpoint, so the trajectory is the
    quadrature solution to roundoff. The k-th state of a segment is labelled
    s = start + k h, and its last s = the segment's breakpoint exactly.
    Refused (ValueError) before any step: more than MAX_RK4_STEPS steps, a
    segment whose duration times steps overflows or whose step h is
    subnormal, a width sigma whose chi1 or chi0 leaves the float range where
    the path's running integral L peaks, or whose dL chi2 or dL chi1 at a
    step's midpoint does, then a phase |d^2 - lambda d - m^2 c^2| S / hbar
    past it (naming d, or the path's length S when d defaults).
    """
    if not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise ValueError(f"steps must be a whole number >= 1, got {steps!r}")
    if steps > MAX_RK4_STEPS:
        raise ValueError(f"steps must be at most {MAX_RK4_STEPS:.0e}, the RK4 work budget")
    if state.s != 0.0:
        raise ValueError("trajectory must start at s = 0")
    segments = []  # lambda, step count and step length h of each segment
    for j, (lam, dur) in enumerate(zip(path.values.tolist(), path.durations.tolist())):
        if steps * dur / path.S == math.inf:
            raise ValueError(f"segment {j} of duration {dur!r} times steps = {steps} "
                             "overflows; shorten the path or lower steps")
        n_sub = max(1, math.ceil(steps * dur / path.S))
        h = dur / n_sub
        if h < np.finfo(float).tiny:  # as propagation._sweep refuses a subnormal ds
            raise ValueError(f"segment {j} of duration {dur!r} in {n_sub} steps has the "
                             f"subnormal step h = {h!r}; lengthen the path")
        segments.append((lam, n_sub, h))
    ends = path.cumulative_integral().tolist()
    reach = max(map(abs, ends))  # L peaks at a segment end
    c1, c2 = (max(abs(z.real), abs(z.imag)) for z in (state.chi1, state.chi2))
    if not (c1 + c2 * reach < math.inf and (c1 + 0.5 * c2 * reach) * reach < math.inf):
        raise ValueError(f"packet width sigma = {state.width:.6g} is too small for a path whose "
                         f"lambda integral reaches |L| = {reach:.6g}: chi1 or chi0 overflows")
    # chi1 is linear in L, so over a segment's step midpoints it peaks at the first or last
    for (lam, _, h), start, end in zip(segments, [0.0, *ends], ends):
        dL = lam * h
        mid = max(abs(start + 0.5 * dL), abs(end - 0.5 * dL))
        if not abs(dL) * max(c2, c1 + c2 * mid) < math.inf:
            raise ValueError(f"packet width sigma = {state.width:.6g} is too small for steps of "
                             f"|lambda h| = {abs(dL):.6g}: lambda h chi2 or lambda h chi1 "
                             "overflows; raise steps")
    given = d is not None
    if d is None:
        d = _default_d(path)
    m2c2 = u.mass * u.mass * u.c * u.c
    if not all(abs(d * d - lam * d - m2c2) / u.hbar * path.S < math.inf  # False on NaN
               for lam, _, _ in segments):
        at = f"d = {d!r}" if given else f"the default d = mean lambda / 2 = {d!r}"
        raise ValueError(f"the phase |d^2 - lambda d - m^2 c^2| S / hbar overflows at {at} "
                         f"on a path of length S = {path.S!r}")
    out = [state]
    chi0, chi1, chi2 = complex(state.chi0), complex(state.chi1), complex(state.chi2)
    for (lam, n_sub, h), start, end in zip(segments, path.starts.tolist(),
                                           path.breakpoints.tolist()):
        c0 = (d * d - lam * d - m2c2) / (1j * u.hbar)
        dL = lam * h
        for k in range(1, n_sub + 1):
            chi0 += c0 * h - dL * (chi1 - 0.5 * dL * chi2)  # dL times chi1 at the midpoint
            chi1 -= dL * chi2
            s = start + k * h if k < n_sub else end
            out.append(GaussianPhaseState(chi0=chi0, chi1=chi1, chi2=chi2, s=s))
    return out


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def packet_diagnostics(state: GaussianPhaseState, x0_grid: np.ndarray) -> PacketDiagnostics:
    """Center, width and L2 norm of |psi0|^2 = exp(2 Re chi) on a grid.

    The trapezoid rule over the points spanning center +- 8 widths, which hold
    all but 1.2e-15 of the norm: the grid must reach past both ends, in steps
    of at most half a width there (ValueError otherwise).
    """
    x = np.asarray(x0_grid, dtype=float)
    if x.ndim != 1 or x.size < 8 or not np.all(x[1:] > x[:-1]):
        raise ValueError("x0 grid must be 1d, increasing, with at least 8 points")
    c, w = state.center, state.width
    lo, hi = c - 8.0 * w, c + 8.0 * w
    if not (x[0] < lo and hi < x[-1]):
        raise ValueError(f"x0 grid must reach past the packet's window [{lo!r}, {hi!r}]")
    x = x[np.searchsorted(x, lo, side="right") - 1:np.searchsorted(x, hi) + 1]
    if np.any(x[1:] > x[:-1] + 0.5 * w):  # no difference is taken, so none overflows
        raise ValueError(f"x0 grid steps over the window must be at most w / 2 = {0.5 * w!r}")
    shape = np.exp(-0.5 * ((x - c) / w) ** 2)  # |psi0|^2 over its peak, exp(2 Re chi(c))
    mass = _trapezoid(shape, x)  # > 0: a point lies within w / 4 of c
    center = _trapezoid(x * shape, x) / mass
    var = _trapezoid((x - center) ** 2 * shape, x) / mass
    norm = math.exp(state.chi0.real + 0.5 * state.chi1.real * c) * math.sqrt(mass)
    return PacketDiagnostics(center=center, width=math.sqrt(var), norm=norm)
