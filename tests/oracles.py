"""Independent oracles the suite checks the package against.

Nothing in qaction calls them; each reaches its answer by a route the
package does not take:
- numerov_eigenvalue: bound levels of -hbar^2 Delta - coupling / r by
  Numerov shooting with node-count bisection on its own log mesh, with no
  closed-form input, against epsilon_n's levels (acceptance 05);
- evolve_spectral: propagation in the eigenbasis of each segment's discrete
  generator (scipy's eigh_tridiagonal), exact with the full basis, against
  the Cayley sweeps;
- chi_closed_form: the quadrature solution of the Gaussian phase system on
  piecewise-constant paths, against integrate_chi (acceptance 04).
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.linalg import eigh_tridiagonal

from qaction import GaussianPhaseState, LambdaPath, QuantumNumbers, RadialState, UnitSystem
from qaction.gaussian_phase import _default_d, chi_initial
from qaction.propagation import _hamiltonian_tridiag

NUMEROV_TOL = 1e-10  # relative width of the Numerov bisection's final bracket


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
    # the oracle's self-check, which no input reaches at NUMEROV_TOL: the bracket
    # starts at most coupling^2 / hbar^2 wide and |hi| never falls below 1e-12 of
    # that, so it meets the tolerance within 74 halvings, far above float spacing
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if count(mid) > target:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= NUMEROV_TOL * abs(hi):
            return 0.5 * (lo + hi)
    raise RuntimeError("bisection failed to converge; grid may be degenerate")


def evolve_spectral(state: RadialState, path: LambdaPath, u: UnitSystem,
                    num_states: int = 10) -> RadialState:
    """Cross-check propagation in a truncated eigenbasis of the box.

    Projects onto the lowest num_states eigenvectors of each segment's
    generator, bound or not (the full basis, mostly unbound box states, is
    exact), and rotates them by their exact eigenphases; anything outside the
    retained span is dropped.
    """
    n = state.grid.num_points
    if not (isinstance(num_states, numbers.Integral) and 1 <= num_states <= n):
        raise ValueError(f"num_states must be a whole number in [1, {n}], got {num_states!r}")
    phi = np.array(state.amplitudes, dtype=complex)
    for lam, dur in zip(path.values, path.durations):
        w, v = eigh_tridiagonal(*_hamiltonian_tridiag(state.grid, state.l, lam, u),
                                select="i", select_range=(0, num_states - 1))
        coeff = v.T @ phi
        phi = v @ (coeff * np.exp(1j * w * dur / u.hbar))
    return RadialState(state.grid, state.l, phi)


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
    chi0 = init.chi0 - 1j * phase - init.chi1 * L + 0.5 * init.chi2 * L * L
    chi1 = init.chi1 - init.chi2 * L
    return GaussianPhaseState(chi0=chi0, chi1=chi1, chi2=init.chi2, s=float(s))
