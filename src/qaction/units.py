"""Unit systems and physical constants.

Every downstream module takes an explicit UnitSystem; nothing reads global
state. The default is Hartree atomic units (hbar = m = e2k = 1, c = 1/alpha),
where the non-relativistic hydrogen levels are -1/(2 n^2) exactly and the
fine structure constant alpha is the only knob. An SI-flavoured system is
provided for dimension checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["UnitSystem", "make_units", "HARTREE_ATOMIC", "SI_LIKE"]

HARTREE_ATOMIC = "hartree_atomic"
SI_LIKE = "si_like"

_SI_HBAR = 1.054571817e-34   # J s
_SI_MASS = 9.1093837015e-31  # kg, electron
_SI_C = 299792458.0          # m / s


@dataclass(frozen=True)
class UnitSystem:
    """Primary constants plus the derived quantities the solvers use.

    hbar, mass, c and e2k (Coulomb coupling e^2 k, energy times length) are
    primary and positive, and are the whole state: the name of the system
    that make_units built them from is not kept. Derived on access, so never out of step: alpha =
    e2k / (hbar c) in (0, 1), the rest energy m c^2 (its square finite), the
    Rydberg energy m e2k^2 / (2 hbar^2), and the momentum-dimension Coulomb
    coupling e2k / c that multiplies the control momentum in the radial
    generator. Instances
    are immutable and safe to share across threads.
    """

    hbar: float
    mass: float
    c: float
    e2k: float

    def __post_init__(self):
        if not all(v > 0.0 for v in (self.hbar, self.mass, self.c, self.e2k)):
            raise ValueError("hbar, mass, c and e2k must all be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"derived alpha = {self.alpha} lies outside (0, 1)")
        # (m c^2)^2 is the largest product the solvers form
        if not math.isfinite(self.rest_energy * self.rest_energy):
            raise ValueError(f"rest energy m c^2 = {self.rest_energy!r} is too large: its "
                             f"square overflows (alpha = {self.alpha!r})")

    @property
    def alpha(self) -> float:
        return self.e2k / (self.hbar * self.c)

    @property
    def rest_energy(self) -> float:
        return self.mass * self.c * self.c

    @property
    def rydberg_energy(self) -> float:
        return self.mass * self.e2k * self.e2k / (2.0 * self.hbar * self.hbar)

    @property
    def coulomb_momentum(self) -> float:
        return self.e2k / self.c

    @property
    def mc(self) -> float:
        """Momentum scale m c; the stationary control sits near 2 m c."""
        return self.mass * self.c

    @property
    def bohr_radius(self) -> float:
        return self.hbar * self.hbar / (self.mass * self.e2k)


def make_units(alpha: float, system: str = HARTREE_ATOMIC) -> UnitSystem:
    """Build a self-consistent UnitSystem for a given fine structure constant.

    hartree_atomic: hbar = m = e2k = 1, c = 1/alpha. si_like: CODATA hbar,
    electron mass and c, with e2k = alpha * hbar * c. alpha must lie in (0, 1);
    the alpha -> 0 regime is reached by passing a tiny positive value.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if system == HARTREE_ATOMIC:
        return UnitSystem(1.0, 1.0, 1.0 / alpha, 1.0)
    if system == SI_LIKE:
        return UnitSystem(_SI_HBAR, _SI_MASS, _SI_C, alpha * _SI_HBAR * _SI_C)
    raise ValueError(f"unknown unit system: {system!r}")
