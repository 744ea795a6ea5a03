"""Internal-time quantum dynamics of the relativistic Coulomb problem.

Bound levels, Gaussian phase-parameter flows, stationary control paths and
grid propagation of transition amplitudes, with the control momentum lambda
entering the Coulomb coupling and the Lorentzian classical action.

Each submodule's __all__ is the one list of its public names; the package
re-exports them all.
"""

from . import gaussian_phase, paths, propagation, spectrum, stationary, units, variational
from .units import *
from .paths import *
from .spectrum import *
from .gaussian_phase import *
from .stationary import *
from .propagation import *
from .variational import *

__version__ = "0.1.0"

__all__ = [name for module in (units, paths, spectrum, gaussian_phase, stationary,
                               propagation, variational)
           for name in module.__all__] + ["__version__"]
