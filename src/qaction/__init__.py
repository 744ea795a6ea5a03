"""Internal-time quantum dynamics of the relativistic Coulomb problem.

Bound levels, Gaussian phase-parameter flows, stationary control paths and
grid propagation of transition amplitudes, with the control momentum lambda
entering the Coulomb coupling and the Lorentzian classical action.

Each submodule's __all__ is the one list of its public names; the package
re-exports them all. It does so lazily (PEP 562): ``import qaction`` loads no
submodule and no numpy, and the first use of any name but __version__
(``from qaction import cli`` is one) imports the seven submodules, binds
their public names and builds __all__ from them. ``import qaction.cli``
loads the CLI alone, and each command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the submodules whose __all__ the package re-exports, in import order
_SUBMODULES = ("units", "paths", "spectrum", "gaussian_phase", "stationary",
               "propagation", "variational")


def _load() -> None:
    """Import the submodules and bind their public names, once."""
    if "__all__" in globals():
        return
    names = []
    for sub in _SUBMODULES:
        module = importlib.import_module(f"{__name__}.{sub}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names + ["__version__"]


def __getattr__(name: str):
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
