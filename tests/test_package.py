from collections import Counter

import qaction
from qaction import (gaussian_phase, paths, propagation, spectrum, stationary,
                     units, variational)

SUBMODULES = (units, paths, spectrum, gaussian_phase, stationary, propagation,
              variational)


def test_package_all_is_the_submodule_lists():
    # each submodule's __all__ is the one list of its public names
    expected = [name for module in SUBMODULES for name in module.__all__]
    assert Counter(qaction.__all__) == Counter(expected + ["__version__"])
    assert len(set(qaction.__all__)) == len(qaction.__all__)
    for name in qaction.__all__:
        assert hasattr(qaction, name), name
