import pytest

from qaction import make_units

CODATA_ALPHA = 0.0072973525693


def record_calls(mp, owner, name):
    """Replace owner.name, while the MonkeyPatch mp holds, with a pass-through
    that appends each call's positional arguments to the list returned."""
    calls, fn = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    mp.setattr(owner, name, recording)
    return calls


@pytest.fixture(scope="session")
def u10():
    # exaggerated alpha: fine-structure effects visible at desk scale
    return make_units(0.1)


@pytest.fixture(scope="session")
def u_codata():
    return make_units(CODATA_ALPHA)


@pytest.fixture(scope="session")
def u_half():
    # mc = 2, keeps m^2 c^2 terms O(1) so roundoff stays far below tolerances
    return make_units(0.5)
