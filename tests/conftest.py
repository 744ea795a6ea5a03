import numpy as np
import pytest

from qaction import RadialState, make_units, state_norm
from qaction import propagation

CODATA_ALPHA = 0.0072973525693

# acceptance 10's runs, held once for the suite and named in CI's "CLI output
# hashes" step: {two} and {const} name files holding these path texts
TWO_SEGMENT_PATH = "s_end,lambda\n1.0,2.0\n2.5,1.0\n"
CONST_PATH_20 = "0.5,20.0\n"
ACCEPTANCE_ARGS = {
    "spectrum": "spectrum --alpha 0.1",
    "stationary": "stationary --alpha 0.1 --n 2 --x10 12.5",
    "packet": "packet --alpha 0.5 --path-file {two} --sigma 0.8 --steps 50",
    "propagate": "propagate --alpha 0.1 --path-file {const} --grid-points 900 "
                 "--rmax 25 --steps 300",
    "timemap": "timemap --path-file {two} --samples 41",
    "optimize": "optimize --alpha 0.1 --in 1,0 --out 1,0 --x10 40.0 "
                "--grid-points 600 --rmax 24",
}


def record_calls(mp, owner, name):
    """Replace owner.name, while the MonkeyPatch mp holds, with a pass-through
    that appends each call's positional arguments to the list returned."""
    calls, fn = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    mp.setattr(owner, name, recording)
    return calls


def truncated_eigenstate(n, l, lam, grid, u):
    """grid_eigenstate's state (n, l) on a grid that truncates it at r_max, which
    grid_eigenstate refuses: the same eigenvector, sign and norm, so the same bits."""
    diag, off = propagation._hamiltonian_tridiag(grid, l, lam, u)
    vec = propagation._eigenpairs(diag, off, n - l - 1, n - l - 1)[1][:, 0]
    if vec[int(np.argmax(np.abs(vec)))] < 0.0:
        vec = -vec
    state = RadialState(grid, l, vec.astype(complex))
    return RadialState(grid, l, state.amplitudes / state_norm(state))


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


@pytest.fixture()
def two_segment_path(tmp_path):
    p = tmp_path / "path.csv"
    p.write_text(TWO_SEGMENT_PATH)
    return str(p)


@pytest.fixture()
def const_path_20(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text(CONST_PATH_20)
    return str(p)
