import math

import pytest

from qaction import SI_LIKE, UnitSystem, make_units
from conftest import CODATA_ALPHA


def test_hartree_defaults():
    u = make_units(CODATA_ALPHA)
    assert u.hbar == 1.0
    assert u.mass == 1.0
    assert u.e2k == 1.0
    assert u.c == 1.0 / CODATA_ALPHA
    assert u.rydberg_energy == 0.5
    assert math.isclose(u.rest_energy, 18778.865044866674, rel_tol=1e-14)


def test_rest_energy_alpha_tenth():
    assert make_units(0.1).rest_energy == 100.0


def test_rydberg_rest_ratio():
    for alpha in (1e-4, CODATA_ALPHA, 0.1, 0.5, 0.99):
        u = make_units(alpha)
        assert math.isclose(u.rydberg_energy / u.rest_energy, alpha * alpha / 2.0,
                            rel_tol=1e-14)


def test_alpha_round_trip():
    for alpha in (0.001, CODATA_ALPHA, 0.25, 0.9):
        u = make_units(alpha)
        assert math.isclose(u.e2k / (u.hbar * u.c), alpha, rel_tol=1e-14)
        assert math.isclose(u.alpha, alpha, rel_tol=1e-14)


def test_si_like_system():
    u = make_units(CODATA_ALPHA, system=SI_LIKE)
    assert u.c == 299792458.0
    assert math.isclose(u.e2k / (u.hbar * u.c), CODATA_ALPHA, rel_tol=1e-14)
    assert math.isclose(u.rest_energy, u.mass * u.c ** 2, rel_tol=1e-15)


def test_derived_quantities():
    u = make_units(0.1)
    assert u.mc == u.mass * u.c
    assert u.bohr_radius == u.hbar ** 2 / (u.mass * u.e2k)
    assert u.coulomb_momentum == u.e2k / u.c
    # in hartree atomic units the coupling momentum is alpha itself
    assert math.isclose(u.coulomb_momentum, 0.1, rel_tol=1e-15)


@pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1])
def test_alpha_domain_rejected(alpha):
    with pytest.raises(ValueError):
        make_units(alpha)


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        make_units(0.1, system="cgs")


def test_create_rejects_nonpositive():
    with pytest.raises(ValueError):
        UnitSystem(hbar=0.0, mass=1.0, c=10.0, e2k=1.0)
    with pytest.raises(ValueError):
        UnitSystem(hbar=1.0, mass=-1.0, c=10.0, e2k=1.0)
    with pytest.raises(ValueError):
        UnitSystem(hbar=1.0, mass=math.nan, c=10.0, e2k=1.0)
    with pytest.raises(ValueError):
        UnitSystem(hbar=1.0, mass=1.0, c=0.5, e2k=1.0)  # alpha = 2


@pytest.mark.parametrize("derived", ["alpha", "rest_energy", "rydberg_energy",
                                     "coulomb_momentum"])
def test_derived_constants_not_settable(derived):
    # derived from the primaries on access, so they cannot disagree with them
    with pytest.raises(TypeError):
        UnitSystem(hbar=1.0, mass=1.0, c=10.0, e2k=1.0, **{derived: 0.5})
