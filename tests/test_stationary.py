import math

import numpy as np
import pytest

from qaction import (
    action_value, level_comparison, make_units,
    solve_stationary, stationary_closed_form,
)


def _gradient_scales(sp, u):
    return {
        "grad_d": u.mc * sp.S,
        "grad_lam": u.mc * sp.S,
        "grad_S": u.mass * u.mass * u.c * u.c,
        "grad_kappa": sp.x10,
    }


def test_gradient_vanishes_at_closed_form(u10, u_codata):
    for u in (u10, u_codata):
        for n in (1, 2, 3):
            for x10 in (0.5, 7.0, 123.0):
                sp = stationary_closed_form(n, x10, u)
                av = action_value(sp.d, sp.lam, sp.S, sp.kappa, n, x10, u)
                for name, scale in _gradient_scales(sp, u).items():
                    assert abs(getattr(av, name)) <= 1e-10 * scale, (u.alpha, n, name)


def test_nonrelativistic_limit():
    u = make_units(1e-7)
    x10 = 3.0
    sp = stationary_closed_form(1, x10, u)
    assert math.isclose(sp.d, u.mc, rel_tol=1e-10)
    assert math.isclose(sp.lam, 2.0 * u.mc, rel_tol=1e-10)
    assert math.isclose(sp.S, x10 / (2.0 * u.mc), rel_tol=1e-10)
    assert math.isclose(sp.kappa, u.mc, rel_tol=1e-10)
    av = action_value(sp.d, sp.lam, sp.S, sp.kappa, 1, x10, u)
    m2c2 = (u.mass * u.c) ** 2
    assert math.isclose(av.value, -2.0 * m2c2 * sp.S, rel_tol=1e-10)


def test_x10_linearity(u10):
    a = stationary_closed_form(2, 5.0, u10)
    b = stationary_closed_form(2, 10.0, u10)
    assert b.d == a.d and b.lam == a.lam and b.kappa == a.kappa
    assert math.isclose(b.S, 2.0 * a.S, rel_tol=1e-15)
    va = action_value(a.d, a.lam, a.S, a.kappa, 2, 5.0, u10).value
    vb = action_value(b.d, b.lam, b.S, b.kappa, 2, 10.0, u10).value
    assert math.isclose(vb, 2.0 * va, rel_tol=1e-13)


def test_gradient_matches_finite_differences(u10):
    rng = np.random.default_rng(3)
    for _ in range(10):
        d, lam, kappa = rng.uniform(0.2, 3.0, size=3) * u10.mc
        S = float(rng.uniform(0.1, 2.0))
        x10 = float(rng.uniform(0.5, 20.0))
        n = int(rng.integers(1, 6))
        av = action_value(d, lam, S, kappa, n, x10, u10)
        for idx, grad in ((0, av.grad_d), (1, av.grad_lam),
                          (2, av.grad_S), (3, av.grad_kappa)):
            args = [d, lam, S, kappa]
            h = 1e-6 * max(abs(args[idx]), 1.0)
            args[idx] += h
            plus = action_value(*args, n, x10, u10).value
            args[idx] -= 2.0 * h
            minus = action_value(*args, n, x10, u10).value
            fd = (plus - minus) / (2.0 * h)
            assert math.isclose(grad, fd, rel_tol=1e-6, abs_tol=1e-6)


def test_frozen_closed_form_values(u10, u_codata):
    sp = stationary_closed_form(1, 40.0, u10)
    assert math.isclose(sp.lam, 20.100756305184241, rel_tol=1e-15)
    sp2 = stationary_closed_form(2, 40.0, u10)
    assert math.isclose(sp2.kappa_c / u10.rest_energy, 0.998749217771909,
                        rel_tol=1e-14)
    spc = stationary_closed_form(1, 1.0, u_codata)
    assert math.isclose(spc.kappa_c / u_codata.rest_energy, 0.9999733739682669,
                        rel_tol=1e-14)


def test_constraint_and_kappa_identities(u10):
    for n in (1, 3):
        for x10 in (0.7, 40.0):
            sp = stationary_closed_form(n, x10, u10)
            assert math.isclose(sp.lam * sp.S, x10, rel_tol=5e-16)
            assert math.isclose(sp.kappa * u10.c, sp.kappa_c, rel_tol=1e-12)
            assert math.isclose(sp.d, 0.5 * sp.lam, rel_tol=1e-15)


def test_solver_matches_closed_form(u10, u_codata):
    for u in (u10, u_codata):
        for n in (1, 4):
            for x10 in (1.0, 57.3):
                got = solve_stationary(n, x10, u)
                ref = stationary_closed_form(n, x10, u)
                for name in ("d", "lam", "S", "kappa", "kappa_c"):
                    assert math.isclose(getattr(got, name), getattr(ref, name),
                                        rel_tol=1e-10), (u.alpha, n, x10, name)
                assert math.isclose(got.kappa * u.c, got.kappa_c, rel_tol=1e-12)


def test_level_comparison_structure(u10):
    lc = level_comparison(2, u10)
    assert lc.n == 2
    assert len(lc.comparisons) == 4
    assert [(c.p, c.k) for c in lc.comparisons] == [(0, -2), (0, 2), (1, -1), (1, 1)]
    for c in lc.comparisons:
        assert c.p + abs(c.k) == 2


def test_level_comparison_degeneracy_pattern(u10):
    rest = u10.rest_energy
    lc1 = level_comparison(1, u10)
    for c in lc1.comparisons:
        assert abs(c.difference) < 1e-13 * rest
    lc2 = level_comparison(2, u10)
    scale = u10.alpha ** 4 * rest / 32.0
    for c in lc2.comparisons:
        if c.p == 0:
            assert abs(c.difference) < 1e-13 * rest
        else:
            assert 0.7 * scale < abs(c.difference) < 1.3 * scale
    for n in (1, 2, 3):
        for c in level_comparison(n, u10).comparisons:
            assert abs(c.difference) <= u10.alpha ** 4 * rest


def test_domain_errors(u10):
    with pytest.raises(ValueError):
        action_value(1.0, 2.0, 0.0, 1.0, 1, 1.0, u10)
    with pytest.raises(ValueError):
        action_value(1.0, 2.0, 1.0, 1.0, 1, -1.0, u10)
    with pytest.raises(ValueError):
        stationary_closed_form(1, 0.0, u10)
    with pytest.raises(ValueError):
        solve_stationary(1, -2.0, u10)
    with pytest.raises(ValueError):
        solve_stationary(1, 1.0, u10, tol=0.0)


def test_solver_reports_stall(u10):
    # one Newton step from the non-relativistic guess does not reach 1e-12
    with pytest.raises(RuntimeError, match="stalled"):
        solve_stationary(1, 40.0, u10, max_iters=1)
