"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and then asserts, so a plain pytest run gates on all of them.
"""

import math
import subprocess
import sys
import time

import numpy as np

from qaction import make_units
from qaction.gaussian_phase import chi_initial, integrate_chi
from qaction.paths import LambdaPath, internal_time_map
from qaction.propagation import (
    grid_eigenstate, propagation_grid, transition_amplitude,
)
from qaction.spectrum import (
    QuantumNumbers, SommerfeldNumbers, epsilon_n, level_comparison, sommerfeld_energy,
    sommerfeld_nstar_sq,
)
from qaction.stationary import action_value, solve_stationary, stationary_closed_form
from qaction.variational import VariationalProblem, optimize_path
from conftest import ACCEPTANCE_ARGS
from oracles import chi_closed_form, numerov_eigenvalue

ALPHAS = (0.01, 0.0072973525693, 0.1)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_acceptance_01_stationary_solver_matches_closed_form():
    errors = []
    for alpha in ALPHAS:
        u = make_units(alpha)
        for n in range(1, 6):
            got = solve_stationary(n, 25.0, u)
            ref = stationary_closed_form(n, 25.0, u)
            for field in ("d", "lam", "S", "kappa", "kappa_c"):
                r = _rel(getattr(got, field), getattr(ref, field))
                if r > 1e-10:
                    errors.append(f"alpha={alpha} n={n} {field} rel={r:.2e}")
    ok = not errors
    _report(1, "stationary solver vs closed form", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_02_level_shift_bounded_by_alpha_fourth(u10):
    rest = u10.rest_energy
    bound = u10.alpha ** 4 * rest
    errors = []
    for n in (1, 2, 3):
        lc = level_comparison(n, u10)
        for row in lc.comparisons:
            if abs(row.difference) > bound:
                errors.append(f"n={n} (p={row.p},k={row.k}) "
                              f"diff={row.difference:.3e} > {bound:.3e}")
            if n == 1 and abs(row.difference) > 1e-13 * rest:
                errors.append(f"ground level (p={row.p},k={row.k}) "
                              f"diff={row.difference:.3e} not degenerate")
    ok = not errors
    _report(2, "fine-structure shift within alpha^4", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_03_sommerfeld_energy_form_identity():
    rng = np.random.default_rng(33)
    errors = []
    for _ in range(50):
        p = int(rng.integers(0, 6))
        k = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
        alpha = float(rng.uniform(0.005, 0.5))
        u = make_units(alpha)
        e_sqrt = sommerfeld_energy(SommerfeldNumbers(p, k), u)
        root = p + math.sqrt(k * k - alpha * alpha)
        e_frac = u.rest_energy / math.sqrt(1.0 + (alpha / root) ** 2)
        if _rel(e_sqrt, e_frac) > 1e-13:
            errors.append(f"(p={p},k={k},alpha={alpha:.4f}) energy forms "
                          f"rel={_rel(e_sqrt, e_frac):.2e}")
        nsq = sommerfeld_nstar_sq(p, k, alpha)
        if abs(nsq - (root * root + alpha * alpha)) > 1e-13 * nsq:
            errors.append(f"(p={p},k={k}) replacement identity violated")
    ok = not errors
    _report(3, "two Sommerfeld energy forms agree", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_04_packet_phase_integration_vs_quadrature(u_half):
    rng = np.random.default_rng(20260817)
    mc = u_half.mc
    errors = []
    for trial in range(100):
        nseg = int(rng.integers(1, 9))
        durations = rng.uniform(0.1, 0.6, nseg)
        values = rng.uniform(-3.0, 3.0, nseg) * mc
        path = LambdaPath(np.cumsum(durations), values)
        sigma = float(rng.uniform(0.3, 3.0))
        d = float(rng.uniform(-2.0, 2.0)) * mc
        init = chi_initial(sigma)
        final = integrate_chi(init, path, d, u_half, steps=1500)[-1]
        exact = chi_closed_form(path, sigma, d, u_half, s=path.S)
        e0 = abs(final.chi0 - exact.chi0)
        e1 = abs(final.chi1 - exact.chi1)
        if max(e0, e1) > 1e-8:
            errors.append(f"trial {trial}: chi errors ({e0:.2e}, {e1:.2e})")
        if final.chi2 != init.chi2:
            errors.append(f"trial {trial}: chi2 drifted")
        L = path.integral()
        if abs(final.center - L) > 1e-9 * (1.0 + abs(L)):
            errors.append(f"trial {trial}: center off by "
                          f"{abs(final.center - L):.2e}")
    ok = not errors
    _report(4, "packet phase ODE vs quadrature", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_05_grid_eigenvalues_match_level_formula(u10):
    lam = 2.0 * u10.mc  # coupling lambda * alpha = 2 exactly
    errors = []
    for n in range(1, 6):
        e_grid = numerov_eigenvalue(QuantumNumbers(n, 0), 2.0, 1e-6, 200.0, 4000, u10)
        ref = -epsilon_n(lam, n, u10)
        if _rel(e_grid, ref) > 1e-6:
            errors.append(f"n={n} rel={_rel(e_grid, ref):.2e}")
    ok = not errors
    _report(5, "grid eigenvalues vs level formula", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_06_propagator_phase_norm_reconstruction(u_codata):
    lam = 2.0 * u_codata.mc
    grid = propagation_grid(25.0, 20000)
    phi, eps = grid_eigenstate(1, 0, lam, grid, u_codata)
    path = LambdaPath(np.array([1.0]), np.array([lam]))
    amp = transition_amplitude(phi, phi, path, u_codata,
                               steps_per_segment=10000)
    eps_ref = epsilon_n(lam, 1, u_codata)
    checks = {
        "phase": abs(amp.I - eps_ref * 1.0) <= 1e-6,
        "norm": amp.norm_drift <= 1e-10,
        "reconstruction": abs(np.exp(amp.I / (1j * u_codata.hbar) + amp.Q)
                              - amp.K) <= 1e-12,
        "damping sign": amp.Q <= 0.0,
        "phase flag": amp.phase_valid,
    }
    ok = all(checks.values())
    _report(6, "propagator phase, norm, reconstruction", ok)
    assert ok, str(checks)


def test_acceptance_07_variational_recovery_of_constant_path(u10):
    grid = propagation_grid(30.0, 2000)
    phi, _ = grid_eigenstate(1, 0, 2.0 * u10.mc, grid, u10)
    ref = stationary_closed_form(1, 40.0, u10)
    errors = []
    elapsed_n8 = 0.0
    for nseg in (1, 4, 8):
        t0 = time.monotonic()
        problem = VariationalProblem(phi_in=phi, phi_out=phi, x10=40.0,
                                     segments=nseg, u=u10)
        res = optimize_path(problem)
        dt = time.monotonic() - t0
        if nseg == 8:
            elapsed_n8 = dt
        if not res.converged:
            errors.append(f"N={nseg} did not converge "
                          f"(residual {res.residual:.2e})")
            continue
        rel = np.abs(res.path.values - ref.lam) / ref.lam
        if rel.max() > 1e-4:
            errors.append(f"N={nseg} max lambda rel dev {rel.max():.2e}")
        integ = res.path.integral()
        if abs(integ - 40.0) > 1e-8 * 40.0:
            errors.append(f"N={nseg} constraint off by {abs(integ - 40.0):.2e}")
    if elapsed_n8 > 600.0:
        errors.append(f"N=8 runtime {elapsed_n8:.0f}s exceeds 600s")
    ok = not errors
    _report(7, "variational recovery of constant path", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_08_time_map_round_trip_and_monotonicity():
    errors = []
    const = LambdaPath(np.array([4.0]), np.array([2.0]))
    if internal_time_map(const, 3.0) != 1.5 or internal_time_map(const, 0.0) != 0.0:
        errors.append("constant path map not exact")
    rng = np.random.default_rng(77)
    for trial in range(100):
        nseg = int(rng.integers(1, 7))
        durations = rng.uniform(0.1, 1.5, nseg)
        values = rng.uniform(0.2, 6.0, nseg)
        path = LambdaPath(np.cumsum(durations), values)
        total = path.integral()
        x0s = np.sort(rng.uniform(0.0, total, 12))
        svals = internal_time_map(path, x0s)
        for x0, back in zip(x0s, path.integral(upto=svals)):
            if abs(back - x0) > 1e-12 * (1.0 + x0):
                errors.append(f"trial {trial}: round trip off by "
                              f"{abs(back - x0):.2e}")
        ds = np.diff(svals)
        dx = np.diff(x0s)
        if np.any(ds[dx > 1e-12] <= 0.0):
            errors.append(f"trial {trial}: map not monotone")
    ok = not errors
    _report(8, "internal-time map round trip", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_09_action_gradient_matches_finite_difference(u10):
    rng = np.random.default_rng(97)
    mc = u10.mc
    m2c2 = u10.mass * u10.mass * u10.c * u10.c
    errors = []
    for trial in range(50):
        d = float(rng.uniform(0.2, 3.0)) * mc
        lam = float(rng.uniform(0.2, 3.0)) * mc
        S = float(rng.uniform(0.2, 3.0))
        kappa = float(rng.uniform(0.2, 3.0)) * mc
        x10 = float(rng.uniform(0.5, 5.0))
        n = int(rng.integers(1, 6))
        base = dict(d=d, lam=lam, S=S, kappa=kappa)
        grads = action_value(d, lam, S, kappa, n, x10, u10)
        for field, gname in (("d", "grad_d"), ("lam", "grad_lam"),
                             ("S", "grad_S"), ("kappa", "grad_kappa")):
            h = 1e-6 * max(1.0, abs(base[field]))
            hi = dict(base); hi[field] += h
            lo = dict(base); lo[field] -= h
            fd = (action_value(n=n, x10=x10, u=u10, **hi).value
                  - action_value(n=n, x10=x10, u=u10, **lo).value) / (2.0 * h)
            g = getattr(grads, gname)
            if abs(fd - g) > 1e-5 * (abs(g) + abs(fd)) + 1e-9 * m2c2:
                errors.append(f"trial {trial} {field}: grad {g:.6e} fd {fd:.6e}")
    ok = not errors
    _report(9, "action gradient vs finite differences", ok)
    assert ok, "; ".join(errors[:5])


def test_acceptance_10_cli_byte_determinism(two_segment_path, const_path_20):
    commands = [argv.format(two=two_segment_path, const=const_path_20).split()
                for argv in ACCEPTANCE_ARGS.values()]
    errors = []
    for argv in commands:
        cmd = [sys.executable, "-m", "qaction"] + argv
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        if first.returncode != 0 or second.returncode != 0:
            errors.append(f"{argv[0]} exited "
                          f"{first.returncode}/{second.returncode}")
        elif first.stdout != second.stdout:
            errors.append(f"{argv[0]} stdout differs between runs")
    ok = not errors
    _report(10, "CLI output byte determinism", ok)
    assert ok, "; ".join(errors[:5])
