"""The benchmark's three workloads: inputs drawn from a seed, operations, checks.

Every workload is a fixed list of operations (``Op``); one round runs each
once. Operations call qaction through module attributes at call time, so the
tracer's rebinding sees them. Checks compare outputs with quantities computed
here, independently of the package: closed forms in hartree-atomic units
(hbar = m = e^2 k = 1, c = 1/alpha), and exp(i H s / hbar) of the radial
generator, diagonalised here.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qaction import cli, paths, propagation, units, variational  # noqa: E402

CODATA_ALPHA = 0.0072973525693
X10 = 40.0            # acceptance-07 elapsed distance
PHASE_CAP = 0.02      # default overlap phase per step of transition_amplitude


@dataclass
class Op:
    """One operation: ``run`` produces an output, ``check`` lists what is wrong with it.

    ``steps`` is the requested number of Crank-Nicolson steps on operations
    whose floor dominates the phase cap's need, so time per call over
    ``steps`` is the time per step; ``grid`` is their mesh size.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    steps: int | None = None
    grid: int | None = None


# ---------------------------------------------------------------------------
# closed forms, hartree-atomic units

def coupling_z(lam: float, alpha: float) -> float:
    """Z of the generator -d^2/dr^2 - 2 Z / r at control momentum lam."""
    return 0.5 * lam * alpha


def eps_level(lam: float, alpha: float, n: int) -> float:
    """Internal-time level (Z / n)^2; equals 1 / n^2 at lam = 2 m c."""
    return (coupling_z(lam, alpha) / n) ** 2


def lam_stationary(alpha: float, n: int) -> float:
    """Stationary control lambda* = 2 m c / sqrt(1 - alpha^2 / n^2)."""
    return 2.0 / alpha / math.sqrt(1.0 - (alpha / n) ** 2)


def level_energy(alpha: float, n: int) -> float:
    """kappa c = m c^2 sqrt(1 - alpha^2 / n^2)."""
    return math.sqrt(1.0 - (alpha / n) ** 2) / alpha ** 2


def sommerfeld(alpha: float, p: int, k: int) -> tuple[float, float]:
    """n*^2 and m c^2 sqrt(1 - alpha^2 / n*^2) for Sommerfeld numbers (p, k)."""
    nstar_sq = p * p + 2.0 * p * math.sqrt(k * k - alpha * alpha) + k * k
    return nstar_sq, math.sqrt(1.0 - alpha * alpha / nstar_sq) / alpha ** 2


def constant_path_tolerance(eps: float, S: float, z: float, h: float,
                            steps: int) -> float:
    """Allowed |I - eps S| for a 1s state held at constant lambda.

    Twice the two leading errors: the three-point mesh lowers the 1s level by
    (Z h)^2 / 4 of itself (first-order perturbation by the stencil's
    h^2 u'''' / 12 term), and a Cayley step of ds turns the phase by
    2 atan(eps ds / 2) instead of eps ds, (eps ds / 2)^2 / 3 of it.
    """
    beta = 0.5 * S / steps
    return 2.0 * eps * S * ((z * h) ** 2 / 4.0 + (beta * eps) ** 2 / 3.0) + 1e-9


def running_integral(ends, lams, s: float) -> float:
    total, start = 0.0, 0.0
    for end, lam in zip(ends, lams):
        if s <= end:
            return total + lam * (s - start)
        total += lam * (end - start)
        start = end
    return total


def _off(value: float, ref: float, tol: float) -> bool:
    return not abs(value - ref) <= tol


# ---------------------------------------------------------------------------
# path-search: optimize_path on the acceptance-07 problem

def _optimize(problem):
    return variational.optimize_path(problem)


def check_stationary_path(sol, alpha: float = 0.1, x10: float = X10) -> list[str]:
    errors = []
    if not sol.converged:
        errors.append(f"not converged (residual {sol.residual:.2e})")
    lams = np.asarray(sol.path.values, dtype=float)
    ends = np.asarray(sol.path.breakpoints, dtype=float)
    ref = lam_stationary(alpha, 1)
    dev = float(np.max(np.abs(lams - ref))) / ref
    if dev > 1e-4:
        errors.append(f"lambda off lambda* by {dev:.2e} relative")
    integral = float(np.dot(lams, np.diff(ends, prepend=0.0)))
    if _off(integral, x10, 1e-8 * x10):
        errors.append(f"integral of lambda {integral!r} != x10 {x10!r}")
    return errors


def build_path_search(seed: int, workdir: Path) -> list[Op]:
    """Inputs are the fixed acceptance-07 problem; the seed is not used."""
    u = units.make_units(0.1)
    grid = propagation.propagation_grid(30.0, 2000)
    phi, _ = propagation.grid_eigenstate(1, 0, 2.0 * u.mc, grid, u)
    ops = []
    for n in (1, 4):
        problem = variational.VariationalProblem(phi_in=phi, phi_out=phi,
                                                 x10=X10, segments=n, u=u)
        ops.append(Op(f"path-search.n{n}", functools.partial(_optimize, problem),
                      check_stationary_path))
    return ops


# ---------------------------------------------------------------------------
# propagate: transition_amplitude with requested step floors

def amplitude_errors(K: complex, I: float, Q: float, norm_drift: float,
                     phase_valid: bool) -> list[str]:
    """Properties every propagated amplitude has (hbar = 1)."""
    if not phase_valid:
        return ["phase flagged invalid"]
    errors = []
    if abs(K) > 1.0 + 1e-12:
        errors.append(f"|K| = {abs(K)!r} > 1")
    if Q > 0.0:
        errors.append(f"Q = {Q!r} > 0")
    if norm_drift > 1e-10:
        errors.append(f"norm drift {norm_drift:.2e} > 1e-10")
    if abs(cmath.exp(I / 1j + Q) - K) > 1e-12:
        errors.append("K != exp(I / (i hbar) + Q)")
    return errors


def exact_amplitude(phi_in, phi_out, lams, durs, steps: int, alpha: float,
                    r_max: float, points: int) -> tuple[complex, float]:
    """<phi_out | prod_j exp(i H_j dur_j) | phi_in> and a bound on CN's deviation.

    H_j = -d^2/dr^2 - lam_j alpha / r on the uniform mesh r_i = i h,
    i = 1..points, with Dirichlet walls, diagonalised here. ``steps`` Cayley
    steps turn the eigenphase E dur by steps * 2 atan(E dur / (2 steps)),
    off by at most err(E) = min(2, steps * (2/3) (E dur / (2 steps))^3).
    Segment j then moves K by at most sum_k |a_jk| |b_jk| err(E_jk), with
    a_j the state entering it and b_j phi_out propagated back to its end,
    both in its eigenbasis. Twice the sum over segments, plus roundoff, is
    returned as the tolerance.
    """
    h = r_max / points
    r = h * np.arange(1, points + 1)
    off = np.full(points - 1, -1.0 / (h * h))
    bases = [eigh_tridiagonal(2.0 / (h * h) - lam * alpha / r, off) for lam in lams]
    phases = [np.exp(1j * w * dur) for (w, _), dur in zip(bases, durs)]
    back = [np.asarray(phi_out, dtype=complex)]
    for (_, v), ph in zip(bases[:0:-1], phases[:0:-1]):
        back.append(v @ (np.conj(ph) * (v.T @ back[-1])))
    back.reverse()
    psi = np.asarray(phi_in, dtype=complex)
    bound = 0.0
    for (w, v), ph, dur, chi in zip(bases, phases, durs, back):
        a = v.T @ psi
        x = np.abs(0.5 * dur / steps * w)
        err = np.minimum(2.0, steps * (2.0 / 3.0) * x ** 3)
        bound += h * float(np.sum(np.abs(a) * np.abs(v.T @ chi) * err))
        psi = v @ (ph * a)
    return complex(h * np.vdot(np.asarray(phi_out), psi)), 2.0 * bound + 1e-10


def _transition(phi_in, phi_out, path, u, steps):
    return propagation.transition_amplitude(phi_in, phi_out, path, u,
                                            steps_per_segment=steps)


def amplitude_op(name: str, alpha: float, lams, durs, n_in: int, n_out: int,
                 r_max: float, points: int, steps: int, exact: bool = True) -> Op:
    """n_in s -> n_out s along a path, boundary states prepared at its end values.

    Checked for the properties every amplitude has; against exp(iHs) of the
    same generator when ``exact`` (the 20000-point mesh is too large to
    diagonalise); and, on a constant 1s path, against eps_1(lam) S.
    """
    u = units.make_units(alpha)
    grid = propagation.propagation_grid(r_max, points)
    phi_in, _ = propagation.grid_eigenstate(n_in, 0, float(lams[0]), grid, u)
    phi_out, _ = propagation.grid_eigenstate(n_out, 0, float(lams[-1]), grid, u)
    path = paths.LambdaPath(np.cumsum(durs), np.asarray(lams, dtype=float))
    constant = len(lams) == 1 and n_in == n_out == 1
    if constant:
        lam, S = float(lams[0]), float(durs[0])
        eps = eps_level(lam, alpha, 1)
        if steps < 10.0 * S * eps / PHASE_CAP:
            raise ValueError(f"{name}: step floor does not dominate the phase cap")
        tol = constant_path_tolerance(eps, S, coupling_z(lam, alpha),
                                      r_max / points, steps)
    reference = {}

    def check(amp) -> list[str]:
        errors = amplitude_errors(complex(amp.K), amp.I, amp.Q, amp.norm_drift,
                                  amp.phase_valid)
        if constant and not errors and _off(amp.I, eps * S, tol):
            errors.append(f"I = {amp.I!r}, closed form {eps * S!r} (tol {tol:.1e})")
        if exact:
            if not reference:
                reference["K"], reference["tol"] = exact_amplitude(
                    phi_in.amplitudes, phi_out.amplitudes, lams, durs, steps,
                    alpha, r_max, points)
            dev = abs(complex(amp.K) - reference["K"])
            if dev > reference["tol"]:
                errors.append(f"K off exp(iHs) by {dev:.2e} (tol {reference['tol']:.1e})")
        return errors

    run = functools.partial(_transition, phi_in, phi_out, path, u, steps)
    if constant:  # the floor sets the step count, so time per step is measurable
        return Op(name, run, check, steps=steps, grid=points)
    return Op(name, run, check)


def draw_path(rng, mc: float) -> tuple[np.ndarray, np.ndarray]:
    """Three segments: lambda_j / mc uniform in [1.7, 2.3] with neighbours at
    least 0.1 apart, durations uniform in [0.4, 0.8].

    Every level stays bound well inside r_max = 60, and each jump mixes 1s
    and 2s enough that the 1s <-> 2s amplitude keeps a defined phase.
    """
    while True:
        lams = rng.uniform(1.7, 2.3, 3)
        if np.all(np.abs(np.diff(lams)) >= 0.1):
            return lams * mc, rng.uniform(0.4, 0.8, 3)


def build_propagate(seed: int, workdir: Path) -> list[Op]:
    lam_06 = 2.0 / CODATA_ALPHA
    lam_07 = lam_stationary(0.1, 1)
    rng = np.random.default_rng(seed)
    ops = [
        # acceptance 06: 1s held at lambda = 2 m c for S = 1
        amplitude_op("propagate.n20000", CODATA_ALPHA, [lam_06], [1.0], 1, 1,
                     25.0, 20000, 10000, exact=False),
        # the acceptance-07 optimum as a constant path
        amplitude_op("propagate.n2000", 0.1, [lam_07], [X10 / lam_07], 1, 1,
                     30.0, 2000, 2000),
    ]
    for n_in, n_out in ((1, 2), (2, 1)):
        lams, durs = draw_path(rng, 1.0 / 0.1)
        ops.append(amplitude_op(f"propagate.n3000.{n_in}s-{n_out}s", 0.1, lams,
                                durs, n_in, n_out, 60.0, 3000, 1000))
    return ops


# ---------------------------------------------------------------------------
# cli: the six acceptance-10 commands

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_process(argv: list[str], workdir: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "qaction", *argv], cwd=workdir,
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout


def _run_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, buf.getvalue()


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def check_spectrum(text: str, ctx: dict) -> list[str]:
    alpha, rest = 0.1, 1.0 / 0.1 ** 2
    errors, levels, somm = [], set(), {}
    for row in _csv_rows(text):
        n = int(row["n"])
        e_stat = level_energy(alpha, n)
        if _off(float(row["energy_stationary"]), e_stat, 1e-12 * rest):
            errors.append(f"n={n} energy_stationary")
        if row["row_type"] == "level":
            levels.add(n)
            if _off(float(row["energy_bohr"]), -0.5 / n ** 2, 1e-15):
                errors.append(f"n={n} energy_bohr")
            if _off(float(row["epsilon"]), 1.0 / n ** 2, 1e-12):
                errors.append(f"n={n} epsilon")
            continue
        p, k = int(row["p"]), int(row["k"])
        somm[n] = somm.get(n, 0) + 1
        nstar_sq, e_somm = sommerfeld(alpha, p, k)
        if p + abs(k) != n or _off(float(row["nstar_sq"]), nstar_sq, 1e-12 * nstar_sq):
            errors.append(f"n={n} (p, k) = ({p}, {k})")
        if _off(float(row["energy_sommerfeld"]), e_somm, 1e-12 * rest) or \
                _off(float(row["difference"]), e_stat - e_somm, 1e-12 * rest):
            errors.append(f"n={n} (p, k) = ({p}, {k}) energy")
    if levels != {1, 2, 3} or somm != {1: 2, 2: 4, 3: 6}:
        errors.append(f"rows for levels {sorted(levels)}, sommerfeld {somm}")
    return errors


def check_stationary(text: str, ctx: dict) -> list[str]:
    alpha, n, x10 = 0.1, 2, 12.5
    res = json.loads(text)["result"]
    lam = lam_stationary(alpha, n)
    kappa_c = level_energy(alpha, n)
    expect = {"lambda": lam, "d": 0.5 * lam, "s_total": x10 / lam,
              "kappa_c": kappa_c, "kappa": kappa_c * alpha, "x10": x10}
    errors = [f"{key} = {res[key]!r}, closed form {ref!r}"
              for key, ref in expect.items() if _off(res[key], ref, 1e-10 * ref)]
    for row in res["comparisons"]:
        _, e_somm = sommerfeld(alpha, row["p"], row["k"])
        if _off(row["energy_sommerfeld"], e_somm, 1e-12 * e_somm):
            errors.append(f"comparison ({row['p']}, {row['k']})")
    return errors


def check_packet(text: str, ctx: dict) -> list[str]:
    ends, lams = ctx["ends"], ctx["lams"]
    rows = _csv_rows(text)
    s = np.array([float(r["s"]) for r in rows])
    errors = []
    if s[0] != 0.0 or _off(s[-1], ends[-1], 1e-12 * ends[-1]) or np.any(np.diff(s) <= 0.0):
        errors.append("s does not run from 0 to S")
    for si, row in zip(s.tolist(), rows):
        L = running_integral(ends, lams, si)
        if _off(float(row["center"]), L, 1e-9 * (1.0 + abs(L))):
            errors.append(f"center at s={si!r} is {row['center']}, integral {L!r}")
        if _off(float(row["width"]), 0.8, 1e-12):
            errors.append(f"width at s={si!r} is {row['width']}, sigma 0.8")
    return errors[:5]


def check_timemap(text: str, ctx: dict) -> list[str]:
    ends, lams = ctx["ends"], ctx["lams"]
    total = running_integral(ends, lams, ends[-1])
    rows = _csv_rows(text)
    s = np.array([float(r["s"]) for r in rows])
    x0 = np.array([float(r["x0"]) for r in rows])
    errors = []
    if len(rows) != 41 or x0[0] != 0.0 or _off(x0[-1], total, 1e-12 * (1.0 + total)):
        errors.append("x0 samples do not span [0, integral]")
    if np.any(np.diff(s) <= 0.0):
        errors.append("s(x0) not increasing")
    for si, xi in zip(s.tolist(), x0.tolist()):
        back = running_integral(ends, lams, si)
        if _off(back, xi, 1e-12 * (1.0 + xi)):
            errors.append(f"round trip at x0={xi!r} gives {back!r}")
    return errors[:5]


def check_propagate(text: str, ctx: dict) -> list[str]:
    alpha, lam, S, r_max, points, steps = 0.1, 20.0, 0.5, 25.0, 900, 300
    res = json.loads(text)["result"]
    K = complex(res["k_re"], res["k_im"])
    errors = amplitude_errors(K, res["action_phase"], res["log_magnitude"],
                              res["norm_drift"], res["phase_valid"])
    if errors:
        return errors
    if _off(res["probability"], min(abs(K) ** 2, 1.0), 1e-15) or res["s_total"] != S:
        errors.append("probability or s_total inconsistent")
    eps = eps_level(lam, alpha, 1)
    tol = constant_path_tolerance(eps, S, coupling_z(lam, alpha), r_max / points, steps)
    if _off(res["action_phase"], eps * S, tol):
        errors.append(f"action_phase {res['action_phase']!r}, closed form {eps * S!r}")
    return errors


def check_optimize(text: str, ctx: dict) -> list[str]:
    res = json.loads(text)["result"]
    lams = np.array(res["lambda_path"])
    ends = np.array(res["segment_ends"])
    errors = []
    if res["converged"] is not True:
        errors.append("not converged")
    ref = lam_stationary(0.1, 1)
    if float(np.max(np.abs(lams - ref))) > 1e-4 * ref:
        errors.append(f"lambda {lams.tolist()} off lambda* {ref!r}")
    integral = float(np.dot(lams, np.diff(ends, prepend=0.0)))
    if _off(integral, X10, 1e-8 * X10) or res["s_total"] != ends[-1]:
        errors.append(f"integral of lambda {integral!r} != x10")
    return errors


CLI_CHECKS = {"spectrum": check_spectrum, "stationary": check_stationary,
              "packet": check_packet, "timemap": check_timemap,
              "propagate": check_propagate, "optimize": check_optimize}


def check_cli(command: str, ctx: dict, out: tuple[int, str]) -> list[str]:
    code, text = out
    if code != 0:
        return [f"exit code {code}"]
    return CLI_CHECKS[command](text, ctx)


def cli_commands(seed: int, workdir: Path) -> tuple[dict, dict]:
    """argv of the six commands and the stepped path they read.

    The stepped path for packet and timemap has three segments with
    durations in [0.5, 1.5] and lambda in [0.5, 3], drawn from the seed; the
    propagate path is acceptance 10's constant lambda = 20 for s = 0.5.
    """
    rng = np.random.default_rng(seed)
    ends = np.cumsum(rng.uniform(0.5, 1.5, 3))
    lams = rng.uniform(0.5, 3.0, 3)
    steps_file = workdir / "steps.csv"
    steps_file.write_text("s_end,lambda\n" + "".join(
        f"{e!r},{v!r}\n" for e, v in zip(ends.tolist(), lams.tolist())))
    const_file = workdir / "const.csv"
    const_file.write_text("0.5,20.0\n")
    argv = {
        "spectrum": ["spectrum", "--alpha", "0.1"],
        "stationary": ["stationary", "--alpha", "0.1", "--n", "2", "--x10", "12.5"],
        "packet": ["packet", "--alpha", "0.5", "--path-file", str(steps_file),
                   "--sigma", "0.8", "--steps", "50"],
        "timemap": ["timemap", "--path-file", str(steps_file), "--samples", "41"],
        "propagate": ["propagate", "--alpha", "0.1", "--path-file", str(const_file),
                      "--grid-points", "900", "--rmax", "25", "--steps", "300"],
        "optimize": ["optimize", "--alpha", "0.1", "--in", "1,0", "--out", "1,0",
                     "--x10", "40.0", "--grid-points", "600", "--rmax", "24"],
    }
    return argv, {"ends": ends.tolist(), "lams": lams.tolist()}


def build_cli(seed: int, workdir: Path) -> list[Op]:
    """One fresh ``python -m qaction`` process per command."""
    argv, ctx = cli_commands(seed, workdir)
    return [Op(f"cli.{cmd}", functools.partial(_run_process, args, workdir),
               functools.partial(check_cli, cmd, ctx))
            for cmd, args in argv.items()]


def build_cli_main(seed: int, workdir: Path) -> list[Op]:
    """The same six commands through ``qaction.cli.main`` in this process."""
    argv, ctx = cli_commands(seed, workdir)
    return [Op(f"cli-main.{cmd}", functools.partial(_run_main, args),
               functools.partial(check_cli, cmd, ctx))
            for cmd, args in argv.items()]


WORKLOADS = {"path-search": build_path_search, "propagate": build_propagate,
            "cli": build_cli}
