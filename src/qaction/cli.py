"""Command line front end.

Subcommands: spectrum, stationary, packet, propagate, optimize, timemap.
Every run resolves a flat configuration (per-command defaults, then an
optional --config JSON file, then explicit flags), echoes it in the output
header, and emits either JSON ({"header": ..., "result": ...}) or CSV with
"#"-prefixed header lines. Floats are printed with 17 significant digits so
reruns are byte-identical and values round-trip exactly; non-finite floats
become null in JSON and nan/inf tokens in CSV.

Two tables hold every fact about the interface. OPTIONS maps each config key
to its flag, type, choices, value check and help text. _COMMANDS maps each
subcommand to its help line, its runner, whether it is a table command (CSV by
default) and its own options in header order, each with a default or marked
required. The parser, the config-file types, the defaults, the checks, the
header and the dispatch are all read from them. A runner takes the
configuration and the units and returns data, a JSON result dict or table
(columns, rows); main renders it in one place.

Exit codes: 0 success, 2 configuration or value errors, 3 numerical failures
(non-convergence, boundary reflection, undefined phase).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import __version__
from .gaussian_phase import _default_d, chi_initial, integrate_chi
from .paths import LambdaPath, internal_time_map, load_path_csv
from .propagation import grid_eigenstate, propagation_grid, transition_amplitude
from .spectrum import bohr_energy, epsilon_n
from .stationary import level_comparison, solve_stationary
from .units import HARTREE_ATOMIC, SI_LIKE, UnitSystem, make_units
from .variational import VariationalProblem, optimize_path

FINE_STRUCTURE_DEFAULT = 0.0072973525693


# ---------------------------------------------------------------------------
# deterministic emitters

def emit_json(v, indent: int | None = 0) -> str:
    """Deterministic JSON: insertion order, fixed float rendering.

    Values are None, bool, int, float (np.float64 included), str, dict, list
    or tuple; anything else (complex, numpy integers, arrays) is a TypeError.
    indent=None produces the compact single-line form used in CSV headers.
    """
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):  # 17 significant digits
        if not math.isfinite(v):
            return "null"
        tok = format(v, ".17g")
        return tok if any(c in tok for c in ".eE") else tok + ".0"
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=True)
    if isinstance(v, dict):
        (lb, rb), keyed = "{}", [(f"{json.dumps(str(k))}: ", x) for k, x in v.items()]
    elif isinstance(v, (list, tuple)):
        (lb, rb), keyed = "[]", [("", x) for x in v]
    else:
        raise TypeError(f"cannot emit {type(v).__name__}")
    if not keyed:
        return lb + rb
    if indent is None:
        return lb + ", ".join(key + emit_json(x, None) for key, x in keyed) + rb
    pad = "\n" + "  " * (indent + 1)
    items = ",".join(pad + key + emit_json(x, indent + 1) for key, x in keyed)
    return lb + items + "\n" + "  " * indent + rb


def _csv_cell(v) -> str:
    """emit_json's token, but for the empty cell, nan/inf words and bare strings."""
    if v is None:
        return ""
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError(f"cell value {v!r} would corrupt the CSV")
        return v
    if isinstance(v, (dict, list, tuple)):
        raise TypeError(f"cannot emit {type(v).__name__} in CSV")
    return emit_json(v)


def render_csv(command: str, header_cfg: dict, columns: list[str],
               rows: list[list]) -> str:
    lines = [f"# qaction {command}",
             f"# version: {__version__}",
             f"# config: {emit_json(header_cfg, indent=None)}",
             ",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row length does not match the column list")
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def render_json(command: str, header_cfg: dict, result: dict) -> str:
    doc = {"header": {"command": command, "version": __version__,
                      "config": header_cfg},
           "result": result}
    return emit_json(doc, indent=0) + "\n"


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class Option:
    """One config key.

    check pairs a predicate that is true for a rejected value with the
    message reported after the option's flag.
    """

    flag: str
    type: type
    help: str
    check: tuple[Callable, str] | None = None
    choices: tuple[str, ...] | None = None


_POSITIVE = (lambda v: v <= 0, "must be positive")
_AT_LEAST_1 = (lambda v: v < 1, "must be at least 1")
# at CODATA alpha the stationary and Sommerfeld energies of level 100 differ
# by at most 7 ulps of m c^2, and of level 1000 by 0: higher n shows roundoff
_LEVEL = (lambda v: not 1 <= v <= 100, "must be between 1 and 100")
# a time-map sample took about 4.6 us and 370 bytes on the way to the CSV
# (measured at 10^6 samples on 2 cores): refused as an integer, before numpy
# would allocate for it
MAX_SAMPLES = 10 ** 6
_SAMPLES = (lambda v: not 2 <= v <= MAX_SAMPLES, f"needs between 2 and {MAX_SAMPLES} samples")
_STATE = (lambda v: re.fullmatch(r"\s*[+-]?\d+\s*,\s*[+-]?\d+\s*", v) is None,
          "must be two integers as 'n,l'")

# every config key a command or a config file may set; the options a command
# takes are checked in this order, and a float value must also be finite
OPTIONS: dict[str, Option] = {
    "alpha": Option("--alpha", float,
                    "fine-structure constant (default CODATA value)",
                    (lambda v: not 0 < v < 1, "must lie in (0, 1)")),
    "system": Option("--system", str, "unit system (default hartree_atomic)",
                     choices=(HARTREE_ATOMIC, SI_LIKE)),
    "seed": Option("--seed", int, "recorded in the header for provenance"),
    "format": Option("--format", str, "output format (tables default to csv)",
                     choices=("json", "csv")),
    "output": Option("--output", str, "output file, or - for stdout"),
    "lam_mc": Option("--lam-mc", float,
                     "lambda in units of m c for the epsilon column", _POSITIVE),
    "x10": Option("--x10", float, "prescribed integral of lambda", _POSITIVE),
    "tol": Option("--tol", float, "convergence tolerance", _POSITIVE),
    "sigma": Option("--sigma", float, "initial packet width", _POSITIVE),
    "rmax": Option("--rmax", float, "radius of the grid wall", _POSITIVE),
    "prep_lam_mc": Option("--prep-lam-mc", float,
                          "lambda / m c at which boundary states are prepared",
                          _POSITIVE),
    "n": Option("--n", int, "principal quantum number", _LEVEL),
    "n_max": Option("--n-max", int, "largest principal quantum number", _LEVEL),
    "steps": Option("--steps", int,
                    "packet: RK4 steps spread over the path by duration; "
                    "propagate: minimum Crank-Nicolson steps per segment",
                    _AT_LEAST_1),
    "grid_points": Option("--grid-points", int, "radial grid points", _AT_LEAST_1),
    "segments": Option("--segments", int, "constant-lambda path segments", _AT_LEAST_1),
    "max_iters": Option("--max-iters", int, "path-search step limit", _AT_LEAST_1),
    "samples": Option("--samples", int, "evenly spaced x0 samples", _SAMPLES),
    "timemap_samples": Option("--timemap-samples", int,
                              "x0 samples in the time-map file", _SAMPLES),
    "x0": Option("--x0", float, "single distance to invert",
                 (lambda v: v < 0.0, "must be nonnegative")),
    "d": Option("--d", float, "drift momentum (default: mean lambda / 2)"),
    "path_file": Option("--path-file", str, "path CSV with rows s_end,lambda"),
    "state_in": Option("--in", str, "input state as 'n,l'", _STATE),
    "state_out": Option("--out", str, "output state as 'n,l'", _STATE),
}

# options every command takes, the first group with its defaults; the header
# echoes the first group before the command's own options and the second after
_COMMON_FIRST = {"alpha": FINE_STRUCTURE_DEFAULT, "system": HARTREE_ATOMIC,
                 "seed": None}
_COMMON_LAST = ("format", "output")

_REQUIRED = object()  # marks a command option that has no default

_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def resolve_config(command: str, flags: dict, file_cfg: dict) -> SimpleNamespace:
    """The run's configuration, resolved in one pass over OPTIONS.

    Each option the command takes gets its flag, else its file value, else
    the command's default, so a file null means not set. Every file value
    must have its option's JSON type; every value the command takes must be
    finite if a float and pass its option's choices and check. Options the
    command does not take stay None. A file --output is placed under
    $QACTION_OUTPUT_DIR when that is set, and must name a file there.
    """
    unknown = sorted(set(file_cfg) - set(OPTIONS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    spec = _COMMANDS[command]
    defaults = {**_COMMON_FIRST, **dict.fromkeys(_COMMON_LAST), **spec.options}
    cfg = SimpleNamespace(**dict.fromkeys(OPTIONS))
    for key, opt in OPTIONS.items():
        flag, val = opt.flag, file_cfg.get(key)
        if val is not None:
            accepted, name = _JSON_TYPES[opt.type]
            if isinstance(val, bool) or not isinstance(val, accepted):
                raise ValueError(f"config key {key!r} ({flag}) must be {name}")
            try:
                val = opt.type(val)
            except OverflowError:  # an integer too long for a float
                raise ValueError(f"config key {key!r} is too large for a float") from None
        if key not in defaults:
            continue
        if flags.get(key) is not None:
            val = flags[key]
        elif val is None:
            val = defaults[key]
        if val is _REQUIRED:
            raise ValueError(f"{command} requires {flag}")
        if val is not None:
            if opt.type is float and not math.isfinite(val):
                raise ValueError(f"{flag} must be finite")
            if opt.choices is not None and val not in opt.choices:
                raise ValueError(f"{flag} must be one of {', '.join(opt.choices)}")
            if opt.check is not None and opt.check[0](val):
                raise ValueError(f"{flag} {opt.check[1]}")
        setattr(cfg, key, val)
    if cfg.output not in (None, "-"):  # placed once, for the result and its sidecar
        cfg.output = os.path.join(os.environ.get("QACTION_OUTPUT_DIR") or "", cfg.output)
        if os.path.basename(cfg.output) in ("", ".", "..") or os.path.isdir(cfg.output):
            raise ValueError(f"--output {cfg.output!r} does not name a file")
    json_only = not spec.table or cfg.x0 is not None  # timemap --x0 emits one value
    if cfg.format is None:
        cfg.format = "json" if json_only else "csv"
    elif json_only and cfg.format != "json":
        raise ValueError(f"this {command} run emits JSON, so --format must be json")
    return cfg


def _header_dict(command: str, cfg: SimpleNamespace) -> dict:
    # a document is the same on stdout as in a file, so output is left out
    names = (*_COMMON_FIRST, *_COMMANDS[command].options, *_COMMON_LAST)
    return {k: getattr(cfg, k) for k in names if k != "output"}


def _write_text(text: str, path: str | None) -> None:
    """Write text to stdout for None or -, else to path."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

SPECTRUM_COLUMNS = ["row_type", "n", "l", "energy_bohr", "epsilon", "p", "k",
                    "nstar_sq", "energy_sommerfeld", "energy_stationary",
                    "difference"]

PACKET_COLUMNS = ["s", "chi0_re", "chi0_im", "chi1_re", "chi1_im",
                  "center", "width"]


def run_spectrum(cfg: SimpleNamespace, u: UnitSystem) -> tuple[list, list]:
    lam = cfg.lam_mc * u.mc
    rows: list[list] = []
    for n in range(1, cfg.n_max + 1):
        level = level_comparison(n, u)
        rows.append(["level", n, None, bohr_energy(n, u), epsilon_n(lam, n, u),
                     None, None, None, None, level.energy, None])
        for c in level.comparisons:
            rows.append(["sommerfeld", n, None, None, None, c.p, c.k,
                         c.nstar_sq, c.energy, level.energy, c.difference])
    return SPECTRUM_COLUMNS, rows


def run_stationary(cfg: SimpleNamespace, u: UnitSystem) -> dict:
    point = solve_stationary(cfg.n, cfg.x10, u, tol=cfg.tol)
    level = level_comparison(cfg.n, u)
    return {
        "n": cfg.n,
        "d": point.d,
        "lambda": point.lam,
        "s_total": point.S,
        "kappa": point.kappa,
        "kappa_c": point.kappa_c,
        "x10": cfg.x10,
        "comparisons": [
            {"p": c.p, "k": c.k, "nstar_sq": c.nstar_sq,
             "energy_sommerfeld": c.energy, "difference": c.difference}
            for c in level.comparisons
        ],
    }


def run_packet(cfg: SimpleNamespace, u: UnitSystem) -> tuple[list, list]:
    path = load_path_csv(cfg.path_file)
    states = integrate_chi(chi_initial(cfg.sigma), path, cfg.d, u, cfg.steps)
    if cfg.d is None:
        cfg.d = _default_d(path)  # the header echoes the value actually used
    rows = [[st.s, st.chi0.real, st.chi0.imag, st.chi1.real, st.chi1.imag,
             st.center, st.width] for st in states]
    return PACKET_COLUMNS, rows


def _boundary_states(cfg: SimpleNamespace, u: UnitSystem, lam_in: float,
                     lam_out: float) -> tuple:
    """Grid eigenstates of --in at lam_in and --out at lam_out; one state,
    solved once, when both name the same level at the same lambda."""
    grid = propagation_grid(cfg.rmax, cfg.grid_points)
    n_in, n_out = (tuple(map(int, s.split(","))) for s in (cfg.state_in, cfg.state_out))
    phi_in = grid_eigenstate(*n_in, lam_in, grid, u)[0]
    if (n_in, lam_in) == (n_out, lam_out):
        return phi_in, phi_in
    return phi_in, grid_eigenstate(*n_out, lam_out, grid, u)[0]


def run_propagate(cfg: SimpleNamespace, u: UnitSystem) -> dict:
    path = load_path_csv(cfg.path_file)
    phi_in, phi_out = _boundary_states(cfg, u, float(path.values[0]),
                                       float(path.values[-1]))
    amp = transition_amplitude(phi_in, phi_out, path, u,
                               steps_per_segment=cfg.steps)
    return {
        "k_re": amp.K.real,
        "k_im": amp.K.imag,
        "action_phase": amp.I,
        "log_magnitude": amp.Q,
        "probability": amp.probability,
        "s_total": path.S,
        "norm_drift": amp.norm_drift,
        "phase_valid": amp.phase_valid,
    }


def _timemap_rows(path: LambdaPath, samples: int) -> list[list]:
    x0 = np.linspace(0.0, path.integral(), samples)
    return np.column_stack((internal_time_map(path, x0), x0)).tolist()


def run_optimize(cfg: SimpleNamespace, u: UnitSystem) -> dict:
    lam_prep = cfg.prep_lam_mc * u.mc
    phi_in, phi_out = _boundary_states(cfg, u, lam_prep, lam_prep)
    problem = VariationalProblem(phi_in=phi_in, phi_out=phi_out, x10=cfg.x10,
                                 segments=cfg.segments, u=u)
    sol = optimize_path(problem, tol=cfg.tol, max_iters=cfg.max_iters)
    if not sol.converged:
        raise RuntimeError(f"path search stalled at scaled residual {sol.residual:.3e} "
                           f"(tol {cfg.tol:.3e}) after {sol.iterations} steps")
    # the solution's time map rides alongside a file --output, not stdout
    if cfg.output not in (None, "-"):
        rows = _timemap_rows(sol.path, cfg.timemap_samples)
        _write_text(render_csv("timemap", _header_dict("optimize", cfg),
                               ["s", "x0"], rows), cfg.output + ".timemap.csv")
    return {
        "lambda_path": list(sol.path.values),
        "segment_ends": list(sol.path.breakpoints),
        "s_total": sol.path.S,
        "kappa": sol.kappa,
        "action": sol.action,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "probability": sol.amplitude.probability,
        "converged": sol.converged,
    }


def run_timemap(cfg: SimpleNamespace, u: UnitSystem) -> dict | tuple[list, list]:
    path = load_path_csv(cfg.path_file)
    if cfg.x0 is not None:
        return {"x0": cfg.x0, "s": internal_time_map(path, cfg.x0)}
    return ["s", "x0"], _timemap_rows(path, cfg.samples)


# ---------------------------------------------------------------------------
# driver

@dataclass(frozen=True)
class Command:
    help: str
    run: Callable  # (cfg, units) -> JSON result dict, or (columns, rows)
    table: bool  # CSV by default, JSON on request
    options: dict  # option name -> default or _REQUIRED, in header order


_COMMANDS: dict[str, Command] = {
    "spectrum": Command(
        "Bohr levels, internal-energy levels and Sommerfeld comparison table",
        run_spectrum, True, {"n_max": 3, "lam_mc": 2.0}),
    "stationary": Command(
        "solve the stationary conditions for one level", run_stationary, False,
        {"n": _REQUIRED, "x10": _REQUIRED, "tol": 1e-12}),
    "packet": Command(
        "integrate the Gaussian phase parameters along a path", run_packet, True,
        {"path_file": _REQUIRED, "sigma": _REQUIRED, "d": None, "steps": 1000}),
    "propagate": Command(
        "transition amplitude between bound states along a path", run_propagate,
        False, {"path_file": _REQUIRED, "state_in": "1,0", "state_out": "1,0",
                "grid_points": 2000, "rmax": 40.0, "steps": None}),
    "optimize": Command(
        "find the stationary control path at fixed x10", run_optimize, False,
        {"state_in": _REQUIRED, "state_out": _REQUIRED, "x10": _REQUIRED,
         "segments": 1, "tol": 1e-8, "max_iters": 40, "grid_points": 1500,
         "rmax": 35.0, "prep_lam_mc": 2.0, "timemap_samples": 101}),
    "timemap": Command(
        "invert the running integral of lambda", run_timemap, True,
        {"path_file": _REQUIRED, "samples": 101, "x0": None}),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on usage errors, so main reports them in the JSON envelope.

    --help and --version still print and exit through argparse.
    """

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _add_option(parser: argparse.ArgumentParser, name: str) -> None:
    opt = OPTIONS[name]
    parser.add_argument(opt.flag, dest=name, type=opt.type,
                        choices=opt.choices, help=opt.help)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with flat option defaults")
    for name in (*_COMMON_FIRST, *_COMMON_LAST):
        _add_option(common, name)

    parser = _ArgumentParser(
        prog="qaction",
        description="internal-time dynamics of the relativistic Coulomb problem")
    parser.add_argument("--version", action="version",
                        version=f"qaction {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=spec.help)
        for name in spec.options:
            _add_option(p, name)
    return parser


def _error_json(code: int, exc: BaseException) -> str:
    doc = {"error": {"code": code, "type": type(exc).__name__,
                     "message": str(exc)}}
    return emit_json(doc, indent=None) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_cfg: dict = {}
        if args.config is not None:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("--config file must hold a JSON object")
        cfg = resolve_config(args.command, vars(args), file_cfg)
        data = _COMMANDS[args.command].run(cfg, make_units(cfg.alpha, cfg.system))
        header = _header_dict(args.command, cfg)  # after the run: packet sets d
        if isinstance(data, dict):
            text = render_json(args.command, header, data)
        elif cfg.format == "json":
            columns, rows = data
            text = render_json(args.command, header,
                               {"rows": [dict(zip(columns, row)) for row in rows]})
        else:
            text = render_csv(args.command, header, *data)
        _write_text(text, cfg.output)
        return 0
    except (np.linalg.LinAlgError, RuntimeError, ArithmeticError) as exc:
        sys.stderr.write(_error_json(3, exc))
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(_error_json(2, exc))
        return 2
