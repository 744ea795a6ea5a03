"""Command line front end.

Subcommands: spectrum, stationary, packet, propagate, optimize, timemap.
Every run resolves a flat configuration (per-command defaults, then an
optional --config JSON file, then explicit flags), echoes it in the output
header, and emits either JSON ({"header": ..., "result": ...}) or CSV with
"#"-prefixed header lines. Floats are printed with 17 significant digits so
reruns are byte-identical and values round-trip exactly; non-finite floats
become null in JSON and nan/inf tokens in CSV.

Two tables hold every fact about the interface. OPTIONS maps each config key
to its flags, type, choices, value check, help text and whether the header
echoes it. _COMMANDS maps each subcommand to its help line, its runner,
whether it is a table command (CSV by default) and its own options in header
order, each with a default or marked required. The parser, the config-file
types, the defaults, the checks, the header and the dispatch are all read
from them.

Exit codes: 0 success, 2 configuration or value errors, 3 numerical failures
(non-convergence, boundary reflection, undefined phase).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__
from .gaussian_phase import _default_d, chi_initial, integrate_chi
from .paths import LambdaPath, load_path_csv
from .propagation import (grid_eigenstate, propagation_grid,
                          transition_amplitude, transition_probability)
from .spectrum import bohr_energy, epsilon_n
from .stationary import level_comparison, solve_stationary
from .units import HARTREE_ATOMIC, SI_LIKE, make_units
from .variational import VariationalProblem, internal_time_map, optimize_path

FINE_STRUCTURE_DEFAULT = 0.0072973525693


# ---------------------------------------------------------------------------
# deterministic emitters

def _float_token(x: float) -> str | None:
    """17 significant digits; None signals a non-finite value."""
    if math.isnan(x) or math.isinf(x):
        return None
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _norm_value(v):
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, complex):
        raise TypeError("emit complex values as explicit _re/_im pairs")
    return v


def emit_json(value, indent: int | None = 0) -> str:
    """Deterministic JSON: insertion order, fixed float rendering.

    indent=None produces the compact single-line form used in CSV headers.
    """
    v = _norm_value(value)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        tok = _float_token(v)
        return "null" if tok is None else tok
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=True)
    if isinstance(v, dict):
        if not v:
            return "{}"
        if indent is None:
            inner = ", ".join(f"{json.dumps(str(k))}: {emit_json(val, None)}"
                              for k, val in v.items())
            return "{" + inner + "}"
        pad = "  " * (indent + 1)
        inner = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {emit_json(val, indent + 1)}"
            for k, val in v.items())
        return "{\n" + inner + "\n" + "  " * indent + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        if indent is None:
            return "[" + ", ".join(emit_json(x, None) for x in v) + "]"
        pad = "  " * (indent + 1)
        inner = ",\n".join(pad + emit_json(x, indent + 1) for x in v)
        return "[\n" + inner + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot emit {type(v).__name__}")


def _csv_cell(v) -> str:
    v = _norm_value(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        tok = _float_token(v)
        if tok is None:
            return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
        return tok
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError(f"cell value {v!r} would corrupt the CSV")
        return v
    raise TypeError(f"cannot emit {type(v).__name__} in CSV")


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
    message reported after the option's first flag. Output paths set echo to
    False, so the emitted content is identical whether it goes to stdout or
    a file.
    """

    flags: tuple[str, ...]
    type: type
    help: str
    check: tuple[Callable[[float], bool], str] | None = None
    choices: tuple[str, ...] | None = None
    echo: bool = True


_POSITIVE = (lambda v: v <= 0, "must be positive")
_AT_LEAST_1 = (lambda v: v < 1, "must be at least 1")
_TWO_SAMPLES = (lambda v: v < 2, "needs at least 2 samples")

# every config key a command or a config file may set; the options a command
# takes are checked in this order, and a float value must also be finite
OPTIONS: dict[str, Option] = {
    "alpha": Option(("--alpha",), float,
                    "fine-structure constant (default CODATA value)", _POSITIVE),
    "system": Option(("--system",), str, "unit system (default hartree_atomic)",
                     choices=(HARTREE_ATOMIC, SI_LIKE)),
    "seed": Option(("--seed",), int, "recorded in the header for provenance"),
    "format": Option(("--format",), str, "output format (tables default to csv)",
                     choices=("json", "csv")),
    "output": Option(("--output",), str, "output file, or - for stdout",
                     echo=False),
    "lam_mc": Option(("--lam-mc",), float,
                     "lambda in units of m c for the epsilon column", _POSITIVE),
    "x10": Option(("--x10",), float, "prescribed integral of lambda", _POSITIVE),
    "tol": Option(("--tol",), float, "convergence tolerance", _POSITIVE),
    "sigma": Option(("--sigma",), float, "initial packet width", _POSITIVE),
    "rmax": Option(("--rmax",), float, "radius of the grid wall", _POSITIVE),
    "prep_lam_mc": Option(("--prep-lam-mc",), float,
                          "lambda / m c at which boundary states are prepared",
                          _POSITIVE),
    "n": Option(("--n",), int, "principal quantum number", _AT_LEAST_1),
    "n_max": Option(("--n-max",), int, "largest principal quantum number",
                    _AT_LEAST_1),
    "steps": Option(("--steps",), int,
                    "packet: RK4 steps spread over the path by duration; "
                    "propagate: minimum Crank-Nicolson steps per segment",
                    _AT_LEAST_1),
    "grid_points": Option(("--grid-points",), int, "radial grid points",
                          _AT_LEAST_1),
    "segments": Option(("--segments",), int, "constant-lambda path segments",
                       _AT_LEAST_1),
    "max_iters": Option(("--max-iters",), int, "Newton iteration limit",
                        _AT_LEAST_1),
    "samples": Option(("--samples",), int, "evenly spaced x0 samples",
                      _TWO_SAMPLES),
    "timemap_samples": Option(("--timemap-samples",), int,
                              "x0 samples in the time-map file", _TWO_SAMPLES),
    "x0": Option(("--x0",), float, "single distance to invert",
                 (lambda v: v < 0.0, "must be nonnegative")),
    "d": Option(("--d",), float, "drift momentum (default: mean lambda / 2)"),
    "path_file": Option(("--path-file", "--lambda-file"), str,
                        "path CSV with rows s_end,lambda"),
    "state_in": Option(("--in",), str, "input state as 'n,l'"),
    "state_out": Option(("--out",), str, "output state as 'n,l'"),
    "timemap_output": Option(("--timemap-output",), str,
                             "also write the solution's time map to this CSV file",
                             echo=False),
}

# options every command takes, the first group with its defaults; the header
# echoes the first group before the command's own options and the second after
_COMMON_FIRST = {"alpha": FINE_STRUCTURE_DEFAULT, "system": HARTREE_ATOMIC,
                 "seed": None}
_COMMON_LAST = ("format", "output")

_REQUIRED = object()  # marks a command option that has no default

_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


class RunConfig(types.SimpleNamespace):
    """Flat union of every option; options not set stay None."""

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - set(OPTIONS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**dict.fromkeys(OPTIONS))
        for key, val in data.items():
            if val is None:
                continue
            kind = OPTIONS[key].type
            accepted, name = _JSON_TYPES[kind]
            if isinstance(val, bool) or not isinstance(val, accepted):
                raise ValueError(f"config key {key!r} must be {name}")
            try:
                setattr(cfg, key, kind(val))
            except OverflowError:  # an integer too long for a float
                raise ValueError(f"config key {key!r} is too large for a float") from None
        return cfg


def _defaults(command: str) -> dict:
    spec = _COMMANDS[command]
    own = {k: v for k, v in spec.options.items() if v is not _REQUIRED}
    # a table command's format is settled in validate_config, because
    # timemap --x0 emits JSON
    return {**_COMMON_FIRST, "format": None if spec.table else "json", **own}


def validate_config(command: str, cfg: RunConfig) -> None:
    spec = _COMMANDS[command]
    if cfg.format not in (None, *OPTIONS["format"].choices):
        raise ValueError(f"unknown format {cfg.format!r}")
    if spec.table:
        if command == "timemap" and cfg.x0 is not None:
            if cfg.format not in (None, "json"):
                raise ValueError("timemap with --x0 emits a single JSON value")
            cfg.format = "json"
        elif cfg.format is None:
            cfg.format = "csv"
    elif cfg.format != "json":
        raise ValueError(f"{command} supports only --format json")
    taken = {*_COMMON_FIRST, *_COMMON_LAST, *spec.options}
    for name, opt in OPTIONS.items():
        val = getattr(cfg, name)
        if name not in taken or val is None:
            continue
        if opt.type is float and not math.isfinite(val):
            raise ValueError(f"{opt.flags[0]} must be finite")
        if opt.check is not None and opt.check[0](val):
            raise ValueError(f"{opt.flags[0]} {opt.check[1]}")
    for name, default in spec.options.items():
        if default is _REQUIRED and getattr(cfg, name) is None:
            raise ValueError(f"{command} requires {OPTIONS[name].flags[0]}")


def _header_dict(command: str, cfg: RunConfig) -> dict:
    names = (*_COMMON_FIRST, *_COMMANDS[command].options, *_COMMON_LAST)
    return {k: getattr(cfg, k) for k in names if OPTIONS[k].echo}


def _parse_state(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"state must be given as 'n,l', got {text!r}")
    try:
        n, l = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"state must be two integers 'n,l', got {text!r}") from None
    return n, l


def _resolve_output(path: str | None) -> str | None:
    if path is None or path == "-":
        return None
    if not os.path.isabs(path):
        base = os.environ.get("QACTION_OUTPUT_DIR")
        if base:
            path = os.path.join(base, path)
    return path


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(text)


def _table_text(command: str, cfg: RunConfig, columns: list[str],
                rows: list[list]) -> str:
    header = _header_dict(command, cfg)
    if cfg.format == "json":
        result = {"rows": [dict(zip(columns, row)) for row in rows]}
        return render_json(command, header, result)
    return render_csv(command, header, columns, rows)


# ---------------------------------------------------------------------------
# subcommands

SPECTRUM_COLUMNS = ["row_type", "n", "l", "energy_bohr", "epsilon", "p", "k",
                    "nstar_sq", "energy_sommerfeld", "energy_stationary",
                    "difference"]

PACKET_COLUMNS = ["s", "chi0_re", "chi0_im", "chi1_re", "chi1_im",
                  "center", "width"]


def run_spectrum(cfg: RunConfig) -> str:
    u = make_units(cfg.alpha, cfg.system)
    lam = cfg.lam_mc * u.mc
    rows: list[list] = []
    for n in range(1, cfg.n_max + 1):
        level = level_comparison(n, u)
        rows.append(["level", n, None, bohr_energy(n, u), epsilon_n(lam, n, u),
                     None, None, None, None, level.energy, None])
        for c in level.comparisons:
            rows.append(["sommerfeld", n, None, None, None, c.p, c.k,
                         c.nstar_sq, c.energy, level.energy, c.difference])
    return _table_text("spectrum", cfg, SPECTRUM_COLUMNS, rows)


def run_stationary(cfg: RunConfig) -> str:
    u = make_units(cfg.alpha, cfg.system)
    point = solve_stationary(cfg.n, cfg.x10, u, tol=cfg.tol)
    level = level_comparison(cfg.n, u)
    result = {
        "n": cfg.n,
        "d": point.d,
        "lambda": point.lam,
        "s_total": point.S,
        "kappa": point.kappa,
        "kappa_c": point.kappa_c,
        "x10": point.x10,
        "comparisons": [
            {"p": c.p, "k": c.k, "nstar_sq": c.nstar_sq,
             "energy_sommerfeld": c.energy, "difference": c.difference}
            for c in level.comparisons
        ],
    }
    return render_json("stationary", _header_dict("stationary", cfg), result)


def run_packet(cfg: RunConfig) -> str:
    u = make_units(cfg.alpha, cfg.system)
    path = load_path_csv(cfg.path_file)
    d_val = cfg.d if cfg.d is not None else _default_d(path)
    cfg.d = d_val  # echo the value actually used
    states = integrate_chi(chi_initial(cfg.sigma), path, d_val, u, cfg.steps)
    rows = [[st.s, st.chi0.real, st.chi0.imag, st.chi1.real, st.chi1.imag,
             st.center, st.width] for st in states]
    return _table_text("packet", cfg, PACKET_COLUMNS, rows)


def run_propagate(cfg: RunConfig) -> str:
    u = make_units(cfg.alpha, cfg.system)
    path = load_path_csv(cfg.path_file)
    grid = propagation_grid(cfg.rmax, cfg.grid_points)
    n_in, l_in = _parse_state(cfg.state_in)
    n_out, l_out = _parse_state(cfg.state_out)
    phi_in, _ = grid_eigenstate(n_in, l_in, float(path.values[0]), grid, u)
    phi_out, _ = grid_eigenstate(n_out, l_out, float(path.values[-1]), grid, u)
    amp = transition_amplitude(phi_in, phi_out, path, u,
                               steps_per_segment=cfg.steps)
    result = {
        "k_re": amp.K.real,
        "k_im": amp.K.imag,
        "action_phase": amp.I,
        "log_magnitude": amp.Q,
        "probability": transition_probability(amp),
        "s_total": amp.S,
        "norm_drift": amp.norm_drift,
        "phase_valid": amp.phase_valid,
    }
    return render_json("propagate", _header_dict("propagate", cfg), result)


def _timemap_rows(path: LambdaPath, samples: int) -> list[list]:
    x0_values = np.linspace(0.0, path.integral(), samples)
    return [[internal_time_map(path, float(x0)), float(x0)]
            for x0 in x0_values]


def run_optimize(cfg: RunConfig) -> str:
    u = make_units(cfg.alpha, cfg.system)
    grid = propagation_grid(cfg.rmax, cfg.grid_points)
    lam_prep = cfg.prep_lam_mc * u.mc
    n_in, l_in = _parse_state(cfg.state_in)
    n_out, l_out = _parse_state(cfg.state_out)
    phi_in, _ = grid_eigenstate(n_in, l_in, lam_prep, grid, u)
    phi_out, _ = grid_eigenstate(n_out, l_out, lam_prep, grid, u)
    problem = VariationalProblem(phi_in=phi_in, phi_out=phi_out, x10=cfg.x10,
                                 segments=cfg.segments, u=u)
    sol = optimize_path(problem, tol=cfg.tol, max_iters=cfg.max_iters)
    result = {
        "lambda_path": list(sol.path.values),
        "segment_ends": list(sol.path.breakpoints),
        "s_total": sol.path.S,
        "kappa": sol.kappa,
        "action": sol.action,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "probability": transition_probability(sol.amplitude),
        "converged": sol.converged,
    }
    header = _header_dict("optimize", cfg)
    # the solution's time map goes to --timemap-output when given, otherwise
    # rides alongside a file --output; stdout runs emit the JSON only
    timemap_target = cfg.timemap_output
    if timemap_target is None and cfg.output not in (None, "-"):
        timemap_target = cfg.output + ".timemap.csv"
    if timemap_target is not None:
        rows = _timemap_rows(sol.path, cfg.timemap_samples)
        _write_text(render_csv("timemap", header, ["s", "x0"], rows),
                    _resolve_output(timemap_target))
    return render_json("optimize", header, result)


def run_timemap(cfg: RunConfig) -> str:
    path = load_path_csv(cfg.path_file)
    if cfg.x0 is not None:
        result = {"x0": cfg.x0, "s": internal_time_map(path, cfg.x0)}
        return render_json("timemap", _header_dict("timemap", cfg), result)
    rows = _timemap_rows(path, cfg.samples)
    return _table_text("timemap", cfg, ["s", "x0"], rows)


# ---------------------------------------------------------------------------
# driver

@dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[RunConfig], str]
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
         "rmax": 35.0, "prep_lam_mc": 2.0, "timemap_output": None,
         "timemap_samples": 101}),
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
    parser.add_argument(*opt.flags, dest=name, type=opt.type,
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
        command = args.command
        file_cfg: dict = {}
        if args.config is not None:
            with open(args.config) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("config file must hold a JSON object")
            RunConfig.from_dict(loaded)  # reject unknown keys early
            file_cfg = loaded
        cli_given = {k: v for k, v in vars(args).items()
                     if k in OPTIONS and v is not None}
        cfg = RunConfig.from_dict({**_defaults(command), **file_cfg, **cli_given})
        validate_config(command, cfg)
        text = _COMMANDS[command].run(cfg)
        _write_text(text, _resolve_output(cfg.output))
        return 0
    except (np.linalg.LinAlgError, RuntimeError, ArithmeticError) as exc:
        sys.stderr.write(_error_json(3, exc))
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(_error_json(2, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
