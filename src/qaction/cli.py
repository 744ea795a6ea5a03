"""Command line front end.

Subcommands: spectrum, stationary, packet, propagate, optimize, timemap.
Every run resolves a flat configuration (per-command defaults, then an
optional --config JSON file, then explicit flags), echoes it in the output
header, and emits either JSON ({"header": ..., "result": ...}) or CSV with
"#"-prefixed header lines. Floats are printed with 17 significant digits so
reruns are byte-identical and values round-trip exactly; non-finite floats
become null in JSON and nan/inf tokens in CSV.

Exit codes: 0 success, 2 configuration or value errors, 3 numerical failures
(non-convergence, boundary reflection, undefined phase).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
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

_INT_FIELDS = {"seed", "n", "n_max", "steps", "grid_points", "segments",
               "max_iters", "samples", "timemap_samples"}
_FLOAT_FIELDS = {"alpha", "lam_mc", "x10", "tol", "sigma", "d", "rmax",
                 "prep_lam_mc", "x0"}
_STR_FIELDS = {"system", "format", "output", "path_file", "state_in",
               "state_out", "timemap_output"}


@dataclass
class RunConfig:
    """Flat union of every subcommand option; unused fields stay None."""

    alpha: float | None = None
    system: str | None = None
    seed: int | None = None
    format: str | None = None
    output: str | None = None
    n: int | None = None
    n_max: int | None = None
    lam_mc: float | None = None
    x10: float | None = None
    tol: float | None = None
    max_iters: int | None = None
    sigma: float | None = None
    d: float | None = None
    steps: int | None = None
    path_file: str | None = None
    state_in: str | None = None
    state_out: str | None = None
    grid_points: int | None = None
    rmax: float | None = None
    segments: int | None = None
    prep_lam_mc: float | None = None
    samples: int | None = None
    x0: float | None = None
    timemap_output: str | None = None
    timemap_samples: int | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        clean = {}
        for key, val in data.items():
            if val is None:
                continue
            if key in _INT_FIELDS:
                if isinstance(val, bool) or not isinstance(val, int):
                    raise ValueError(f"config key {key!r} must be an integer")
            elif key in _FLOAT_FIELDS:
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    raise ValueError(f"config key {key!r} must be a number")
                val = float(val)
            elif key in _STR_FIELDS:
                if not isinstance(val, str):
                    raise ValueError(f"config key {key!r} must be a string")
            clean[key] = val
        return cls(**clean)


_COMMON_DEFAULTS = {"alpha": FINE_STRUCTURE_DEFAULT, "system": HARTREE_ATOMIC}

_DEFAULTS: dict[str, dict] = {
    "spectrum": {**_COMMON_DEFAULTS, "format": "csv", "n_max": 3,
                 "lam_mc": 2.0},
    "stationary": {**_COMMON_DEFAULTS, "format": "json", "tol": 1e-12},
    "packet": {**_COMMON_DEFAULTS, "format": "csv", "steps": 1000},
    "propagate": {**_COMMON_DEFAULTS, "format": "json", "state_in": "1,0",
                  "state_out": "1,0", "grid_points": 2000, "rmax": 40.0},
    "optimize": {**_COMMON_DEFAULTS, "format": "json", "segments": 1,
                 "tol": 1e-8, "max_iters": 40, "grid_points": 1500,
                 "rmax": 35.0, "prep_lam_mc": 2.0, "timemap_samples": 101},
    "timemap": {**_COMMON_DEFAULTS, "samples": 101},
}

# header echo order per command; output paths are left out so the emitted
# content is identical whether it goes to stdout or a file
_HEADER_KEYS: dict[str, list[str]] = {
    "spectrum": ["alpha", "system", "seed", "n_max", "lam_mc", "format"],
    "stationary": ["alpha", "system", "seed", "n", "x10", "tol", "format"],
    "packet": ["alpha", "system", "seed", "path_file", "sigma", "d", "steps",
               "format"],
    "propagate": ["alpha", "system", "seed", "path_file", "state_in",
                  "state_out", "grid_points", "rmax", "steps", "format"],
    "optimize": ["alpha", "system", "seed", "state_in", "state_out", "x10",
                 "segments", "tol", "max_iters", "grid_points", "rmax",
                 "prep_lam_mc", "timemap_samples", "format"],
    "timemap": ["alpha", "system", "seed", "path_file", "samples", "x0",
                "format"],
}

_TABLE_COMMANDS = {"spectrum", "packet", "timemap"}


def _option_string(command: str, dest: str) -> str:
    """The flag that sets dest on the command's parser, as a user types it."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.option_strings[0] for a in sub.choices[command]._actions
                if a.dest == dest and a.option_strings)


def _require(cfg: RunConfig, command: str, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"{command} requires {_option_string(command, name)}")


def _check_positive(cfg: RunConfig, *names: str) -> None:
    for name in names:
        val = getattr(cfg, name)
        if val is not None and val <= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")


def validate_config(command: str, cfg: RunConfig) -> None:
    if cfg.format not in (None, "json", "csv"):
        raise ValueError(f"unknown format {cfg.format!r}")
    if command in _TABLE_COMMANDS:
        if command == "timemap" and cfg.x0 is not None:
            if cfg.format not in (None, "json"):
                raise ValueError("timemap with --x0 emits a single JSON value")
            cfg.format = "json"
        elif cfg.format is None:
            cfg.format = "csv"
    elif cfg.format != "json":
        raise ValueError(f"{command} supports only --format json")
    _check_positive(cfg, "alpha", "lam_mc", "x10", "tol", "sigma", "rmax",
                    "prep_lam_mc")
    for name in ("n", "n_max", "steps", "grid_points", "segments",
                 "max_iters"):
        val = getattr(cfg, name)
        if val is not None and val < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 1")
    for name in ("samples", "timemap_samples"):
        val = getattr(cfg, name)
        if val is not None and val < 2:
            raise ValueError(f"--{name.replace('_', '-')} needs at least 2 samples")
    if cfg.x0 is not None and cfg.x0 < 0.0:
        raise ValueError("--x0 must be nonnegative")
    if command == "stationary":
        _require(cfg, command, "n", "x10")
    elif command == "packet":
        _require(cfg, command, "path_file", "sigma")
    elif command == "propagate":
        _require(cfg, command, "path_file")
    elif command == "optimize":
        _require(cfg, command, "state_in", "state_out", "x10")
    elif command == "timemap":
        _require(cfg, command, "path_file")


def _header_dict(command: str, cfg: RunConfig) -> dict:
    return {k: getattr(cfg, k) for k in _HEADER_KEYS[command]}


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


def _table_text(command: str, cfg: RunConfig, header: dict,
                columns: list[str], rows: list[list]) -> str:
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
    return _table_text("spectrum", cfg, _header_dict("spectrum", cfg),
                       SPECTRUM_COLUMNS, rows)


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
    return _table_text("packet", cfg, _header_dict("packet", cfg),
                       PACKET_COLUMNS, rows)


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


def run_optimize(cfg: RunConfig) -> tuple[str, list[tuple[str, str]]]:
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
    text = render_json("optimize", _header_dict("optimize", cfg), result)
    # the solution's time map goes to --timemap-output when given, otherwise
    # rides alongside a file --output; stdout runs emit the JSON only
    timemap_target = cfg.timemap_output
    if timemap_target is None and cfg.output not in (None, "-"):
        timemap_target = cfg.output + ".timemap.csv"
    extras: list[tuple[str, str]] = []
    if timemap_target is not None:
        rows = _timemap_rows(sol.path, cfg.timemap_samples)
        side = render_csv("timemap", _header_dict("optimize", cfg),
                          ["s", "x0"], rows)
        extras.append((timemap_target, side))
    return text, extras


def run_timemap(cfg: RunConfig) -> str:
    path = load_path_csv(cfg.path_file)
    header = _header_dict("timemap", cfg)
    if cfg.x0 is not None:
        result = {"x0": cfg.x0, "s": internal_time_map(path, cfg.x0)}
        return render_json("timemap", header, result)
    rows = _timemap_rows(path, cfg.samples)
    return _table_text("timemap", cfg, header, ["s", "x0"], rows)


# ---------------------------------------------------------------------------
# driver

class _ArgumentParser(argparse.ArgumentParser):
    """Raises on usage errors, so main reports them in the JSON envelope.

    --help and --version still print and exit through argparse.
    """

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with flat option defaults")
    common.add_argument("--alpha", type=float,
                        help="fine-structure constant (default CODATA value)")
    common.add_argument("--system", choices=[HARTREE_ATOMIC, SI_LIKE],
                        help="unit system (default hartree_atomic)")
    common.add_argument("--format", choices=["json", "csv"],
                        help="output format (tables default to csv)")
    common.add_argument("--output", help="output file, or - for stdout")
    common.add_argument("--seed", type=int,
                        help="recorded in the header for provenance")

    parser = _ArgumentParser(
        prog="qaction",
        description="internal-time dynamics of the relativistic Coulomb problem")
    parser.add_argument("--version", action="version",
                        version=f"qaction {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="Bohr levels, internal-energy levels and "
                            "Sommerfeld comparison table")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--lam-mc", type=float, dest="lam_mc",
                   help="lambda in units of m c for the epsilon column")

    p = sub.add_parser("stationary", parents=[common],
                       help="solve the stationary conditions for one level")
    p.add_argument("--n", type=int)
    p.add_argument("--x10", type=float, help="prescribed integral of lambda")
    p.add_argument("--tol", type=float)

    p = sub.add_parser("packet", parents=[common],
                       help="integrate the Gaussian phase parameters along a path")
    p.add_argument("--path-file", "--lambda-file", dest="path_file")
    p.add_argument("--sigma", type=float)
    p.add_argument("--d", type=float, help="drift momentum (default: mean lambda / 2)")
    p.add_argument("--steps", type=int)

    p = sub.add_parser("propagate", parents=[common],
                       help="transition amplitude between bound states along a path")
    p.add_argument("--path-file", "--lambda-file", dest="path_file")
    p.add_argument("--in", dest="state_in", help="input state as 'n,l'")
    p.add_argument("--out", dest="state_out", help="output state as 'n,l'")
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p.add_argument("--rmax", type=float)
    p.add_argument("--steps", type=int, help="minimum steps per path segment")

    p = sub.add_parser("optimize", parents=[common],
                       help="find the stationary control path at fixed x10")
    p.add_argument("--in", dest="state_in", help="input state as 'n,l'")
    p.add_argument("--out", dest="state_out", help="output state as 'n,l'")
    p.add_argument("--x10", type=float)
    p.add_argument("--segments", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p.add_argument("--rmax", type=float)
    p.add_argument("--prep-lam-mc", type=float, dest="prep_lam_mc",
                   help="lambda / m c at which boundary states are prepared")
    p.add_argument("--timemap-output", dest="timemap_output",
                   help="also write the solution's time map to this CSV file")
    p.add_argument("--timemap-samples", type=int, dest="timemap_samples")

    p = sub.add_parser("timemap", parents=[common],
                       help="invert the running integral of lambda")
    p.add_argument("--path-file", "--lambda-file", dest="path_file")
    p.add_argument("--samples", type=int)
    p.add_argument("--x0", type=float, help="single distance to invert")

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
        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        cli_given = {k: v for k, v in vars(args).items()
                     if k in field_names and v is not None}
        merged = {**_DEFAULTS[command], **file_cfg, **cli_given}
        cfg = RunConfig.from_dict(merged)
        validate_config(command, cfg)

        if command == "spectrum":
            text = run_spectrum(cfg)
        elif command == "stationary":
            text = run_stationary(cfg)
        elif command == "packet":
            text = run_packet(cfg)
        elif command == "propagate":
            text = run_propagate(cfg)
        elif command == "optimize":
            text, extras = run_optimize(cfg)
            for rel_path, side_text in extras:
                _write_text(side_text, _resolve_output(rel_path))
        else:
            text = run_timemap(cfg)
        _write_text(text, _resolve_output(cfg.output))
        return 0
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(_error_json(3, exc))
        return 3
    except (RuntimeError, ArithmeticError) as exc:
        sys.stderr.write(_error_json(3, exc))
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(_error_json(2, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
