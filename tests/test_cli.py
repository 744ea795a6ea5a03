import cmath
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qaction.cli
import qaction.propagation as propagation
from qaction import make_units, stationary_closed_form
from qaction.cli import (_COMMANDS, _COMMON_FIRST, _STATE, OPTIONS, SPECTRUM_COLUMNS, emit_json,
                         main, render_csv, resolve_config)
from conftest import ACCEPTANCE_ARGS, record_calls

FROZEN_ALPHA = "0.1"


@pytest.fixture()
def cli(capsys):
    def run(*args):
        code = main(list(args))
        out, err = capsys.readouterr()
        return code, out, err
    return run


def test_spectrum_csv_layout(cli):
    code, out, err = cli("spectrum", "--alpha", FROZEN_ALPHA)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# qaction spectrum"
    assert lines[1] == "# version: 0.1.0"
    assert lines[2].startswith("# config: {")
    assert lines[3] == ",".join(SPECTRUM_COLUMNS)
    data = lines[4:]
    assert len(data) == 15  # per level: one summary row plus 2n Sommerfeld rows
    first = data[0].split(",")
    assert first[0] == "level" and first[1] == "1"
    assert first[2] == ""          # l not defined for a level row
    assert first[3] == "-0.5"
    assert first[4] == "1.0"       # lambda = 2 m c makes epsilon_1 exactly 1
    assert float(first[9]) == math.sqrt(9900.0)
    assert data[4].startswith("sommerfeld,2")
    n2rows = [r.split(",") for r in data if r.startswith("sommerfeld,2")]
    pk = [(r[5], r[6]) for r in n2rows]
    assert pk == [("0", "-2"), ("0", "2"), ("1", "-1"), ("1", "1")]
    row11 = n2rows[-1]
    assert row11[7] == "3.9899748742132397"
    assert row11[8] == "99.874607311033273"


def test_spectrum_json(cli):
    code, out, err = cli("spectrum", "--alpha", FROZEN_ALPHA, "--format", "json",
                         "--n-max", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["command"] == "spectrum"
    assert doc["header"]["version"] == "0.1.0"
    cfgkeys = list(doc["header"]["config"].keys())
    assert cfgkeys == ["alpha", "system", "seed", "n_max", "lam_mc", "format"]
    rows = doc["result"]["rows"]
    assert len(rows) == 8
    assert rows[0]["row_type"] == "level"
    assert rows[0]["l"] is None
    assert rows[0]["energy_bohr"] == -0.5


def test_stationary_json_values(cli):
    code, out, err = cli("stationary", "--alpha", FROZEN_ALPHA,
                         "--n", "2", "--x10", "12.5")
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert list(result.keys()) == ["n", "d", "lambda", "s_total", "kappa",
                                   "kappa_c", "x10", "comparisons"]
    ref = stationary_closed_form(2, 12.5, make_units(0.1))
    assert math.isclose(result["lambda"], ref.lam, rel_tol=1e-10)
    assert math.isclose(result["s_total"], ref.S, rel_tol=1e-10)
    assert math.isclose(result["kappa_c"], ref.kappa_c, rel_tol=1e-10)
    assert len(result["comparisons"]) == 4
    assert doc["header"]["config"]["tol"] == 1e-12


def test_packet_csv(cli, two_segment_path):
    code, out, err = cli("packet", "--alpha", "0.5",
                         "--path-file", two_segment_path,
                         "--sigma", "1.0", "--steps", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# qaction packet"
    assert lines[3] == "s,chi0_re,chi0_im,chi1_re,chi1_im,center,width"
    data = [l.split(",") for l in lines[4:]]
    assert len(data) == 6  # initial sample plus ceil-partitioned substeps
    assert [r[0] for r in data] == ["0.0", "0.5", "1.0", "1.5", "2.0", "2.5"]
    assert data[0][1] == "-0.45946926660233633"
    assert all(r[6] == "1.0" for r in data)
    # d defaults to the path-mean of lambda / 2 and is echoed in the header
    cfg = json.loads(lines[2][len("# config: "):])
    assert cfg["d"] == 0.7
    assert cfg["sigma"] == 1.0
    # phase at s = 0.5: -((d^2 - m^2 c^2) s - d L) with L = 1, in hbar = 1 units
    expected = -((0.7 ** 2 - 4.0) * 0.5 - 0.7 * 1.0)
    assert math.isclose(float(data[1][2]), expected, rel_tol=1e-12)


def test_propagate_json(cli, const_path_20):
    code, out, err = cli("propagate", "--alpha", FROZEN_ALPHA,
                         "--path-file", const_path_20,
                         "--grid-points", "900", "--rmax", "25",
                         "--steps", "400")
    assert code == 0
    doc = json.loads(out)
    r = doc["result"]
    assert list(r.keys()) == ["k_re", "k_im", "action_phase", "log_magnitude",
                              "probability", "s_total", "norm_drift",
                              "phase_valid"]
    assert r["phase_valid"] is True
    assert r["s_total"] == 0.5
    k = complex(r["k_re"], r["k_im"])
    assert abs(k) <= 1.0 + 1e-12
    assert math.isclose(r["action_phase"], 0.5, rel_tol=3e-3)
    recon = cmath.exp(r["action_phase"] / 1j + r["log_magnitude"])
    assert abs(recon - k) < 1e-12
    assert 0.0 <= r["probability"] <= 1.0
    assert r["norm_drift"] < 1e-10


def test_timemap_csv_and_x0(cli, tmp_path):
    p = tmp_path / "tm.csv"
    p.write_text("1.0,1.0\n2.0,2.0\n")
    code, out, _ = cli("timemap", "--path-file", str(p), "--samples", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# qaction timemap"
    assert lines[3] == "s,x0"
    rows = [tuple(map(float, l.split(","))) for l in lines[4:]]
    assert rows == [(0.0, 0.0), (0.75, 0.75), (1.25, 1.5), (1.625, 2.25),
                    (2.0, 3.0)]
    code, out, _ = cli("timemap", "--path-file", str(p), "--x0", "1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"x0": 1.5, "s": 1.25}


def test_optimize_unconverged_exits_3(cli, tmp_path, monkeypatch):
    # one chord step leaves the residual at 1.2e-7; like a stalled
    # stationary, the run fails before it writes anything, sidecar included
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path))
    code, out, err = cli("optimize", "--alpha", FROZEN_ALPHA, "--in", "1,0",
                         "--out", "1,0", "--x10", "40.0", "--grid-points", "600",
                         "--rmax", "24", "--max-iters", "1", "--output", "opt.json")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "RuntimeError" and "stalled" in error["message"]
    assert list(tmp_path.iterdir()) == []


def test_help_still_prints_usage(cli):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0


def test_config_file_precedence(cli, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.1, "n": 2, "x10": 5.0}))
    code, out, _ = cli("stationary", "--config", str(cfg), "--x10", "7.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["x10"] == 7.0          # explicit flag wins
    assert doc["header"]["config"]["alpha"] == 0.1  # file beats built-in default
    assert doc["header"]["config"]["tol"] == 1e-12  # untouched default survives
    ref = stationary_closed_form(2, 7.0, make_units(0.1))
    assert math.isclose(doc["result"]["lambda"], ref.lam, rel_tol=1e-10)


def test_config_file_ignores_options_the_command_does_not_take(cli, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sigma": -1.0}))
    code, out, err = cli("stationary", "--config", str(cfg), "--n", "1",
                         "--x10", "1")
    assert code == 0 and err == ""
    assert "sigma" not in json.loads(out)["header"]["config"]


@pytest.mark.parametrize("args, key, default", [
    (("stationary", "--n", "1", "--x10", "1"), "tol", 1e-12),
    (("stationary", "--n", "1", "--x10", "1"), "format", "json"),
    (("spectrum", "--format", "json", "--n-max", "1"), "lam_mc", 2.0),
    (("spectrum", "--format", "json"), "n_max", 3),
])
def test_config_file_null_means_the_default(cli, tmp_path, args, key, default):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: None}))
    code, out, err = cli(*args, "--config", str(cfg))
    assert code == 0 and err == ""
    assert json.loads(out)["header"]["config"][key] == default


def test_stationary_at_huge_x10_warns_nothing(cli, u_codata):
    # the unread action value overflows at x10 = 1e308; numpy warnings fail the suite
    code, out, err = cli("stationary", "--n", "1", "--x10", "1e308")
    assert code == 0 and err == ""
    kappa_c = json.loads(out)["result"]["kappa_c"]
    assert math.isclose(kappa_c, stationary_closed_form(1, 1e308, u_codata).kappa_c, rel_tol=1e-10)


# every CLI run ends in one {"error": ...} line with exit code 2 or 3, or
# exits 0 printing only finite numbers, and warns nothing either way. Named
# rows pin how a known input fails; generated rows put every float option of
# every command, and extreme path files, into that command's acceptance-10 run

def row(name, argv, code, error_type, *says, exact=None, config=None, path=None):
    """A named run: its exit code, error type, and the fragments its
    message holds or its exact text, or exit code 0 alone for a run that must
    print only finite numbers. In argv and the fragments {two} and
    {const} name the shared path files, {config} and {path} files holding the
    row's config and path text."""
    return pytest.param((argv, config, path, (code, error_type, says, exact)), id=name)


# numpy and the owners refuse these before allocating; a mid-size count
# would allocate gigabytes
INT_EDGES = {"1e15": 10 ** 15, "1e400": 10 ** 400}

NAMED_FAILURES = [
    row("timemap-x0-csv", "timemap --path-file {two} --x0 0.5 --format csv", 2,
        "ValueError", exact="this timemap run emits JSON, so --format must be json"),
    # alpha out of range; grids whose entries leave the float range
    row("alpha-one-and-a-half", "spectrum --alpha 1.5", 2, "ValueError",
        exact="--alpha must lie in (0, 1)"),
    row("rmax-1e-160", "propagate --path-file {const} --rmax 1e-160", 2, "ValueError",
        "propagation grid"),
    row("rmax-1e300", "propagate --path-file {const} --rmax 1e300", 2, "ValueError",
        "propagation grid"),
    row("subnormal-step-squared", "propagate --alpha 0.1 --path-file {const} --rmax 2e-157 "
        "--grid-points 900 --in 2,1 --out 2,1", 2, "ValueError", "propagation grid"),
    # hbar^2 / step^2 = 8.1e205 is past the generator's bound: once LAPACK's
    # dstebz failed on it (exit 3, LinAlgError "dstebz info 4")
    row("rmax-1e-100-square", "propagate --alpha 0.1 --path-file {const} --grid-points 900 "
        "--rmax 1e-100 --steps 3", 2, "ValueError", "propagation grid",
        "must lie in [1 / H_MAX, H_MAX]"),
    # 2 hbar^2 / step^2 = 1.6e-298 is under 1 / H_MAX, where l's hbar^2 l (l+1)
    # and r^2 may overflow: once a bare OverflowError (exit 3) at l = 10^27
    row("propagate-rmax-1e152-l-1e27", "propagate --alpha 0.1 --path-file {const} --rmax 1e152 "
        f"--grid-points 900 --in {10 ** 27 + 1},{10 ** 27} --out 1,0 --steps 3", 2, "ValueError",
        "propagation grid r_max = 1e+152"),
    # entries near 1.6e150 have finite squares, but dstein's vectors were NaN:
    # once "amplitudes contain non-finite entries", which names no input
    row("optimize-rmax-1e-72", "optimize --alpha 0.1 --in 1,0 --out 1,0 --x10 40 "
        "--grid-points 900 --rmax 1e-72 --prep-lam-mc 1e74", 2, "ValueError",
        "propagation grid r_max = 1e-72"),
    # (m c^2)^2 overflows: the unit system refuses it
    row("optimize-alpha-1e-160", "optimize --alpha 1e-160 --in 1,0 --out 1,0 --x10 40.0 "
        "--grid-points 600 --rmax 24", 2, "ValueError", "its square overflows"),
    row("spectrum-alpha-1e-100", "spectrum --alpha 1e-100", 2, "ValueError",
        "its square overflows"),
    row("stationary-alpha-1e-100", "stationary --alpha 1e-100 --n 2 --x10 12.5", 2,
        "ValueError", "its square overflows"),
    row("spectrum-lam-mc-1e160", "spectrum --lam-mc 1e160", 2, "ValueError",
        "makes the level epsilon_n = inf"),
    row("optimize-subnormal-x10", "optimize --alpha 0.1 --in 1,0 --out 1,0 --x10 1e-310 "
        "--grid-points 600 --rmax 24", 2, "ValueError", "segment 0", "subnormal"),
    # sweeps over the work budget, refused before their first factorisation
    *(row(f"propagate-path-{s}", "propagate --alpha 0.1 --path-file {path} --grid-points 900 "
          "--rmax 25 --steps 300", 2, "ValueError", "segment 0", "budget", path=f"{s},20.0\n")
      for s in ("1e300", "1e6", "5e306")),  # at 5e306 the phase turn is inf
    # a floor one segment holds, three segments do not: once refused only at
    # segment 2, after 17.6 s of sweeping
    row("propagate-floor-three-segments", "propagate --alpha 0.1 --path-file {path} --in 2,0 "
        "--out 1,0 --grid-points 20000 --rmax 60 --steps 20000", 2, "ValueError",
        "the step floor on 3 segment(s)", "the sweep's budget",
        path="0.8,17.0\n1.6,23.0\n2.4,17.5\n"),
    # a width whose chi2 (1e-160) or chi0 (1e160) leaves the float range: once
    # "chi2 is not finite" or "chi0 is not finite", which name no input
    *(row(f"packet-sigma-{sigma}", f"packet --alpha 0.5 --path-file {{two}} --sigma {sigma} "
          "--steps 50", 2, "ValueError", f"sigma = {float(sigma)!r} is too {size}")
      for sigma, size in (("1e-160", "small"), ("1e160", "large"))),
    # a width chi_initial takes whose chi0 (chi2 L^2 / 2, -1.1e309 at L = 3.5)
    # leaves the float range along the path: once "chi0 is not finite"
    row("packet-sigma-5.3e-155-path", "packet --alpha 0.5 --path-file {two} --sigma 5.3e-155 "
        "--steps 50", 2, "ValueError", "packet width sigma = 5.3e-155 is too small",
        "|L| = 3.5"),
    # d^2 past the float range, or m^2 c^2 S / hbar at S = 1e308, in the
    # phase: once "chi0 is not finite", which names no input
    *(row(f"packet-d={d}", f"packet --alpha 0.5 --path-file {{two}} --sigma 0.8 --steps 50 "
          f"--d={d}", 2, "ValueError", exact="the phase |d^2 - lambda d - m^2 c^2| S / hbar "
          f"overflows at d = {d} on a path of length S = 2.5") for d in ("1e+160", "-1e+300")),
    *(row(f"packet-path-1e308{flag}", "packet --alpha 0.5 --path-file {path} --sigma 0.8 "
          f"--steps 1 {flag}", 2, "ValueError", exact="the phase |d^2 - lambda d - m^2 c^2| "
          f"S / hbar overflows at {at} on a path of length S = 1e+308", path="1e308,1e-300\n")
      for flag, at in (("", "the default d = mean lambda / 2 = 5e-301"), ("--d=0", "d = 0.0"))),
    row("malformed-path", "packet --path-file {path} --sigma 1.0", 2, "ValueError",
        "{path}, line 3", path="s_end,lambda\n1.0,2.0\nnonsense\n"),
    # lambda * duration = 1e310: refused where the path is read
    *(row(f"overflowing-path-{argv.split()[0]}", f"{argv} --path-file {{path}}", 2,
          "ValueError", "the running integral of lambda overflows", path="1e10,1e300\n")
      for argv in ("packet --sigma 0.8 --steps 50", "timemap --samples 5")),
    # 50 steps x 1.7e308: the packet's step count would overflow
    row("packet-steps-overflow", "packet --alpha 0.5 --path-file {path} --sigma 0.8 --steps 50",
        2, "ValueError", "segment 0", "steps = 50", path="1.7e308,1.0\n"),
    # a path so short that each packet step h is zero or subnormal: once 51
    # rows, all at s = 0.0
    *(row(f"packet-path-{s}-subnormal-step", "packet --alpha 0.5 --path-file {path} "
          "--sigma 0.8 --steps 50", 2, "ValueError", "segment 0", "subnormal",
          path=f"{s},20.0\n") for s in ("5e-324", "1e-310")),
    # an l whose centrifugal entry leaves the float range, refused by name:
    # once the grid was blamed (10^200) or a bare OverflowError exited 3 (10^400)
    *(row(f"{command}-l-1e{power}", f"{argv} --in {10 ** power + 1},{10 ** power} --out 1,0 "
          "--grid-points 600 --rmax 25", 2, "ValueError", "l is too large")
      for command, argv in [("propagate", "propagate --alpha 0.1 --path-file {const}"),
                            ("optimize", "optimize --alpha 0.1 --x10 40")]
      for power in (200, 400)),
    # a lambda whose Coulomb entry lambda kappa_C / step has no finite square,
    # refused by name: once the grid was blamed (a path's 1.7e308,
    # --prep-lam-mc 1e307), or a middle segment's 1e160 gave a NaN phase
    # turn and "cannot convert float NaN to integer"
    row("propagate-path-lambda-1.7e308", "propagate --alpha 0.1 --path-file {path} "
        "--grid-points 900 --rmax 25 --steps 300", 2, "ValueError",
        "lambda = 1.7e+308 is too large for this grid", path="0.5,1.7e308\n"),
    row("optimize-prep-lam-mc-1e307", "optimize --alpha 0.1 --in 1,0 --out 1,0 --x10 40 "
        "--grid-points 600 --rmax 24 --prep-lam-mc 1e307", 2, "ValueError",
        "lambda = 1e+308 is too large for this grid"),
    row("propagate-path-lambda-1e160-middle", "propagate --alpha 0.1 --path-file {path} "
        "--grid-points 900 --rmax 25", 2, "ValueError", "lambda = 1e+160 is too large",
        path="0.5,20.0\n1.0,1e160\n1.5,20.0\n"),
    # an x10 whose S is subnormal or zero: once a stall (exit 3) or "S must be
    # positive", which names no flag
    *(row(f"stationary-x10-{x10}", f"stationary --alpha 0.1 --n 1 --x10 {x10}", 2,
          "ValueError", f"x10 = {x10}", "raise x10") for x10 in ("1e-320", "5e-324")),
    row("unresolved-state", "propagate --alpha 0.1 --path-file {const} --in 3,0 --rmax 20 "
        "--grid-points 800", 3, "RuntimeError", "enlarge r_max"),
    # 1s and 2s prepared at lambda = 2 mc are eigenvectors of the start
    # path's generator, so K there is roundoff and the phase is undefined
    row("optimize-roundoff-amplitude", "optimize --alpha 0.1 --in 1,0 --out 2,0 --x10 40 "
        "--grid-points 1200 --rmax 50", 3, "PhaseUndefinedError",
        "(lambda/mc = [2], S = 2)", "boundary states orthogonal under the path are refused"),
    row("optimize-runaway-schedule", "optimize --in 1,0 --out 1,0 --x10 1e6 --grid-points 600 "
        "--rmax 24", 2, "ValueError", "x10 = 1000000.0", "lower x10"),
    # the count past the float range in four digits: once all 309 of them
    row("optimize-x10-1e308", "optimize --alpha 0.1 --in 1,0 --out 1,0 --x10 1e308 "
        "--grid-points 600 --rmax 24", 2, "ValueError",
        exact="x10 = 1e+308 needs 7.497e+307 tridiagonal solves per residual, over the "
        "budget of 20000; lower x10"),
    row("missing-n", "stationary --x10 1.0", 2, "ValueError", exact="stationary requires --n"),
    # the field is state_in, but the option a user types is --in
    row("missing-in", "optimize --x10 40", 2, "ValueError", exact="optimize requires --in"),
    # argparse's own errors, prefixed by the parser's name
    row("usage-bad-int", "spectrum --n-max abc", 2, "ValueError",
        exact="qaction spectrum: argument --n-max: invalid int value: 'abc'"),
    row("usage-unknown-flag", "spectrum --no-such-flag", 2, "ValueError",
        exact="qaction: unrecognized arguments: --no-such-flag"),
    row("usage-unknown-command", "no-such-command", 2, "ValueError",
        "qaction: argument command: invalid choice: 'no-such-command'"),
    row("usage-no-command", "", 2, "ValueError",
        exact="qaction: the following arguments are required: command"),
    row("state-one-number", "propagate --path-file {const} --in 3", 2, "ValueError",
        exact="--in must be two integers as 'n,l'"),
    row("config-unknown-key", "stationary --config {config} --n 1 --x10 1.0", 2, "ValueError",
        exact="unknown config keys: typo_key", config='{"alpha": 0.1, "typo_key": 1}'),
    # optimize writes its time map beside a file --output and has no flag or key to move it
    row("optimize-timemap-output-flag", ACCEPTANCE_ARGS["optimize"] + " --timemap-output t.csv",
        2, "ValueError", exact="qaction: unrecognized arguments: --timemap-output t.csv"),
    # each option has one flag: the path file is --path-file alone
    row("packet-lambda-file-flag", "packet --alpha 0.5 --lambda-file p.csv --sigma 0.8 --steps 50",
        2, "ValueError", exact="qaction: unrecognized arguments: --lambda-file p.csv"),
    row("optimize-timemap-output-key", ACCEPTANCE_ARGS["optimize"] + " --config {config}", 2,
        "ValueError", exact="unknown config keys: timemap_output",
        config='{"timemap_output": "t.csv"}'),
    row("config-integer-too-large", "stationary --config {config} --n 1", 2, "ValueError",
        exact="config key 'x10' is too large for a float", config='{"x10": 1%s}' % ("0" * 400)),
    # huge counts, refused as integers by their owners: once bare OverflowErrors
    # (exit 3), numpy MemoryErrors (exit 1) or an endless packet loop
    *(row(f"{name}-{power}", f"{argv} {flag} {INT_EDGES[power]}", 2, "ValueError", *says)
      for name, argv, flag, says, powers in [
          ("propagate-steps", ACCEPTANCE_ARGS["propagate"], "--steps",
           ("the step floor", "the sweep's budget"), ("1e400",)),
          ("propagate-grid-points", ACCEPTANCE_ARGS["propagate"], "--grid-points",
           ("grid points", "the sweep's budget"), ("1e15", "1e400")),
          ("optimize-grid-points", ACCEPTANCE_ARGS["optimize"], "--grid-points",
           ("grid points", "the sweep's budget"), ("1e15",)),
          ("optimize-segments", ACCEPTANCE_ARGS["optimize"], "--segments",
           ("segments must be at most 3333", "solves per residual"), ("1e400",)),
          ("packet-steps", ACCEPTANCE_ARGS["packet"], "--steps",
           ("steps must be at most", "RK4 work budget"), ("1e15", "1e400")),
          ("timemap-samples", ACCEPTANCE_ARGS["timemap"], "--samples",
           ("--samples needs",), ("1e15",)),
          ("optimize-output-timemap-samples", ACCEPTANCE_ARGS["optimize"] + " --output o.json",
           "--timemap-samples", ("--timemap-samples needs",), ("1e15",))]
      for power in powers),
]

# the message names a flag the command really has
FLAG_FAILURES = [
    row(name, argv, 2, "ValueError", flag, config=config) for name, argv, config, flag in [
        ("n-zero", "stationary --n 0 --x10 1", None, "--n"),
        ("sigma-negative", "packet --path-file {two} --sigma -1", None, "--sigma"),
        ("one-sample", "timemap --path-file {two} --samples 1", None, "--samples"),
        ("x0-negative", "timemap --path-file {two} --x0 -1", None, "--x0"),
        ("state-not-int", "propagate --path-file {two} --in a,b", None, "--in"),
        ("config-list", "stationary --n 1 --x10 1 --config {config}", "[1, 2]", "--config"),
        ("config-n-string", "stationary --x10 1 --config {config}", '{"n": "1"}', "--n"),
        ("config-n-bool", "stationary --x10 1 --config {config}", '{"n": true}', "--n"),
        ("stationary-csv", "stationary --n 1 --x10 1 --format csv", None, "--format"),
        ("config-system-choice", "timemap --path-file {two} --config {config}",
         '{"system": "not_a_system"}', "--system"),
        ("config-format-choice", "spectrum --config {config}", '{"format": "xml"}', "--format"),
        ("alpha-two", "timemap --path-file {two} --alpha 2", None, "--alpha"),
        ("config-alpha-one", "spectrum --config {config}", '{"alpha": 1.0}', "--alpha"),
        ("n-over-100", "stationary --n 101 --x10 1", None, "--n"),
        ("config-n-max-101", "spectrum --config {config}", '{"n_max": 101}', "--n-max")]]

NON_FINITE_FAILURES = [
    row(name, argv, 2, "ValueError", exact=f"{flag} must be finite", config=config)
    for name, argv, config, flag in [
        ("lam-mc-nan", "spectrum --alpha 0.1 --lam-mc nan --n-max 1", None, "--lam-mc"),
        ("x10-inf", "stationary --alpha 0.1 --n 1 --x10 inf", None, "--x10"),
        ("tol-nan", "stationary --n 1 --x10 1 --tol nan", None, "--tol"),
        ("config-x10-nan", "stationary --n 1 --config {config}", '{"x10": NaN}', "--x10")]]

# widths whose chi0 and chi1 stay in the float range along the path, once
# refused naming no input: at 2e-154 "chi0 is not finite" (RK4's stage sum of
# chi0, about 6 lambda chi1, overflowed), at 1.5e-154 "chi1 is not finite"
# (6 lambda chi2 did); they exit 0 and print only finite numbers
NAMED_FINITE = [row(f"packet-sigma-{sigma}-finite", f"packet --alpha 0.5 --path-file {{two}} "
                    f"--sigma {sigma} --steps 50", 0, None) for sigma in ("2e-154", "1.5e-154")]

FLOAT_EDGES = (5e-324, 1e-310, 1e-300, 1e-160, 1e-30, 1e30, 1e160, 1e300, 1.7e308, -1e300)
ALPHA_EDGES = (5e-324, 1e-300, 1e-160, 1e-100, 1e-20, 1.0 - 2.0 ** -53)
PATH_EDGES = (*(f"{s},20.0" for s in ("5e-324", "1e-310", "1e6", "1e300")),
              *(f"0.5,{lam}" for lam in ("5e-324", "1e300", "-1e300")), "1.7e308,1.0")


def _edge_runs():
    """Each float option of each command at the float range's edges, each
    integer option at 10^15 and 10^400, and so each integer of a state option
    'n,l' (l there with n = l + 1, n there with l = 0), then every command
    that reads a path file, and timemap --x0, on extreme paths."""
    path_runs = []
    for command, spec in _COMMANDS.items():
        argv = ACCEPTANCE_ARGS[command]
        for key in (*_COMMON_FIRST, *spec.options):
            flag = OPTIONS[key].flag
            if OPTIONS[key].type is int:
                for name, v in INT_EDGES.items():
                    yield pytest.param((f"{argv} {flag}={v}", None, None, None),
                                       id=f"{command}{flag}={name}")
            if OPTIONS[key].check is _STATE:
                for name, v in INT_EDGES.items():
                    for part, state in (("l", f"{v + 1},{v}"), ("n", f"{v},0")):
                        yield pytest.param((f"{argv} {flag}={state}", None, None, None),
                                           id=f"{command}{flag}={part}-{name}")
            if OPTIONS[key].type is float:
                for v in ALPHA_EDGES if key == "alpha" else FLOAT_EDGES:
                    yield pytest.param((f"{argv} {flag}={v!r}", None, None, None),
                                       id=f"{command}{flag}={v!r}")
        if "path_file" in spec.options:
            path_runs.append((command, argv))
    for command, argv in [*path_runs, ("timemap--x0", ACCEPTANCE_ARGS["timemap"] + " --x0 0.5")]:
        for text in PATH_EDGES:
            yield pytest.param((f"{argv} --path-file {{path}}", None, text + "\n", None),
                               id=f"{command}-path-{text}")


def _nulls(v, key=None):
    """The keys of every null under v, a JSON value."""
    if isinstance(v, dict):
        return [k for name, x in v.items() for k in _nulls(x, name)]
    if isinstance(v, list):
        return [k for x in v for k in _nulls(x, key)]
    return [key] if v is None else []


@pytest.fixture()
def run_row(capsys, tmp_path, monkeypatch, two_segment_path, const_path_20):
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path / "out"))

    def check(argv, config, path, expect):
        """Exit 2 or 3 with one envelope line matching expect, or, where expect
        is None or its code 0, exit 0 printing only finite numbers; never a
        warning."""
        files = {"two": two_segment_path, "const": const_path_20}
        for name, text in (("config", config), ("path", path)):
            if text is not None:
                files[name] = tmp_path / f"{name}.txt"
                files[name].write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv.format(**files).split())
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        if code == 0 and (expect is None or expect[0] == 0):
            assert err == ""
            if out.startswith("#"):  # CSV: the data rows follow four header lines
                cells = {c for line in out.splitlines()[4:] for c in line.split(",")}
                assert not cells & {"nan", "inf", "-inf"}
            else:
                result = json.loads(out)["result"]
                undefined = [] if result.get("phase_valid", True) else ["action_phase",
                                                                        "log_magnitude"]
                assert [k for k in _nulls(result) if k not in undefined] == []
            return
        assert code in (2, 3) and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["code"] == code
        if expect is not None:
            want_code, want_type, says, exact = expect
            assert (code, error["type"]) == (want_code, want_type)
            assert all(s.format(**files) in error["message"] for s in says)
            assert exact is None or error["message"] == exact
    return check


@pytest.mark.parametrize("case", [*NAMED_FAILURES, *NAMED_FINITE, *_edge_runs()])
def test_every_run_ends_in_the_envelope_or_prints_finite_numbers(run_row, case):
    run_row(*case)


@pytest.mark.parametrize("case", FLAG_FAILURES)
def test_error_paths_name_the_flag(run_row, case):
    run_row(*case)


@pytest.mark.parametrize("case", NON_FINITE_FAILURES)
def test_non_finite_values_rejected(run_row, case):
    run_row(*case)


@pytest.mark.parametrize("argv, solved", [
    (ACCEPTANCE_ARGS["optimize"], 1),
    (ACCEPTANCE_ARGS["propagate"], 1),
    ("propagate --alpha 0.1 --path-file {three} --in 2,0 --out 1,0 "
     "--grid-points 1500 --rmax 60", 2),
], ids=["optimize", "propagate", "propagate-two-levels"])
def test_one_eigenproblem_per_distinct_boundary_state(cli, const_path_20, tmp_path,
                                                      monkeypatch, argv, solved):
    # --in and --out naming one level at one lambda share one grid eigenstate
    three = tmp_path / "three.csv"
    three.write_text("0.8,17.0\n1.6,23.0\n2.4,17.5\n")
    calls = record_calls(monkeypatch, propagation._lapack(), "dstebz")
    code, _, err = cli(*argv.format(const=const_path_20, three=three).split())
    assert code == 0, err
    assert len(calls) == solved


def test_output_dir_env_and_file_equality(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path))
    code, out, _ = cli("spectrum", "--alpha", FROZEN_ALPHA)
    assert code == 0
    code2, out2, _ = cli("spectrum", "--alpha", FROZEN_ALPHA,
                         "--output", os.path.join("sub", "levels.csv"))
    assert code2 == 0 and out2 == ""
    written = (tmp_path / "sub" / "levels.csv").read_text()
    assert written == out  # same bytes whether to stdout or a file


@pytest.mark.parametrize("command", list(ACCEPTANCE_ARGS))
def test_header_config_round_trips(cli, tmp_path, two_segment_path,
                                   const_path_20, command):
    argv = ACCEPTANCE_ARGS[command].format(two=two_segment_path, const=const_path_20)
    code, out, err = cli(*argv.split())
    assert code == 0, err
    if out.startswith("#"):  # CSV: the config is the third comment line
        header_cfg = json.loads(out.splitlines()[2][len("# config: "):])
    else:
        header_cfg = json.loads(out)["header"]["config"]
    rebuilt = resolve_config(command, {}, header_cfg)
    assert {k: getattr(rebuilt, k) for k in header_cfg} == header_cfg
    cfg_file = tmp_path / "header.json"
    cfg_file.write_text(json.dumps(header_cfg))
    code, again, err = cli(command, "--config", str(cfg_file))
    assert code == 0, err
    assert again == out


@pytest.mark.parametrize("out_dir", ["", "out"], ids=["cwd", "output-dir"])
@pytest.mark.parametrize("output", ["", "res", "sub/"], ids=["empty", "directory", "slash"])
@pytest.mark.parametrize("command", ["optimize", "spectrum"])
def test_output_that_names_no_file_is_refused_before_the_run(cli, tmp_path, monkeypatch,
                                                             out_dir, output, command):
    # refused as the configuration is resolved: no boundary state is solved
    # and no sidecar is written beside a result that cannot be opened
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QACTION_OUTPUT_DIR", out_dir)
    (tmp_path / out_dir / "res").mkdir(parents=True)

    def unsolved(*args):
        raise RuntimeError("a boundary state was solved")
    monkeypatch.setattr(qaction.cli, "_boundary_states", unsolved)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = cli(*ACCEPTANCE_ARGS[command].split(), "--output", output)
    assert code == 2 and out == ""
    assert "--output" in json.loads(err)["error"]["message"]
    assert sorted(tmp_path.rglob("*")) == before


def test_output_dash_overrides_the_config_file(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QACTION_OUTPUT_DIR", raising=False)
    (tmp_path / "run.json").write_text(json.dumps({"output": "o.json"}))
    argv = (*ACCEPTANCE_ARGS["optimize"].split(), "--config", "run.json")
    code, out, err = cli(*argv)
    assert code == 0 and out == "", err
    written = (tmp_path / "o.json").read_text()
    assert (tmp_path / "o.json.timemap.csv").is_file()
    for name in ("o.json", "o.json.timemap.csv"):
        (tmp_path / name).unlink()
    code, out, err = cli(*argv, "--output", "-")
    assert code == 0 and out == written, err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_optimize_json_and_sidecar(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path))
    argv = ("optimize", "--alpha", FROZEN_ALPHA, "--in", "1,0", "--out", "1,0",
            "--x10", "40.0", "--grid-points", "600", "--rmax", "24")
    # a stdout run writes no sidecar
    code, out, err = cli(*argv)
    assert code == 0, err
    assert list(tmp_path.iterdir()) == []
    code, printed, err = cli(*argv, "--output", "opt.json")
    assert code == 0 and printed == "", err
    assert (tmp_path / "opt.json").read_text() == out
    doc = json.loads((tmp_path / "opt.json").read_text())
    r = doc["result"]
    assert list(r.keys()) == ["lambda_path", "segment_ends", "s_total", "kappa",
                              "action", "residual", "iterations", "probability",
                              "converged"]
    assert r["converged"] is True
    assert len(r["lambda_path"]) == 1
    ref = stationary_closed_form(1, 40.0, make_units(0.1))
    assert math.isclose(r["lambda_path"][0], ref.lam, rel_tol=1e-3)
    assert math.isclose(r["segment_ends"][0], r["s_total"], rel_tol=1e-15)
    assert abs(r["lambda_path"][0] * r["s_total"] - 40.0) < 1e-6 * 40.0
    side = (tmp_path / "opt.json.timemap.csv").read_text().splitlines()
    assert side[0] == "# qaction timemap"
    assert side[3] == "s,x0"
    assert len(side) == 4 + 101  # default timemap_samples
    last = side[-1].split(",")
    # final x0 equals the achieved integral of lambda, within the solver tol
    assert math.isclose(float(last[1]), 40.0, rel_tol=1e-8)


def test_json_emitter_edge_values():
    # non-finite floats become null; empty containers keep their brackets
    doc = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "list": [],
           "dict": {}}
    assert emit_json(doc, indent=None) == (
        '{"nan": null, "inf": null, "ninf": null, "list": [], "dict": {}}')
    assert emit_json([]) == "[]" and emit_json({}) == "{}"


def test_csv_emitter_tokens_and_refusals():
    text = render_csv("t", {}, ["a", "b", "c", "d"],
                      [[math.nan, math.inf, -math.inf, True]])
    assert text.splitlines()[-1] == "nan,inf,-inf,true"
    with pytest.raises(ValueError, match="corrupt"):
        render_csv("t", {}, ["a"], [["x,y"]])
    with pytest.raises(ValueError, match="row length"):
        render_csv("t", {}, ["a", "b"], [[1.0]])
    with pytest.raises(TypeError, match="in CSV"):  # a JSON array is no cell
        render_csv("t", {}, ["a"], [[[1.0, 2.0]]])


@pytest.mark.parametrize("value", [1 + 2j, np.int64(3), np.array([1.0, 2.0])],
                         ids=["complex", "numpy-int", "ndarray"])
def test_emitters_refuse_values_outside_the_contract(value):
    # runners hand over plain Python values; nothing is converted silently
    with pytest.raises(TypeError):
        emit_json({"v": value})
    with pytest.raises(TypeError):
        render_csv("t", {}, ["v"], [[value]])


def test_numpy_float_renders_like_float():
    x = np.float64(0.1) * 3
    assert emit_json([x]) == emit_json([float(x)])
    assert render_csv("t", {}, ["v"], [[x]]) == render_csv("t", {}, ["v"], [[float(x)]])


def test_version_subprocess():
    proc = subprocess.run([sys.executable, "-m", "qaction", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "qaction 0.1.0"


def test_cli_import_skips_unused_scipy_modules(const_path_20):
    # nor the queues of the two-block solver's worker thread
    probe = ("import sys, qaction.cli; print(sorted(m for m in "
             "('scipy.integrate', 'scipy.linalg', 'scipy.special', 'queue', "
             "'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # propagate and optimize load scipy's LAPACK extension, not scipy.linalg
    probe = ("import sys; from qaction import cli; "
             "codes = [cli.main(argv.split()) for argv in sys.argv[1:]]; "
             "print(codes, 'scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)")
    argv = [ACCEPTANCE_ARGS[c].format(const=const_path_20) for c in ("propagate", "optimize")]
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False True"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("argv", [
    # on 24 000 points a Crank-Nicolson solve is two blocks on two threads,
    # each half longer than propagation.BLAS_SERIAL
    "propagate --alpha 0.1 --path-file {const} --grid-points 24000 --rmax 25 --steps 50",
    # the path search's adjoint sums, over 12 000 points, are longer than it
    "optimize --alpha 0.1 --in 1,0 --out 1,0 --x10 40.0 --grid-points 12000 --rmax 24",
], ids=["propagate", "optimize"])
def test_output_does_not_depend_on_the_core_count(const_path_20, argv):
    # every grid sum runs in parts BLAS keeps on one thread, so a child
    # pinned to one CPU prints the same bytes as one free to use them all
    cmd = [sys.executable, "-m", "qaction", *argv.format(const=const_path_20).split()]
    cpu = min(os.sched_getaffinity(0))
    free = subprocess.run(cmd, capture_output=True, timeout=120)
    pinned = subprocess.run(cmd, capture_output=True, timeout=120,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert free.returncode == pinned.returncode == 0, pinned.stderr
    assert free.stdout == pinned.stdout

