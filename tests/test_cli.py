import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qaction import make_units, stationary_closed_form
from qaction.cli import SPECTRUM_COLUMNS, emit_json, main, render_csv, resolve_config

FROZEN_ALPHA = "0.1"


@pytest.fixture()
def cli(capsys):
    def run(*args):
        code = main(list(args))
        out, err = capsys.readouterr()
        return code, out, err
    return run


@pytest.fixture()
def two_segment_path(tmp_path):
    p = tmp_path / "path.csv"
    p.write_text("s_end,lambda\n1.0,2.0\n2.5,1.0\n")
    return str(p)


@pytest.fixture()
def const_path_20(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("0.5,20.0\n")
    return str(p)


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


def test_packet_lambda_file_alias(cli, two_segment_path):
    code, out, _ = cli("packet", "--alpha", "0.5",
                       "--lambda-file", two_segment_path,
                       "--sigma", "1.0", "--steps", "4")
    assert code == 0
    assert json.loads(out.splitlines()[2][len("# config: "):])["path_file"] \
        == two_segment_path


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


def test_timemap_x0_rejects_csv_format(cli, tmp_path):
    p = tmp_path / "tm.csv"
    p.write_text("1.0,1.0\n")
    code, out, err = cli("timemap", "--path-file", str(p), "--x0", "0.5",
                         "--format", "csv")
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


def test_exit_code_domain_error(cli):
    code, out, err = cli("spectrum", "--alpha", "1.5")
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["code"] == 2
    assert payload["type"] == "ValueError"


def test_exit_code_malformed_path(cli, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("s_end,lambda\n1.0,2.0\nnonsense\n")
    code, _, err = cli("packet", "--path-file", str(p), "--sigma", "1.0")
    assert code == 2
    msg = json.loads(err)["error"]["message"]
    assert "line 3" in msg and "bad.csv" in msg


def test_exit_code_numerical_failure(cli, tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0.5,20.0\n")
    code, _, err = cli("propagate", "--alpha", FROZEN_ALPHA,
                       "--path-file", str(p), "--in", "3,0",
                       "--rmax", "20", "--grid-points", "800")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "RuntimeError"


def test_optimize_roundoff_amplitude_exits_3(cli):
    # 1s and 2s prepared at lambda = 2 mc are eigenvectors of the start
    # path's generator, so K there is roundoff and the phase is undefined
    code, out, err = cli("optimize", "--alpha", "0.1", "--in", "1,0",
                         "--out", "2,0", "--x10", "40", "--grid-points", "1200",
                         "--rmax", "50")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "PhaseUndefinedError"
    assert "(lambda/mc = [2], S = 2)" in error["message"]
    assert "boundary states orthogonal under the path are refused" in error["message"]


def test_optimize_runaway_schedule_exits_2(cli):
    code, out, err = cli("optimize", "--in", "1,0", "--out", "1,0",
                         "--x10", "1e6", "--grid-points", "600", "--rmax", "24")
    assert code == 2 and out == ""
    assert "x10" in json.loads(err)["error"]["message"]


def test_optimize_unconverged_exits_3(cli, tmp_path, monkeypatch):
    # one chord step leaves the residual at 2.5e-5; like a stalled
    # stationary, the run fails before it writes anything, sidecar included
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path))
    code, out, err = cli("optimize", "--alpha", FROZEN_ALPHA, "--in", "1,0",
                         "--out", "1,0", "--x10", "40.0", "--grid-points", "600",
                         "--rmax", "24", "--max-iters", "1", "--output", "opt.json")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "RuntimeError" and "stalled" in error["message"]
    assert list(tmp_path.iterdir()) == []


def test_exit_code_missing_required(cli):
    code, _, err = cli("stationary", "--x10", "1.0")
    assert code == 2
    assert "--n" in json.loads(err)["error"]["message"]


def test_missing_required_names_the_real_flag(cli):
    # the field is state_in, but the option a user types is --in
    code, _, err = cli("optimize", "--x10", "40")
    assert code == 2
    msg = json.loads(err)["error"]["message"]
    assert "--in" in msg and "--state-in" not in msg


@pytest.mark.parametrize("args", [
    ("spectrum", "--n-max", "abc"),
    ("spectrum", "--no-such-flag"),
    ("no-such-command",),
    (),
])
def test_usage_errors_use_json_envelope(cli, args):
    code, out, err = cli(*args)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["code"] == 2
    assert payload["type"] == "ValueError"
    assert payload["message"].startswith("qaction")


def test_help_still_prints_usage(cli):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0


def test_exit_code_bad_state_argument(cli, const_path_20):
    code, _, err = cli("propagate", "--path-file", const_path_20, "--in", "3")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


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


def test_config_file_rejects_unknown_keys(cli, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.1, "typo_key": 1}))
    code, _, err = cli("stationary", "--config", str(cfg), "--n", "1",
                       "--x10", "1.0")
    assert code == 2
    assert "typo_key" in json.loads(err)["error"]["message"]


def test_config_file_rejects_integer_too_large_for_a_float(cli, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"x10": 10 ** 400}))
    code, out, err = cli("stationary", "--config", str(cfg), "--n", "1")
    assert code == 2 and out == ""
    assert "'x10'" in json.loads(err)["error"]["message"]


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


@pytest.mark.parametrize("args, config, flag", [
    (("stationary", "--n", "0", "--x10", "1"), None, "--n"),
    (("packet", "--path-file", "{two}", "--sigma", "-1"), None, "--sigma"),
    (("timemap", "--path-file", "{two}", "--samples", "1"), None, "--samples"),
    (("timemap", "--path-file", "{two}", "--x0", "-1"), None, "--x0"),
    (("propagate", "--path-file", "{two}", "--in", "a,b"), None, "--in"),
    (("stationary", "--n", "1", "--x10", "1"), "[1, 2]", "--config"),
    (("stationary", "--x10", "1"), '{"n": "1"}', "--n"),
    (("stationary", "--x10", "1"), '{"n": true}', "--n"),
    (("stationary", "--n", "1", "--x10", "1", "--format", "csv"), None, "--format"),
    (("timemap", "--path-file", "{two}"), '{"system": "not_a_system"}', "--system"),
    (("spectrum",), '{"format": "xml"}', "--format"),
    (("timemap", "--path-file", "{two}", "--alpha", "2"), None, "--alpha"),
    (("spectrum",), '{"alpha": 1.0}', "--alpha"),
    (("stationary", "--n", "101", "--x10", "1"), None, "--n"),
    (("spectrum",), '{"n_max": 101}', "--n-max"),
], ids=["n-zero", "sigma-negative", "one-sample", "x0-negative", "state-not-int",
        "config-list", "config-n-string", "config-n-bool", "stationary-csv",
        "config-system-choice", "config-format-choice", "alpha-two",
        "config-alpha-one", "n-over-100", "config-n-max-101"])
def test_error_paths_name_the_flag(cli, tmp_path, two_segment_path, args, config,
                                   flag):
    args = [a.format(two=two_segment_path) for a in args]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        args = [*args, "--config", str(cfg)]
    code, out, err = cli(*args)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["code"] == 2 and payload["type"] == "ValueError"
    assert flag in payload["message"]


@pytest.mark.parametrize("args, config, flag", [
    (("spectrum", "--alpha", "0.1", "--lam-mc", "nan", "--n-max", "1"), None,
     "--lam-mc"),
    (("stationary", "--alpha", "0.1", "--n", "1", "--x10", "inf"), None, "--x10"),
    (("stationary", "--n", "1", "--x10", "1", "--tol", "nan"), None, "--tol"),
    (("stationary", "--n", "1"), '{"x10": NaN}', "--x10"),
], ids=["lam-mc-nan", "x10-inf", "tol-nan", "config-x10-nan"])
def test_non_finite_values_rejected(cli, tmp_path, args, config, flag):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        args = (*args, "--config", str(cfg))
    code, out, err = cli(*args)
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "ValueError"
    assert payload["message"] == f"{flag} must be finite"


def test_output_dir_env_and_file_equality(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path))
    code, out, _ = cli("spectrum", "--alpha", FROZEN_ALPHA)
    assert code == 0
    code2, out2, _ = cli("spectrum", "--alpha", FROZEN_ALPHA,
                         "--output", os.path.join("sub", "levels.csv"))
    assert code2 == 0 and out2 == ""
    written = (tmp_path / "sub" / "levels.csv").read_text()
    assert written == out  # same bytes whether to stdout or a file


ROUND_TRIP_ARGS = {
    "spectrum": ["--alpha", FROZEN_ALPHA, "--n-max", "2"],
    "stationary": ["--alpha", FROZEN_ALPHA, "--n", "2", "--x10", "12.5"],
    "packet": ["--alpha", "0.5", "--path-file", "{two}", "--sigma", "0.8",
               "--steps", "10"],
    "propagate": ["--alpha", FROZEN_ALPHA, "--path-file", "{const}",
                  "--grid-points", "900", "--rmax", "25", "--steps", "200"],
    "optimize": ["--alpha", FROZEN_ALPHA, "--in", "1,0", "--out", "1,0",
                 "--x10", "40.0", "--grid-points", "600", "--rmax", "24"],
    "timemap": ["--path-file", "{two}", "--samples", "5"],
}


@pytest.mark.parametrize("command", list(ROUND_TRIP_ARGS))
def test_header_config_round_trips(cli, tmp_path, two_segment_path,
                                   const_path_20, command):
    args = [a.format(two=two_segment_path, const=const_path_20)
            for a in ROUND_TRIP_ARGS[command]]
    code, out, err = cli(command, *args)
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


def test_optimize_json_and_sidecar(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("QACTION_OUTPUT_DIR", str(tmp_path))
    code, out, err = cli("optimize", "--alpha", FROZEN_ALPHA,
                         "--in", "1,0", "--out", "1,0", "--x10", "40.0",
                         "--grid-points", "600", "--rmax", "24",
                         "--output", "opt.json")
    assert code == 0, err
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


def test_cli_import_skips_unused_scipy_modules():
    probe = ("import sys, qaction.cli; print(sorted(m for m in "
             "('scipy.integrate', 'scipy.linalg', 'scipy.special') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stdout_determinism_subprocess(two_segment_path):
    cmd = [sys.executable, "-m", "qaction", "packet", "--alpha", "0.5",
           "--path-file", two_segment_path, "--sigma", "0.8", "--steps", "25"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.count(b"\n") == 4 + 25 + 1  # header + columns + rows
