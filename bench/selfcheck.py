"""Self-check of the benchmark's checkers: each accepts a right result and rejects wrong ones.

    python3 bench/selfcheck.py

Runs one cheap case per workload through the same checks run.py applies
(about half a minute), then feeds each checker deliberately wrong results.
Exits 1 if any right result is rejected or any wrong one accepted.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import workloads as W
from qaction.paths import LambdaPath


def _tamper_csv(text: str, column: str, row: int, delta: float) -> str:
    lines = text.splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index(column)
    data = list(range(head + 1, len(lines)))
    cells = lines[data[row]].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[data[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _tamper_json(text: str, change) -> str:
    doc = json.loads(text)
    change(doc["result"])
    return json.dumps(doc)


def _shift_phase(res: dict, dI: float) -> None:
    """Move the action phase and K together, so only the value is wrong."""
    res["action_phase"] += dI
    K = cmath.exp(res["action_phase"] / 1j + res["log_magnitude"])
    res["k_re"], res["k_im"] = K.real, K.imag


def _shifted_amplitude(amp, dI: float):
    I = amp.I + dI
    return dataclasses.replace(amp, I=I, K=cmath.exp(I / 1j + amp.Q))


def cases(workdir: Path):
    """(label, checker, output, should be accepted) for every workload."""
    lam = W.lam_stationary(0.1, 1)
    right = SimpleNamespace(converged=True, residual=1e-10,
                            path=LambdaPath.equal_segments([lam] * 4, W.X10 / lam))
    yield "path-search right", W.check_stationary_path, right, True
    yield "path-search lambda off 1e-3", W.check_stationary_path, SimpleNamespace(
        converged=True, residual=1e-10,
        path=LambdaPath.equal_segments([lam * 1.001] * 4, W.X10 / lam)), False
    yield "path-search integral off 1e-6", W.check_stationary_path, SimpleNamespace(
        converged=True, residual=1e-10,
        path=LambdaPath.equal_segments([lam] * 4, W.X10 / lam * (1 + 1e-6))), False
    yield "path-search not converged", W.check_stationary_path, SimpleNamespace(
        converged=False, residual=1e-3, path=right.path), False

    for op in W.build_propagate(1, workdir)[1:3]:
        amp = op.run()
        yield f"{op.name} right", op.check, amp, True
        yield f"{op.name} phase off 1e-5", op.check, _shifted_amplitude(amp, 1e-5), False
        yield f"{op.name} norm drift", op.check, dataclasses.replace(
            amp, norm_drift=1e-8), False
        yield f"{op.name} |K| > 1", op.check, dataclasses.replace(
            amp, K=amp.K / abs(amp.K) * 1.001), False

    tamper = {
        "spectrum": lambda t: _tamper_csv(t, "energy_sommerfeld", -1, 1e-9),
        "stationary": lambda t: _tamper_json(
            t, lambda r: r.update({"lambda": r["lambda"] * (1 + 1e-8)})),
        "packet": lambda t: _tamper_csv(t, "center", -1, 1e-6),
        "timemap": lambda t: _tamper_csv(t, "s", 20, 1e-9),
        "propagate": lambda t: _tamper_json(t, lambda r: _shift_phase(r, 1e-3)),
        "optimize": lambda t: _tamper_json(
            t, lambda r: r["lambda_path"].__setitem__(0, r["lambda_path"][0] * 1.001)),
    }
    for op in W.build_cli_main(1, workdir):
        command = op.name.split(".")[-1]
        code, text = op.run()
        yield f"cli {command} right", op.check, (code, text), True
        yield f"cli {command} wrong value", op.check, (code, tamper[command](text)), False
        yield f"cli {command} exit 2", op.check, (2, text), False


def main() -> int:
    bad = 0
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        for label, check, output, accept in cases(Path(tmp)):
            errors = check(output)
            ok = (not errors) == accept
            bad += not ok
            verdict = "accepted" if not errors else f"rejected: {errors[0]}"
            print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")
    print(f"{bad} checker fault(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
