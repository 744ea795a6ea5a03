"""Layered benchmark of qaction: end-to-end metrics, or per-layer metrics from a trace.

    python3 bench/run.py --workload path-search --seed 1 --seconds 16 --trace 0

Workloads (see bench/README.md): ``path-search``, ``propagate`` and ``cli``.
The workload's operations run in whole rounds, one after another, until
``--seconds`` have passed; set-up is timed before the first round and after
every round, at least SETUP_REPEATS times, and reported as a median. Every
output is checked after timing. With ``--trace 0`` the
run reports setup_s, wall_s (median round time) and peak_rss_mib. With
``--trace 1`` it runs one untraced round of the named workload, then one
traced round of every workload plus the six commands through ``cli.main``,
and reports the per-layer metrics and the tracing overhead. The last line
of stdout is one JSON object; results and spans are also written under
bench/results/. Needs only numpy and scipy; qaction is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3
IMPORT_CODE = ("import time; t = time.perf_counter(); import qaction; "
               "print(time.perf_counter() - t)")


def import_cost(env: dict) -> tuple[float, float]:
    """A fresh interpreter's (process wall time, ``import qaction`` time)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return time.perf_counter() - t0, float(proc.stdout)


class Ledger:
    """Every operation run, with its output or error, checked after timing."""

    def __init__(self):
        self.runs: list[tuple] = []   # (op id, op, output, error)

    def run_round(self, ops, tracer=None) -> float:
        """Run each operation once; returns the seconds spent inside them."""
        total = 0.0
        for op in ops:
            op_id = f"{op.name}#{len(self.runs)}"
            out, error = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("op." + op.name, op=op_id):
                        out = op.run()
            except Exception as exc:  # counted as failed, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - t0
            self.runs.append((op_id, op, out, error))
        return total

    def check(self) -> tuple[int, int, bool]:
        """(attempted, failed, correct); correct means no output failed its check."""
        failed, correct = 0, True
        for op_id, op, out, error in self.runs:
            problems = [error] if error else op.check(out)
            if problems:
                failed += 1
                correct = correct and error is not None
                print(f"FAILED {op_id}: {'; '.join(problems)}", file=sys.stderr)
        return len(self.runs), failed, correct


def end_to_end(workload, args, env, ledger, workdir) -> dict:
    """Set-up is repeated before the first round and after every round, at
    least SETUP_REPEATS times, so its median spans the run like wall_s does."""
    import workloads

    setups = []

    def set_up():
        wall, imp = import_cost(env)
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[workload](args.seed, workdir)
        setups.append((wall if workload == "cli" else imp) + time.perf_counter() - t0)
        return ops

    ops = set_up()
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(ledger.run_round(ops))
        set_up()
    while len(setups) < SETUP_REPEATS:
        set_up()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    return {"setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(rounds), "s"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB")}


def traced(workload, args, env, ledger, workdir) -> dict:
    import workloads
    from tracing import Tracer

    import_s = statistics.median(import_cost(env)[1] for _ in range(SETUP_REPEATS))
    untraced = ledger.run_round(workloads.WORKLOADS[workload](args.seed, workdir))
    ledger.run_round(workloads.build_cli_main(args.seed, workdir))  # warm cli.main
    tracer = Tracer()
    tracer.install()
    try:
        round_s = {}
        for name, build in workloads.WORKLOADS.items():
            with tracer.span("setup." + name, op="setup." + name):
                ops = build(args.seed, workdir)
            round_s[name] = ledger.run_round(ops, tracer)
        ledger.run_round(workloads.build_cli_main(args.seed, workdir), tracer)
    finally:
        tracer.uninstall()
    RESULTS.joinpath(f"trace-{workload}-seed{args.seed}.json").write_text(
        json.dumps(tracer.as_dicts()))
    metrics = layer_metrics(tracer.spans, ledger, import_s)
    metrics["trace.overhead_s"] = (round_s[workload] - untraced, "s")
    return metrics


def layer_metrics(spans, ledger, import_s) -> dict:
    """Per-layer times and counts from the spans of one traced pass."""
    ops = {op_id: (op, out) for op_id, op, out, _ in ledger.runs}
    parent = {s[0]: s[4] for s in spans}

    def dur(s):
        return s[3] - s[2]

    def op_name(s):
        return s[5].split("#")[0] if s[5] else ""

    def inside(s, ancestor_id):
        p = s[4]
        while p is not None and p != ancestor_id:
            p = parent[p]
        return p == ancestor_id

    ta = [s for s in spans if s[1] == "propagation.transition_amplitude"]
    m = {"import.qaction_s": (import_s, "s"),
         "propagation.grid_eigenstate_s": (
             sum(dur(s) for s in spans if s[1] == "propagation.grid_eigenstate"), "s"),
         "propagation.transition_amplitude_s": (sum(dur(s) for s in ta), "s"),
         "propagation.calls": (len(ta), "count")}
    for s in ta:
        op, _ = ops.get(s[5], (None, None))
        if op is not None and op.steps:
            m[f"propagation.step_us.n{op.grid}"] = (dur(s) / op.steps * 1e6, "us")
    for s in spans:
        name = op_name(s)
        if s[1] == "variational.optimize_path" and name.startswith("path-search."):
            key = name.split(".")[-1]
            below = [t for t in ta if inside(t, s[0])]
            m[f"variational.optimize_path_s.{key}"] = (dur(s), "s")
            m[f"variational.propagations.{key}"] = (len(below), "count")
            m[f"variational.self_s.{key}"] = (dur(s) - sum(dur(t) for t in below), "s")
            solution = ops[s[5]][1]
            if solution is not None:  # None when the solve raised
                m[f"variational.iterations.{key}"] = (solution.iterations, "count")
        elif s[1].startswith("op.cli."):
            m[s[1][len("op."):] + "_s"] = (dur(s), "s")
        elif s[1] == "cli.main" and name.startswith("cli-main."):
            m[f"cli.{name.split('.')[-1]}.main_s"] = (dur(s), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("path-search", "propagate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # end through SystemExit, so running children are killed and reaped
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qaction" / "__init__.py").is_file():
        print(f"bench: no qaction package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = workloads.child_env()
    ledger = Ledger()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        measure = traced if args.trace else end_to_end
        metrics = measure(args.workload, args, env, ledger, Path(tmp))
        attempted, failed, correct = ledger.check()
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
