"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload axioms-sampled --seed 1 --seconds 28 --trace 0

Run from the repository root.  The famcat package is used from ``src``, as
checked out.  A run measures set-up in fresh interpreters, then runs the
workload in a child interpreter (see ``workloads.py``) and prints, as the
last line of stdout, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a separate traced run.  The line before it records
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from workloads import FLOOR_S, ROOT, WORKLOADS, child_env, spawn

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170

# Each probe times, inside a fresh interpreter, what a caller pays before
# the first verdict: importing famcat and building the universe's objects.
SUITE_PROBE = """\
import json, sys, time
args = json.loads(sys.argv[1])
start = time.perf_counter()
from famcat.harness import Universe, universe_objects
universe_objects(Universe(**args))
print(time.perf_counter() - start)
"""
CLI_PROBE = """\
import time
start = time.perf_counter()
import famcat.cli
print(time.perf_counter() - start)
"""


def probe(argv: list[str], env: dict[str, str]) -> tuple[float, list[float]]:
    """Set-up time, and the interpreter floor around it.

    Starts a bare ``python -c pass`` before the first probe and after each
    one.  Each probe prints the seconds it spent; that value is rescaled by
    ``FLOOR_S`` over the mean of the bare starts on either side, like the
    ``cli-cold`` invocations.  Returns the median rescaled value and the
    bare start times as measured.
    """
    floor_argv = [sys.executable, "-c", "pass"]
    floors = [spawn(floor_argv, env)[0]]
    values = []
    for _ in range(SETUP_PROBES):
        _, code, out, _ = spawn(argv, env)
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        floors.append(spawn(floor_argv, env)[0])
        values.append(float(out) * FLOOR_S / statistics.fmean(floors[-2:]))
    return statistics.median(values), floors


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description="famcat benchmark: one run of one workload")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "famcat" / "__init__.py").is_file():
        print(f"error: no famcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    if args.workload == "cli-cold" or args.trace:
        setup_s, floors = probe([sys.executable, "-c", CLI_PROBE], env)
    else:
        first = workloads.visit_order(args.workload, args.seed)[0]
        universe = json.dumps(workloads.universe_args(args.workload, first))
        setup_s, floors = probe([sys.executable, "-c", SUITE_PROBE, universe], env)
    floor = statistics.median(floors)

    child = [
        sys.executable, str(Path(workloads.__file__)),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            child, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"error: workload exited with code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if args.trace:
        metrics["cli.interpreter_s"] = floor
        metrics["cli.import_s"] = setup_s
    else:
        metrics["setup_s"] = setup_s
    units = {m["name"]: m["unit"] for m in _declared(args.trace)}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1

    env_record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "cli.interpreter_s": floor,
        "workload": args.workload,
        "seed": args.seed,
        "passes": result.get("passes"),
        "wall_verdict_s": result.get("wall_verdict_s"),
    }
    print(json.dumps({"env": env_record}))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _declared(trace: int) -> list[dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
