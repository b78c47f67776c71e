"""Print every end-to-end and per-layer metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload untraced and once traced, prints one line
per metric, and optionally writes the results (with each run's environment
record) as JSON.  Exits 1 if any run fails or reports a wrong verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    results: dict[str, dict[str, object]] = {}
    ok = True
    for workload in WORKLOADS:
        results[workload] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            env, result = run(workload, args.seed, args.seconds, trace)
            results[workload][kind] = {"env": env, **result}
            ok &= result["correct"]
            print(f"# {workload} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={env['passes']} commit={env['commit'][:12]}", flush=True)
            for name, metric in result["metrics"].items():
                print(f"{workload:18s} {name:48s} {metric['value']:>16.6g} {metric['unit']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
