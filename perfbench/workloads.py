"""The famcat benchmark's workloads, run in one child interpreter per run.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and a fixed
``PYTHONHASHSEED``: NSet hashes go through string hashes, so set iteration
order, and with it the amount of work and every call count, would otherwise
change from process to process.

Workloads (one process, one thread, one at a time):

* ``axioms-sampled`` - ``run_axioms`` on sampled window-3 universes with
  cofinite members.  The heaviest real traffic: builds sets and queries
  them, and reaches every cofinite branch of ``nset``.
* ``axioms-exhaustive`` - ``run_axioms`` on all 19 finite-member window-3
  objects.  Almost all queries, finite members only, no sampling: the
  workload where relation tables and premise-first enumeration show.
* ``claims-sampled`` - ``run_claims``, then ``is_univalent`` on
  ``sample_fibrations``, then ``verify_universal``, on one sampled universe.
  The mix that builds the most, and the only one running ``univalence`` and
  the exponentials.
* ``cli-cold`` - fresh ``python -m famcat`` processes on a hand-written mix,
  closed loop, one client.  Import and argument parsing dominate; the bypass
  workload for speedups to the algebra.

A sampled workload draws from a fixed population of ``POOL`` universes
(universe seeds ``0 .. POOL-1``), each with a recorded report digest.  The
run's ``--seed`` fixes the order in which the run visits them.  A run
repeats passes until its time is up; with at least ``POOL`` passes it
covers every universe, so its figures stand for the population rather
than for one draw.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("axioms-sampled", "axioms-exhaustive", "claims-sampled", "cli-cold")
SUITES = WORKLOADS[:3]
POOL = 16
SAMPLES = {"axioms-sampled": 250, "claims-sampled": 400}
AXIOMS = (
    "M1_LIFTING", "M2_FACTOR_WC_F", "M2_FACTOR_C_WF", "M5_TWO_OF_THREE",
    "BASE_CHANGE_F", "COBASE_CHANGE_WC", "RETRACT_CLOSURE", "ISO_INVARIANCE",
)
CLAIMS = (
    "WCF_REVERSE", "F_REDUCTION", "CLAIM5", "EXP_REPRESENTABILITY",
    "WEXP_REPRESENTABILITY", "LIMITS_UNIVERSAL",
)
MIN_CLI_INVOCATIONS = 100  # so that at least ten lie beyond p90
CLI_ROUNDS = 10  # untraced in-process rounds of the mix behind cli.main_s

clock = time.perf_counter

# Time metrics are wall times rescaled to a fixed machine speed.  On a
# shared host the same pass runs up to 40 % faster or slower from one minute
# to the next, and every process slows together.
#
# * In-process work (the suites, set-up): a fixed reference loop is timed
#   every SAMPLE_PERIOD_S while a pass runs, from a timer signal in the same
#   thread, and once after it.  The pass's time, less the sampling, is
#   multiplied by REFERENCE_S / (the mean sample).  Samples are evenly
#   spaced in time, so their mean is the pass's mean slowdown.
# * Cold processes (cli-cold): a bare interpreter is started after every
#   invocation, and the invocation's time is multiplied by FLOOR_S / (the
#   mean of the bare starts on either side).  Process start-up slows
#   differently from a Python loop; a bare start tracks it closely.
REFERENCE_S = 0.01
FLOOR_S = 0.05
SAMPLE_PERIOD_S = 0.25


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop that builds and queries small sets."""
    start = clock()
    rows = [frozenset((i * 7 + j) % 11 for j in range(i % 5)) for i in range(40)]
    total = 0
    for _ in range(3):
        for a in rows:
            for b in rows:
                c = a & b
                if c <= a:
                    total += len(tuple(sorted(c | b)))
        for i in range(20000):
            total += i * i % 7
    return clock() - start


class SpeedSampler:
    """Times the reference loop from a SIGALRM handler while a pass runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = clock()
        self.samples.append(reference_s())
        self.spent += clock() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())

    def scale(self, wall_s: float) -> float:
        """``wall_s`` less the sampling, at reference speed."""
        return (wall_s - self.spent) * REFERENCE_S / statistics.fmean(self.samples)


def universe_args(workload: str, index: int) -> dict[str, object]:
    """Keyword arguments of ``Universe`` for one universe of a suite workload."""
    if workload == "axioms-exhaustive":
        return {"window": 3}
    return {"window": 3, "include_cofinite": True, "samples": SAMPLES[workload], "seed": index}


def visit_order(workload: str, seed: int) -> list[int]:
    """The universes a run visits, in order; the exhaustive universe is fixed."""
    if workload == "axioms-exhaustive":
        return [0]
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    return order


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# -- suite passes -------------------------------------------------------------


def _run_univalence(u):
    """``is_univalent`` on ``sample_fibrations``, then ``verify_universal``.

    Returns the results and the seconds each step took.
    """
    from famcat import univalence

    start = clock()
    certs = [univalence.is_univalent(q) for q in univalence.sample_fibrations(u)]
    mid = clock()
    universal = univalence.verify_universal(u)
    return certs, universal, mid - start, clock() - mid


def _univalence_ops(certs, universal, cert_s: float, universal_s: float):
    """The univalence steps as operations, and their JSON."""
    cert_json = _canonical([c.to_json_dict() for c in certs])
    universal_json = _canonical(universal.to_json_dict())
    ops = [
        ("UNIVALENCE", all(c.valid for c in certs), digest(cert_json), cert_s, len(certs)),
        (universal.name, universal.passed, digest(universal_json), universal_s, universal.instances),
    ]
    return ops, cert_json + "\n" + universal_json


def _check_op(result, seconds: float):
    return (
        result.name, result.passed, digest(_canonical(result.to_json_dict())),
        seconds, result.instances,
    )


def run_suite(workload: str, index: int):
    """The suite call(s) of one pass on one universe, and their seconds."""
    from famcat import harness

    u = harness.Universe(**universe_args(workload, index))
    start = clock()
    if workload == "claims-sampled":
        report = harness.run_claims(u)
        univalence = _run_univalence(u)
    else:
        report = harness.run_axioms(u)
        univalence = None
    return clock() - start, report, univalence


def pass_ops(report, univalence):
    """The operations of a pass as ``(name, passed, digest, seconds,
    instances)``, and the digest of the pass's whole output.  A check's
    seconds are the ``CheckResult.elapsed`` the harness measured around it.
    """
    ops = [_check_op(c, c.elapsed) for c in report.checks]
    whole = report.machine_json()
    if univalence is not None:
        extra_ops, extra_text = _univalence_ops(*univalence)
        ops += extra_ops
        whole += "\n" + extra_text
    return ops, digest(whole)


def op_failures(ops, expected: dict[str, str]) -> int:
    """Operations that failed or whose bytes differ from the recorded answer."""
    return sum(1 for name, ok, dig, _, _ in ops if not ok or expected.get(name) != dig)


def count_failures(ops, whole: str, expected: dict[str, str]) -> int:
    """Failed operations of a pass, the whole output's bytes included.

    If the whole output differs but no single operation does, every
    operation of the pass counts as failed: the mismatch cannot be pinned.
    """
    bad = op_failures(ops, expected)
    if len(ops) != len(expected) - 1 or (not bad and expected.get("report") != whole):
        return max(len(ops), len(expected) - 1)
    return bad


def _expected(workload: str) -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())[workload]


def timed_suite(workload: str, seed: int, seconds: float) -> dict[str, object]:
    expected = _expected(workload)
    order = visit_order(workload, seed)
    pass_s: dict[int, list[float]] = {}
    instances: dict[int, int] = {}
    raw_s: list[float] = []
    attempted = failed = 0
    start = clock()
    while True:
        index = order[len(raw_s) % len(order)]
        want = expected[str(index)]
        try:
            with SpeedSampler() as speed:
                took, report, univalence = run_suite(workload, index)
            ops, whole = pass_ops(report, univalence)
        except Exception:  # a crash fails every operation of the pass
            import traceback

            traceback.print_exc()
            attempted += len(want) - 1
            failed += len(want) - 1
            break
        attempted += len(ops)
        failed += count_failures(ops, whole, want)
        pass_s.setdefault(index, []).append(speed.scale(took))
        instances[index] = sum(op[4] for op in ops)
        raw_s.append(took)
        if clock() - start + statistics.median(raw_s) > seconds:
            break
    if not pass_s:
        return {"attempted": attempted, "failed": failed, "metrics": {}}
    # One value per universe, so that the universes a run happens to visit
    # twice do not weigh more than the others.
    per_universe = {index: statistics.median(times) for index, times in pass_s.items()}
    p50, p90 = _p50_p90([t * 1000 for t in per_universe.values()])
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(raw_s),
        "wall_verdict_s": statistics.median(raw_s),
        "metrics": {
            "verdict_s": statistics.median(per_universe.values()),
            "instances_per_s": statistics.median(
                instances[index] / t for index, t in per_universe.items()
            ),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


# -- cli-cold -------------------------------------------------------------------

_X = '{"members":[{"fin":[0]},{"cofin":[1,2]}]}'
_Y = '{"members":[{"fin":[0,1]},{"cofin":[2]}]}'
_WC = '{"vkind":"wc","x":{"members":[{"fin":[0]}]},"y":{"members":[{"fin":[0,1]},{"cofin":[3]}]}}'
_WC_BOUND = '{"members":[{"fin":[0,1]},{"cofin":[3]}]}'
_COFIN_TOTAL = '{"members":[{"cofin":[0]}]}'

# (name, argv, exit code, stdout), the expected values written out by hand.
CLI_MIX = (
    (
        "decide-explicit",
        ["decide", "--from", _X, "--to", _Y, "--label", "w", "--format", "machine"],
        0,
        '{"holds":true,"label":"w","verdict":{"arrow":true,"c":true,"f":false,"star":true,"w":true}}\n',
    ),
    (
        "decide-wc",
        ["decide", "--from", _WC, "--to", _WC_BOUND, "--label", "f", "--format", "machine"],
        0,
        '{"holds":true,"label":"f"}\n',
    ),
    (
        "product",
        ["product", "--x", _X, "--y", '{"members":[{"fin":[0,2]},{"cofin":[0]}]}'],
        0,
        '{"members":[{"fin":[]},{"fin":[0]},{"cofin":[0,1,2]}]}\n',
    ),
    (
        "exp",
        ["exp", "--b", '{"members":[{"fin":[0]},{"fin":[1,2]}]}', "--c", _Y],
        0,
        '{"members":[{"fin":[]},{"cofin":[2]}]}\n',
    ),
    (
        "factorize",
        ["factorize", "--from", '{"members":[{"fin":[0]}]}', "--to", _Y, "--format", "machine"],
        0,
        '{"arrow":true,"arrow_into_middle":true,"fibration_instances_ok":true,"instances":98,'
        '"star_back_to_source":true,"wc":{"vkind":"wc","x":{"members":[{"fin":[]},{"fin":[0]}]},'
        '"y":{"members":[{"fin":[]},{"cofin":[2]}]}}}\n',
    ),
    (
        "psmall",
        ["psmall", "--total", _COFIN_TOTAL, "--base", _COFIN_TOTAL, "--format", "machine"],
        1,
        '{"is_fibration":true,"p_small":false,"small":false}\n',
    ),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, int, bytes, int]:
    """Run one process to its end: seconds from spawn to exit, exit code,
    stdout, and its peak RSS in KiB."""
    start = clock()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    took = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, proc.returncode, out, usage.ru_maxrss


def timed_cli(seed: int, seconds: float) -> dict[str, object]:
    env = child_env()
    floor_argv = [sys.executable, "-c", "pass"]
    rng = random.Random(seed)
    order = list(range(len(CLI_MIX)))
    round_s: list[float] = []
    raw_s: list[float] = []
    call_ms: list[float] = []
    peak_kib = 0
    failed = 0
    floor = spawn(floor_argv, env)[0]
    start = clock()
    while clock() - start < seconds or len(call_ms) < MIN_CLI_INVOCATIONS:
        rng.shuffle(order)
        rescaled = raw = 0.0
        for k in order:
            _, argv, code, stdout = CLI_MIX[k]
            took, got_code, got_out, rss = spawn([sys.executable, "-m", "famcat", *argv], env)
            peak_kib = max(peak_kib, rss)
            failed += got_code != code or got_out != stdout.encode()
            next_floor = spawn(floor_argv, env)[0]
            call_ms.append(took * FLOOR_S / ((floor + next_floor) / 2) * 1000)
            floor = next_floor
            rescaled += call_ms[-1] / 1000
            raw += took
        round_s.append(rescaled)
        raw_s.append(raw)
    p50, p90 = _p50_p90(call_ms)
    return {
        "attempted": len(call_ms),
        "failed": failed,
        "passes": len(round_s),
        "wall_verdict_s": statistics.median(raw_s),
        "metrics": {
            "verdict_s": statistics.median(round_s),
            "instances_per_s": statistics.median(len(CLI_MIX) / s for s in round_s),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "peak_rss_mib": peak_kib / 1024,
        },
    }


def cli_round() -> tuple[float, int]:
    """The mix in process, through ``famcat.cli.main``: seconds spent in
    ``main`` and the number of calls whose exit code or stdout was wrong."""
    from famcat import cli

    total = 0.0
    failed = 0
    for _, argv, code, stdout in CLI_MIX:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = clock()
            got = cli.main(list(argv))
            total += clock() - start
        failed += got != code or buf.getvalue() != stdout
    return total, failed


# -- traced run -------------------------------------------------------------------


def per_check_pass(workload: str, index: int):
    """The suite one call at a time, untraced, each call timed and rescaled.

    Returns the operations and their wall time less the speed sampling.
    """
    from famcat import harness

    u = harness.Universe(**universe_args(workload, index))
    claims = workload == "claims-sampled"
    run_one = harness.check_claim if claims else harness.check_axiom
    ops = []
    wall_s = 0.0
    for name in CLAIMS if claims else AXIOMS:
        with SpeedSampler() as speed:
            start = clock()
            result = run_one(name, u)
            took = clock() - start
        ops.append(_check_op(result, speed.scale(took)))
        wall_s += took - speed.spent
    if claims:
        with SpeedSampler() as speed:
            certs, universal, cert_s, universal_s = _run_univalence(u)
        took = cert_s + universal_s
        share = speed.scale(took) / took
        ops.extend(_univalence_ops(certs, universal, cert_s * share, universal_s * share)[0])
        wall_s += took - speed.spent
    return ops, wall_s


def traced_run(workload: str, seed: int) -> dict[str, object]:
    import famcat
    from famcat import cli, harness, kernel, nset, univalence, vobj
    from tracer import Tracer

    layers = {
        "nset": nset, "kernel": kernel, "vobj": vobj,
        "harness": harness, "univalence": univalence, "cli": cli,
    }
    checks: dict[str, tuple[float, int]] = {}
    if workload == "cli-cold":
        cli_round()  # the first calls of main pay one-off costs; keep them out
        with SpeedSampler() as speed:
            rounds = [cli_round() for _ in range(CLI_ROUNDS)]
        took = sum(seconds for seconds, _ in rounds)
        attempted = len(CLI_MIX) * CLI_ROUNDS
        failed = sum(bad for _, bad in rounds)
        main_s = speed.scale(took) / CLI_ROUNDS
        untraced = (took - speed.spent) / CLI_ROUNDS
    else:
        index = visit_order(workload, seed)[0]
        want = _expected(workload)[str(index)]
        ops, untraced = per_check_pass(workload, index)
        attempted, failed = len(ops), op_failures(ops, want)
        checks = {name: (seconds, instances) for name, _, _, seconds, instances in ops}
        main_s = 0.0
    tracer = Tracer()
    tracer.install(layers, [famcat, *layers.values()])
    try:
        if workload == "cli-cold":
            traced, bad = cli_round()
            attempted += len(CLI_MIX)
        else:
            traced, report, univalence = run_suite(workload, index)
    finally:
        tracer.uninstall()
    if workload != "cli-cold":
        ops, whole = pass_ops(report, univalence)
        bad = count_failures(ops, whole, want)
        attempted += len(ops)
    failed += bad

    calls, self_s = tracer.calls, tracer.self_s
    m: dict[str, float] = {}
    for name in ("is_subset", "intersect"):
        m[f"nset.{name}.calls"] = calls[f"nset.{name}"]
        m[f"nset.{name}.self_s"] = self_s[f"nset.{name}"]
    for name in ("union", "difference", "construct"):
        m[f"nset.{name}.calls"] = calls[f"nset.{name}"]
    m["nset.self_s"] = tracer.layer_self_s("nset")
    for name in ("arrow_exists", "label_verdict", "normalize"):
        m[f"kernel.{name}.calls"] = calls[f"kernel.{name}"]
        m[f"kernel.{name}.self_s"] = self_s[f"kernel.{name}"]
    for name in ("label_w", "label_f", "product"):
        m[f"kernel.{name}.calls"] = calls[f"kernel.{name}"]
    m["kernel.normalize.kept_ratio"] = (
        tracer.normalize_out / tracer.normalize_in if tracer.normalize_in else 0.0
    )
    m["kernel.self_s"] = tracer.layer_self_s("kernel")
    for name in ("wc_covers", "check_factorization", "exp_explicit"):
        m[f"vobj.{name}.calls"] = calls[f"vobj.{name}"]
        m[f"vobj.{name}.self_s"] = self_s[f"vobj.{name}"]
    for name in ("arrow_into_vobj", "wexp_member"):
        m[f"vobj.{name}.calls"] = calls[f"vobj.{name}"]
    m["vobj.self_s"] = tracer.layer_self_s("vobj")
    for name in AXIOMS + CLAIMS:
        seconds, instances = checks.get(name, (0.0, 0))
        m[f"harness.check.{name}.s"] = seconds
        m[f"harness.check.{name}.instances_per_s"] = instances / seconds if seconds else 0.0
    m["harness.draw_s"] = tracer.inclusive_s["draw"]
    m["harness.shrink.calls"] = calls["harness.shrink_tuple"]
    m["harness.self_s"] = tracer.layer_self_s("harness")
    m["univalence.is_univalent.calls"] = calls["univalence.is_univalent"]
    m["univalence.is_univalent.self_s"] = self_s["univalence.is_univalent"]
    m["univalence.is_p_small.calls"] = calls["univalence.is_p_small"]
    m["univalence.verify_universal.s"] = checks.get("UNIVERSAL_FIBRATION", (0.0, 0))[0]
    m["univalence.self_s"] = tracer.layer_self_s("univalence")
    m["cli.main_s"] = main_s
    m["cli.load_input.calls"] = calls["cli.load_input"]
    m["trace.overhead_ratio"] = traced / untraced

    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "spans": tracer.span_records(),
        "calls": dict(sorted(calls.items())),
        "self_s": dict(sorted(self_s.items())),
    }))
    return {"attempted": attempted, "failed": failed, "metrics": m}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    elif args.workload == "cli-cold":
        result = timed_cli(args.seed, args.seconds)
    else:
        result = timed_suite(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
