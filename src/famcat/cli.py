"""Command-line front end.

Every verb maps to one library operation or one check suite.  Object
arguments accept either a file path or an inline JSON literal; a literal
with a ``vkind`` key denotes a virtual object.  Exit status: 0 when all
requested facts hold or checks pass, 1 when a verdict is false or a check
fails, 2 on parse errors, 3 on an undecided virtual-object pair, 4 when a
size guard rejects the request (an exhaustive ``--window`` past its limit, a
``--window`` that would draw elements above ``MAX_ELEMENT``, ``--samples``
above ``MAX_SAMPLES``, or an exponential with more than ``MAX_PARTIALS``
partial intersections), and 141 (128 + SIGPIPE), with no
message, when the reader of stdout goes away before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .harness import MAX_SAMPLES, Report, SizeGuardError, Universe, run_axioms, run_claims
from .kernel import Obj, arrow_exists, coproduct, product
from .univalence import Fibration, is_p_small, is_small, is_univalent, sample_fibrations
from .vobj import UndecidedPairError, VObj, check_factorization, decide, exp_explicit


def _machine(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """JSON object hook: a key given twice is an error, not last-one-wins."""
    data: dict[str, object] = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r} in a JSON object")
        data[key] = value
    return data


def load_input(text: str) -> Obj | VObj:
    """Parse an object or virtual object from an inline literal or a file."""
    raw = text.strip()
    if not raw.startswith("{"):
        raw = Path(text).read_text()
    try:
        data = json.loads(raw, object_pairs_hook=_unique_keys)
        if isinstance(data, dict) and "vkind" in data:
            return VObj.from_json_dict(data)
        return Obj.from_json_dict(data)
    except RecursionError:
        # a parse error, not a crash that would exit 1 like a false verdict
        raise ValueError("the literal is nested too deeply") from None


def _universe(args: argparse.Namespace) -> Universe:
    """The universe named by the ``--window/--cofinite/--samples/--seed`` options."""
    return Universe(
        window=args.window,
        include_cofinite=args.cofinite,
        samples=args.samples,
        seed=args.seed,
    )


def _load_obj(text: str) -> Obj:
    loaded = load_input(text)
    if not isinstance(loaded, Obj):
        raise ValueError("this argument needs an explicit object, not a virtual one")
    return loaded


# -- decide -------------------------------------------------------------------


def cmd_decide(args: argparse.Namespace) -> int:
    holds, verdict = decide(load_input(args.src), load_input(args.dst), args.label)
    payload: dict[str, object] = {"label": args.label, "holds": holds}
    if verdict is not None:
        payload["verdict"] = verdict.to_json_dict()
    if args.format == "machine":
        print(_machine(payload))
    else:
        if verdict is not None:
            facts = verdict.to_json_dict().items()
            print(" ".join(f"{k}={str(v).lower()}" for k, v in facts))
        print(f"{args.label}: {str(holds).lower()}")
    return 0 if holds else 1


# -- constructions ------------------------------------------------------------


def cmd_product(args: argparse.Namespace) -> int:
    print(_machine(product(_load_obj(args.x), _load_obj(args.y)).to_json_dict()))
    return 0


def cmd_coproduct(args: argparse.Namespace) -> int:
    print(_machine(coproduct(_load_obj(args.x), _load_obj(args.y)).to_json_dict()))
    return 0


def cmd_exp(args: argparse.Namespace) -> int:
    print(_machine(exp_explicit(_load_obj(args.b), _load_obj(args.c)).to_json_dict()))
    return 0


def cmd_wexp(args: argparse.Namespace) -> int:
    v = VObj.wexp(_load_obj(args.a), _load_obj(args.b), _load_obj(args.c))
    if args.z is None:
        print(_machine(v.to_json_dict()))
        return 0
    holds, _ = decide(_load_obj(args.z), v, "arrow")
    print(_machine({"holds": holds, "classifier": v.to_json_dict()}))
    return 0 if holds else 1


def cmd_factorize(args: argparse.Namespace) -> int:
    x, y = _load_obj(args.src), _load_obj(args.dst)
    arrow = arrow_exists(x, y)
    fc = check_factorization(x, y)
    payload = {"arrow": arrow, **fc.to_json_dict()}
    if args.format == "machine":
        print(_machine(payload))
    else:
        print(f"arrow: {str(arrow).lower()}")
        print(f"middle: wc({x}, {y})")
        print(
            "facts: into={0} star_back={1} fibration={2} ({3} instances)".format(
                str(fc.arrow_into_middle).lower(),
                str(fc.star_back_to_source).lower(),
                str(fc.fibration_instances_ok).lower(),
                fc.instances,
            )
        )
    return 0 if arrow and fc.ok else 1


# -- univalence and smallness ---------------------------------------------------


def cmd_univalence(args: argparse.Namespace) -> int:
    if (args.total is None) != (args.base is None):
        raise ValueError("--total and --base go together")
    if args.total is not None:
        q = Fibration.verified(_load_obj(args.total), _load_obj(args.base))
        certs = [is_univalent(q)]
    else:
        certs = [is_univalent(q) for q in sample_fibrations(_universe(args))]
    ok = all(c.valid for c in certs)
    payload = {"certificates": [c.to_json_dict() for c in certs], "valid": ok}
    if args.format == "machine":
        print(_machine(payload))
    else:
        for c in certs:
            line = "valid" if c.valid else f"INVALID at {c.failing_step}"
            print(f"{c.total} over {c.base}: {line}")
    return 0 if ok else 1


def cmd_psmall(args: argparse.Namespace) -> int:
    q = Fibration(_load_obj(args.total), _load_obj(args.base))
    facts = {
        "is_fibration": q.is_fibration(),
        "small": is_small(q),
        "p_small": is_p_small(q),
    }
    if args.format == "machine":
        print(_machine(facts))
    else:
        for k, v in facts.items():
            print(f"{k}: {str(v).lower()}")
    return 0 if facts["p_small"] else 1


# -- suites ---------------------------------------------------------------------


def _emit_report(report: Report, args: argparse.Namespace) -> int:
    text = report.machine_json() if args.format == "machine" else report.human_text()
    print(text)
    if args.out:
        Path(args.out).write_text(report.machine_json() + "\n")
    return 0 if report.passed else 1


def _parse_checks(raw: str | None) -> list[str] | None:
    """Split ``--checks``; the suite runner rejects unknown or no names."""
    return None if raw is None else [n.strip() for n in raw.split(",") if n.strip()]


def cmd_axioms(args: argparse.Namespace) -> int:
    u = _universe(args)
    names = _parse_checks(args.checks)
    report = run_axioms(u, names, literal_star=args.diagnostic_literal_star)
    return _emit_report(report, args)


def cmd_claims(args: argparse.Namespace) -> int:
    u = _universe(args)
    return _emit_report(run_claims(u, _parse_checks(args.checks)), args)


# -- wiring ----------------------------------------------------------------------


def _add_format(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("human", "machine"), default="human")


def _add_universe(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--window", type=int, default=2)
    sp.add_argument(
        "--samples", type=int, default=0, help=f"0 means exhaustive; at most {MAX_SAMPLES}"
    )
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--cofinite", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="famcat",
        description="decision procedures and verification suites for a posetal "
        "model category of families of finite-or-cofinite sets",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("decide", help="evaluate a label on an ordered pair")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--label", choices=("arrow", "w", "f", "c"), default="arrow")
    _add_format(sp)
    sp.set_defaults(func=cmd_decide)

    for verb, func in (("product", cmd_product), ("coproduct", cmd_coproduct)):
        sp = sub.add_parser(verb, help=f"binary {verb}, normalized")
        sp.add_argument("--x", required=True)
        sp.add_argument("--y", required=True)
        sp.set_defaults(func=func)

    sp = sub.add_parser("factorize", help="verify the two-step factorization facts")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    _add_format(sp)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("exp", help="explicit exponential object")
    sp.add_argument("--b", required=True)
    sp.add_argument("--c", required=True)
    sp.set_defaults(func=cmd_exp)

    sp = sub.add_parser("wexp", help="weak-equivalence classifier of a slice")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--c", required=True)
    sp.add_argument("--z", help="decide the arrow from this object into the classifier")
    sp.set_defaults(func=cmd_wexp)

    sp = sub.add_parser("univalence", help="univalence certificates")
    sp.add_argument("--total")
    sp.add_argument("--base")
    _add_universe(sp)
    _add_format(sp)
    sp.set_defaults(func=cmd_univalence)

    sp = sub.add_parser("psmall", help="smallness facts for a fibration")
    sp.add_argument("--total", required=True)
    sp.add_argument("--base", required=True)
    _add_format(sp)
    sp.set_defaults(func=cmd_psmall)

    sp = sub.add_parser("axioms", help="run the model-structure axiom checks")
    _add_universe(sp)
    _add_format(sp)
    sp.add_argument("--checks", help="comma-separated subset of the axiom checks")
    sp.add_argument("--out", help="also write the machine report to this path")
    sp.add_argument(
        "--diagnostic-literal-star",
        action="store_true",
        help="switch ISO_INVARIANCE to the target-minus-source star template",
    )
    sp.set_defaults(func=cmd_axioms)

    sp = sub.add_parser("claims", help="run the structural claim checks")
    _add_universe(sp)
    _add_format(sp)
    sp.add_argument("--checks", help="comma-separated subset of the claim checks")
    sp.add_argument("--out", help="also write the machine report to this path")
    sp.set_defaults(func=cmd_claims)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except UndecidedPairError as exc:
        print(f"error: undecided virtual pair: {exc}", file=sys.stderr)
        return 3
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
