"""Command-line front end.

Every verb maps to one library operation or one check suite.  Object
arguments accept either a file path or an inline JSON literal; a literal
with a ``vkind`` key denotes a virtual object.  Exit status: 0 when all
requested facts hold or checks pass, 1 when a verdict is false or a check
fails, 2 on parse errors (a ``--window``, ``--samples`` or ``--seed`` that is
not ``0`` or ASCII digits with no leading zero among them), 3 on an
undecided virtual-object pair, 4 when a size guard rejects the request
(an exhaustive ``--window`` past its limit, a ``--window`` that would draw
elements above ``MAX_ELEMENT``, ``--samples`` above ``MAX_SAMPLES``, an
object literal of more than ``MAX_PARTIALS`` members besides the empty one,
a product, or an exponential step, that meets more than ``MAX_PARTIALS``
distinct sets, a coproduct that keeps more than ``MAX_PARTIALS`` non-empty
members, or a factorization check of more than ``MAX_FACTOR_INSTANCES``
instances), and 141 (128 + SIGPIPE), with no message, when the reader of
stdout goes away before the output is written.

The module imports only ``kernel`` and ``vobj`` (and through them
``nset``).  The check suites of ``harness`` and the certificates of
``univalence`` are imported by the verbs that run them, so a ``decide``,
``product``, ``coproduct``, ``exp``, ``wexp`` or ``factorize`` call never
loads them.

A verb prints nothing itself: each ``cmd_*`` returns its machine payload
(``univalence`` builds it under ``--format machine`` only), its human lines
(``None`` for ``product``, ``coproduct``, ``exp`` and ``wexp``, which print
machine JSON only) and whether its facts hold.
``main`` prints the payload as compact sorted JSON under ``--format
machine`` or when there are no human lines, and the lines otherwise, and it
maps the verdict to exit status 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .kernel import MAX_SAMPLES, Obj, SizeGuardError, arrow_exists, coproduct, product
from .vobj import _LABELS, UndecidedPairError, VObj, check_factorization, decide, exp_explicit

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .harness import Report, Universe

    # what a verb returns: its machine payload, its human lines (None when it
    # prints the machine JSON only) and whether its facts hold
    _Outcome = tuple[object, Iterable[str] | None, bool]


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
    from .harness import Universe

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


def cmd_decide(args: argparse.Namespace) -> _Outcome:
    holds, verdict = decide(load_input(args.src), load_input(args.dst), args.label)
    payload: dict[str, object] = {"label": args.label, "holds": holds}
    lines = []
    if verdict is not None:
        payload["verdict"] = facts = verdict.to_json_dict()
        lines.append(" ".join(f"{k}={v}" for k, v in facts.items()).lower())
    lines.append(f"{args.label}: {holds}".lower())
    return payload, lines, holds


# -- constructions ------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> _Outcome:
    return args.construct(_load_obj(args.x), _load_obj(args.y)).to_json_dict(), None, True


def cmd_wexp(args: argparse.Namespace) -> _Outcome:
    v = VObj.wexp(_load_obj(args.a), _load_obj(args.b), _load_obj(args.c))
    if args.z is None:
        return v.to_json_dict(), None, True
    holds, _ = decide(_load_obj(args.z), v, "arrow")
    return {"holds": holds, "classifier": v.to_json_dict()}, None, holds


def cmd_factorize(args: argparse.Namespace) -> _Outcome:
    x, y = _load_obj(args.src), _load_obj(args.dst)
    arrow = arrow_exists(x, y)
    fc = check_factorization(x, y)
    lines = [
        f"arrow: {arrow}".lower(),
        f"middle: wc({x}, {y})",
        f"facts: into={fc.arrow_into_middle} star_back={fc.star_back_to_source}"
        f" fibration={fc.fibration_instances_ok} ({fc.instances} instances)".lower(),
    ]
    return {"arrow": arrow, **fc.to_json_dict()}, lines, arrow and fc.ok


# -- univalence and smallness ---------------------------------------------------


def cmd_univalence(args: argparse.Namespace) -> _Outcome:
    from .univalence import Fibration, is_univalent, sample_fibrations

    if (args.total is None) != (args.base is None):
        raise ValueError("--total and --base go together")
    if args.total is not None:
        q = Fibration.verified(_load_obj(args.total), _load_obj(args.base))
        certs = [is_univalent(q)]
    else:
        certs = [is_univalent(q) for q in sample_fibrations(_universe(args))]
    ok = all(c.valid for c in certs)
    # each is built only in the format that prints it: the payload under
    # --format machine, and one line per certificate otherwise
    payload = None
    if args.format == "machine":
        payload = {"certificates": [c.to_json_dict() for c in certs], "valid": ok}
    lines = (
        f"{c.total} over {c.base}: " + ("valid" if c.valid else f"INVALID at {c.failing_step}")
        for c in certs
    )
    return payload, lines, ok


def cmd_psmall(args: argparse.Namespace) -> _Outcome:
    from .univalence import Fibration, is_p_small, is_small

    q = Fibration(_load_obj(args.total), _load_obj(args.base))
    facts = {"is_fibration": q.is_fibration(), "small": is_small(q), "p_small": is_p_small(q)}
    return facts, [f"{k}: {v}".lower() for k, v in facts.items()], facts["p_small"]


# -- suites ---------------------------------------------------------------------


def _emit_report(report: Report, args: argparse.Namespace) -> _Outcome:
    payload = report.to_json_dict()
    # --out is written first, so that a failed write prints no report
    if args.out:
        Path(args.out).write_text(_machine(payload) + "\n")
    return payload, [report.human_text()], report.passed


def _parse_checks(raw: str | None) -> list[str] | None:
    """Split ``--checks``; the suite runner rejects unknown or no names."""
    return None if raw is None else [n.strip() for n in raw.split(",") if n.strip()]


def cmd_axioms(args: argparse.Namespace) -> _Outcome:
    from .harness import run_axioms

    names = _parse_checks(args.checks)
    report = run_axioms(_universe(args), names, literal_star=args.diagnostic_literal_star)
    return _emit_report(report, args)


def cmd_claims(args: argparse.Namespace) -> _Outcome:
    from .harness import run_claims

    return _emit_report(run_claims(_universe(args), _parse_checks(args.checks)), args)


# -- wiring ----------------------------------------------------------------------


def _add_format(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("human", "machine"), default="human")


def _natural(text: str) -> int:
    """A canonical natural-number literal: ``0``, or ASCII digits with no leading zero.

    ``int`` alone would also take a sign, spaces, ``_`` separators, leading
    zeros and non-ASCII digits.
    """
    if not re.fullmatch("0|[1-9][0-9]*", text):
        raise argparse.ArgumentTypeError(f"not a natural-number literal: {text!r}")
    return int(text)


def _add_universe(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--window", type=_natural, default=2)
    sp.add_argument(
        "--samples", type=_natural, default=0, help=f"0 means exhaustive; at most {MAX_SAMPLES}"
    )
    sp.add_argument("--seed", type=_natural, default=42)
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
    sp.add_argument("--label", choices=_LABELS, default="arrow")
    _add_format(sp)
    sp.set_defaults(func=cmd_decide)

    for verb, construct, flags, summary in (
        ("product", product, ("--x", "--y"), "binary product, normalized"),
        ("coproduct", coproduct, ("--x", "--y"), "binary coproduct, normalized"),
        ("exp", exp_explicit, ("--b", "--c"), "explicit exponential object"),
    ):
        sp = sub.add_parser(verb, help=summary)
        for dest, flag in zip("xy", flags):
            sp.add_argument(flag, dest=dest, metavar=flag[2:].upper(), required=True)
        sp.set_defaults(func=cmd_construct, construct=construct)

    sp = sub.add_parser("factorize", help="verify the two-step factorization facts")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    _add_format(sp)
    sp.set_defaults(func=cmd_factorize)

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
        help="switch ISO_INVARIANCE to the target-minus-source star orientation",
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
        payload, lines, holds = args.func(args)
        if lines is None or args.format == "machine":
            lines = [_machine(payload)]
        for line in lines:
            print(line)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return 0 if holds else 1
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
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
