"""Machine-checking harness for the model-structure axioms and claims.

A :class:`Universe` fixes the object supply: exhaustive enumeration of every
canonical object over a small window, or seeded sampling, either with
optional cofinite members.  Each named check runs a predicate over all (or
sampled) tuples from that supply and returns a :class:`CheckResult` with
minimized, replayable counterexamples; a :class:`Report` bundles a suite.

Axioms, claims and the universal-fibration check of ``univalence`` share
one runner, ``run_suite``.  An exhaustive universe is enumerated once per
call, and a check with a premise decides the arrow, w and f facts and the
product and coproduct of each pair once, and runs its predicate only on the
tuples its premise admits.  A premise reads the facts its conclusion reads
too: two-of-three the three w facts, base change the f fact of the
product, cobase change the w fact into the coproduct.  A
sampled universe is drawn once per call, as one seeded stream held as
indices into its distinct objects, and each check decides a tuple it meets
again once; a draw with too many distinct objects to hold is drawn afresh
by each check instead.  Identical universe and seed always produce the
identical report, and the machine serialization is byte-stable.

Checks are pure and independent, so they are safe to run concurrently;
the built-in runner is sequential to keep reports trivially reproducible.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from .kernel import (
    Family,
    Obj,
    SizeGuardError,
    StarTemplate,
    arrow_exists,
    coproduct,
    fibration_condition,
    fibration_condition_enumerated,
    fibration_gap,
    label_f,
    label_verdict,
    label_w,
    normalize,
    product,
)
from .nset import EMPTY, MAX_ELEMENT, NSet
from .vobj import VObj, arrow_into_vobj, check_factorization, exp_explicit, wexp_member

MAX_RECORDED_VIOLATIONS = 25
# A sampled universe draws this many tuples per check at most; the largest
# pinned scale (the acceptance gate's) draws 10,000.
MAX_SAMPLES = 1_000_000
# A suite call on a sampled universe holds its draw of width x samples
# objects (width the largest picked arity, 4 at most) as two bytes per draw,
# indexing at most MAX_HELD distinct objects; a draw with more is dropped
# and each check draws its own stream instead.  Each check remembers the
# verdicts of its MAX_HELD most recent distinct tuples.  So a call holds at
# most about 8 x samples bytes plus a few MiB, at any window.
MAX_HELD = 4096


@dataclass(frozen=True)
class Universe:
    """An object supply: ``samples == 0`` means exhaustive enumeration."""

    window: int
    include_cofinite: bool = False
    samples: int = 0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.window < 0 or self.samples < 0:
            raise ValueError("window and samples are non-negative")
        if self.window > MAX_ELEMENT + 1:
            raise SizeGuardError(
                f"window {self.window} would draw elements above MAX_ELEMENT = {MAX_ELEMENT}"
            )
        if self.samples > MAX_SAMPLES:
            raise SizeGuardError(f"samples {self.samples} exceed MAX_SAMPLES = {MAX_SAMPLES}")

    @property
    def is_exhaustive(self) -> bool:
        return self.samples == 0

    def to_json_dict(self) -> dict[str, object]:
        return {
            "window": self.window,
            "include_cofinite": self.include_cofinite,
            "mode": "exhaustive" if self.is_exhaustive else "sampled",
            "samples": self.samples,
            "seed": self.seed,
        }


def _guard(u: Universe) -> None:
    # Both limits give 19 objects; the next window up gives 167 (finite W4,
    # cofinite W3).
    limit = 2 if u.include_cofinite else 3
    if u.is_exhaustive and u.window > limit:
        members = "cofinite" if u.include_cofinite else "finite"
        raise SizeGuardError(
            f"exhaustive enumeration with {members} members is limited to window {limit},"
            f" got {u.window}"
        )


def enumerate_objects(u: Universe) -> list[Obj]:
    """Every canonical object whose members are supported inside the window.

    Members are the nonempty finite subsets of ``range(window)``, plus, with
    ``include_cofinite``, every cofinite set whose holes lie in the window.
    """
    _guard(u)
    subsets = [
        combo
        for size in range(u.window + 1)
        for combo in itertools.combinations(range(u.window), size)
    ]
    ground = [NSet.fin(combo) for combo in subsets[1:]]
    if u.include_cofinite:
        ground += [NSet.cofin(holes) for holes in subsets]
    out: list[Obj] = []

    def extend(prefix: list[NSet], start: int) -> None:
        out.append(normalize(prefix))
        for i in range(start, len(ground)):
            g = ground[i]
            if any(g.is_subset(p) or p.is_subset(g) for p in prefix):
                continue
            prefix.append(g)
            extend(prefix, i + 1)
            prefix.pop()

    extend([], 0)
    return out


def _draw_nset(rng: random.Random, u: Universe) -> NSet:
    support = tuple(i for i in range(u.window) if rng.random() < 0.5)
    if u.include_cofinite and rng.random() < 0.25:
        return NSet.cofin(support)
    return NSet.fin(support)


def _draw_object(rng: random.Random, u: Universe) -> Obj:
    count = 1  # geometric with mean 2
    while rng.random() < 0.5:
        count += 1
    return normalize(_draw_nset(rng, u) for _ in range(count))


def universe_objects(u: Universe) -> list[Obj]:
    """The enumerated objects, or the ``samples`` objects drawn from ``seed``."""
    return [x for (x,) in instance_tuples(u, 1)]


def instance_tuples(u: Universe, arity: int) -> Iterator[tuple[Obj, ...]]:
    """The instance stream for a check of the given arity, in fixed order."""
    if u.is_exhaustive:
        yield from itertools.product(enumerate_objects(u), repeat=arity)
    else:
        rng = random.Random(u.seed)
        for _ in range(u.samples):
            yield tuple(_draw_object(rng, u) for _ in range(arity))


# -- results -----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    objects: tuple[Obj, ...]
    detail: str

    def to_json_dict(self) -> dict[str, object]:
        return {
            "objects": [o.to_json_dict() for o in self.objects],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    violations: tuple[Violation, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict[str, object]:
        # elapsed is deliberately omitted: reports must be byte-stable.
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": [v.to_json_dict() for v in self.violations],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class Report:
    universe: Universe
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "universe": self.universe.to_json_dict(),
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
        }

    def machine_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def human_text(self) -> str:
        u = self.universe.to_json_dict()
        lines = [
            "universe: window={window} cofinite={include_cofinite} mode={mode}"
            " samples={samples} seed={seed}".format(**u)
        ]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{tag}] {c.name}: {c.instances} instances,"
                f" {len(c.violations)} violations, {c.elapsed:.3f}s"
            )
            for v in c.violations[:3]:
                objs = "; ".join(str(o) for o in v.objects)
                lines.append(f"    {v.detail}  [{objs}]")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# -- counterexample minimization ----------------------------------------------

Predicate = Callable[[tuple[Obj, ...]], "str | None"]


def _shrink_candidates(ob: Obj) -> Iterator[Obj]:
    nonempty = [m for m in ob.members if m != EMPTY]
    for m in nonempty:  # drop a member
        yield normalize(mm for mm in ob.members if mm != m)
    for m in nonempty:  # shrink a support
        for e in m.support:
            slim = (NSet.cofin if m.cofinite else NSet.fin)(s for s in m.support if s != e)
            yield normalize(slim if mm == m else mm for mm in ob.members)


def shrink_tuple(objs: tuple[Obj, ...], violates: Predicate) -> tuple[Obj, ...]:
    """Greedy minimization: drop members and shrink supports while the
    violation predicate keeps firing."""
    cur = list(objs)
    for _ in range(100):
        for i, ob in enumerate(cur):
            for cand in _shrink_candidates(ob):
                if cand == ob:
                    continue
                trial = cur[:i] + [cand] + cur[i + 1 :]
                if violates(tuple(trial)) is not None:
                    cur = trial
                    break
            else:
                continue
            break
        else:
            break
    return tuple(cur)


# -- relation tables and premises ----------------------------------------------

# A premise takes the tables (A, W, F, P, C) of an enumerated universe and
# yields the index tuples on which its predicate can fire, perhaps with some
# on which it cannot, in the order of ``itertools.product``.  Each reads only
# facts its predicate reads, the conclusion's among them; a tuple whose
# product or coproduct is not enumerated is yielded.
Rows = list[int]
Table = list[list[int | None]]
Relations = tuple[Rows, Rows, Rows, Table, Table]
Premise = Callable[[Rows, Rows, Rows, Table, Table], Iterator[tuple[int, ...]]]


def _relations(objs: Sequence[Obj]) -> Relations:
    """The pair facts of the enumerated objects ``objs``.

    The facts are three lists of int bitset rows, ``(A, W, F)``: bit ``j``
    of ``A[i]`` is set when ``arrow_exists(objs[i], objs[j])``, and ``W``
    and ``F`` hold ``label_w`` and ``label_f`` the same way.  Two index
    tables follow, ``(P, C)``: ``P[i][j]`` is the index of
    ``product(objs[i], objs[j])`` in ``objs``, or ``None`` when the product
    is not enumerated, and ``C`` holds ``coproduct`` the same way.  Both
    are symmetric on canonical objects, so each is computed on half the
    pairs.  Each fact is decided once.
    """
    rows = tuple(
        [sum(1 << j for j, y in enumerate(objs) if fact(x, y)) for x in objs]
        for fact in (arrow_exists, label_w, label_f)
    )
    index = {ob: i for i, ob in enumerate(objs)}
    tables = []
    for op in (product, coproduct):
        table: Table = [[None] * len(objs) for _ in objs]
        for i, x in enumerate(objs):
            for j in range(i, len(objs)):
                table[i][j] = table[j][i] = index.get(op(x, objs[j]))
        tables.append(table)
    return (*rows, *tables)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _premise_m1(
    A: Rows, W: Rows, F: Rows, P: Table, C: Table
) -> Iterator[tuple[int, ...]]:
    # Both squares need arrow(x, w), arrow(y, z), f(w, z) and no arrow(y, w);
    # the first needs w(x, y), the second arrow(x, y).  On canonical objects
    # this yields nothing: f is is_iso, so z == w, and then arrow(y, z)
    # contradicts not arrow(y, w).
    for x in range(len(A)):
        for y in _bits(A[x] | W[x]):
            for w in _bits(A[x] & ~A[y]):
                for z in _bits(A[y] & F[w]):
                    yield x, y, w, z


def _premise_arrow(
    A: Rows, W: Rows, F: Rows, P: Table, C: Table
) -> Iterator[tuple[int, ...]]:
    # Both factorization checks start from arrow(x, y).
    for x in range(len(A)):
        for y in _bits(A[x]):
            yield x, y


def _premise_m5(
    A: Rows, W: Rows, F: Rows, P: Table, C: Table
) -> Iterator[tuple[int, ...]]:
    # Two-of-three fails only on a composable pair, arrow(x, y) and
    # arrow(y, z), whose three w facts hold exactly twice: with w(x, y), one
    # of w(y, z) and w(x, z); without it, both.
    for x in range(len(A)):
        for y in _bits(A[x]):
            exactly_two = W[y] ^ W[x] if W[x] >> y & 1 else W[y] & W[x]
            for z in _bits(A[y] & exactly_two):
                yield x, y, z


def _premise_base_change(
    A: Rows, W: Rows, F: Rows, P: Table, C: Table
) -> Iterator[tuple[int, ...]]:
    # The square is f(y, z) and arrow(x, z); it fails only without
    # f(x * y, x).
    for x in range(len(A)):
        for y in range(len(A)):
            p = P[x][y]
            if p is not None and F[p] >> x & 1:
                continue
            for z in _bits(F[y] & A[x]):
                yield x, y, z


def _premise_cobase_change(
    A: Rows, W: Rows, F: Rows, P: Table, C: Table
) -> Iterator[tuple[int, ...]]:
    # On (x, z, y), the span is w(x, z) and arrow(x, y); it fails only
    # without w(y, z + y).
    for x in range(len(A)):
        for z in _bits(W[x]):
            for y in _bits(A[x]):
                c = C[z][y]
                if c is None or not W[y] >> c & 1:
                    yield x, z, y


# -- presentation variants for the retract / iso checks ------------------------


def iso_presentations(x: Obj) -> list[tuple[NSet, ...]]:
    """Non-canonical families with mutual arrows to ``x``."""
    out: list[tuple[NSet, ...]] = []
    nonempty = [m for m in x.members if m != EMPTY]
    if nonempty:
        out.append(tuple(nonempty))  # drop the empty member
        out.append(x.members + (nonempty[-1].drop_least(),))  # add a dominated member
    out.append(x.members + (x.members[-1],))  # duplicate a member
    return out


def _iso_invariance_detail(
    pair: tuple[Obj, ...], template: StarTemplate = StarTemplate.SOURCE_MINUS_TARGET
) -> str | None:
    x, y = pair
    base = label_verdict(x, y, template)
    for px in [x.members, *iso_presentations(x)]:
        for py in [y.members, *iso_presentations(y)]:
            got = label_verdict(px, py, template)
            if got != base:
                return (
                    "verdict changed under an isomorphic presentation: "
                    f"{base.to_json_dict()} vs {got.to_json_dict()} at "
                    f"[{', '.join(str(m) for m in px)}] -> "
                    f"[{', '.join(str(m) for m in py)}]"
                )
    return None


# -- axiom predicates ----------------------------------------------------------


def _pred_m1(t: tuple[Obj, ...]) -> str | None:
    x, y, w, z = t
    if (
        label_w(x, y)
        and label_f(w, z)
        and arrow_exists(x, w)
        and arrow_exists(y, z)
        and not arrow_exists(y, w)
    ):
        return "no diagonal for a trivial-cofibration / fibration square"
    if (
        arrow_exists(x, y)
        and label_w(w, z)
        and label_f(w, z)
        and arrow_exists(x, w)
        and arrow_exists(y, z)
        and not arrow_exists(y, w)
    ):
        return "no diagonal for a cofibration / trivial-fibration square"
    return None


def _pred_m2_wc_f(t: tuple[Obj, ...]) -> str | None:
    x, y = t
    if not arrow_exists(x, y):
        return None
    fc = check_factorization(x, y)
    if fc.ok:
        return None
    return (
        f"factorization facts failed: into={fc.arrow_into_middle} "
        f"star={fc.star_back_to_source} fib={fc.fibration_instances_ok}"
    )


def _pred_m2_c_wf(t: tuple[Obj, ...]) -> str | None:
    x, y = t
    if arrow_exists(x, y) and not (label_w(y, y) and label_f(y, y)):
        return "identity tail of the cofibration factorization is not (wf)"
    return None


def _pred_m5(t: tuple[Obj, ...]) -> str | None:
    x, y, z = t
    if not (arrow_exists(x, y) and arrow_exists(y, z)):
        return None
    ws = (label_w(x, y), label_w(y, z), label_w(x, z))
    if sum(ws) >= 2 and not all(ws):
        return f"two-of-three failed: (w) flags are {ws}"
    return None


def _pred_base_change(t: tuple[Obj, ...]) -> str | None:
    x, y, z = t
    if label_f(y, z) and arrow_exists(x, z) and not label_f(product(x, y), x):
        return "pullback of a fibration is not a fibration"
    return None


def _pred_cobase_change(t: tuple[Obj, ...]) -> str | None:
    x, z, y = t
    if label_w(x, z) and arrow_exists(x, y) and not label_w(y, coproduct(z, y)):
        return "pushout of a trivial cofibration is not one"
    return None


def _pred_iso_literal_star(t: tuple[Obj, ...]) -> str | None:
    return _iso_invariance_detail(t, StarTemplate.TARGET_MINUS_SOURCE)


# -- claim predicates -----------------------------------------------------------


def _pred_wcf_reverse(t: tuple[Obj, ...]) -> str | None:
    x, y = t
    if label_w(x, y) and label_f(x, y) and not arrow_exists(y, x):
        return "a (wcf) arrow without its reverse arrow"
    return None


def _fin_only(fams: Iterable[Family]) -> bool:
    return not any(m.cofinite for fam in fams for m in fam)


def _pred_f_reduction(t: tuple[Obj, ...]) -> str | None:
    x, y = t
    gap = fibration_gap(x, y)
    reduced = fibration_condition(x, y)
    if (gap is None) != reduced:
        return "definitional and reduced fibration deciders disagree"
    if gap is not None and not gap.defeats(x):
        return "gap witness does not defeat the source family"
    if _fin_only((x, y)):
        if fibration_condition_enumerated(x, y) != reduced:
            return "enumerating decider disagrees on a finite-only pair"
    return None


def _pred_claim_products_weq(t: tuple[Obj, ...]) -> str | None:
    z, b, c = t
    whole = label_w(product(z, b), product(z, c))
    membered = all(wexp_member(b, c, m) for m in z)
    if whole != membered:
        return f"member criterion {membered} but whole-family (w) is {whole}"
    return None


def _pred_exp_representability(t: tuple[Obj, ...]) -> str | None:
    d, b, c = t
    through_exp = arrow_exists(d, exp_explicit(b, c))
    through_product = arrow_exists(product(d, b), c)
    through_vobj = arrow_into_vobj(d, VObj.exp(b, c))
    if not (through_exp == through_product == through_vobj):
        return (
            f"exponential not representing: exp={through_exp} "
            f"product={through_product} vobj={through_vobj}"
        )
    return None


def _pred_wexp_representability(t: tuple[Obj, ...]) -> str | None:
    z0, a, b0, c0 = t
    # project everything into the slice over a so the construction applies
    z, b, c = product(z0, a), product(b0, a), product(c0, a)
    via_vobj = arrow_into_vobj(z, VObj.wexp(a, b, c))
    zb, zc = product(z, b), product(z, c)
    via_hom = arrow_exists(z, a) and arrow_exists(zb, c) and label_w(zb, zc)
    if via_vobj != via_hom:
        return f"weq classifier disagrees with hom-set criterion: {via_vobj} vs {via_hom}"
    return None


def _pred_limits_universal(t: tuple[Obj, ...]) -> str | None:
    x, y, z = t
    p = product(x, y)
    if not (arrow_exists(p, x) and arrow_exists(p, y)):
        return "product lost a projection"
    if (arrow_exists(z, x) and arrow_exists(z, y)) != arrow_exists(z, p):
        return "product universal property failed"
    s = coproduct(x, y)
    if not (arrow_exists(x, s) and arrow_exists(y, s)):
        return "coproduct lost an injection"
    if (arrow_exists(x, z) and arrow_exists(y, z)) != arrow_exists(s, z):
        return "coproduct universal property failed"
    return None


# A suite row: a check's arity, its predicate, and the premise that picks
# its tuples on an enumerated universe (``None``: every tuple).
Check = tuple[int, Predicate, "Premise | None"]

# Retracts collapse to isomorphisms in a posetal category, so closure under
# retracts is closure under isomorphic presentations: RETRACT_CLOSURE and
# ISO_INVARIANCE share one predicate, and a suite run decides it once.
_AXIOMS: dict[str, Check] = {
    "M1_LIFTING": (4, _pred_m1, _premise_m1),
    "M2_FACTOR_WC_F": (2, _pred_m2_wc_f, _premise_arrow),
    "M2_FACTOR_C_WF": (2, _pred_m2_c_wf, _premise_arrow),
    "M5_TWO_OF_THREE": (3, _pred_m5, _premise_m5),
    "BASE_CHANGE_F": (3, _pred_base_change, _premise_base_change),
    "COBASE_CHANGE_WC": (3, _pred_cobase_change, _premise_cobase_change),
    "RETRACT_CLOSURE": (2, _iso_invariance_detail, None),
    "ISO_INVARIANCE": (2, _iso_invariance_detail, None),
}

# The opt-in diagnostic: ISO_INVARIANCE under the target-minus-source star
# template, which is expected to produce counterexamples.
_LITERAL_STAR: dict[str, Check] = {"ISO_INVARIANCE": (2, _pred_iso_literal_star, None)}

_CLAIMS: dict[str, Check] = {
    "WCF_REVERSE": (2, _pred_wcf_reverse, None),
    "F_REDUCTION": (2, _pred_f_reduction, None),
    "CLAIM5": (3, _pred_claim_products_weq, None),
    "EXP_REPRESENTABILITY": (3, _pred_exp_representability, None),
    "WEXP_REPRESENTABILITY": (4, _pred_wexp_representability, None),
    "LIMITS_UNIVERSAL": (3, _pred_limits_universal, None),
}

AXIOM_NAMES: tuple[str, ...] = tuple(_AXIOMS)
CLAIM_NAMES: tuple[str, ...] = tuple(_CLAIMS)


def _violation(pred: Predicate, tup: tuple[Obj, ...]) -> Violation | None:
    """The shrunk violation of ``pred`` on ``tup``, or ``None``."""
    detail = pred(tup)
    if detail is None:
        return None
    small = shrink_tuple(tup, pred)
    return Violation(objects=small, detail=pred(small) or detail)


def run_suite(u: Universe, table: dict[str, Check], names: Sequence[str] | None) -> Report:
    """Run the named checks of ``table`` (all by default) in order.

    The names are checked before any work.  Tuples are read as indices into
    one per-call list ``objs``.  An exhaustive universe is enumerated into
    it once; a check runs its predicate on the tuples its premise admits,
    or on every tuple, and ``instances`` counts every tuple of the universe,
    since the others cannot violate it.  The relation tables, ``(A, W, F)``
    of the arrow, w and f facts and ``(P, C)`` of the product and coproduct
    indices, are built by the first check with a premise, which is charged
    their time.  A premise that reads a product or coproduct yields every
    tuple whose result is not among ``objs``.  A sampled
    universe is drawn once, by the first check, which is charged the draw:
    ``instance_tuples`` at the largest picked arity, its distinct objects
    interned into ``objs`` and the stream kept as their indices.  An arity-k
    check reads the first ``k * samples`` draws in chunks of k, which are
    the tuples ``instance_tuples(u, k)`` yields, and a tuple it meets again
    while remembered is not decided or shrunk again, but still recorded at
    every occurrence.  A draw with more than ``MAX_HELD`` distinct objects
    is not held: each check then streams ``instance_tuples`` itself.
    Each check records its first ``MAX_RECORDED_VIOLATIONS`` violations and
    stops there.  Each distinct predicate runs once; a check that shares it
    reports the same result under its own name, with no time charged to it.
    """
    picked = tuple(table) if names is None else tuple(names)
    if not picked:
        raise ValueError("no checks selected")
    for name in picked:
        if name not in table:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(table)}")
    objs = enumerate_objects(u) if u.is_exhaustive else []
    relations = functools.cache(lambda: _relations(objs))

    def at(index: tuple[int, ...]) -> tuple[Obj, ...]:
        return tuple(objs[i] for i in index)

    @functools.cache
    def draws() -> array[int] | None:
        width = max(table[name][0] for name in picked)
        seen: dict[Obj, int] = {}
        stream = array("H")
        for ob in itertools.chain.from_iterable(instance_tuples(u, width)):
            i = seen.setdefault(ob, len(seen))
            if i == MAX_HELD:
                return None
            stream.append(i)
        objs.extend(seen)
        return stream

    done: dict[Predicate, CheckResult] = {}
    checks = []
    for name in picked:
        arity, pred, premise = table[name]
        if pred in done:
            checks.append(replace(done[pred], name=name, elapsed=0.0))
            continue
        start = time.perf_counter()
        decide = functools.partial(_violation, pred)
        if u.is_exhaustive:
            every = itertools.product(range(len(objs)), repeat=arity)
            index = premise(*relations()) if premise else every
            found = map(decide, map(at, index))
            instances = len(objs) ** arity
        elif (stream := draws()) is None:  # too many distinct objects to hold
            found = map(decide, instance_tuples(u, arity))
            instances = u.samples
        else:
            # a sampled stream repeats its tuples; exhaustive ones are distinct
            memo = functools.lru_cache(MAX_HELD)(lambda t: decide(at(t)))
            found = map(memo, zip(*[itertools.islice(stream, arity * u.samples)] * arity))
            instances = u.samples
        violations: list[Violation] = []
        for v in found:
            if v is not None:
                violations.append(v)
                if len(violations) == MAX_RECORDED_VIOLATIONS:
                    break
        elapsed = time.perf_counter() - start
        done[pred] = CheckResult(name, instances, tuple(violations), elapsed)
        checks.append(done[pred])
    return Report(universe=u, checks=tuple(checks))


def check_axiom(name: str, u: Universe, *, literal_star: bool = False) -> CheckResult:
    """Run one named axiom check over the universe."""
    return run_axioms(u, [name], literal_star=literal_star).checks[0]


def check_claim(name: str, u: Universe) -> CheckResult:
    """Run one named claim check over the universe."""
    return run_claims(u, [name]).checks[0]


def run_axioms(
    u: Universe,
    names: Sequence[str] | None = None,
    *,
    literal_star: bool = False,
) -> Report:
    """Run the named axiom checks (all by default) in order.

    ``literal_star`` switches ISO_INVARIANCE to the target-minus-source
    star template.
    """
    return run_suite(u, {**_AXIOMS, **_LITERAL_STAR} if literal_star else _AXIOMS, names)


def run_claims(u: Universe, names: Sequence[str] | None = None) -> Report:
    """Run the named claim checks (all by default) in order."""
    return run_suite(u, _CLAIMS, names)
