"""Machine-checking harness for the model-structure axioms and claims.

A :class:`Universe` fixes the object supply: exhaustive enumeration of every
canonical object over a small window, or seeded sampling, either with
optional cofinite members.  Each named check runs a predicate over all (or
sampled) tuples from that supply and returns a :class:`CheckResult` with
minimized, replayable counterexamples; a :class:`Report` bundles a suite.

Axioms, claims and the universal-fibration check of ``univalence`` share
one runner, ``run_suite``.  An exhaustive universe is enumerated once per
call.  The first check with a premise builds the :class:`Relations`
record, the tables of the arrow, w and f facts and of the product and
coproduct of every pair, from the columns of the objects' members and
with no decider call.  A premise is its axiom as table algebra: it yields
exactly the index tuples on which its predicate fires, in the order of
``itertools.product``, so it reads the facts of the conclusion as well as
the hypotheses, and it decides the generic axioms on any finite posetal
model given as such a record.  The predicate runs on each yielded tuple
for its detail and its shrinking.  The tables
equal the deciders' facts on every universe that :func:`enumerate_objects`
lists (the proof is in :func:`_relations`), and tier-1 compares the two on
every universe of up to 167 objects.  A
sampled universe is drawn once per call, as one seeded stream held as
indices into its distinct objects, and each check decides a tuple it meets
again once; a draw with too many distinct objects to hold is drawn afresh
by each check instead.  Every sampled object is drawn by one seeded loop,
which draws its members as signed masks and yields its index among the
stream's distinct objects.  A dict that lives only as long as the stream
interns the draws by their raw masks, and only masks it has not met are
canonicalized, so each distinct object is built once and held, up to
``MAX_HELD`` of them; no cache outlives a call.
Identical universe and seed always produce the identical report, and the
machine serialization is byte-stable.

Checks are pure and independent, so they are safe to run concurrently;
the built-in runner is sequential to keep reports trivially reproducible.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import time
from array import array
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._value import Value, _set
from .kernel import (
    Family,
    LabelVerdict,
    MAX_SAMPLES,
    Obj,
    SizeGuardError,
    _MAX_ENUMERATED_SUPPORT,
    _canonical,
    _from_maximal,
    _maximal,
    _signed_masks,
    _star,
    arrow_exists,
    coproduct,
    fibration_condition,
    fibration_condition_enumerated,
    fibration_gap,
    label_f,
    label_verdict,
    label_w,
    product,
)
from .nset import MAX_ELEMENT, NSet, _elements
from .vobj import VObj, arrow_into_vobj, check_factorization, exp_explicit, wexp_member

MAX_RECORDED_VIOLATIONS = 25
# A suite call on a sampled universe holds its draw of width x samples
# objects (width the largest picked arity, 4 at most) as two bytes per draw,
# indexing at most MAX_HELD distinct objects; a draw with more is dropped
# and each check draws its own stream instead.  Each check remembers the
# verdicts of its MAX_HELD most recent distinct tuples, and each sampled
# stream interns at most MAX_HELD drawn objects, under fewer than
# 2 x MAX_HELD keys of drawn masks, canonicalizing each new key once.  So a
# call holds at most about 8 x samples bytes plus a few MiB, at any window.
MAX_HELD = 4096


class Universe(Value):
    """An object supply: ``samples == 0`` means exhaustive enumeration."""

    __slots__ = ("window", "include_cofinite", "samples", "seed")
    window: int
    include_cofinite: bool
    samples: int
    seed: int

    def __init__(
        self, window: int, include_cofinite: bool = False, samples: int = 0, seed: int = 42
    ) -> None:
        if window < 0 or samples < 0:
            raise ValueError("window and samples are non-negative")
        if window > MAX_ELEMENT + 1:
            raise SizeGuardError(
                f"window {window} would draw elements above MAX_ELEMENT = {MAX_ELEMENT}"
            )
        if samples > MAX_SAMPLES:
            raise SizeGuardError(f"samples {samples} exceed MAX_SAMPLES = {MAX_SAMPLES}")
        _set(self, "window", window)
        _set(self, "include_cofinite", include_cofinite)
        _set(self, "samples", samples)
        _set(self, "seed", seed)

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
    masks = [
        sum(1 << e for e in combo)
        for size in range(u.window + 1)
        for combo in itertools.combinations(range(u.window), size)
    ]
    ground = masks[1:]  # signed masks: the non-empty finite ones, then ~holes
    if u.include_cofinite:
        ground += [~holes for holes in masks]
    out: list[Obj] = []

    def extend(prefix: list[int], start: int) -> None:
        out.append(_from_maximal(prefix))
        for i in range(start, len(ground)):
            g = ground[i]
            if any(not g & ~p or not p & ~g for p in prefix):
                continue
            prefix.append(g)
            extend(prefix, i + 1)
            prefix.pop()

    extend([], 0)
    return out


def _draw_object(
    rng: random.Random,
    bits: tuple[int, ...],
    cofinite: bool,
    held: dict[int | frozenset[int], int],
    objs: list[Obj],
) -> int:
    """One sampled object, as its index in ``objs``: a geometric number of
    members, each a signed mask holding each of the window's ``bits`` with
    probability 1/2, then, if ``cofinite``, complemented with probability 1/4.

    The draw is looked up in ``held`` by its raw masks, the one mask or
    their frozenset.  Only new ones are canonicalized, and looked up again
    by their maximal masks, keyed the same way (a non-empty antichain is
    its own key).  A new object is appended and keyed while fewer than
    ``MAX_HELD`` are held; past them it takes the spare slot
    ``objs[MAX_HELD]``, unkeyed.  The raw masks are keyed too while
    ``held`` has fewer than ``MAX_HELD`` keys, so never to the spare slot.
    """
    random = rng.random
    count = 1  # geometric with mean 2
    while random() < 0.5:
        count += 1
    masks = []
    for _ in range(count):
        mask = 0
        for b in bits:
            if random() < 0.5:
                mask |= b
        if cofinite and random() < 0.25:
            mask = ~mask
        masks.append(mask)
    key = masks[0] if count == 1 else frozenset(masks)
    i = held.get(key)
    if i is None:
        keep = _maximal(masks)
        canon = keep[0] if len(keep) == 1 else frozenset(keep)
        i = held.get(canon)
        if i is None:
            i = len(objs)
            if i < MAX_HELD:
                held[canon] = i
                objs.append(_from_maximal(keep))
            else:
                i = MAX_HELD
                objs[MAX_HELD:] = [_from_maximal(keep)]
        if len(held) < MAX_HELD:
            held[key] = i
    return i


def _draws(u: Universe, n: int, objs: list[Obj]) -> Iterator[int]:
    """The first ``n`` draws of the seeded stream of ``u``, as indices into
    ``objs``, which holds each distinct object once (see :func:`_draw_object`)."""
    rng = random.Random(u.seed)
    bits = tuple(1 << e for e in range(u.window))
    held: dict[int | frozenset[int], int] = {}
    for _ in range(n):
        yield _draw_object(rng, bits, u.include_cofinite, held, objs)


def universe_objects(u: Universe) -> list[Obj]:
    """The enumerated objects, or the ``samples`` objects drawn from ``seed``."""
    return [x for (x,) in instance_tuples(u, 1)]


def instance_tuples(u: Universe, arity: int) -> Iterator[tuple[Obj, ...]]:
    """The instance stream for a check of the given arity, in fixed order.

    A sampled stream builds each distinct object once, as :func:`_draws`
    does, holding at most ``MAX_HELD`` of them while the stream lives.
    """
    if u.is_exhaustive:
        yield from itertools.product(enumerate_objects(u), repeat=arity)
    else:
        objs: list[Obj] = []
        # each object is read as it is drawn, since the next draw may reuse its slot
        drawn = map(objs.__getitem__, _draws(u, arity * u.samples, objs))
        yield from zip(*[drawn] * arity)


# -- results -----------------------------------------------------------------


class Violation(Value):
    __slots__ = ("objects", "detail")
    objects: tuple[Obj, ...]
    detail: str

    def to_json_dict(self) -> dict[str, object]:
        return {
            "objects": [o.to_json_dict() for o in self.objects],
            "detail": self.detail,
        }


class CheckResult(Value):
    __slots__ = ("name", "instances", "violations", "elapsed")
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


class Report(Value):
    __slots__ = ("universe", "checks")
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
    """None equals ``ob``: each candidate lacks one of its non-empty members."""
    rest = ob._signed[1:]  # the empty member comes first in an Obj
    for s in rest:  # drop a member
        yield _from_maximal([t for t in rest if t != s])
    for s in rest:  # shrink a support: flipping bit e drops element or hole e
        others = [t for t in rest if t != s]
        for e in _elements(~s if s < 0 else s):
            yield _canonical([*others, s ^ 1 << e])


def shrink_tuple(objs: tuple[Obj, ...], violates: Predicate) -> tuple[Obj, ...]:
    """Greedy minimization: drop members and shrink supports while the
    violation predicate keeps firing."""
    cur = list(objs)
    for _ in range(100):
        for i, ob in enumerate(cur):
            for cand in _shrink_candidates(ob):
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


class Relations(NamedTuple):
    """The relation tables of a finite posetal model on the objects ``0 .. n-1``.

    ``arrow``, ``w`` and ``f`` are int bitset rows: bit ``j`` of ``arrow[i]``
    is set when there is an arrow ``i -> j``, and ``w`` and ``f`` hold those
    labels the same way.  ``product[i][j]`` and ``coproduct[i][j]`` are the
    indices of the product and the coproduct of ``i`` and ``j``.  A premise
    takes this record and yields exactly the index tuples on which its
    predicate fires, in the order of ``itertools.product``.
    """

    arrow: list[int]
    w: list[int]
    f: list[int]
    product: list[list[int]]
    coproduct: list[list[int]]


def _union(rows: Iterable[int]) -> int:
    return functools.reduce(operator.or_, rows, 0)


def _relations(objs: Sequence[Obj]) -> Relations:
    """The relation tables of an exhaustive universe ``objs``, from member columns.

    In the record ``(A, W, F, P, C)``, bit ``j`` of ``A[i]`` is set when
    ``arrow_exists(objs[i], objs[j])``, and ``W`` and ``F`` hold ``label_w``
    and ``label_f`` the same way.  ``P[i][j]`` is the index of
    ``product(objs[i], objs[j])`` in ``objs``, and ``C`` holds ``coproduct``
    the same way.  No decider is called; the
    tables equal the deciders' facts on every universe that
    :func:`enumerate_objects` lists, by this argument:

    * ``A``: ``x -> y`` holds when each non-empty member ``g`` of ``x``
      lies in a member of ``y`` (the empty one lies in every member).  So
      with ``up[g]`` the objects that have a member containing ``g``,
      ``A[i]`` is the AND of ``up[g]`` over the non-empty members of
      ``objs[i]``, and every object when it has none.  Each member of an
      object in ``objs`` is a key of ``up``, so this holds for any list.
    * ``down[j]``, the objects with an arrow into ``objs[j]``: those with
      no member ``g`` outside it, that is with ``j`` not in ``up[g]``.
    * ``W``: ``label_w`` is the arrow and ``star`` back, and ``star(y, x)``
      holds when ``x`` has a cofinite member or ``y`` has none (canonical
      objects are never empty).  So ``W[i]`` is ``A[i]``, masked to the
      objects with no cofinite member unless ``objs[i]`` has one.
    * ``F``: ``label_f`` is mutual arrows, ``A[i] & down[i]``.
    * ``P`` and ``C``: the category is posetal, so the product is the meet
      and the coproduct the join: ``p -> x*y`` iff ``p -> x`` and ``p ->
      y``, and ``x+y -> q`` iff ``x -> q`` and ``y -> q``.  An exhaustive
      universe is closed under both, since the meets and unions of members
      supported in the window are supported there too, and every antichain
      of such members is enumerated.  Distinct canonical objects have
      distinct down-sets and distinct up-sets, since isomorphic canonical
      objects are equal.  So ``P[i][j]`` is the object whose down-set is
      ``down[i] & down[j]`` and ``C[i][j]`` the one whose up-set is
      ``A[i] & A[j]``, each found by one dict lookup, which cannot miss.
      On a list that is not closed, a lookup may raise ``KeyError`` or find
      an object that is not the product; the suites build tables on
      exhaustive universes only.
    """
    every = (1 << len(objs)) - 1
    holding: dict[int, int] = {}  # a non-empty member: the objects that hold it
    for i, ob in enumerate(objs):
        for g in ob._signed[1:]:
            holding[g] = holding.get(g, 0) | 1 << i
    up = {g: _union(holding[h] for h in holding if not g & ~h) for g in holding}
    A = [
        functools.reduce(operator.and_, map(up.__getitem__, ob._signed[1:]), every)
        for ob in objs
    ]
    down = [
        every & ~_union(holding[g] for g in holding if not up[g] >> j & 1)
        for j in range(len(objs))
    ]
    finite = sum(1 << i for i, ob in enumerate(objs) if min(ob._signed) >= 0)
    W = [a if min(ob._signed) < 0 else a & finite for a, ob in zip(A, objs)]
    F = [a & d for a, d in zip(A, down)]
    tables: list[list[list[int]]] = []
    for rows in (down, A):  # meets by their down-sets, joins by their up-sets
        at = {r: i for i, r in enumerate(rows)}
        tables.append([[at[r & s] for s in rows] for r in rows])
    return Relations(A, W, F, *tables)


def _premise_m1(r: Relations) -> Iterator[tuple[int, ...]]:
    # Both squares need arrow(x, w), arrow(y, z), f(w, z) and no arrow(y, w);
    # the first needs w(x, y), the second arrow(x, y) and w(w, z).  So w lies
    # in A[x] & ~A[y] and in hit[y], the w with f(w, z) for some z in A[y];
    # the w it skips have no z.  On canonical objects this yields nothing: f
    # is is_iso, so z == w, and then arrow(y, z) contradicts not arrow(y, w).
    A, W, F = r.arrow, r.w, r.f
    hit = [sum(1 << w for w, f in enumerate(F) if f & a) for a in A]
    for x in range(len(A)):
        for y in _elements(A[x] | W[x]):
            for w in _elements(A[x] & ~A[y] & hit[y]):
                lifts = A[y] & F[w]
                for z in _elements(lifts if W[x] >> y & 1 else lifts & W[w]):
                    yield x, y, w, z


def _premise_m2_c_wf(r: Relations) -> Iterator[tuple[int, ...]]:
    # The (c, wf) factorization x -> y -> y fails when the identity of y is
    # not both (w) and (f).
    not_wf = sum(1 << y for y, (w, f) in enumerate(zip(r.w, r.f)) if not w >> y & f >> y & 1)
    for x, a in enumerate(r.arrow):
        for y in _elements(a & not_wf):
            yield x, y


def _premise_m5(r: Relations) -> Iterator[tuple[int, ...]]:
    # Two-of-three fails on a composable pair, arrow(x, y) and arrow(y, z),
    # whose three w facts hold exactly twice: with w(x, y), one of w(y, z)
    # and w(x, z); without it, both.
    A, W = r.arrow, r.w
    for x in range(len(A)):
        for y in _elements(A[x]):
            exactly_two = W[y] ^ W[x] if W[x] >> y & 1 else W[y] & W[x]
            for z in _elements(A[y] & exactly_two):
                yield x, y, z


def _premise_base_change(r: Relations) -> Iterator[tuple[int, ...]]:
    # The square is f(y, z) and arrow(x, z); it fails without f(x * y, x).
    A, F, P = r.arrow, r.f, r.product
    for x in range(len(A)):
        for y in range(len(A)):
            if F[P[x][y]] >> x & 1:
                continue
            for z in _elements(F[y] & A[x]):
                yield x, y, z


def _premise_cobase_change(r: Relations) -> Iterator[tuple[int, ...]]:
    # On (x, z, y), the span is w(x, z) and arrow(x, y); it fails without
    # w(y, z + y).  bad[z] holds the y whose coproduct with z has no w from y.
    A, W = r.arrow, r.w
    bad = [sum(1 << y for y, c in enumerate(row) if not W[y] >> c & 1) for row in r.coproduct]
    for x in range(len(A)):
        for z in _elements(W[x]):
            for y in _elements(A[x] & bad[z]):
                yield x, z, y


# -- presentation variants for the retract / iso checks ------------------------


def iso_presentations(x: Obj) -> list[tuple[NSet, ...]]:
    """Non-canonical families with mutual arrows to ``x``."""
    out: list[tuple[NSet, ...]] = []
    nonempty = x.members[1:]  # EMPTY comes first in an Obj
    if nonempty:
        out.append(nonempty)  # drop the empty member
        out.append(x.members + (nonempty[-1].drop_least(),))  # add a dominated member
    out.append(x.members + (x.members[-1],))  # duplicate a member
    return out


def _iso_invariance_detail(
    pair: tuple[Obj, ...], verdict: Callable[[Family, Family], LabelVerdict]
) -> str | None:
    x, y = pair
    base = verdict(x, y)
    pys = [y.members, *iso_presentations(y)]
    for px in [x.members, *iso_presentations(x)]:
        for py in pys:
            got = verdict(px, py)
            if got is not base and got != base:  # shared verdicts: identity first
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
    if not (
        label_f(w, z)
        and arrow_exists(x, w)
        and arrow_exists(y, z)
        and not arrow_exists(y, w)
    ):
        return None  # both squares: f(w, z), x -> w, y -> z and no y -> w
    if label_w(x, y):
        return "no diagonal for a trivial-cofibration / fibration square"
    if arrow_exists(x, y) and label_w(w, z):
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


def _pred_iso(t: tuple[Obj, ...]) -> str | None:
    return _iso_invariance_detail(t, label_verdict)


def _literal_star(source: Family, target: Family) -> bool:
    """The diagnostic near-inclusion, measured target minus source: ``t - s`` is
    finite iff t is finite or s is cofinite.  An empty target admits only an
    empty source.  That is the kernel's near-inclusion on the complemented
    members, since ``~`` swaps finite and cofinite."""
    return _star([~m for m in _signed_masks(source)], [~m for m in _signed_masks(target)])


def _literal_verdict(s: Family, t: Family) -> LabelVerdict:
    v = label_verdict(s, t)
    return LabelVerdict(v.arrow, _literal_star(s, t), v.arrow and _literal_star(t, s), v.f, v.c)


def _pred_iso_literal_star(t: tuple[Obj, ...]) -> str | None:
    return _iso_invariance_detail(t, _literal_verdict)


# -- claim predicates -----------------------------------------------------------


def _pred_wcf_reverse(t: tuple[Obj, ...]) -> str | None:
    x, y = t
    if label_w(x, y) and label_f(x, y) and not arrow_exists(y, x):
        return "a (wcf) arrow without its reverse arrow"
    return None


def _pred_f_reduction(t: tuple[Obj, ...]) -> str | None:
    x, y = t
    gap = fibration_gap(x, y)
    reduced = fibration_condition(x, y)
    if (gap is None) != reduced:
        return "definitional and reduced fibration deciders disagree"
    if gap is not None and not gap.defeats(x):
        return "gap witness does not defeat the source family"
    masks = x._signed + y._signed
    enumerable = min(masks) >= 0 and max(map(int.bit_count, masks)) <= _MAX_ENUMERATED_SUPPORT
    if enumerable and fibration_condition_enumerated(x, y) != reduced:
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


# A suite row: a check's arity, its predicate, and the premise that yields
# its firing tuples on an enumerated universe (``None``: try every tuple).
Check = tuple[int, Predicate, "Callable[[Relations], Iterator[tuple[int, ...]]] | None"]

# Retracts collapse to isomorphisms in a posetal category, so closure under
# retracts is closure under isomorphic presentations: RETRACT_CLOSURE and
# ISO_INVARIANCE share one predicate, and a suite run decides it once.
_AXIOMS: dict[str, Check] = {
    "M1_LIFTING": (4, _pred_m1, _premise_m1),
    "M2_FACTOR_WC_F": (2, _pred_m2_wc_f, None),
    "M2_FACTOR_C_WF": (2, _pred_m2_c_wf, _premise_m2_c_wf),
    "M5_TWO_OF_THREE": (3, _pred_m5, _premise_m5),
    "BASE_CHANGE_F": (3, _pred_base_change, _premise_base_change),
    "COBASE_CHANGE_WC": (3, _pred_cobase_change, _premise_cobase_change),
    "RETRACT_CLOSURE": (2, _pred_iso, None),
    "ISO_INVARIANCE": (2, _pred_iso, None),
}

# The opt-in diagnostic: ISO_INVARIANCE under the literal (target-minus-source)
# star, which is expected to produce counterexamples.
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

    The names are checked before any work: each must be in ``table``, and
    none may be given twice.  Tuples are read as indices into
    one per-call list ``objs``.  An exhaustive universe is enumerated into
    it once; a check runs its predicate on exactly the tuples its premise
    yields, those on which it fires, or on every tuple, and ``instances``
    counts every tuple of the universe.  The :class:`Relations` record is
    built by the first check with a premise, which is charged its time.
    A sampled universe is drawn once, by the first check, which is charged the draw:
    the stream of ``instance_tuples`` at the largest picked arity, kept as
    indices into ``objs``, which holds its distinct objects.  An arity-k
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
    for i, name in enumerate(picked):
        if name not in table:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(table)}")
        if name in picked[:i]:
            raise ValueError(f"check {name!r} is named twice")
    objs = enumerate_objects(u) if u.is_exhaustive else []
    relations = functools.cache(lambda: _relations(objs))

    def at(index: tuple[int, ...]) -> tuple[Obj, ...]:
        return tuple(map(objs.__getitem__, index))

    @functools.cache
    def draws() -> array[int] | None:
        width = max(table[name][0] for name in picked)
        stream = array("H")
        for i in _draws(u, width * u.samples, objs):
            if i == MAX_HELD:
                objs.clear()
                return None
            stream.append(i)
        return stream

    done: dict[Predicate, CheckResult] = {}
    checks = []
    for name in picked:
        arity, pred, premise = table[name]
        if pred in done:
            same = done[pred]
            checks.append(CheckResult(name, same.instances, same.violations, 0.0))
            continue
        start = time.perf_counter()
        decide = functools.partial(_violation, pred)
        if u.is_exhaustive:
            every = itertools.product(range(len(objs)), repeat=arity)
            index = premise(relations()) if premise else every
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

    ``literal_star`` switches ISO_INVARIANCE to the near-inclusion measured
    target minus source, a diagnostic that is not invariant under isomorphism.
    """
    return run_suite(u, {**_AXIOMS, **_LITERAL_STAR} if literal_star else _AXIOMS, names)


def run_claims(u: Universe, names: Sequence[str] | None = None) -> Report:
    """Run the named claim checks (all by default) in order."""
    return run_suite(u, _CLAIMS, names)
