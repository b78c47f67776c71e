"""The posetal category of finite families of finite-or-cofinite sets.

An object is a finite family of :class:`~famcat.nset.NSet` values kept in a
canonical form: the empty set is always a member, and apart from it no member
is contained in another.  There is an arrow ``X -> Y`` exactly when every
member of X sits inside some member of Y, so the category is posetal and
every label is a predicate on an ordered pair of families.

Three labels are decided here:

* ``c`` (cofibration): every arrow carries it.
* ``w`` (weak equivalence): the arrow exists and every member of the target
  is a near-subset of some member of the source (finitely many points may
  stick out), decided by :func:`star_arrow` in that one orientation.
* ``f`` (fibration): the arrow exists and the family satisfies the finite
  extension property decided by :func:`fibration_condition`; that property
  is the reverse arrow, so an ``f`` arrow is an isomorphism.

The decision functions accept any iterable of NSets, not only canonical
:class:`Obj` values; the harness exploits that to evaluate labels on
non-canonical presentations of the same object; only :func:`product` needs
canonical objects.  All values are immutable and every function is pure,
so concurrent use is safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .nset import EMPTY, FULL, NSet

Family = Iterable[NSet]
_MAX_ENUMERATED_SUPPORT = 12  # the enumerating decider tries up to 2**12 subsets b per member


class SizeGuardError(ValueError):
    """A request too large to enumerate, draw or construct."""


_LOW_BIT_FIRST = str.maketrans("01", "10")


def _member_sort_key(m: NSet) -> tuple[bool, int, str]:
    """Orders members as ``(cofinite, mask size, support)`` does, without the support.

    Supports of one size first differ at an element of the earlier one.
    Spelled least bit first, a set bit as ``0``, masks of one size are not
    prefixes of each other, and they first differ at that same element.
    """
    mask = m.mask
    return (m.cofinite, mask.bit_count(), bin(mask)[:1:-1].translate(_LOW_BIT_FIRST))


def _superset_first_key(m: NSet) -> tuple[bool, int]:
    """Cofinite first, then fewer holes or more elements: strict supersets first."""
    size = m.mask.bit_count()
    return (not m.cofinite, size if m.cofinite else -size)


def _fits(s: NSet, fins: list[int], holes: list[int]) -> bool:
    """Whether ``s`` sits inside some member of a family given as the masks
    ``fins`` of its finite members and the holes of its cofinite ones.

    The four cases are the table in :func:`arrow_exists`.
    """
    a = s.mask
    if s.cofinite:
        for h in holes:
            if not h & ~a:
                return True
        return False
    for b in fins:
        if not a & ~b:
            return True
    for h in holes:
        if not a & h:
            return True
    return False


def maximal(members: Family) -> list[NSet]:
    """The distinct members that no other member strictly contains, in no fixed order.

    One pass in superset-first order keeps each set that no kept set
    contains.  That keeps every maximal set and drops a repeat or a
    dominated set, since a maximal superset of it comes first.  "No kept
    set contains it" is the mask loop of :func:`arrow_exists` over the kept
    masks, split by kind as they are kept: a finite ``a`` lies in a finite
    ``b`` when ``a & ~b == 0`` and in a cofinite set with holes ``h`` when
    ``a & h == 0``; a cofinite ``a`` lies in ``h`` when ``h & ~a == 0`` and
    never in a finite set.  :meth:`NSet.is_subset` stays the definition the
    tests compare with.
    """
    keep: list[NSet] = []
    fins: list[int] = []
    holes: list[int] = []
    for m in sorted(members, key=_superset_first_key):
        if not _fits(m, fins, holes):
            keep.append(m)
            (holes if m.cofinite else fins).append(m.mask)
    return keep


@dataclass(frozen=True)
class Obj:
    """A canonical family: contains the empty set, plus an antichain."""

    members: tuple[NSet, ...]

    def __post_init__(self) -> None:
        ms = self.members
        if EMPTY not in ms:
            raise ValueError("a canonical family contains the empty set")
        # the key is injective, so strictly increasing keys mean sorted and duplicate-free
        keys = [_member_sort_key(m) for m in ms]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("members must be sorted and duplicate-free")
        # EMPTY has the least key, so it is ms[0]; the rest is duplicate-free,
        # so it is an antichain exactly when maximal keeps all of it (one
        # member always is)
        rest = ms[1:]
        if len(rest) > 1 and len(maximal(rest)) < len(rest):
            a, b = next((a, b) for a, b in itertools.permutations(rest, 2) if a.is_subset(b))
            raise ValueError(f"{a} is dominated by {b}; family is not an antichain")

    @classmethod
    def of(cls, *members: NSet) -> "Obj":
        return normalize(members)

    def __iter__(self) -> Iterator[NSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict[str, list[dict[str, list[int]]]]:
        return {"members": [m.to_json_dict() for m in self.members]}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "Obj":
        if not isinstance(data, Mapping) or set(data) != {"members"}:
            raise ValueError(f"an object literal is {{'members': [...]}}: {data!r}")
        raw = data["members"]
        if not isinstance(raw, (list, tuple)):
            raise ValueError("'members' must be a list")
        return normalize(NSet.from_json_dict(m) for m in raw)

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def normalize(members: Family) -> Obj:
    """Canonical form: add the empty set, drop duplicates and dominated members.

    The result has mutual arrows with the input family whenever the input is
    non-empty; the empty input normalizes to the initial object ``{{}}``.
    """
    pool = set(members)
    pool.discard(EMPTY)
    keep = maximal(pool)
    keep.append(EMPTY)
    return Obj(tuple(sorted(keep, key=_member_sort_key)))


INITIAL = Obj((EMPTY,))  # the least object {{}}: it maps into everything
TERMINAL = Obj((EMPTY, FULL))  # the greatest object {{}, N}: everything maps into it


def _members(family: Family) -> tuple[NSet, ...]:
    """The members of a family, read straight from an :class:`Obj`."""
    return family.members if isinstance(family, Obj) else tuple(family)


def arrow_exists(source: Family, target: Family) -> bool:
    """True iff every member of the source is contained in some target member.

    Containment is decided on masks.  The target is split once into finite
    masks ``b`` and cofinite hole masks ``h``; a source member with mask
    ``a`` fits when

    ======================  ===============  ===============
    source member           in finite ``b``  in cofinite ``h``
    ======================  ===============  ===============
    finite, elements ``a``  ``a & ~b == 0``  ``a & h == 0``
    cofinite, holes ``a``   never            ``h & ~a == 0``
    ======================  ===============  ===============

    which is :meth:`NSet.is_subset` case by case; that method stays the
    definition the tests compare this with.  Each argument is iterated
    once, so one-shot iterables work.
    """
    fins: list[int] = []
    holes: list[int] = []
    for t in target.members if isinstance(target, Obj) else target:
        (holes if t.cofinite else fins).append(t.mask)
    for s in source.members if isinstance(source, Obj) else source:
        if not _fits(s, fins, holes):
            return False
    return True


def star_arrow(source: Family, target: Family) -> bool:
    """Near-inclusion: every source member almost fits in some target member.

    Only kinds matter: ``s - t`` is finite iff s is finite or t is cofinite,
    so no difference is built.  An empty target admits only an empty source.
    """
    src, tgt = _members(source), _members(target)
    if not tgt:
        return not src
    return any(t.cofinite for t in tgt) or not any(s.cofinite for s in src)


def label_w(source: Family, target: Family) -> bool:
    """Weak equivalence: the arrow plus a near-inclusion back."""
    src, tgt = _members(source), _members(target)
    return arrow_exists(src, tgt) and star_arrow(tgt, src)


# -- the fibration condition and its three deciders -----------------------


def fibration_condition(source: Family, target: Family) -> bool:
    """Reduced decider: every target member is contained in some source member.

    That is the arrow from target to source.  For a finite source family it
    is equivalent to the definitional condition (for every x in the source
    plus the empty set, every target member y, and every finite b inside y,
    some source member contains ``(x & y) | b``): see :func:`fibration_gap`
    for the witness argument that eliminates the quantifier over b.
    """
    return arrow_exists(target, source)


@dataclass(frozen=True)
class GapWitness:
    """A finite blocker showing the definitional fibration condition fails.

    No source member contains ``(x & y) | blocker`` even though ``blocker``
    is a finite subset of ``y``.
    """

    x: NSet
    y: NSet
    blocker: NSet

    def defeats(self, source: Family) -> bool:
        """Replay the witness: confirm no source member covers it."""
        need = (self.x & self.y) | self.blocker
        return not any(need.is_subset(m) for m in source)


def fibration_gap(source: Family, target: Family) -> GapWitness | None:
    """Definitional decider via witness search; ``None`` means the condition holds.

    For each pair (x, y) the candidates are the source members containing
    ``x & y``.  If none of them contains y outright, collecting one element
    of ``y - candidate`` per candidate yields a finite subset of y that no
    member can cover, because the candidate set is finite.  That blocker is
    returned; its absence for every pair decides the condition positively.
    """
    src = tuple(source)
    for x in src if EMPTY in src else src + (EMPTY,):
        for y in target:
            meet = x & y
            candidates = [m for m in src if meet.is_subset(m)]
            if any(y.is_subset(m) for m in candidates):
                continue
            picks = []
            for m in candidates:
                gap = (y - m).smallest()
                assert gap is not None  # y is not inside m, so something is missing
                picks.append(gap)
            return GapWitness(x=x, y=y, blocker=NSet.fin(picks))
    return None


def fibration_condition_enumerated(source: Family, target: Family) -> bool:
    """Brute-force decider enumerating every finite b; finite members only."""
    src, tgt = tuple(source), tuple(target)
    for m in src + tgt:
        if m.cofinite:
            raise ValueError("the enumerating decider needs finite members")
        if m.mask.bit_count() > _MAX_ENUMERATED_SUPPORT:
            raise ValueError("support too large to enumerate")
    for x in src if EMPTY in src else src + (EMPTY,):
        for y in tgt:
            for size in range(len(y.support) + 1):
                for b in itertools.combinations(y.support, size):
                    need = (x & y) | NSet.fin(b)
                    if not any(need.is_subset(m) for m in src):
                        return False
    return True


def label_f(source: Family, target: Family) -> bool:
    """Fibration label: the arrow exists and the extension condition holds.

    The condition is the reverse arrow (:func:`fibration_condition`), so the
    label is exactly mutual arrows: in this posetal category the fibrations
    are the isomorphisms.
    """
    return is_iso(source, target)


@dataclass(frozen=True)
class LabelVerdict:
    """All label facts for one ordered pair.

    ``w`` and ``f`` imply ``arrow``; ``c`` coincides with it.  ``star`` is
    the near-inclusion in the queried direction (source into target).
    """

    arrow: bool
    star: bool
    w: bool
    f: bool
    c: bool

    def to_json_dict(self) -> dict[str, bool]:
        return {"arrow": self.arrow, "star": self.star, "w": self.w, "f": self.f, "c": self.c}


def label_verdict(source: Family, target: Family) -> LabelVerdict:
    src, tgt = _members(source), _members(target)
    arrow = arrow_exists(src, tgt)
    return LabelVerdict(
        arrow=arrow,
        star=star_arrow(src, tgt),
        w=arrow and star_arrow(tgt, src),
        f=arrow and arrow_exists(tgt, src),
        c=arrow,
    )


# -- limits ----------------------------------------------------------------


def product(x: Obj, y: Obj) -> Obj:
    """Binary product of canonical objects: pointwise intersections, normalized.

    The product of two comparable objects is the lesser one, returned
    without building anything.  If ``x -> y``, each ``a`` in x lies in some
    ``b`` in y, so ``a & b = a`` is among the intersections, and every
    intersection lies in a member of x: the product is isomorphic to x.
    Canonical objects that are isomorphic are equal, because their
    non-empty members form an antichain, so the product is x itself.
    """
    xs, ys = x.members, y.members
    if arrow_exists(xs, ys):
        return x
    if arrow_exists(ys, xs):
        return y
    return normalize(a & b for a in xs for b in ys)


def coproduct(x: Family, y: Family) -> Obj:
    """Binary coproduct: the union of the families, normalized."""
    return normalize(itertools.chain(x, y))


def is_iso(x: Family, y: Family) -> bool:
    """Mutual arrows; on canonical objects this agrees with equality."""
    xs, ys = _members(x), _members(y)
    return arrow_exists(xs, ys) and arrow_exists(ys, xs)
