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
  stick out).
* ``f`` (fibration): the arrow exists and the family satisfies the finite
  extension property decided by :func:`fibration_condition`; that property
  is the reverse arrow, so an ``f`` arrow is an isomorphism.

The decision functions accept any iterable of NSets, not only canonical
:class:`Obj` values; the harness exploits that to evaluate labels on
non-canonical presentations of the same object.  All values are immutable
and every function is pure, so concurrent use is safe.
"""

from __future__ import annotations

import enum
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


def maximal(members: Family) -> list[NSet]:
    """The distinct members that no other member strictly contains, in no fixed order.

    One pass in superset-first order keeps each set that no kept set
    contains.  That keeps every maximal set and drops a repeat or a
    dominated set, since a maximal superset of it comes first.
    """
    keep: list[NSet] = []
    for m in sorted(members, key=_superset_first_key):
        if not any(m.is_subset(k) for k in keep):
            keep.append(m)
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
        # EMPTY has the least key, so it is ms[0]
        for a, b in itertools.permutations(ms[1:], 2):
            if a.is_subset(b):
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


class StarTemplate(enum.Enum):
    """Orientation of the near-subset test behind the ``w`` label.

    SOURCE_MINUS_TARGET (the default) asks each source member to be inside
    some target member up to finitely many points.  TARGET_MINUS_SOURCE
    measures the difference the other way around; it is not invariant under
    isomorphic presentations of the endpoints and exists only so the
    harness can demonstrate that defect on request.
    """

    SOURCE_MINUS_TARGET = "source_minus_target"
    TARGET_MINUS_SOURCE = "target_minus_source"


def arrow_exists(source: Family, target: Family) -> bool:
    """True iff every member of the source is contained in some target member."""
    tgt = tuple(target)
    return all(any(s.is_subset(t) for t in tgt) for s in source)


def star_arrow(
    source: Family,
    target: Family,
    template: StarTemplate = StarTemplate.SOURCE_MINUS_TARGET,
) -> bool:
    """Near-inclusion: every source member almost fits in some target member.

    Only kinds matter: ``s - t`` is finite iff s is finite or t is cofinite,
    so no difference is built.  An empty target admits only an empty source.
    """
    src, tgt = tuple(source), tuple(target)
    if not tgt:
        return not src
    if template is StarTemplate.SOURCE_MINUS_TARGET:
        return any(t.cofinite for t in tgt) or not any(s.cofinite for s in src)
    # t - s is finite iff t is finite or s is cofinite
    return not all(t.cofinite for t in tgt) or all(s.cofinite for s in src)


def label_w(source: Family, target: Family) -> bool:
    """Weak equivalence: the arrow plus a near-inclusion back."""
    src, tgt = tuple(source), tuple(target)
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


def label_verdict(
    source: Family,
    target: Family,
    template: StarTemplate = StarTemplate.SOURCE_MINUS_TARGET,
) -> LabelVerdict:
    src, tgt = tuple(source), tuple(target)
    arrow = arrow_exists(src, tgt)
    return LabelVerdict(
        arrow=arrow,
        star=star_arrow(src, tgt, template),
        w=arrow and star_arrow(tgt, src, template),
        f=arrow and arrow_exists(tgt, src),
        c=arrow,
    )


# -- limits ----------------------------------------------------------------


def product(x: Family, y: Family) -> Obj:
    """Binary product: pointwise intersections, normalized.

    The product of two comparable objects is the lesser one, returned
    without building anything.  If ``x -> y``, each ``a`` in x lies in some
    ``b`` in y, so ``a & b = a`` is among the intersections, and every
    intersection lies in a member of x: the product is isomorphic to x.
    Canonical objects that are isomorphic are equal, because their
    non-empty members form an antichain, so the product is x itself.
    """
    if isinstance(x, Obj) and isinstance(y, Obj):
        xs, ys = x.members, y.members
        if arrow_exists(xs, ys):
            return x
        if arrow_exists(ys, xs):
            return y
    else:
        xs, ys = x, tuple(y)
    return normalize(a & b for a in xs for b in ys)


def coproduct(x: Family, y: Family) -> Obj:
    """Binary coproduct: the union of the families, normalized."""
    return normalize(itertools.chain(x, y))


def is_iso(x: Family, y: Family) -> bool:
    """Mutual arrows; on canonical objects this agrees with equality."""
    xs, ys = tuple(x), tuple(y)
    return arrow_exists(xs, ys) and arrow_exists(ys, xs)
