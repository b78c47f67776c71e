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

Every decider works on *signed masks*, one int per member: a finite set is
its mask (``>= 0``) and a cofinite set with holes ``h`` is ``~h`` (``< 0``).
Python ints are infinite two's complement, so ``&``, ``|`` and ``~`` are
intersection, union and complement, ``s`` lies in ``t`` exactly when
``not s & ~t``, and ``s`` is cofinite exactly when ``s < 0``: no decider
branches on the kind of a member.  An :class:`Obj` holds the signed masks
of its members; any other iterable of NSets is converted once per call, so
the deciders also take non-canonical presentations of an object, which the
harness exploits, and one-shot iterables.  :func:`label_verdict`, the
harness's hottest decider, reads both arguments' masks inline.
:func:`normalize`, :func:`coproduct`, :func:`product`, the exponential of
:mod:`famcat.vobj` and the sampled draw of :mod:`famcat.harness` build
canonical objects on the masks and make NSets only for the members they
keep; the fibration deciders make NSets only for a :class:`GapWitness` they
return, and ``Obj.to_json_dict`` writes each member from its mask.  All
values are immutable and every function is pure, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from ._value import Value, _set
from .nset import EMPTY, FULL, NSet, _elements, _make

Family = Iterable[NSet]
_MAX_ENUMERATED_SUPPORT = 12  # the enumerating decider tries up to 2**12 subsets b per member

# _meets builds at most this many intersections for product and each step
# of the exponential of famcat.vobj; the claim suites' exponentials peak at
# 4.  Past it the maximal-member filter, quadratic in the count, runs for
# seconds and then minutes.  A coproduct keeps at most this many non-empty
# members, and an object literal lists at most this many and the empty one.
MAX_PARTIALS = 1024
# A sampled universe of famcat.harness draws this many tuples per check at
# most; the largest pinned scale (the acceptance gate's) draws 10,000.
MAX_SAMPLES = 1_000_000


class SizeGuardError(ValueError):
    """A request too large to enumerate, draw or construct."""


def _member_sort_key(s: int) -> tuple[bool, int, list[int]]:
    """The member order by its definition, ``(cofinite, mask size, support)``,
    with the support ascending.  Distinct masks have distinct keys.
    :func:`_from_maximal` sorts by it, and ``Obj(members)`` checks that the
    keys of neighbours strictly increase."""
    mask = ~s if s < 0 else s
    return (s < 0, mask.bit_count(), _elements(mask))


def _superset_first_key(s: int) -> tuple[bool, int]:
    """Cofinite first, then fewer holes or more elements: strict supersets first."""
    return (True, -s.bit_count()) if s >= 0 else (False, (~s).bit_count())


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct non-empty signed masks that no other one contains, in no fixed order.

    One pass in superset-first order keeps each mask that no kept mask
    contains.  That keeps every maximal mask and drops a dominated one,
    since a maximal superset of it comes first.
    """
    pool = set(masks)
    pool.discard(0)
    keep: list[int] = []
    for a in sorted(pool, key=_superset_first_key):
        for b in keep:
            if not a & ~b:
                break
        else:
            keep.append(a)
    return keep


def _canonical(masks: Iterable[int]) -> Obj:
    """The canonical object of a family given by its signed masks."""
    return _from_maximal(_maximal(masks))


def _from_maximal(keep: Collection[int]) -> Obj:
    """The canonical object whose non-empty members are ``keep``, a result
    of :func:`_maximal`.  It sorts them, makes NSets only for them, after
    ``EMPTY``, which sorts first, and skips ``Obj``'s checks of that form."""
    if len(keep) > 1:
        keep = sorted(keep, key=_member_sort_key)
    ob = object.__new__(Obj)
    _set(ob, "members", (EMPTY, *map(_make, keep)))
    _set(ob, "_signed", (0, *keep))
    return ob


class Obj(Value):
    """A canonical family: contains the empty set, plus an antichain.

    An object holds ``_signed``, the signed masks of the members in member
    order, which the deciders, equality and hashing read; canonical members
    and masks determine each other.  ``repr`` shows only the members.
    ``Obj(members)`` holds the members as a tuple, whatever iterable
    carries them, and checks the canonical form; the kernel's builders, the
    exponential and the sampled draw skip it in :func:`_from_maximal`,
    whose input has it.
    """

    __slots__ = ("members", "_signed")
    members: tuple[NSet, ...]
    _signed: tuple[int, ...]

    def __init__(self, members: tuple[NSet, ...]) -> None:
        members = tuple(members)  # a caller's list or generator is not held
        signed = tuple(_signed_masks(members))
        if 0 not in signed:
            raise ValueError("a canonical family contains the empty set")
        # distinct masks have distinct keys, so strictly increasing keys
        # mean sorted and duplicate-free
        keys = [_member_sort_key(s) for s in signed]
        if not all(a < b for a, b in zip(keys, keys[1:])):
            raise ValueError("members must be sorted and duplicate-free")
        # EMPTY has the least key, so it comes first; the rest is
        # duplicate-free, so it is an antichain exactly when _maximal keeps
        # all of it (one member always is)
        rest = signed[1:]
        if len(rest) > 1 and len(_maximal(rest)) < len(rest):
            a, b = next(
                (a, b) for a, b in itertools.permutations(members[1:], 2) if a.is_subset(b)
            )
            raise ValueError(f"{a} is dominated by {b}; family is not an antichain")
        _set(self, "members", members)
        _set(self, "_signed", signed)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Obj:
            return NotImplemented
        return self._signed == other._signed

    def __hash__(self) -> int:
        return hash((self._signed,))

    def __reduce__(self) -> tuple[object, tuple[tuple[NSet, ...]]]:
        return Obj, (self.members,)

    @classmethod
    def of(cls, *members: NSet) -> "Obj":
        return normalize(members)

    def __iter__(self) -> Iterator[NSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict[str, list[dict[str, list[int]]]]:
        """Each member as :meth:`NSet.to_json_dict` writes it, from its signed mask."""
        return {
            "members": [
                {"cofin": _elements(~s)} if s < 0 else {"fin": _elements(s)} for s in self._signed
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "Obj":
        if not isinstance(data, Mapping) or set(data) != {"members"}:
            raise ValueError(f"an object literal is {{'members': [...]}}: {data!r}")
        raw = data["members"]
        if not isinstance(raw, (list, tuple)):
            raise ValueError("'members' must be a list")
        if len(raw) > MAX_PARTIALS + 1:
            raise SizeGuardError(
                f"an object literal of {len(raw)} members is past the empty member"
                f" and MAX_PARTIALS = {MAX_PARTIALS} others"
            )
        return normalize(NSet.from_json_dict(m) for m in raw)

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def _signed_masks(family: Family) -> Sequence[int]:
    """The signed masks of a family: held by an :class:`Obj`, else converted once."""
    if isinstance(family, Obj):
        return family._signed
    return [m._s for m in family]


def normalize(members: Family) -> Obj:
    """Canonical form: add the empty set, drop duplicates and dominated members.

    The result has mutual arrows with the input family whenever the input is
    non-empty; the empty input normalizes to the initial object ``{{}}``.
    """
    return _canonical(_signed_masks(members))


INITIAL = Obj((EMPTY,))  # the least object {{}}: it maps into everything
TERMINAL = Obj((EMPTY, FULL))  # the greatest object {{}, N}: everything maps into it


def _arrow(src: Sequence[int], tgt: Sequence[int]) -> bool:
    """:func:`arrow_exists` on signed masks."""
    for a in src:
        for b in tgt:
            if not a & ~b:
                break
        else:
            return False
    return True


def _star(src: Sequence[int], tgt: Sequence[int]) -> bool:
    """:func:`star_arrow` on signed masks: a family has a cofinite member
    exactly when its least signed mask is negative."""
    if not tgt:
        return not src
    return min(tgt) < 0 or not src or min(src) >= 0


def arrow_exists(source: Family, target: Family) -> bool:
    """True iff every member of the source is contained in some target member.

    A member with signed mask ``a`` lies in one with signed mask ``b``
    exactly when ``a & ~b == 0``, which is :meth:`NSet.is_subset`.  The
    proof, case by case (the windowed membership model of the NSet tests
    is the independent oracle):

    ======================  ===========================  ==============================
    member ``a`` in ``b``   finite ``b``                 cofinite, holes ``h``
    ======================  ===========================  ==============================
    finite ``a``            ``a & ~b``                   ``a & h``
    cofinite, holes ``g``   ``~g & ~b``, never zero      ``~g & h``, i.e. ``h & ~g``
    ======================  ===========================  ==============================
    """
    return _arrow(_signed_masks(source), _signed_masks(target))


def star_arrow(source: Family, target: Family) -> bool:
    """Near-inclusion: every source member almost fits in some target member.

    Only kinds matter: ``s - t`` is finite iff s is finite or t is cofinite,
    so no difference is built.  An empty target admits only an empty
    source.
    """
    return _star(_signed_masks(source), _signed_masks(target))


def label_w(source: Family, target: Family) -> bool:
    """Weak equivalence: the arrow plus a near-inclusion back."""
    src, tgt = _signed_masks(source), _signed_masks(target)
    return _arrow(src, tgt) and _star(tgt, src)


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


class GapWitness(Value):
    """A finite blocker showing the definitional fibration condition fails.

    No source member contains ``(x & y) | blocker`` even though ``blocker``
    is a finite subset of ``y``.
    """

    __slots__ = ("x", "y", "blocker")
    x: NSet
    y: NSet
    blocker: NSet

    def defeats(self, source: Family) -> bool:
        """Replay the witness: confirm no source member covers it."""
        need = (self.x._s & self.y._s) | self.blocker._s
        return all(need & ~m for m in _signed_masks(source))


def fibration_gap(source: Family, target: Family) -> GapWitness | None:
    """Definitional decider via witness search; ``None`` means the condition holds.

    The pairs ``(x, y)`` are each source member, then the empty set if the
    source lacks it, against each target member.  The candidates of a pair
    are the source members ``m`` that contain ``x & y``, that is with
    ``x & y & ~m == 0``.  If one of them contains y outright (``y & ~m ==
    0``), every finite ``b`` inside y is covered and the pair is skipped.
    Otherwise each ``y & ~m`` is non-zero, and its lowest set bit is a point
    of y that m misses; the OR of those bits is a finite blocker inside y
    that no member covers: a candidate misses its own bit, and any other
    member misses part of ``x & y``.  The first such blocker is returned,
    with NSets made for it alone; its absence for every pair decides the
    condition positively.  The blocker is built unchecked, since its points
    may pass :data:`~famcat.nset.MAX_ELEMENT`: a member holding every point
    up to it leaves only points past it for the blocker.
    """
    src, tgt = _signed_masks(source), _signed_masks(target)
    for x in src if 0 in src else (*src, 0):
        for y in tgt:
            meet = x & y
            blocker = 0
            for m in src:
                if not meet & ~m:
                    d = y & ~m
                    if not d:
                        break
                    blocker |= d & -d
            else:
                return GapWitness(x=_make(x), y=_make(y), blocker=_make(blocker))
    return None


def fibration_condition_enumerated(source: Family, target: Family) -> bool:
    """Brute-force decider enumerating every finite b; finite members only.

    Each ``b`` is a submask of y, walked from y itself down to the empty
    set by ``b = (b - 1) & y``.
    """
    src, tgt = _signed_masks(source), _signed_masks(target)
    for m in (*src, *tgt):
        if m < 0:
            raise ValueError("the enumerating decider needs finite members")
        if m.bit_count() > _MAX_ENUMERATED_SUPPORT:
            raise SizeGuardError("support too large to enumerate")
    for x in src if 0 in src else (*src, 0):
        for y in tgt:
            meet = x & y
            b = y
            while True:
                need = meet | b
                for m in src:
                    if not need & ~m:
                        break
                else:
                    return False
                if not b:
                    break
                b = (b - 1) & y
    return True


def label_f(source: Family, target: Family) -> bool:
    """Fibration label: the arrow exists and the extension condition holds.

    The condition is the reverse arrow (:func:`fibration_condition`), so the
    label is exactly mutual arrows: in this posetal category the fibrations
    are the isomorphisms.
    """
    return is_iso(source, target)


class LabelVerdict(Value):
    """All label facts for one ordered pair.

    ``w`` and ``f`` imply ``arrow``; ``c`` coincides with it.  ``star`` is
    the near-inclusion in the queried direction (source into target).
    :func:`label_verdict` returns one of the five verdicts that can occur,
    built once at import and shared: they are immutable, and equality
    finds a shared verdict by identity first.
    """

    __slots__ = ("arrow", "star", "w", "f", "c")
    arrow: bool
    star: bool
    w: bool
    f: bool
    c: bool

    def to_json_dict(self) -> dict[str, bool]:
        return {"arrow": self.arrow, "star": self.star, "w": self.w, "f": self.f, "c": self.c}


_NO_ARROW = LabelVerdict(False, False, False, False, False)
_NO_ARROW_STAR = LabelVerdict(False, True, False, False, False)
_ARROW = LabelVerdict(True, True, False, False, True)
_ARROW_W = LabelVerdict(True, True, True, False, True)
_ISO = LabelVerdict(True, True, True, True, True)


def label_verdict(source: Family, target: Family) -> LabelVerdict:
    """Every label fact for ``source -> target``, from at most three mask facts.

    The arrow implies ``star``: a cofinite source member lies only in a
    cofinite target member, and an empty target takes only an empty source.
    So mutual arrows, which are ``f``, imply the reverse ``star`` and so ``w``.
    Both arguments' masks are read inline, as :func:`_signed_masks` reads them.
    """
    src = source._signed if isinstance(source, Obj) else [m._s for m in source]
    tgt = target._signed if isinstance(target, Obj) else [m._s for m in target]
    if not _arrow(src, tgt):
        return _NO_ARROW_STAR if _star(src, tgt) else _NO_ARROW
    if _arrow(tgt, src):
        return _ISO
    return _ARROW_W if _star(tgt, src) else _ARROW


# -- limits ----------------------------------------------------------------


def _meets(xs: Collection[int], ys: Collection[int], what: str) -> set[int]:
    """The distinct ``a & b`` for a in xs and b in ys: the one size guard of
    :func:`product` and each exponential step, which raises
    :class:`SizeGuardError` naming ``what`` past ``MAX_PARTIALS`` of them,
    before any is pruned.  The meets are gathered row by row and the guard
    is checked after each row, so at most ``MAX_PARTIALS + len(ys)``
    distinct meets are ever held; a row whose meets repeat earlier ones
    adds none, so the ``&`` work is bounded only by the grid."""
    meets: set[int] = set()
    for a in xs:
        meets.update([a & b for b in ys])
        if len(meets) > MAX_PARTIALS:
            raise SizeGuardError(
                f"{what} passed MAX_PARTIALS = {MAX_PARTIALS} distinct intersections"
            )
    return meets


def product(x: Obj, y: Obj) -> Obj:
    """Binary product of canonical objects: pointwise intersections, canonicalized.

    The intersections are ``a & b`` over the signed masks the objects hold.

    The product of two comparable objects is the lesser one, returned
    without building anything.  If ``x -> y``, each ``a`` in x lies in some
    ``b`` in y, so ``a & b = a`` is among the intersections, and every
    intersection lies in a member of x: the product is isomorphic to x.
    Canonical objects that are isomorphic are equal, because their
    non-empty members form an antichain, so the product is x itself.

    An incomparable pair has up to ``|x| * |y|`` distinct intersections,
    built by :func:`_meets` under its size guard.
    """
    xs, ys = x._signed, y._signed
    if _arrow(xs, ys):
        return x
    if _arrow(ys, xs):
        return y
    return _canonical(_meets(xs, ys, "the product"))


def coproduct(x: Family, y: Family) -> Obj:
    """Binary coproduct: the union of the families, normalized.  Like the
    product, it stops past ``MAX_PARTIALS`` non-empty members, so that its
    result reads back as a literal."""
    keep = _maximal([*_signed_masks(x), *_signed_masks(y)])
    if len(keep) > MAX_PARTIALS:
        raise SizeGuardError(
            f"the coproduct keeps {len(keep)} non-empty members, past MAX_PARTIALS = {MAX_PARTIALS}"
        )
    return _from_maximal(keep)


def is_iso(x: Family, y: Family) -> bool:
    """Mutual arrows; on canonical objects this agrees with equality."""
    xs, ys = _signed_masks(x), _signed_masks(y)
    return _arrow(xs, ys) and _arrow(ys, xs)
