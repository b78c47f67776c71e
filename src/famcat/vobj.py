"""Virtual objects: infinite families handled through decidable oracles.

Several constructions of the category produce families with infinitely many
members (every finite set, every finite enlargement of a member, ...).  They
are represented symbolically by :class:`VObj` and queried through closed
forms proved once and tested against the explicit kernel:

* ``WC(X, Y)`` - the factorization middle ``{x | b : x in X, b finite, b
  inside some member of Y}``.
* ``UNIVERSE`` - the family of all finite sets; definitionally
  ``WC(initial, terminal)`` (wire name ``utilde``).
* ``UPROD(X)`` - the product of the universe object with X; definitionally
  ``WC(initial, X)``.
* ``EXP(B, C)`` - the exponential; reducible to the explicit object computed
  by :func:`exp_explicit`.  A set s is a member exactly when
  ``arrow_into_vobj(normalize([s]), VObj.exp(B, C))``.
* ``EXP_SLICE(A, B, C)`` - the exponential pulled into the slice over A.
* ``WEXP(A, B, C)`` - the weak-equivalence classifier of the slice over A;
  queried member by member through :func:`wexp_member`.

Every oracle, the factorization check and :func:`exp_explicit` read the
signed member masks that :class:`~famcat.kernel.Obj` holds and build no NSet
and no product.

:func:`decide` is the one dispatch for a label on an ordered pair with
explicit or virtual endpoints, and each virtual verdict it gives is a
closed form.  Arrow queries that no documented rule covers raise
:class:`UndecidedPairError` rather than guessing.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Mapping, Sequence

from ._value import Value, _set
from .kernel import (
    INITIAL,
    TERMINAL,
    LabelVerdict,
    Obj,
    SizeGuardError,
    _arrow,
    _from_maximal,
    _maximal,
    _meets,
    _star,
    arrow_exists,
    label_verdict,
    product,
    star_arrow,
)
from .nset import NSet, _elements

_LABELS = ("arrow", "w", "f", "c")  # the labels decide answers


class UndecidedPairError(Exception):
    """An arrow query between virtual objects with no documented rule."""


class VKind(enum.Enum):
    WC = "wc"
    UNIVERSE = "utilde"
    UPROD = "uprod"
    EXP = "exp"
    EXP_SLICE = "exp_slice"
    WEXP = "wexp"


class VObj(Value):
    """A symbolic family, described by its kind and explicit parameters."""

    __slots__ = ("kind", "x", "y", "a", "b", "c")
    kind: VKind
    x: Obj | None
    y: Obj | None
    a: Obj | None
    b: Obj | None
    c: Obj | None

    def __init__(
        self,
        kind: VKind,
        x: Obj | None = None,
        y: Obj | None = None,
        a: Obj | None = None,
        b: Obj | None = None,
        c: Obj | None = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    @classmethod
    def wc(cls, x: Obj, y: Obj) -> "VObj":
        return cls(VKind.WC, x=x, y=y)

    @classmethod
    def universe(cls) -> "VObj":
        """The family of all finite sets."""
        return cls(VKind.UNIVERSE)

    @classmethod
    def uprod(cls, x: Obj) -> "VObj":
        """The product of the universe object with an explicit object."""
        return cls(VKind.UPROD, x=x)

    @classmethod
    def exp(cls, b: Obj, c: Obj) -> "VObj":
        return cls(VKind.EXP, b=b, c=c)

    @classmethod
    def exp_slice(cls, a: Obj, b: Obj, c: Obj) -> "VObj":
        _require_slice(a, b, c)
        return cls(VKind.EXP_SLICE, a=a, b=b, c=c)

    @classmethod
    def wexp(cls, a: Obj, b: Obj, c: Obj) -> "VObj":
        _require_slice(a, b, c)
        return cls(VKind.WEXP, a=a, b=b, c=c)

    def to_json_dict(self) -> dict[str, object]:
        return _literal(self, Obj.to_json_dict)

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "VObj":
        if not isinstance(data, Mapping) or "vkind" not in data:
            raise ValueError(f"a virtual-object literal carries 'vkind': {data!r}")
        try:
            kind = VKind(data["vkind"])
        except ValueError:
            raise ValueError(f"unknown vkind {data['vkind']!r}") from None
        names = _FIELDS[kind]
        if set(data) != {"vkind", *names}:
            raise ValueError(
                f"vkind {kind.value!r} takes exactly the fields {list(names)}: {data!r}"
            )
        fields = {f: Obj.from_json_dict(data[f]) for f in names}  # type: ignore[arg-type]
        return getattr(cls, kind.name.lower())(**fields)


_FIELDS = {
    VKind.WC: ("x", "y"),
    VKind.UNIVERSE: (),
    VKind.UPROD: ("x",),
    VKind.EXP: ("b", "c"),
    VKind.EXP_SLICE: ("a", "b", "c"),
    VKind.WEXP: ("a", "b", "c"),
}


def _literal(v: VObj, write: Callable[[Obj], object]) -> dict[str, object]:
    """The JSON literal of ``v``: ``"vkind"``, then each field of its kind
    in ``_FIELDS`` order, each field object written by ``write``."""
    out: dict[str, object] = {"vkind": v.kind.value}
    for f in _FIELDS[v.kind]:
        out[f] = write(getattr(v, f))
    return out


def _require_slice(a: Obj, b: Obj, c: Obj) -> None:
    if not (arrow_exists(b, a) and arrow_exists(c, a)):
        raise ValueError("slice construction needs arrows from both b and c into a")


def _wc_parts(v: Obj | VObj) -> tuple[Obj, Obj]:
    """Source and bound families of a WC-shaped end; an explicit x is ``WC(x, initial)``."""
    if isinstance(v, Obj):
        return v, INITIAL
    if v.kind is VKind.WC:
        return v.x, v.y  # type: ignore[return-value]
    if v.kind is VKind.UNIVERSE:
        return INITIAL, TERMINAL
    if v.kind is VKind.UPROD:
        return INITIAL, v.x  # type: ignore[return-value]
    raise UndecidedPairError(f"{v.kind.value} is not WC-shaped")


# -- membership oracles ------------------------------------------------------


def _covers(xs: Sequence[int], ys: Sequence[int], s: int) -> bool:
    """Does a member of the WC-shaped family with source masks ``xs`` and
    bound masks ``ys`` contain ``s``?  A member is ``x | b`` with b finite
    and inside some bound member, so s is covered exactly when, for some x,
    ``s - x`` is finite (``s >= 0 or x < 0``) and fits inside a bound member
    y (``not (s & ~x) & ~y``)."""
    for x in xs:
        if s >= 0 or x < 0:
            rest = s & ~x
            for y in ys:
                if not rest & ~y:
                    return True
    return False


def _maps_into_exp(zs: Iterable[int], b: Obj, c: Obj) -> bool:
    """Whether every ``s & m``, for ``s`` in the signed masks ``zs`` and
    ``m`` a member of B, lies in some member of C."""
    return _arrow([s & m for s in zs for m in b._signed], c._signed)


def _in_wexp(zs: Sequence[int], b: Obj, c: Obj) -> bool:
    """The classifier's member criterion, proved at :func:`wexp_member`, for all of ``zs``."""
    return _maps_into_exp(zs, b, c) and (min(zs) >= 0 or _star(c._signed, b._signed))


def wexp_member(b: Obj, c: Obj, s: NSet) -> bool:
    """Is ``s`` a member of the weak-equivalence classifier over (B, C)?

    The singleton criterion: with ``z = {{}, s}``, the arrow
    ``z x B -> z x C`` must be a weak equivalence, the arrow plus the
    near-inclusion back.  Both halves are closed forms on signed masks, and
    no product is built:

    * The members of ``z x B`` are the ``s & m`` for m in B, and those of
      ``z x C`` the ``s & n`` for n in C.  ``s & m`` lies in ``s & n``
      exactly when it lies in n, since it lies in s, so the arrow is
      ``z x B -> C``: every ``s & m`` lies in some member of C, which is
      membership of s in ``EXP(B, C)``.
    * The near-inclusion ``z x C ~> z x B`` fails exactly when ``z x C``
      has a cofinite member and ``z x B`` has none
      (:func:`~famcat.kernel.star_arrow`).  ``s & m`` is cofinite exactly
      when s and m are, and only a cofinite member contains a cofinite
      one, so ``z x B`` has a cofinite member exactly when s is cofinite
      and B has one, and the same holds for C.  The near-inclusion is
      therefore: s is finite, or B has a cofinite member, or C has none,
      which is the kernel's near-inclusion ``C ~> B`` of the members.
    """
    return _in_wexp((s._s,), b, c)


# -- arrow oracles -----------------------------------------------------------


def arrow_into_vobj(z: Obj, v: VObj) -> bool:
    """Arrow from an explicit object into a virtual one.

    Into a WC-shaped family, each member of z must be covered.  Into
    ``EXP(B, C)`` the arrow is ``z x B -> C``, into ``EXP_SLICE(A, B, C)``
    it is also ``z -> A``, and into ``WEXP(A, B, C)`` it is ``z -> A`` and a
    weak equivalence ``z x B -> z x C``.  Each hom condition splits member
    by member of z, so it is decided on the signed masks z holds, with no
    product.  The members of ``z x B`` are the ``s & m`` for s in z and m
    in B, so ``z x B -> C`` asks that every ``s & m`` lie in some member
    of C, which is :func:`_maps_into_exp` on the masks of z.  If
    ``s & m`` lies in some ``s' & n``, it lies in n and in s, so in
    ``s & n``: ``z x B -> z x C`` is the same condition.  Its
    near-inclusion back fails exactly when z and C have a cofinite member
    and B has none, that is when z has a cofinite member and ``C ~> B``
    fails, so the arrow into ``WEXP`` is ``z -> A`` and
    :func:`wexp_member` for every member.
    """
    zs = z._signed
    if v.kind is VKind.EXP:
        return _maps_into_exp(zs, v.b, v.c)
    if v.kind is VKind.EXP_SLICE:
        return arrow_exists(z, v.a) and _maps_into_exp(zs, v.b, v.c)
    if v.kind is VKind.WEXP:
        return arrow_exists(z, v.a) and _in_wexp(zs, v.b, v.c)
    xs, ys = _wc_parts(v)
    return all(_covers(xs._signed, ys._signed, s) for s in zs)


def arrow_from_vobj(v: VObj, t: Obj) -> bool:
    """Arrow from a WC-shaped virtual object to an explicit one.

    The finite witness argument collapses the member quantifier: every
    ``x | b`` is covered exactly when each full ``x | y`` is, because one
    missing point per candidate target member assembles a finite b that
    defeats them all.
    """
    xs, ys = _wc_parts(v)
    return _arrow([x | y for x in xs._signed for y in ys._signed], t._signed)


# -- exponentials ------------------------------------------------------------


def exp_explicit(b: Obj, c: Obj) -> Obj:
    """The exponential of C by B as an explicit object.

    It is ``TERMINAL`` exactly when ``b -> c``, and then nothing is built:
    each ``s & m``, for m in B, lies in m and so in a member of C, so N is a
    member; conversely ``B = TERMINAL x B -> C``.  Otherwise a set s is a
    member exactly when it lies in the intersection of ``choice(m) | ~m``
    over the members m of B, for some choice of targets in C.  Each step
    meets the partials with the maximal terms ``t | ~m`` (a dominated term
    yields only dominated meets) through :func:`~famcat.kernel._meets`, the
    guard of :func:`~famcat.kernel.product`, and keeps the maximal meets.
    The empty member of B comes first, and its only term ``t | ~{}`` is N,
    so its step would change nothing: the steps start at the next member.
    Pruning cannot always collapse the choice blowup: k disjoint pairs in B
    against their 2k singletons in C leave 2**k partials.
    """
    if _arrow(b._signed, c._signed):
        return TERMINAL
    partials = [-1]  # the signed mask of N
    for m in b._signed[1:]:
        terms = _maximal([t | ~m for t in c._signed])
        partials = _maximal(_meets(partials, terms, "an exponential step"))
    return _from_maximal(partials)


def exp_slice(a: Obj, b: Obj, c: Obj) -> Obj:
    """The exponential seen in the slice over ``a``: its product with a."""
    _require_slice(a, b, c)
    return product(exp_explicit(b, c), a)


# -- the factorization middle ------------------------------------------------

# check_factorization decides at most this many instances, which grow as
# |x| * |y|**2; the 167-object universes need 5,488 at most.
MAX_FACTOR_INSTANCES = 1_000_000


def _finite_subsets(m: int, margin: int) -> list[int]:
    """A deterministic spread of finite subsets of ``m`` for spot checks, as
    masks: {}, singletons of its least members, and their union if new."""
    elems = _elements(m & (2 << margin) - 1)[: 4 if m < 0 else 5]
    subs = [0, *(1 << e for e in elems)]
    if len(elems) > 1:
        subs.append(sum(subs))
    return subs


class FactorizationCheck(Value):
    """Verified facts of the two-step factorization through ``WC(x, y)``."""

    __slots__ = (
        "x", "y", "arrow_into_middle", "star_back_to_source", "fibration_instances_ok",
        "instances",
    )
    x: Obj
    y: Obj
    arrow_into_middle: bool
    star_back_to_source: bool
    fibration_instances_ok: bool
    instances: int

    @property
    def ok(self) -> bool:
        return self.arrow_into_middle and self.star_back_to_source and self.fibration_instances_ok

    def to_json_dict(self) -> dict[str, object]:
        return {
            "wc": VObj.wc(self.x, self.y).to_json_dict(),
            "arrow_into_middle": self.arrow_into_middle,
            "star_back_to_source": self.star_back_to_source,
            "fibration_instances_ok": self.fibration_instances_ok,
            "instances": self.instances,
        }


def check_factorization(x: Obj, y: Obj) -> FactorizationCheck:
    """Verify the factorization facts for the pair (x, y) through the oracle.

    Three facts are checked instance by instance: every member of x is
    covered by the middle; sampled middle members stay near some member of
    x (the enlargement is finite by construction); and for sampled middle
    members u, target members y' and finite b inside y', the constructive
    witness ``x | ((b0 & y') | b)`` keeps ``(u & y') | b`` covered, which is
    the definitional fibration condition of the middle over y.

    A generator ``(xm, b0)``, with b0 in the union of the spreads, gives the
    middle member ``u = xm | b0``.  The need ``(u & y') | b`` of an instance
    ``(xm, b0, y', b)`` always lies in its witness ``xm | p``, with the part
    ``p = (b0 & y') | b``: ``u & y' = (xm & y') | (b0 & y')`` lies in it.
    So an instance holds exactly when its witness is covered, and the check
    is set algebra over the distinct witnesses: the parts of each y', the
    witnesses ``{xm | p}``, and one dict that asks coverage once per
    witness.  Every spread starts with ``{}``, so each member ``xm`` is the
    witness with ``b0 = b = {}``, and the members are read from that dict.
    ``instances`` counts every ``(xm, b0, y', b)``, repeats included.  It
    stops with :class:`SizeGuardError`, before deciding any, past
    ``MAX_FACTOR_INSTANCES`` (``|x| * S**2`` for S subsets spread over y).
    """
    xs, ys = x._signed, y._signed
    # two past the largest element of any member, read off the mask widths
    margin = 1 + max(1, *((~s if s < 0 else s).bit_length() for s in xs + ys))
    spreads = {ym: _finite_subsets(ym, margin) for ym in ys}
    instances = len(xs) * sum(map(len, spreads.values())) ** 2
    if instances > MAX_FACTOR_INSTANCES:
        raise SizeGuardError(
            f"the factorization check would decide {instances} instances,"
            f" past MAX_FACTOR_INSTANCES = {MAX_FACTOR_INSTANCES}"
        )
    b0s = set().union(*spreads.values())
    star_back = _star([xm | b0 for xm in xs for b0 in b0s], xs)
    parts = {(b0 & ym) | b for ym, subs in spreads.items() for b0 in b0s for b in subs}
    covered = {w: _covers(xs, ys, w) for w in {xm | p for xm in xs for p in parts}}
    return FactorizationCheck(
        x=x,
        y=y,
        arrow_into_middle=all(covered[xm] for xm in xs),
        star_back_to_source=star_back,
        fibration_instances_ok=all(covered.values()),
        instances=instances,
    )


# -- the label dispatch --------------------------------------------------------


def _reduce_exponentials(v: Obj | VObj) -> Obj | VObj:
    if isinstance(v, VObj) and v.kind is VKind.EXP:
        return exp_explicit(v.b, v.c)  # type: ignore[arg-type]
    if isinstance(v, VObj) and v.kind is VKind.EXP_SLICE:
        return exp_slice(v.a, v.b, v.c)  # type: ignore[arg-type]
    return v


def decide(
    src: Obj | VObj, dst: Obj | VObj, label: str
) -> tuple[bool, LabelVerdict | None]:
    """Decide ``label`` (arrow, w, f or c) on an ordered pair of endpoints.

    A label outside those four raises :class:`ValueError` before any work.
    Exponentials are first reduced to explicit objects.  An explicit pair is
    decided by the kernel, and its whole :class:`LabelVerdict` comes back
    with the answer.  A pair with one virtual end has one rule per kind, its
    arrow (:func:`arrow_into_vobj` or :func:`arrow_from_vobj`), and each
    label is composed from it once for both directions: arrow and c are the
    arrow; w is the arrow and the near-inclusion from the part of dst to the
    part of src, an explicit end being its own part; f is the arrow from a
    WC-shaped family to its own bound family.  The near-inclusion reads only
    the source part x of a WC-shaped end, because ``(x | b) - t`` is finite
    iff ``x - t`` is; it is asked after the arrow, so a pair with no arrow
    is false even when the virtual end is not WC-shaped.  Every other query
    raises :class:`UndecidedPairError`.

    ``WC(x, y) -> y`` carries f exactly when the arrow exists, because the
    three facts of ``check_factorization(x, y)`` hold by construction: each
    ``xm`` in x is covered as ``xm | {}``; a middle member ``xm | b0`` is
    cofinite only when ``xm`` is (b0 is finite), so the star back holds;
    and each witness ``xm | ((b0 & y') | b)`` contains its ``need``
    ``((xm | b0) & y') | b`` and is covered through ``y'``, since
    :func:`_finite_subsets` returns subsets of ``y'``.
    """
    if label not in _LABELS:
        raise ValueError(f"unknown label {label!r}; expected one of {list(_LABELS)}")
    src, dst = _reduce_exponentials(src), _reduce_exponentials(dst)
    if isinstance(src, Obj) and isinstance(dst, Obj):
        verdict = label_verdict(src, dst)
        return getattr(verdict, label), verdict
    if isinstance(src, Obj):
        arrow = arrow_into_vobj(src, dst)  # type: ignore[arg-type]
    elif isinstance(dst, Obj):
        arrow = arrow_from_vobj(src, dst)
    else:
        raise UndecidedPairError(f"no rule for {src.kind.value} -> {dst.kind.value}")
    if label in ("arrow", "c"):
        return arrow, None
    if label == "w":
        return arrow and star_arrow(_wc_parts(dst)[0], _wc_parts(src)[0]), None
    if label == "f" and _wc_parts(src)[1] == dst:
        return arrow, None
    ends = [e.kind.value if isinstance(e, VObj) else "explicit" for e in (src, dst)]
    raise UndecidedPairError(f"label {label!r} has no rule for {ends[0]} -> {ends[1]}")


def is_iso_virtual(v: VObj, t: Obj) -> bool:
    """Mutual arrows between a virtual object and an explicit one."""
    return decide(v, t, "arrow")[0] and decide(t, v, "arrow")[0]
