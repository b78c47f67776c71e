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
  by :func:`exp_explicit`.
* ``EXP_SLICE(A, B, C)`` - the exponential pulled into the slice over A.
* ``WEXP(A, B, C)`` - the weak-equivalence classifier of the slice over A;
  queried through :func:`wexp_member`.

:func:`decide` is the one dispatch for a label on an ordered pair with
explicit or virtual endpoints.  Arrow queries that no documented rule covers
raise :class:`UndecidedPairError` rather than guessing.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Mapping

from .kernel import (
    INITIAL,
    TERMINAL,
    LabelVerdict,
    Obj,
    SizeGuardError,
    arrow_exists,
    label_verdict,
    label_w,
    maximal,
    normalize,
    product,
    star_arrow,
)
from .nset import EMPTY, FULL, NSet


# exp_explicit holds at most this many partial intersections.  The claim
# suites peak at 4; past the limit the maximal-member filter, quadratic in
# the count, runs for seconds and then minutes.
MAX_PARTIALS = 1024


class UndecidedPairError(Exception):
    """An arrow query between virtual objects with no documented rule."""


class VKind(enum.Enum):
    WC = "wc"
    UNIVERSE = "utilde"
    UPROD = "uprod"
    EXP = "exp"
    EXP_SLICE = "exp_slice"
    WEXP = "wexp"


@dataclass(frozen=True)
class VObj:
    """A symbolic family, described by its kind and explicit parameters."""

    kind: VKind
    x: Obj | None = None
    y: Obj | None = None
    a: Obj | None = None
    b: Obj | None = None
    c: Obj | None = None

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

    def describe(self) -> str:
        parts = [
            f"{f}={getattr(self, f)}"
            for f in ("x", "y", "a", "b", "c")
            if getattr(self, f) is not None
        ]
        return f"{self.kind.value}({', '.join(parts)})"

    def to_json_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"vkind": self.kind.value}
        for f in ("x", "y", "a", "b", "c"):
            v = getattr(self, f)
            if v is not None:
                out[f] = v.to_json_dict()
        return out

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
        if kind in (VKind.EXP_SLICE, VKind.WEXP):
            _require_slice(**fields)
        return cls(kind, **fields)


_FIELDS = {
    VKind.WC: ("x", "y"),
    VKind.UNIVERSE: (),
    VKind.UPROD: ("x",),
    VKind.EXP: ("b", "c"),
    VKind.EXP_SLICE: ("a", "b", "c"),
    VKind.WEXP: ("a", "b", "c"),
}


def _require_slice(a: Obj, b: Obj, c: Obj) -> None:
    if not (arrow_exists(b, a) and arrow_exists(c, a)):
        raise ValueError("slice construction needs arrows from both b and c into a")


_WC_SHAPED = (VKind.WC, VKind.UNIVERSE, VKind.UPROD)


def _wc_parts(v: VObj) -> tuple[Obj, Obj]:
    """Source and bound families of a WC-shaped virtual object."""
    if v.kind is VKind.WC:
        return v.x, v.y  # type: ignore[return-value]
    if v.kind is VKind.UNIVERSE:
        return INITIAL, TERMINAL
    if v.kind is VKind.UPROD:
        return INITIAL, v.x  # type: ignore[return-value]
    raise UndecidedPairError(f"{v.describe()} is not WC-shaped")


# -- membership oracles ------------------------------------------------------


def wc_covers(v: VObj, s: NSet) -> bool:
    """Does some member of the WC-shaped family contain ``s``?

    A member is ``x | b`` with b finite and inside some bound member, so s
    is covered exactly when ``s - x`` is finite (s is finite or x cofinite)
    and fits inside a bound member for some x.
    """
    xs, ys = _wc_parts(v)
    for x in xs:
        if (not s.cofinite or x.cofinite) and any((s - x).is_subset(y) for y in ys):
            return True
    return False


def wexp_member(b: Obj, c: Obj, s: NSet) -> bool:
    """Is ``s`` a member of the weak-equivalence classifier over (B, C)?

    Decided by the singleton criterion: the two-member family ``{{}, s}``
    must carry a weak equivalence between its products with B and with C.
    """
    z = normalize([s])
    return label_w(product(z, b), product(z, c))


# -- arrow oracles -----------------------------------------------------------


def arrow_into_vobj(z: Obj, v: VObj) -> bool:
    """Arrow from an explicit object into a virtual one."""
    if v.kind in _WC_SHAPED:
        return all(wc_covers(v, m) for m in z)
    if v.kind is VKind.EXP:
        return arrow_exists(product(z, v.b), v.c)
    if v.kind is VKind.EXP_SLICE:
        return arrow_exists(z, v.a) and arrow_exists(product(z, v.b), v.c)
    if v.kind is VKind.WEXP:
        return arrow_exists(z, v.a) and label_w(product(z, v.b), product(z, v.c))
    raise UndecidedPairError(f"no arrow rule into {v.describe()}")


def arrow_from_vobj(v: VObj, t: Obj) -> bool:
    """Arrow from a WC-shaped virtual object to an explicit one.

    The finite witness argument collapses the member quantifier: every
    ``x | b`` is covered exactly when each full ``x | y`` is, because one
    missing point per candidate target member assembles a finite b that
    defeats them all.
    """
    if v.kind not in _WC_SHAPED:
        raise UndecidedPairError(f"no arrow rule out of {v.describe()}")
    xs, ys = _wc_parts(v)
    return all(any((x | y).is_subset(m) for m in t) for x in xs for y in ys)


# -- exponentials ------------------------------------------------------------


def exp_explicit(b: Obj, c: Obj) -> Obj:
    """The exponential of C by B as an explicit object.

    A set s maps against every member of B into C exactly when s is inside
    the intersection of ``choice(m) | ~m`` over members m of B, for some
    choice of targets in C.  The maximal such intersections are the members;
    dominated partial intersections are pruned at every step, which keeps
    the choice-function blowup collapsed.  Pruning cannot always collapse
    it: k disjoint two-element members of B against their 2k singletons in
    C leave 2**k partials.  Past ``MAX_PARTIALS`` of them the construction
    stops with :class:`SizeGuardError`.
    """
    partials = [FULL]
    for m in b:
        terms = {t | ~m for t in c}
        partials = maximal({p & t for p in partials for t in terms})
        if len(partials) > MAX_PARTIALS:
            raise SizeGuardError(
                f"the exponential passed MAX_PARTIALS = {MAX_PARTIALS} partial intersections"
            )
    return normalize(partials)


def exp_slice(a: Obj, b: Obj, c: Obj) -> Obj:
    """The exponential seen in the slice over ``a``: its product with a."""
    _require_slice(a, b, c)
    return product(exp_explicit(b, c), a)


# -- the factorization middle ------------------------------------------------


def _finite_subsets(m: NSet, margin: int) -> list[NSet]:
    """A deterministic spread of finite subsets of ``m`` for spot checks."""
    if m.cofinite:
        elems = tuple(i for i in range(margin + 1) if i in m)[:4]
    else:
        elems = m.support[:5]
    subs = [EMPTY]
    subs.extend(NSet.fin((e,)) for e in elems)
    if len(elems) > 1:
        subs.append(NSet.fin(elems))
    out: list[NSet] = []
    for s in subs:
        if s not in out:
            out.append(s)
    return out


@dataclass(frozen=True)
class FactorizationCheck:
    """Verified facts of the two-step factorization through ``WC(x, y)``."""

    x: Obj
    y: Obj
    arrow_into_middle: bool
    star_back_to_source: bool
    fibration_instances_ok: bool
    instances: int

    @property
    def ok(self) -> bool:
        return (
            self.arrow_into_middle
            and self.star_back_to_source
            and self.fibration_instances_ok
        )

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

    A middle member ``u = xm | b0`` comes from a generator ``(xm, b0)``, and
    the same generator can arise from several members of y (``b0 = {}``
    arises from each of them).  Its instances are a function of the generator alone, so
    they are decided once per distinct generator, and a repeated generator
    repeats their outcome; ``instances`` still counts every generator.
    """
    v = VObj.wc(x, y)
    margin = 2 + max(
        (e for m in tuple(x) + tuple(y) for e in m.support), default=0
    )
    arrow_into = all(wc_covers(v, m) for m in x)

    bounds = [(ym, _finite_subsets(ym, margin)) for ym in y]
    generators = [(xm, b0) for xm in x for _, subs in bounds for b0 in subs]
    distinct = [(xm, b0, xm | b0) for xm, b0 in dict.fromkeys(generators)]
    star_back = star_arrow([u for _, _, u in distinct], x)

    fib_ok = True
    covers = functools.cache(functools.partial(wc_covers, v))  # witnesses repeat
    for xm, b0, u in distinct:
        for ym, subs in bounds:
            # (xm | (b0 & ym)) | b is the witness xm | ((b0 & ym) | b)
            meet, base = u & ym, xm | (b0 & ym)
            for b in subs:
                need, witness = meet | b, base | b
                # wc_covers is downward closed: need inside a covered witness
                # is covered too, so it is not asked separately
                if not need.is_subset(witness) or not covers(witness):
                    fib_ok = False
    return FactorizationCheck(
        x=x,
        y=y,
        arrow_into_middle=arrow_into,
        star_back_to_source=star_back,
        fibration_instances_ok=fib_ok,
        instances=len(generators) * sum(len(subs) for _, subs in bounds),
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

    Exponentials are first reduced to explicit objects.  An explicit pair is
    decided by the kernel, and its whole :class:`LabelVerdict` comes back
    with the answer.  A pair with one virtual end goes through the closed
    forms: arrow and c both ways, w both ways, and f only from a WC-shaped
    family to its own bound family, where the verified factorization facts
    apply.  The near-inclusion half of w only reads the explicit source
    part of a WC-shaped family, because ``(x | b) - t`` is finite iff
    ``x - t`` is; it is asked after the arrow, so a pair with no arrow is
    false even when the virtual end is not WC-shaped.  Every other query
    raises :class:`UndecidedPairError`.
    """
    src, dst = _reduce_exponentials(src), _reduce_exponentials(dst)
    if isinstance(src, Obj) and isinstance(dst, Obj):
        verdict = label_verdict(src, dst)
        return getattr(verdict, label), verdict
    if isinstance(src, Obj):  # explicit -> virtual
        assert isinstance(dst, VObj)
        if label in ("arrow", "c"):
            return arrow_into_vobj(src, dst), None
        if label == "w":
            return arrow_into_vobj(src, dst) and star_arrow(_wc_parts(dst)[0], src), None
        raise UndecidedPairError(
            f"label {label!r} has no rule for explicit -> {dst.describe()}"
        )
    if isinstance(dst, Obj):  # virtual -> explicit
        if label in ("arrow", "c"):
            return arrow_from_vobj(src, dst), None
        if label == "w":
            return arrow_from_vobj(src, dst) and star_arrow(dst, _wc_parts(src)[0]), None
        if label == "f":
            xs, ys = _wc_parts(src)
            if ys == dst:
                return arrow_from_vobj(src, dst) and check_factorization(xs, ys).ok, None
        raise UndecidedPairError(
            f"label {label!r} has no rule for {src.describe()} -> explicit"
        )
    raise UndecidedPairError(f"no rule for {src.describe()} -> {dst.describe()}")


def is_iso_virtual(v: VObj, t: Obj) -> bool:
    """Mutual arrows between a virtual object and an explicit one."""
    return decide(v, t, "arrow")[0] and decide(t, v, "arrow")[0]
