"""Fibrations, the univalence certificate, and smallness of fibers.

The universal fibration is the arrow from the universe object (the family
of all finite sets) to the terminal object.  A fibration is *small* when
its total object is weakly equivalent over the initial object, i.e. every
member is finite; it is *p-small* when its total object matches the
product of the universe object with its base, compared through the
WC-shaped oracles in both directions.  ``verify_universal`` machine-checks
that the two notions agree on a whole universe of fibrations, as a
one-check run of the harness's suite runner.  Only it and
``sample_fibrations`` import :mod:`famcat.harness`, so the smallness
deciders load without the suites.

``is_univalent`` builds a six-step certificate for a fibration; every step
is an explicitly computed fact that can be re-checked through the kernel
and the virtual-object oracles.  Each fact is built once per certificate:
each distinct object's JSON once, and step 6 reads step 5's arrow, because
the square of the base is the base object itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._value import Value
from .kernel import (
    INITIAL,
    TERMINAL,
    Obj,
    arrow_exists,
    is_iso,
    label_f,
    label_w,
    product,
)
from .nset import FULL
from .vobj import VObj, _literal, decide, exp_explicit, is_iso_virtual, wexp_member

if TYPE_CHECKING:
    from .harness import CheckResult, Universe


class Fibration(Value):
    """An arrow labelled (f), recorded by its endpoints."""

    __slots__ = ("total", "base")
    total: Obj
    base: Obj

    def is_fibration(self) -> bool:
        return label_f(self.total, self.base)

    @classmethod
    def verified(cls, total: Obj, base: Obj) -> "Fibration":
        q = cls(total, base)
        if not q.is_fibration():
            raise ValueError(f"{total} -> {base} is not a fibration")
        return q


class CertificateStep(Value):
    """One step of a certificate; it holds a dict, so it is not hashable."""

    __slots__ = ("name", "passed", "facts")
    name: str
    passed: bool
    facts: dict[str, object]

    def to_json_dict(self) -> dict[str, object]:
        return {"name": self.name, "passed": self.passed, "facts": self.facts}


class UnivalenceCertificate(Value):
    __slots__ = ("total", "base", "steps")
    total: Obj
    base: Obj
    steps: tuple[CertificateStep, ...]

    @property
    def valid(self) -> bool:
        return all(s.passed for s in self.steps)

    @property
    def failing_step(self) -> str | None:
        for s in self.steps:
            if not s.passed:
                return s.name
        return None

    def to_json_dict(self) -> dict[str, object]:
        return {
            "total": self.total.to_json_dict(),
            "base": self.base.to_json_dict(),
            "steps": [s.to_json_dict() for s in self.steps],
            "valid": self.valid,
        }


def is_univalent(q: Fibration) -> UnivalenceCertificate:
    """Compute the six-step univalence certificate for a fibration.

    The steps mirror the posetal argument: the base square collapses, the
    diagonal lands in it, the two path-space products coincide, the self
    exponential is terminal, the weak-equivalence classifier of the slice
    is its terminal object, and the canonical comparison map is therefore
    an isomorphism, hence a weak equivalence.

    Each fact is built once per certificate.  Each distinct object's JSON
    is built once, by a memo keyed by object identity that lives for this
    call only; every keyed object stays bound until the call returns, so no
    two share an id, and an object's JSON depends on its value alone.  For
    a canonical base ``product(b, b)`` is ``b`` itself, and on an identity
    fibration so are both products with the total.  The classifier's JSON
    is built from the same memo, so facts naming the same object share one
    dict: treat a certificate's facts as read-only.  Step 6's query
    ``decide(b, classifier, "arrow")`` is step 5's ``decide(bb, classifier,
    "arrow")``, because ``bb is b``: :func:`~famcat.kernel.product` returns
    ``x`` itself whenever ``x -> y``, and every object has ``b -> b``.
    """
    e, b = q.total, q.base
    built: dict[int, dict[str, object]] = {}

    def as_json(x: Obj) -> dict[str, object]:
        if id(x) not in built:
            built[id(x)] = x.to_json_dict()
        return built[id(x)]

    bb = product(b, b)
    s1 = CertificateStep(
        "product_collapse",
        is_iso(bb, b),
        {"square": as_json(bb), "base": as_json(b)},
    )
    diagonal = arrow_exists(b, bb)
    s2 = CertificateStep("diagonal_into_square", diagonal, {"diagonal_exists": diagonal})
    eb, be = product(e, b), product(b, e)
    s3 = CertificateStep(
        "product_symmetry",
        eb == be,  # equal canonical objects are isomorphic
        {"left": as_json(eb), "right": as_json(be)},
    )
    selfexp = exp_explicit(eb, eb)
    s4 = CertificateStep(
        "self_exponential_is_terminal",
        is_iso(selfexp, TERMINAL),
        {"exponential": as_json(selfexp)},
    )
    classifier = VObj.wexp(bb, eb, eb)
    top_member = wexp_member(eb, eb, FULL)
    slice_terminal_maps_in, _ = decide(bb, classifier, "arrow")
    s5 = CertificateStep(
        "weq_classifier_is_slice_terminal",
        slice_terminal_maps_in and top_member,
        {
            "classifier": _literal(classifier, as_json),
            "slice_terminal_maps_in": slice_terminal_maps_in,
            "full_set_is_member": top_member,
        },
    )
    comparison = slice_terminal_maps_in
    prior = all(s.passed for s in (s1, s2, s3, s4, s5))
    s6 = CertificateStep(
        "comparison_map_is_iso",
        prior and comparison,
        {
            "comparison_exists": comparison,
            "interval_argument": "the map is sandwiched between isomorphic endpoints",
        },
    )
    return UnivalenceCertificate(total=e, base=b, steps=(s1, s2, s3, s4, s5, s6))


# -- smallness ----------------------------------------------------------------


def is_small(q: Fibration) -> bool:
    """Weak equivalence from the initial object into the total object.

    Equivalently: every member of the total object is finite.
    """
    return label_w(INITIAL, q.total)


def is_p_small(q: Fibration) -> bool:
    """Does ``q`` arise from the universal fibration by base change?

    The total object must be isomorphic to the product of the universe
    object with the base, compared through the WC-shaped oracles in both
    directions.
    """
    return is_iso_virtual(VObj.uprod(q.base), q.total)


def sample_fibrations(u: Universe) -> list[Fibration]:
    """Identity fibrations on the universe's objects, one per object drawn.

    On explicit finite families the fibration condition forces mutual
    arrows, so canonically every explicit fibration is an identity; the
    non-identity fibrations of interest live on the virtual side.  Each
    distinct object's fibration is verified once, and a repeat of the
    object gets the same :class:`Fibration`.
    """
    from .harness import universe_objects

    built: dict[Obj, Fibration] = {}
    fibs = []
    for x in universe_objects(u):
        q = built.get(x)
        if q is None:
            q = built[x] = Fibration.verified(x, x)
        fibs.append(q)
    return fibs


def _pred_universal(t: tuple[Obj, ...]) -> str | None:
    (x,) = t
    q = Fibration(x, x)
    small, psmall = is_small(q), is_p_small(q)
    if small != psmall:
        return f"small={small} but p_small={psmall}"
    return None


def verify_universal(u: Universe) -> CheckResult:
    """Check ``is_small == is_p_small`` on the identity fibration of each
    object of a universe: a one-check suite, with violations shrunk."""
    from .harness import run_suite

    return run_suite(u, {"UNIVERSAL_FIBRATION": (1, _pred_universal, None)}, None).checks[0]


def universe_object_facts() -> dict[str, bool]:
    """Oracle-checked facts about the universe object's factorization.

    The universe object is the middle of the factorization of the arrow
    from the initial to the terminal object: reached by a trivial
    cofibration, mapping on by a fibration, and isomorphic to neither end.
    """
    ut = VObj.universe()
    facts = {
        "initial_wc_to_universe": decide(INITIAL, ut, "w")[0],
        "universe_arrow_to_terminal": decide(ut, TERMINAL, "arrow")[0],
        "universe_fibration_facts": decide(ut, TERMINAL, "f")[0],
        "universe_not_initial": not is_iso_virtual(ut, INITIAL),
        "universe_not_terminal": not is_iso_virtual(ut, TERMINAL),
    }
    return facts
