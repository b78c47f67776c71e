"""Fibrations, the univalence certificate, and smallness of fibers.

The universal fibration is the arrow from the universe object (the family
of all finite sets) to the terminal object.  A fibration is *small* when
its total object is weakly equivalent over the initial object, i.e. every
member is finite; it is *p-small* when its total object matches the
product of the universe object with its base, compared through the
WC-shaped oracles in both directions.  ``verify_universal`` machine-checks
that the two notions agree on a whole universe of fibrations.

``is_univalent`` builds a six-step certificate for a fibration; every step
is an explicitly computed fact that can be re-checked through the kernel
and the virtual-object oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .harness import CheckResult, Universe, Violation, universe_objects
from .kernel import (
    Obj,
    arrow_exists,
    initial,
    is_iso,
    label_f,
    label_w,
    product,
    terminal,
)
from .nset import FULL
from .vobj import VObj, decide, exp_explicit, is_iso_virtual, wexp_member


@dataclass(frozen=True)
class Fibration:
    """An arrow labelled (f), recorded by its endpoints."""

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

    def to_json_dict(self) -> dict[str, object]:
        return {"total": self.total.to_json_dict(), "base": self.base.to_json_dict()}


@dataclass(frozen=True)
class CertificateStep:
    name: str
    passed: bool
    facts: dict[str, object]

    def to_json_dict(self) -> dict[str, object]:
        return {"name": self.name, "passed": self.passed, "facts": self.facts}


@dataclass(frozen=True)
class UnivalenceCertificate:
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
    """
    e, b = q.total, q.base
    bb = product(b, b)
    s1 = CertificateStep(
        "product_collapse",
        is_iso(bb, b),
        {"square": bb.to_json_dict(), "base": b.to_json_dict()},
    )
    s2 = CertificateStep(
        "diagonal_into_square",
        arrow_exists(b, bb),
        {"diagonal_exists": arrow_exists(b, bb)},
    )
    eb, be = product(e, b), product(b, e)
    s3 = CertificateStep(
        "product_symmetry",
        eb == be and is_iso(eb, be),
        {"left": eb.to_json_dict(), "right": be.to_json_dict()},
    )
    selfexp = exp_explicit(eb, eb)
    s4 = CertificateStep(
        "self_exponential_is_terminal",
        is_iso(selfexp, terminal()),
        {"exponential": selfexp.to_json_dict()},
    )
    classifier = VObj.wexp(bb, eb, eb)
    top_member = wexp_member(eb, eb, FULL)
    slice_terminal_maps_in, _ = decide(bb, classifier, "arrow")
    s5 = CertificateStep(
        "weq_classifier_is_slice_terminal",
        slice_terminal_maps_in and top_member,
        {
            "classifier": classifier.to_json_dict(),
            "slice_terminal_maps_in": slice_terminal_maps_in,
            "full_set_is_member": top_member,
        },
    )
    comparison, _ = decide(b, classifier, "arrow")
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
    return label_w(initial(), q.total)


def is_p_small(q: Fibration) -> bool:
    """Does ``q`` arise from the universal fibration by base change?

    The total object must be isomorphic to the product of the universe
    object with the base, compared through the WC-shaped oracles in both
    directions.
    """
    return is_iso_virtual(VObj.uprod(q.base), q.total)


def sample_fibrations(u: Universe) -> list[Fibration]:
    """Identity fibrations on the universe's objects.

    On explicit finite families the fibration condition forces mutual
    arrows, so canonically every explicit fibration is an identity; the
    non-identity fibrations of interest live on the virtual side.
    """
    return [Fibration.verified(x, x) for x in universe_objects(u)]


def verify_universal(u: Universe) -> CheckResult:
    """Check ``is_small == is_p_small`` across a universe of fibrations."""
    start = time.perf_counter()
    violations: list[Violation] = []
    fibs = sample_fibrations(u)
    for q in fibs:
        small, psmall = is_small(q), is_p_small(q)
        if small != psmall:
            violations.append(
                Violation(
                    objects=(q.total, q.base),
                    detail=f"small={small} but p_small={psmall}",
                )
            )
    return CheckResult(
        name="UNIVERSAL_FIBRATION",
        instances=len(fibs),
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
    )


def universe_object_facts() -> dict[str, bool]:
    """Oracle-checked facts about the universe object's factorization.

    The universe object is the middle of the factorization of the arrow
    from the initial to the terminal object: reached by a trivial
    cofibration, mapping on by a fibration, and isomorphic to neither end.
    """
    ut = VObj.universe()
    facts = {
        "initial_wc_to_universe": decide(initial(), ut, "w")[0],
        "universe_arrow_to_terminal": decide(ut, terminal(), "arrow")[0],
        "universe_fibration_facts": decide(ut, terminal(), "f")[0],
        "universe_not_initial": not is_iso_virtual(ut, initial()),
        "universe_not_terminal": not is_iso_virtual(ut, terminal()),
    }
    return facts
