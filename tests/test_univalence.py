"""Fibrations, univalence certificates, and the two smallness notions.

Certificates are checked step by step on pinned fibrations; smallness and
p-smallness are compared against first-principles recomputation; and the
universal-fibration facts are asserted through the virtual-object oracles.
"""

import pytest

from famcat.harness import Universe, enumerate_objects
from famcat.kernel import Obj, initial, is_iso, label_w, product, terminal
from famcat.nset import NSet
from famcat.univalence import (
    Fibration,
    is_p_small,
    is_small,
    is_univalent,
    sample_fibrations,
    universe_object_facts,
    verify_universal,
)
from famcat.vobj import exp_explicit

fin = NSet.fin
cofin = NSet.cofin

A = Obj.of(fin([0]))
B = Obj.of(fin([0, 1]))
C = Obj.of(fin([0]), fin([1]))
NEAR_FULL = Obj.of(cofin([0]))

W2 = enumerate_objects(Universe(window=2))

STEP_NAMES = (
    "product_collapse",
    "diagonal_into_square",
    "product_symmetry",
    "self_exponential_is_terminal",
    "weq_classifier_is_slice_terminal",
    "comparison_map_is_iso",
)


# -- fibration records ---------------------------------------------------------


def test_verified_accepts_identities_and_rejects_non_fibrations():
    q = Fibration.verified(B, B)
    assert q.is_fibration()
    with pytest.raises(ValueError):
        Fibration.verified(A, B)  # arrow without the extension condition
    with pytest.raises(ValueError):
        Fibration.verified(B, A)  # no arrow at all
    assert not Fibration(A, B).is_fibration()


def test_fibration_json():
    q = Fibration(C, C)
    assert q.to_json_dict() == {
        "total": C.to_json_dict(),
        "base": C.to_json_dict(),
    }


# -- univalence certificates ----------------------------------------------------


@pytest.mark.parametrize("base", [None] + list(range(5)), ids=lambda i: f"obj{i}")
def test_identity_fibrations_are_univalent(base):
    x = terminal() if base is None else W2[base]
    cert = is_univalent(Fibration.verified(x, x))
    assert cert.valid and cert.failing_step is None
    assert tuple(s.name for s in cert.steps) == STEP_NAMES
    for s in cert.steps:
        assert s.passed, s.name


def test_certificate_steps_recompute():
    q = Fibration.verified(B, B)
    cert = is_univalent(q)
    bb = product(B, B)
    assert is_iso(bb, B)  # product_collapse
    assert is_iso(exp_explicit(bb, bb), terminal())  # self exponential
    facts = {s.name: s.facts for s in cert.steps}
    assert facts["product_collapse"]["square"] == bb.to_json_dict()
    assert facts["weq_classifier_is_slice_terminal"]["full_set_is_member"] is True


def test_certificate_on_cofinite_identity():
    cert = is_univalent(Fibration.verified(NEAR_FULL, NEAR_FULL))
    assert cert.valid


def test_certificate_json_round_shape():
    cert = is_univalent(Fibration.verified(A, A))
    d = cert.to_json_dict()
    assert d["valid"] is True
    assert [s["name"] for s in d["steps"]] == list(STEP_NAMES)


def test_self_exponential_is_terminal_for_every_small_object():
    for c in W2:
        assert is_iso(exp_explicit(c, c), terminal())


# -- smallness --------------------------------------------------------------------


def test_is_small_iff_every_total_member_is_finite():
    for x in W2:
        assert is_small(Fibration(x, x)) == all(m.is_finite for m in x)
    assert not is_small(Fibration(terminal(), terminal()))
    assert not is_small(Fibration(NEAR_FULL, NEAR_FULL))
    assert is_small(Fibration(initial(), initial()))


def test_is_small_recomputes_as_label_w_from_initial():
    for x in W2 + [terminal(), NEAR_FULL]:
        assert is_small(Fibration(x, x)) == label_w(initial(), x)


def test_is_p_small_on_identity_fibrations():
    # identity on a finite-membered object: covered by the universe product
    assert is_p_small(Fibration(A, A))
    assert is_p_small(Fibration(C, C))
    # identity on the terminal object: N escapes every finite enlargement
    assert not is_p_small(Fibration(terminal(), terminal()))
    assert not is_p_small(Fibration(NEAR_FULL, NEAR_FULL))


def test_is_p_small_detects_mismatched_pairs():
    # a non-fibration pair whose total undershoots the universe product
    assert not is_p_small(Fibration(initial(), B))  # {0,1} escapes the total
    # and one whose total overshoots it
    assert not is_p_small(Fibration(B, initial()))  # {0,1} is not nearly empty


def test_smallness_is_closed_under_products_and_coproducts():
    from famcat.kernel import coproduct

    small = [x for x in W2 if is_small(Fibration(x, x))]
    for x in small:
        for y in small:
            assert is_small(Fibration(product(x, y), product(x, y)))
            assert is_small(Fibration(coproduct(x, y), coproduct(x, y)))


# -- the universal property across a universe ---------------------------------------


def test_sample_fibrations_are_identities():
    fibs = sample_fibrations(Universe(window=2))
    assert len(fibs) == len(W2)
    assert all(q.total == q.base and q.is_fibration() for q in fibs)
    sampled = sample_fibrations(Universe(window=3, include_cofinite=True, samples=50))
    assert len(sampled) == 50


def test_verify_universal_exhaustive_and_sampled():
    r = verify_universal(Universe(window=2))
    assert r.passed and r.instances == 5 and r.name == "UNIVERSAL_FIBRATION"
    r = verify_universal(Universe(window=3, include_cofinite=True, samples=300, seed=42))
    assert r.passed and r.instances == 300


def test_small_iff_p_small_pointwise_on_the_small_universe():
    for x in W2:
        q = Fibration(x, x)
        assert is_small(q) == is_p_small(q)


# -- facts about the universe object ------------------------------------------------


def test_universe_object_facts_all_hold():
    facts = universe_object_facts()
    assert facts == {
        "initial_wc_to_universe": True,
        "universe_arrow_to_terminal": True,
        "universe_fibration_facts": True,
        "universe_not_initial": True,
        "universe_not_terminal": True,
    }
