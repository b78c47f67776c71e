"""Fibrations, univalence certificates, and the two smallness notions.

Certificates are checked step by step on pinned fibrations, and byte for
byte against a reference that builds every fact by its own call; smallness and
p-smallness are compared against first-principles recomputation; the
universal-fibration check must report what a hand replay of its universe
reports, also under a deliberately weakened ``is_p_small``; and the
universal-fibration facts are asserted through the virtual-object oracles.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import famcat
from famcat import harness, univalence
from famcat.harness import (
    MAX_RECORDED_VIOLATIONS,
    Universe,
    enumerate_objects,
    run_axioms,
    run_claims,
    shrink_tuple,
    universe_objects,
)
from famcat.kernel import INITIAL, TERMINAL, Obj, arrow_exists, is_iso, label_f, label_w, product
from famcat.nset import FULL, NSet
from famcat.univalence import (
    CertificateStep,
    Fibration,
    UnivalenceCertificate,
    is_p_small,
    is_small,
    is_univalent,
    sample_fibrations,
    universe_object_facts,
    verify_universal,
)
from famcat.vobj import VObj, decide, exp_explicit, wexp_member
from test_harness import nset_draw

fin = NSet.fin
cofin = NSet.cofin

A = Obj.of(fin([0]))
B = Obj.of(fin([0, 1]))
C = Obj.of(fin([0]), fin([1]))
NEAR_FULL = Obj.of(cofin([0]))

W2 = enumerate_objects(Universe(window=2))
W3 = enumerate_objects(Universe(window=3))
C2 = enumerate_objects(Universe(window=2, include_cofinite=True))

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


# -- univalence certificates ----------------------------------------------------


@pytest.mark.parametrize("base", [None] + list(range(5)), ids=lambda i: f"obj{i}")
def test_identity_fibrations_are_univalent(base):
    x = TERMINAL if base is None else W2[base]
    cert = is_univalent(Fibration.verified(x, x))
    assert cert.valid and cert.failing_step is None
    assert tuple(s.name for s in cert.steps) == STEP_NAMES
    for s in cert.steps:
        assert s.passed, s.name


def test_a_failing_certificate_names_its_first_failing_step(monkeypatch):
    # a self exponential that is not terminal fails step 4, and so step 6
    monkeypatch.setattr(univalence, "exp_explicit", lambda b, c: b)
    cert = is_univalent(Fibration.verified(A, A))
    assert [s.name for s in cert.steps if not s.passed] == [STEP_NAMES[3], STEP_NAMES[5]]
    assert not cert.valid and cert.failing_step == "self_exponential_is_terminal"


def test_certificate_steps_recompute():
    q = Fibration.verified(B, B)
    cert = is_univalent(q)
    bb = product(B, B)
    assert is_iso(bb, B)  # product_collapse
    assert is_iso(exp_explicit(bb, bb), TERMINAL)  # self exponential
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


def reference_certificate(q):
    """The certificate with every fact built by its own call: each object's
    JSON, the classifier's JSON (by hand) and step 6's own ``decide``."""
    e, b = q.total, q.base
    bb = product(b, b)
    s1 = CertificateStep(
        "product_collapse",
        is_iso(bb, b),
        {"square": bb.to_json_dict(), "base": b.to_json_dict()},
    )
    diagonal = arrow_exists(b, bb)
    s2 = CertificateStep("diagonal_into_square", diagonal, {"diagonal_exists": diagonal})
    eb, be = product(e, b), product(b, e)
    s3 = CertificateStep(
        "product_symmetry", eb == be, {"left": eb.to_json_dict(), "right": be.to_json_dict()}
    )
    selfexp = exp_explicit(eb, eb)
    s4 = CertificateStep(
        "self_exponential_is_terminal",
        is_iso(selfexp, TERMINAL),
        {"exponential": selfexp.to_json_dict()},
    )
    classifier = VObj.wexp(bb, eb, eb)
    top_member = wexp_member(eb, eb, FULL)
    maps_in, _ = decide(bb, classifier, "arrow")
    s5 = CertificateStep(
        "weq_classifier_is_slice_terminal",
        maps_in and top_member,
        {
            # written out here, so that the library's literal writer is checked
            "classifier": {
                "vkind": "wexp",
                "a": bb.to_json_dict(),
                "b": eb.to_json_dict(),
                "c": eb.to_json_dict(),
            },
            "slice_terminal_maps_in": maps_in,
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


def _certificate_bytes(cert):
    return json.dumps(cert.to_json_dict(), sort_keys=True)


def test_certificate_matches_the_reference_on_identity_fibrations():
    for x in C2 + W3:
        q = Fibration.verified(x, x)
        assert _certificate_bytes(is_univalent(q)) == _certificate_bytes(reference_certificate(q))


def test_certificate_matches_the_reference_on_every_cofinite_w2_pair():
    # the only inputs whose square, products and classifier parts are
    # distinct objects; every ordered pair certifies, fibration or not
    for x in C2:
        for y in C2:
            q = Fibration(x, y)
            cert = is_univalent(q)
            assert cert.valid, (x, y)
            assert _certificate_bytes(cert) == _certificate_bytes(reference_certificate(q)), (x, y)


def test_self_exponential_is_terminal_for_every_small_object():
    for c in W2:
        assert is_iso(exp_explicit(c, c), TERMINAL)


# -- smallness --------------------------------------------------------------------


def test_is_small_iff_every_total_member_is_finite():
    for x in W2:
        assert is_small(Fibration(x, x)) == (not any(m.cofinite for m in x))
    assert not is_small(Fibration(TERMINAL, TERMINAL))
    assert not is_small(Fibration(NEAR_FULL, NEAR_FULL))
    assert is_small(Fibration(INITIAL, INITIAL))


def test_is_small_recomputes_as_label_w_from_initial():
    for x in W2 + [TERMINAL, NEAR_FULL]:
        assert is_small(Fibration(x, x)) == label_w(INITIAL, x)


def test_is_p_small_on_identity_fibrations():
    # identity on a finite-membered object: covered by the universe product
    assert is_p_small(Fibration(A, A))
    assert is_p_small(Fibration(C, C))
    # identity on the terminal object: N escapes every finite enlargement
    assert not is_p_small(Fibration(TERMINAL, TERMINAL))
    assert not is_p_small(Fibration(NEAR_FULL, NEAR_FULL))


def test_is_p_small_detects_mismatched_pairs():
    # a non-fibration pair whose total undershoots the universe product
    assert not is_p_small(Fibration(INITIAL, B))  # {0,1} escapes the total
    # and one whose total overshoots it
    assert not is_p_small(Fibration(B, INITIAL))  # {0,1} is not nearly empty


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


def test_sample_fibrations_verify_each_distinct_object_once(monkeypatch):
    u = Universe(window=3, include_cofinite=True, samples=400, seed=0)
    calls = []

    def counted(total, base):
        calls.append(total)
        return label_f(total, base)

    monkeypatch.setattr(univalence, "label_f", counted)
    fibs = sample_fibrations(u)
    objs = universe_objects(u)
    assert fibs == [Fibration(x, x) for x in objs]
    assert len(calls) == len(set(objs)) == 57
    # a repeated object gets the fibration built for its first draw
    first = {}
    assert all(first.setdefault(q.total, q) is q for q in fibs)


def test_verify_universal_exhaustive_and_sampled():
    r = verify_universal(Universe(window=2))
    assert r.passed and r.instances == 5 and r.name == "UNIVERSAL_FIBRATION"
    r = verify_universal(Universe(window=3, include_cofinite=True, samples=300, seed=42))
    assert r.passed and r.instances == 300


def _reports_on_objects():
    """Axiom and claim reports, certificates and the universal check, as JSON text."""
    sampled = Universe(window=3, include_cofinite=True, samples=200, seed=42)
    return [
        run_axioms(Universe(window=3)).machine_json(),
        run_axioms(Universe(window=2, include_cofinite=True)).machine_json(),
        run_axioms(sampled).machine_json(),
        run_claims(sampled).machine_json(),
        *(_certificate_bytes(is_univalent(q)) for q in sample_fibrations(sampled)),
        json.dumps(verify_universal(sampled).to_json_dict(), sort_keys=True),
    ]


def test_object_identity_never_compares_or_hashes_an_nset(monkeypatch):
    # an object's equality and hash read its signed masks, so the suites that
    # index, intern or compare objects never reach NSet.__eq__ or __hash__
    want = _reports_on_objects()

    def refuse(*args):
        raise AssertionError("an NSet was compared or hashed")

    monkeypatch.setattr(NSet, "__eq__", refuse)
    monkeypatch.setattr(NSet, "__hash__", refuse)
    assert _reports_on_objects() == want


_SAMPLED_REPORTS = """
import json
from famcat.harness import Universe, run_axioms, run_claims
from famcat.univalence import is_univalent, sample_fibrations
u = Universe(window=3, include_cofinite=True, samples=200, seed=42)
print(run_axioms(u).machine_json())
print(run_claims(u).machine_json())
for q in sample_fibrations(u):
    print(json.dumps(is_univalent(q).to_json_dict(), sort_keys=True))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    src = str(Path(famcat.__file__).parents[1])
    out = [
        subprocess.run(
            [sys.executable, "-c", _SAMPLED_REPORTS],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            check=True,
            text=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert out[0] == out[1] and out[0].count("\n") == 202


def _p_small_without_wide_finite_members(q):
    # wrong on purpose: a finite member of two or more elements breaks it
    wide = any(len(m.support) >= 2 for m in q.total if not m.cofinite)
    return is_p_small(q) and not wide


def replayed_objects(u):
    """The universe's objects built by hand: the enumeration, or ``samples``
    draws from a fresh ``random.Random(seed)``."""
    if u.is_exhaustive:
        return enumerate_objects(u)
    rng = random.Random(u.seed)
    return [nset_draw(rng, u) for _ in range(u.samples)]


@pytest.mark.parametrize(
    "u, firing, distinct",
    [
        (Universe(window=2), 1, 1),
        (Universe(window=3, include_cofinite=True, samples=300, seed=42), 121, 11),
    ],
    ids=["W2", "sampled"],
)
def test_verify_universal_matches_a_hand_replay_on_a_weakened_decider(
    monkeypatch, u, firing, distinct
):
    monkeypatch.setattr(univalence, "is_p_small", _p_small_without_wide_finite_members)
    pred = univalence._pred_universal
    stream = replayed_objects(u)
    at = [i for i, x in enumerate(stream) if pred((x,)) is not None]
    fires = [stream[i] for i in at]
    assert (len(fires), len(set(fires))) == (firing, distinct)
    recorded = fires[:MAX_RECORDED_VIOLATIONS]
    expected = []
    for x in recorded:
        (small,) = shrink_tuple((x,), pred)
        expected.append(((small,), pred((small,))))
    # the run stops at its last recorded violation
    full = len(at) >= MAX_RECORDED_VIOLATIONS
    read = stream[: at[MAX_RECORDED_VIOLATIONS - 1] + 1] if full else stream
    decided, shrunk = [], []
    violation, shrink = harness._violation, harness.shrink_tuple
    monkeypatch.setattr(harness, "_violation", lambda p, t: decided.append(t) or violation(p, t))
    monkeypatch.setattr(harness, "shrink_tuple", lambda t, p: shrunk.append(t) or shrink(t, p))
    r = verify_universal(u)
    assert (r.name, r.instances, r.passed) == ("UNIVERSAL_FIBRATION", len(stream), False)
    # recorded at every occurrence, in stream order, shrunk to a 1-tuple
    assert [(v.objects, v.detail) for v in r.violations] == expected
    # each distinct object decided once, and each distinct firing one shrunk once
    assert decided == [(x,) for x in dict.fromkeys(read)]
    assert shrunk == [(x,) for x in dict.fromkeys(recorded)]


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
