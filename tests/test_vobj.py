"""Virtual objects: closed-form oracles against brute-force ground truth.

The exponential construction is compared against an unpruned in-test oracle
that enumerates every choice function.  The WC-shaped oracles are pinned by
hand-derived membership facts, and the documented undecidable queries are
asserted to refuse rather than guess.
"""

import itertools

import pytest

import famcat
from famcat import vobj
from famcat.harness import Universe, enumerate_objects, universe_objects
from famcat.kernel import (
    INITIAL,
    TERMINAL,
    Obj,
    SizeGuardError,
    arrow_exists,
    is_iso,
    label_verdict,
    label_w,
    normalize,
    product,
    star_arrow,
)
from famcat.nset import EMPTY, FULL, NSet
from famcat.vobj import (
    FactorizationCheck,
    UndecidedPairError,
    VKind,
    VObj,
    _finite_subsets,
    arrow_from_vobj,
    arrow_into_vobj,
    check_factorization,
    decide,
    exp_explicit,
    exp_slice,
    is_iso_virtual,
    wc_covers,
    wexp_member,
)

fin = NSet.fin
cofin = NSet.cofin

A = Obj.of(fin([0]))
B = Obj.of(fin([0, 1]))
C = Obj.of(fin([0]), fin([1]))
NEAR_FULL = Obj.of(cofin([0]))

W2 = enumerate_objects(Universe(window=2))
C2 = enumerate_objects(Universe(window=2, include_cofinite=True))


# -- construction and serialization -----------------------------------------------


def test_constructors_and_describe():
    v = VObj.wc(A, B)
    assert v.kind is VKind.WC and v.x == A and v.y == B
    assert "wc" in v.describe()
    assert VObj.universe().kind is VKind.UNIVERSE
    assert VObj.uprod(C).x == C


def test_slice_constructors_validate_the_slice():
    VObj.exp_slice(B, A, A)  # A -> B and A -> B hold
    with pytest.raises(ValueError):
        VObj.exp_slice(A, B, A)  # no arrow B -> A
    with pytest.raises(ValueError):
        VObj.wexp(A, TERMINAL, A)
    for vkind in ("exp_slice", "wexp"):  # literals are validated the same way
        with pytest.raises(ValueError):
            VObj.from_json_dict(
                {"vkind": vkind, "a": A.to_json_dict(), "b": B.to_json_dict(), "c": A.to_json_dict()}
            )


def test_json_round_trip_for_every_kind():
    vs = [
        VObj.wc(A, B),
        VObj.universe(),
        VObj.uprod(C),
        VObj.exp(A, B),
        VObj.exp_slice(B, A, B),
        VObj.wexp(B, A, B),
    ]
    for v in vs:
        assert VObj.from_json_dict(v.to_json_dict()) == v


def test_json_wire_names_and_rejects():
    assert VObj.universe().to_json_dict() == {"vkind": "utilde"}
    assert VObj.uprod(A).to_json_dict()["vkind"] == "uprod"
    with pytest.raises(ValueError):
        VObj.from_json_dict({"vkind": "nope"})
    with pytest.raises(ValueError):
        VObj.from_json_dict({"vkind": "wc", "x": A.to_json_dict()})  # y missing
    with pytest.raises(ValueError):
        VObj.from_json_dict({"members": []})


def test_json_rejects_keys_the_kind_does_not_use():
    full = {"x": A.to_json_dict(), "y": B.to_json_dict()}
    bad = [
        {"vkind": "utilde", "x": A.to_json_dict()},
        {"vkind": "utilde", "zzz": 1},
        {"vkind": "uprod", **full},
        {"vkind": "wc", **full, "c": A.to_json_dict()},
        {"vkind": "exp", "a": B.to_json_dict(), "b": A.to_json_dict(), "c": B.to_json_dict()},
    ]
    for data in bad:
        with pytest.raises(ValueError):
            VObj.from_json_dict(data)
    assert VObj.from_json_dict({"vkind": "wc", **full}) == VObj.wc(A, B)


# -- membership of WC-shaped families ----------------------------------------------


def test_universe_contains_exactly_the_finite_sets():
    ut = VObj.universe()
    for s in (EMPTY, fin([0]), fin([3, 7, 100])):
        assert wc_covers(ut, s)
    for s in (FULL, cofin([0, 1])):
        assert not wc_covers(ut, s)


def test_wc_membership_examples():
    v = VObj.wc(NEAR_FULL, A)  # members: x | b with b inside {} or {0}
    assert wc_covers(v, cofin([0]))  # x itself
    assert wc_covers(v, FULL)  # (N-{0}) | {0}
    assert wc_covers(v, fin([5]))  # {} | subset handled by the empty x
    assert not wc_covers(VObj.wc(A, A), cofin([9]))  # no cofinite member


def test_uprod_is_wc_over_the_initial_object():
    for x in W2 + [NEAR_FULL, TERMINAL]:
        v, w = VObj.uprod(x), VObj.wc(INITIAL, x)
        probes = [EMPTY, fin([0]), fin([0, 1]), fin([2, 5]), FULL, cofin([1])]
        for s in probes:
            assert wc_covers(v, s) == wc_covers(w, s)


def test_universe_is_uprod_of_the_terminal_object():
    ut, up = VObj.universe(), VObj.uprod(TERMINAL)
    for s in (EMPTY, fin([4]), fin([0, 2]), FULL):
        assert wc_covers(ut, s) == wc_covers(up, s)
    for t in W2 + [TERMINAL]:
        assert arrow_from_vobj(ut, t) == arrow_from_vobj(up, t)
        assert arrow_into_vobj(t, ut) == arrow_into_vobj(t, up)


# -- arrows to and from virtual objects ---------------------------------------------


def test_arrow_into_universe_iff_all_members_finite():
    ut = VObj.universe()
    assert arrow_into_vobj(A, ut) and arrow_into_vobj(C, ut)
    assert not arrow_into_vobj(TERMINAL, ut)
    assert not arrow_into_vobj(NEAR_FULL, ut)


def test_arrow_from_universe_iff_target_has_the_full_set():
    # one missing natural per member of t builds a finite set none covers
    ut = VObj.universe()
    assert arrow_from_vobj(ut, TERMINAL)
    assert not arrow_from_vobj(ut, B)
    for t in W2 + [TERMINAL, NEAR_FULL, Obj.of(cofin([2]), fin([2]))]:
        assert arrow_from_vobj(ut, t) == (FULL in t)


def test_arrow_from_wc_counterexample_is_pinned():
    # The middle of the factorization of A -> C does NOT map onto C:
    # the member {0} | {1} = {0,1} is covered by no member of C.
    v = VObj.wc(A, C)
    assert arrow_exists(A, C)
    assert not arrow_from_vobj(v, C)
    assert wc_covers(v, fin([0, 1]))
    assert not any(fin([0, 1]).is_subset(m) for m in C)


def test_arrow_from_wc_positive_example():
    assert arrow_from_vobj(VObj.wc(A, B), B)  # {0} | {0,1} = {0,1} is in B
    assert arrow_from_vobj(VObj.wc(INITIAL, B), B)


def test_star_reduction_for_wc_families():
    # w reads only the explicit source part of a WC-shaped end
    v = VObj.wc(NEAR_FULL, A)
    assert decide(NEAR_FULL, v, "w") == (True, None)
    assert decide(INITIAL, v, "w") == (False, None)  # N-{0} minus {} is infinite
    assert decide(v, TERMINAL, "w") == (True, None)  # N minus (N-{0}) = {0}
    assert decide(VObj.wc(A, A), TERMINAL, "w") == (False, None)  # no cofinite member


def test_label_w_into_universe():
    ut = VObj.universe()
    assert decide(INITIAL, ut, "w") == (True, None)
    assert decide(C, ut, "w") == (True, None)
    assert decide(TERMINAL, ut, "w") == (False, None)  # no arrow in
    # arrow in holds, but N-{0} is not nearly inside the empty set
    assert arrow_into_vobj(INITIAL, VObj.wc(NEAR_FULL, A))
    assert decide(INITIAL, VObj.wc(NEAR_FULL, A), "w") == (False, None)


def test_undecided_queries_refuse():
    wexp = VObj.wexp(B, A, B)
    with pytest.raises(UndecidedPairError):
        arrow_from_vobj(wexp, B)
    with pytest.raises(UndecidedPairError):
        decide(wexp, B, "w")


def test_decide_w_into_wexp_asks_the_arrow_first():
    # no arrow: false, although the classifier is not WC-shaped; with the
    # arrow, the near-inclusion half has no rule and the pair is undecided
    wexp = VObj.wexp(B, A, B)
    assert not arrow_into_vobj(TERMINAL, wexp)
    assert decide(TERMINAL, wexp, "w") == (False, None)
    assert arrow_into_vobj(B, wexp)
    with pytest.raises(UndecidedPairError):
        decide(B, wexp, "w")
    for z in W2 + [NEAR_FULL, TERMINAL]:
        if arrow_into_vobj(z, wexp):
            with pytest.raises(UndecidedPairError):
                decide(z, wexp, "w")
        else:
            assert decide(z, wexp, "w") == (False, None)


def test_is_iso_virtual_examples():
    assert is_iso_virtual(VObj.exp(A, A), TERMINAL)
    assert not is_iso_virtual(VObj.universe(), INITIAL)
    assert not is_iso_virtual(VObj.universe(), TERMINAL)
    assert is_iso_virtual(VObj.wc(TERMINAL, A), TERMINAL)


# -- the label dispatch ---------------------------------------------------------------


def test_decide_explicit_pairs_return_the_whole_verdict():
    for x, y in itertools.product([INITIAL, A, B, C, NEAR_FULL, TERMINAL], repeat=2):
        for label in ("arrow", "w", "f", "c"):
            holds, verdict = decide(x, y, label)
            assert verdict == label_verdict(x, y)
            assert holds == getattr(verdict, label)


def test_decide_reduces_exponentials_to_explicit_objects():
    e = exp_explicit(A, B)
    assert decide(VObj.exp(A, B), C, "w") == decide(e, C, "w")
    assert decide(C, VObj.exp(A, B), "arrow") == decide(C, e, "arrow")
    holds, verdict = decide(VObj.exp_slice(B, A, B), B, "f")
    assert verdict == label_verdict(exp_slice(B, A, B), B)


def test_decide_explicit_into_virtual():
    for v in (VObj.universe(), VObj.uprod(B), VObj.wc(A, C), VObj.wexp(B, A, B)):
        for z in W2 + [NEAR_FULL, TERMINAL]:
            assert decide(z, v, "arrow") == (arrow_into_vobj(z, v), None)
            assert decide(z, v, "c") == (arrow_into_vobj(z, v), None)
    for v, source_part in ((VObj.universe(), INITIAL), (VObj.wc(NEAR_FULL, A), NEAR_FULL)):
        for z in W2 + [NEAR_FULL, TERMINAL]:
            w = arrow_into_vobj(z, v) and star_arrow(source_part, z)
            assert decide(z, v, "w") == (w, None)
    with pytest.raises(UndecidedPairError):
        decide(A, VObj.universe(), "f")


def test_decide_virtual_into_explicit():
    wc_shaped = (
        (VObj.universe(), INITIAL),
        (VObj.uprod(B), INITIAL),
        (VObj.wc(A, C), A),
        (VObj.wc(NEAR_FULL, A), NEAR_FULL),
    )
    for v, source_part in wc_shaped:
        for t in W2 + [NEAR_FULL, TERMINAL]:
            arrow = arrow_from_vobj(v, t)
            assert decide(v, t, "arrow") == decide(v, t, "c") == (arrow, None)
            assert decide(v, t, "w") == (arrow and star_arrow(t, source_part), None)
    # f only into the bound family, through the factorization facts
    assert decide(VObj.wc(INITIAL, TERMINAL), TERMINAL, "f") == (True, None)
    assert decide(VObj.wc(A, C), C, "f") == (False, None)  # no arrow onto C
    assert decide(VObj.wc(A, B), B, "f") == (True, None)


def test_decide_refuses_pairs_without_a_rule():
    with pytest.raises(UndecidedPairError):
        decide(VObj.universe(), B, "f")  # B is not the bound family
    with pytest.raises(UndecidedPairError):
        decide(VObj.wexp(B, A, B), B, "f")  # not WC-shaped
    with pytest.raises(UndecidedPairError):
        decide(VObj.wexp(B, A, B), B, "arrow")
    with pytest.raises(UndecidedPairError):
        decide(VObj.universe(), VObj.uprod(A), "arrow")


# -- exponentials -------------------------------------------------------------------


def brute_force_exp(b: Obj, c: Obj) -> Obj:
    """Unpruned oracle: intersect one choice of target per source member."""
    members = []
    for choice in itertools.product(tuple(c), repeat=len(b)):
        cur = FULL
        for m, t in zip(b, choice):
            cur = cur & (t | ~m)
        members.append(cur)
    return normalize(members)


SMALL_OBJS = [
    INITIAL,
    TERMINAL,
    A,
    B,
    C,
    NEAR_FULL,
    Obj.of(fin([1, 2])),
    Obj.of(cofin([0, 1]), fin([0])),
]


def test_exp_matches_the_brute_force_oracle():
    for b in SMALL_OBJS:
        for c in SMALL_OBJS:
            assert exp_explicit(b, c) == brute_force_exp(b, c), (b, c)


def test_exp_identities():
    for c in W2 + [NEAR_FULL]:
        assert is_iso(exp_explicit(c, c), TERMINAL)  # c^c collapses
        assert exp_explicit(INITIAL, c) == TERMINAL  # empty base
        assert exp_explicit(c, TERMINAL) == TERMINAL
    assert exp_explicit(TERMINAL, A) == A  # evaluating at N picks members


def test_exp_stops_past_max_partials(monkeypatch):
    # k disjoint pairs against their 2k singletons keep 2**k partials
    k = 3
    b = normalize(fin([2 * i, 2 * i + 1]) for i in range(k))
    c = normalize(fin([j]) for j in range(2 * k))
    monkeypatch.setattr(vobj, "MAX_PARTIALS", 2**k)
    assert len(exp_explicit(b, c).members) == 2**k + 1
    monkeypatch.setattr(vobj, "MAX_PARTIALS", 2**k - 1)
    with pytest.raises(SizeGuardError, match="MAX_PARTIALS"):
        exp_explicit(b, c)
    assert SizeGuardError is famcat.SizeGuardError is famcat.harness.SizeGuardError


def test_exp_representability_on_examples():
    triples = [
        (A, B, C),
        (B, A, C),
        (C, C, A),
        (TERMINAL, NEAR_FULL, B),
        (NEAR_FULL, TERMINAL, NEAR_FULL),
    ]
    for d, b, c in triples:
        through_exp = arrow_exists(d, exp_explicit(b, c))
        through_product = arrow_exists(product(d, b), c)
        assert through_exp == through_product == arrow_into_vobj(d, VObj.exp(b, c))


def test_exp_vobj_arrow_out_reduces_to_the_explicit_object():
    v = VObj.exp(A, B)
    e = exp_explicit(A, B)
    for t in W2 + [TERMINAL]:
        assert decide(v, t, "arrow") == (arrow_exists(e, t), label_verdict(e, t))
    with pytest.raises(UndecidedPairError):
        arrow_from_vobj(v, B)  # the closed form is for WC-shaped families only


def test_exp_slice_is_the_product_with_the_base():
    assert exp_slice(B, A, B) == product(exp_explicit(A, B), B)
    with pytest.raises(ValueError):
        exp_slice(A, B, A)
    v = VObj.exp_slice(B, A, B)
    for z in W2:
        expected = arrow_exists(z, B) and arrow_exists(product(z, A), B)
        assert arrow_into_vobj(z, v) == expected
        assert decide(v, z, "arrow")[0] == arrow_exists(exp_slice(B, A, B), z)


# -- the weak-equivalence classifier -------------------------------------------------


def test_wexp_membership_examples():
    # over B = {{},{0}}, C = {{},{0,1}}: adding s must keep the products
    # weakly equivalent
    assert wexp_member(A, B, EMPTY)
    assert wexp_member(A, B, FULL)
    assert wexp_member(A, B, fin([0]))
    # s = {1} joins C's side but only meets {0} on B's side
    assert wexp_member(A, B, fin([1])) == label_w(
        product(normalize([fin([1])]), A), product(normalize([fin([1])]), B)
    )


def test_wexp_membership_criterion_matches_whole_family_w():
    for z in W2:
        for b in (A, B, C):
            for c in (A, B, C):
                whole = label_w(product(z, b), product(z, c))
                membered = all(wexp_member(b, c, m) for m in z)
                assert whole == membered, (z, b, c)


def test_arrow_into_wexp_is_the_hom_criterion():
    a = TERMINAL
    v = VObj.wexp(a, A, B)
    for z in W2 + [TERMINAL, NEAR_FULL]:
        expected = arrow_exists(z, a) and label_w(product(z, A), product(z, B))
        assert arrow_into_vobj(z, v) == expected


# -- the factorization middle --------------------------------------------------------


def test_factorization_facts_hold_when_the_arrow_does():
    pairs = [
        (INITIAL, TERMINAL),
        (A, B),
        (A, C),
        (C, B),
        (NEAR_FULL, TERMINAL),
        (INITIAL, NEAR_FULL),
    ]
    for x, y in pairs:
        assert arrow_exists(x, y)
        fc = check_factorization(x, y)
        assert fc.ok, (x, y, fc.to_json_dict())
        assert fc.instances > 0


def test_factorization_facts_are_independent_of_the_missing_arrow():
    # the pinned counterexample: facts hold although the middle does not
    # map onto the target family
    fc = check_factorization(A, C)
    assert fc.ok
    assert not arrow_from_vobj(VObj.wc(A, C), C)


def test_wc_covers_is_downward_closed():
    # check_factorization asks wc_covers of each witness but not of the
    # smaller set the witness contains; this lemma is why that is enough
    pool = [
        k(sup)
        for k in (fin, cofin)
        for r in range(4)
        for sup in itertools.combinations(range(3), r)
    ]
    pairs = [(s, t) for s in pool for t in pool if s.is_subset(t)]
    covered = 0
    for x, y in itertools.product(C2, repeat=2):
        v = VObj.wc(x, y)
        for s, t in pairs:
            if wc_covers(v, t):
                covered += 1
                assert wc_covers(v, s), (x, y, s, t)
    assert (len(C2), len(pairs), covered) == (19, 81, 18801)


def _factorization_per_instance(x, y, covers=wc_covers):
    """check_factorization with ``covers`` asked afresh at every instance of
    every generator, repeats included, and the distinct witnesses it asks
    about."""
    v = VObj.wc(x, y)
    margin = 2 + max((e for m in x.members + y.members for e in m.support), default=0)
    bounds = [(ym, _finite_subsets(ym, margin)) for ym in y]
    generators = [(xm, b0, xm | b0) for xm in x for _, subs in bounds for b0 in subs]
    fib_ok, instances, witnesses = True, 0, set()
    for xm, b0, u in generators:
        for ym, subs in bounds:
            for b in subs:
                instances += 1
                need = (u & ym) | b
                witness = xm | ((b0 & ym) | b)
                if need.is_subset(witness):
                    witnesses.add(witness)
                    fib_ok = covers(v, witness) and fib_ok
                else:
                    fib_ok = False
    fc = FactorizationCheck(
        x=x,
        y=y,
        arrow_into_middle=all(covers(v, m) for m in x),
        star_back_to_source=star_arrow([u for _, _, u in generators], x),
        fibration_instances_ok=fib_ok,
        instances=instances,
    )
    return fc, witnesses


def _sampled_objects(seed):
    u = Universe(window=3, include_cofinite=True, samples=250, seed=seed)
    return list(dict.fromkeys(universe_objects(u)))


def _count_decisions(monkeypatch, objs):
    """Check every arrow pair of ``objs`` against the per-instance oracle,
    asserting each distinct witness is decided once; return the number of
    pairs and of pairs whose generators repeat a witness."""
    asked = []

    def counted(v, s):
        asked.append(s)
        return wc_covers(v, s)

    pairs = [(x, y) for x, y in itertools.product(objs, repeat=2) if arrow_exists(x, y)]
    repeated = 0
    for x, y in pairs:
        expected, witnesses = _factorization_per_instance(x, y)
        asked.clear()
        monkeypatch.setattr(vobj, "wc_covers", counted)
        assert check_factorization(x, y) == expected, (x, y)
        monkeypatch.undo()
        # the members of x, then each distinct witness once
        assert len(asked) <= len(x.members) + len(witnesses), (x, y)
        repeated += expected.instances > len(witnesses)
    return len(pairs), repeated


def test_factorization_decides_each_witness_once(monkeypatch):
    assert _count_decisions(monkeypatch, C2) == (148, 147)


@pytest.mark.parametrize(
    "objs, pinned",
    [
        (enumerate_objects(Universe(window=3)), (148, 147)),
        (_sampled_objects(0), (760, 759)),
        (_sampled_objects(1), (809, 808)),
    ],
    ids=["W3", "sampled-C3-seed-0", "sampled-C3-seed-1"],
)
def test_factorization_decides_each_witness_once_on_wider_sets(monkeypatch, objs, pinned):
    assert _count_decisions(monkeypatch, objs) == pinned


def test_factorization_fails_on_a_repeated_generator(monkeypatch):
    # ({}, {}) is a generator once for each member of B, and {} | {1} is one
    # of its witnesses: a middle that misses {1} fails those instances
    def weak(v, s):
        return s != fin([1])

    x, y = A, B
    expected, witnesses = _factorization_per_instance(x, y, weak)
    assert fin([1]) in witnesses
    monkeypatch.setattr(vobj, "wc_covers", weak)
    fc = check_factorization(x, y)
    assert fc == expected
    assert (fc.instances, fc.arrow_into_middle, fc.fibration_instances_ok) == (50, True, False)


def test_factorization_reports_a_failing_fibration_fact(monkeypatch):
    # a middle that covers no set of two or more elements breaks only the
    # fibration instances: the members of x and the star back are untouched
    x, y = A, Obj.of(fin([0, 1, 2]))
    assert check_factorization(x, y).ok
    monkeypatch.setattr(
        vobj, "wc_covers", lambda v, s: not s.cofinite and len(s.support) <= 1
    )
    fc = check_factorization(x, y)
    assert fc.arrow_into_middle and fc.star_back_to_source
    assert not fc.fibration_instances_ok and not fc.ok


def test_factorization_check_serializes_with_the_middle():
    d = check_factorization(A, B).to_json_dict()
    assert d["wc"] == VObj.wc(A, B).to_json_dict()
    assert set(d) == {
        "wc",
        "arrow_into_middle",
        "star_back_to_source",
        "fibration_instances_ok",
        "instances",
    }


# -- domination by the universe product ----------------------------------------------


def _dominates(base: Obj, total: Obj) -> bool:
    """Arrow from the universe product of ``base`` into ``total``."""
    return arrow_from_vobj(VObj.uprod(base), total)


def test_uprod_dominates_examples():
    assert _dominates(A, A)
    assert _dominates(A, B)  # subsets of {0} all sit inside {0,1}
    assert not _dominates(B, C)  # {0,1} itself escapes C
    assert not _dominates(B, Obj.of(fin([0])))  # {0,1} escapes
    assert _dominates(TERMINAL, TERMINAL)
    assert not _dominates(TERMINAL, B)  # finite sets of any size escape
    assert _dominates(NEAR_FULL, TERMINAL)


def test_uprod_dominates_agrees_with_membership_on_the_small_universe():
    # domination is exactly: every member of uprod(base) is covered by total,
    # and uprod members are the finite subsets of base members
    for base in W2:
        for total in W2:
            expected = all(
                any(s.is_subset(t) for t in total)
                for m in base
                for s in _all_finite_subsets(m)
            )
            assert _dominates(base, total) == expected


def _all_finite_subsets(m: NSet) -> list[NSet]:
    assert not m.cofinite
    return [
        NSet.fin(c)
        for r in range(len(m.support) + 1)
        for c in itertools.combinations(m.support, r)
    ]
