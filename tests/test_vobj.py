"""Virtual objects: closed-form oracles against brute-force ground truth.

The exponential construction is compared against an unpruned in-test oracle
that enumerates every choice function, and membership in it against an NSet
formula kept here (:func:`exp_member`).  The WC-shaped oracles, which read
signed masks, are compared against an NSet coverage formula kept here
(:func:`wc_covers`) and pinned by hand-derived membership facts, and the
documented undecidable queries are asserted to refuse rather than guess.
"""

import itertools

import pytest
from hypothesis import given
from test_kernel import family_strategy

import famcat
from famcat import kernel, nset, vobj
from famcat.harness import Universe, enumerate_objects, universe_objects
from famcat.kernel import (
    INITIAL,
    TERMINAL,
    Obj,
    SizeGuardError,
    _from_maximal,
    _maximal,
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
    wexp_member,
)

fin = NSet.fin
cofin = NSet.cofin

A = Obj.of(fin([0]))
B = Obj.of(fin([0, 1]))
C = Obj.of(fin([0]), fin([1]))
NEAR_FULL = Obj.of(cofin([0]))

W2 = enumerate_objects(Universe(window=2))
W3 = enumerate_objects(Universe(window=3))
C2 = enumerate_objects(Universe(window=2, include_cofinite=True))

# the finite and cofinite sets with support inside range(3)
POOL = [
    k(sup) for k in (fin, cofin) for r in range(4) for sup in itertools.combinations(range(3), r)
]


def wc_parts(v: VObj) -> tuple[Obj, Obj]:
    """Source and bound families of a WC-shaped family, by definition."""
    return {
        VKind.WC: (v.x, v.y),
        VKind.UNIVERSE: (INITIAL, TERMINAL),
        VKind.UPROD: (INITIAL, v.x),
    }[v.kind]


def wc_covers(v: VObj, s: NSet) -> bool:
    """Oracle: does some member of the WC-shaped family contain ``s``?

    A member is ``x | b`` with b finite and inside some bound member, so s
    is covered exactly when ``s - x`` is finite (s is finite or x cofinite)
    and fits inside a bound member for some x.
    """
    xs, ys = wc_parts(v)
    for x in xs:
        if (not s.cofinite or x.cofinite) and any((s - x).is_subset(y) for y in ys):
            return True
    return False


def covered(v: VObj, s: NSet) -> bool:
    """Coverage through the one dispatch: the arrow from ``{{}, s}`` into v."""
    return decide(normalize([s]), v, "arrow")[0]


def exp_member(b: Obj, c: Obj, s: NSet) -> bool:
    """Oracle: is ``s`` a member of the exponential of C by B?

    That is the arrow ``{{}, s} x B -> C``.  The members of that product
    are the ``s & m`` for m in B, up to dominated ones, so it holds exactly
    when every ``s & m`` lies in some member of C.  The library asks it as
    the arrow from ``normalize([s])`` into ``EXP(B, C)``.
    """
    return all(any((s & m).is_subset(n) for n in c) for m in b)


# -- construction and serialization -----------------------------------------------


def test_constructors_set_their_kind_and_fields():
    v = VObj.wc(A, B)
    assert v.kind is VKind.WC and v.x == A and v.y == B
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
        assert covered(ut, s) and wc_covers(ut, s)
    for s in (FULL, cofin([0, 1])):
        assert not covered(ut, s) and not wc_covers(ut, s)


def test_wc_membership_examples():
    v = VObj.wc(NEAR_FULL, A)  # members: x | b with b inside {} or {0}
    assert covered(v, cofin([0]))  # x itself
    assert covered(v, FULL)  # (N-{0}) | {0}
    assert covered(v, fin([5]))  # {} | subset handled by the empty x
    assert not covered(VObj.wc(A, A), cofin([9]))  # no cofinite member


def test_uprod_is_wc_over_the_initial_object():
    for x in W2 + [NEAR_FULL, TERMINAL]:
        v, w = VObj.uprod(x), VObj.wc(INITIAL, x)
        probes = [EMPTY, fin([0]), fin([0, 1]), fin([2, 5]), FULL, cofin([1])]
        for s in probes:
            assert covered(v, s) == covered(w, s)


def test_universe_is_uprod_of_the_terminal_object():
    ut, up = VObj.universe(), VObj.uprod(TERMINAL)
    for s in (EMPTY, fin([4]), fin([0, 2]), FULL):
        assert covered(ut, s) == covered(up, s)
    for t in W2 + [TERMINAL]:
        assert arrow_from_vobj(ut, t) == arrow_from_vobj(up, t)
        assert arrow_into_vobj(t, ut) == arrow_into_vobj(t, up)


def test_mask_oracles_match_the_nset_formulas_on_every_c2_pair():
    # coverage and the arrow out, decided on signed masks, against the NSet
    # formulas: every WC(x, y), UPROD(x) and the universe over C2
    vs = [VObj.wc(x, y) for x, y in itertools.product(C2, repeat=2)]
    vs += [VObj.uprod(x) for x in C2] + [VObj.universe()]
    covered_count = arrows = 0
    for v in vs:
        xs, ys = wc_parts(v)
        for s in POOL:
            holds = arrow_into_vobj(normalize([s]), v)
            assert holds == wc_covers(v, s), (v, s)
            covered_count += holds
        for t in C2:
            holds = arrow_from_vobj(v, t)
            assert holds == all(any((x | y) <= m for m in t) for x in xs for y in ys), (v, t)
            arrows += holds
    assert (len(vs), covered_count, arrows) == (381, 4344, 1078)


def test_wc_oracles_build_no_nset(monkeypatch):
    # coverage, both arrows and the factorization check read member masks
    made = []
    build = nset._new
    monkeypatch.setattr(nset, "_new", lambda cls: made.append(cls) or build(cls))
    for x, y in itertools.product(C2, repeat=2):
        v = VObj.wc(x, y)
        check_factorization(x, y)
        arrow_into_vobj(x, v)
        arrow_from_vobj(v, y)
    assert made == []
    assert fin([0]) and made == [NSet]  # the counter sees every NSet built


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
    assert covered(v, fin([0, 1]))
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


def test_decide_refuses_a_label_it_has_no_rule_for():
    # a verdict field that is no label, a method name and the empty string
    # are refused alike on an explicit pair and into the universe object
    for dst in (B, VObj.universe()):
        for label in ("star", "to_json_dict", ""):
            with pytest.raises(ValueError, match="unknown label"):
                decide(A, dst, label)
    # the four labels answer as before
    verdict = label_verdict(A, B)
    for label in ("arrow", "w", "f", "c"):
        assert decide(A, B, label) == (getattr(verdict, label), verdict)
    for label in ("arrow", "w", "c"):
        assert decide(A, VObj.universe(), label) == (True, None)
    with pytest.raises(UndecidedPairError):
        decide(A, VObj.universe(), "f")


def test_decide_reduces_exponentials_to_explicit_objects():
    e = exp_explicit(A, B)
    assert decide(VObj.exp(A, B), C, "w") == decide(e, C, "w")
    assert decide(C, VObj.exp(A, B), "arrow") == decide(C, e, "arrow")
    holds, verdict = decide(VObj.exp_slice(B, A, B), B, "f")
    assert verdict == label_verdict(exp_slice(B, A, B), B)


LABELS = ("arrow", "w", "f", "c")
# every WC-shaped family over C2, and the classifier of every C2 slice
C2_WC_SHAPED = [VObj.wc(x, y) for x, y in itertools.product(C2, repeat=2)]
C2_WC_SHAPED += [VObj.universe()] + [VObj.uprod(x) for x in C2]
C2_CLASSIFIERS = [
    VObj.wexp(a, b, c)
    for a in C2
    for b in C2
    if arrow_exists(b, a)
    for c in C2
    if arrow_exists(c, a)
]


def if_chain_decide(src, dst, label):
    """The label dispatch written as one if-chain per direction, each label
    rule spelled out again in each: the oracle of ``decide``'s one
    composition on pairs with one virtual end."""

    def parts(v):
        if v.kind not in (VKind.WC, VKind.UNIVERSE, VKind.UPROD):
            raise UndecidedPairError(v.kind)
        return wc_parts(v)

    if isinstance(src, Obj):  # explicit -> virtual
        if label in ("arrow", "c"):
            return arrow_into_vobj(src, dst), None
        if label == "w":
            return arrow_into_vobj(src, dst) and star_arrow(parts(dst)[0], src), None
        raise UndecidedPairError(label)
    if isinstance(dst, Obj):  # virtual -> explicit
        if label in ("arrow", "c"):
            return arrow_from_vobj(src, dst), None
        if label == "w":
            return arrow_from_vobj(src, dst) and star_arrow(dst, parts(src)[0]), None
        if label == "f" and parts(src)[1] == dst:
            return arrow_from_vobj(src, dst), None
        raise UndecidedPairError(label)
    raise UndecidedPairError(label)


def outcome(decider, src, dst, label):
    """The answer of a decider, or :class:`UndecidedPairError` when it
    refuses the pair; any other exception fails the test."""
    try:
        return decider(src, dst, label)
    except UndecidedPairError:
        return UndecidedPairError


def assert_decide_is_the_if_chain(pairs):
    """``decide`` and the if-chain agree on every label of every pair, and
    the tally of their outcomes is returned."""
    seen = {}
    for src, dst in pairs:
        for label in LABELS:
            got = outcome(decide, src, dst, label)
            assert got == outcome(if_chain_decide, src, dst, label), (src, dst, label)
            seen[got] = seen.get(got, 0) + 1
    return seen


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
    # every C2 object into every WC-shaped family and classifier over C2
    seen = assert_decide_is_the_if_chain(
        (z, v) for z in C2 for v in C2_WC_SHAPED + C2_CLASSIFIERS
    )
    assert seen.keys() == {(True, None), (False, None), UndecidedPairError}


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
    # f only into the bound family, where it is the arrow
    assert decide(VObj.wc(INITIAL, TERMINAL), TERMINAL, "f") == (True, None)
    assert decide(VObj.wc(A, C), C, "f") == (False, None)  # no arrow onto C
    assert decide(VObj.wc(A, B), B, "f") == (True, None)
    # every WC-shaped family over C2 into every C2 object; a classifier is
    # not WC-shaped, so each of its queries is refused
    seen = assert_decide_is_the_if_chain((v, t) for v in C2_WC_SHAPED for t in C2)
    assert seen.keys() == {(True, None), (False, None), UndecidedPairError}
    refused = assert_decide_is_the_if_chain((v, t) for v in C2_CLASSIFIERS for t in C2)
    assert refused == {UndecidedPairError: len(LABELS) * len(C2_CLASSIFIERS) * len(C2)}


def test_decide_refuses_pairs_without_a_rule():
    with pytest.raises(UndecidedPairError):
        decide(VObj.universe(), B, "f")  # B is not the bound family
    with pytest.raises(UndecidedPairError):
        decide(VObj.wexp(B, A, B), B, "f")  # not WC-shaped
    with pytest.raises(UndecidedPairError):
        decide(VObj.wexp(B, A, B), B, "arrow")
    with pytest.raises(UndecidedPairError):
        decide(VObj.universe(), VObj.uprod(A), "arrow")
    # no pair of virtual ends has a rule: each family over C2 against the
    # next one, both ways round
    ends = C2_WC_SHAPED + C2_CLASSIFIERS
    pairs = list(zip(ends, ends[1:] + ends[:1]))
    refused = assert_decide_is_the_if_chain(pairs + [(v, u) for u, v in pairs])
    assert refused == {UndecidedPairError: len(LABELS) * 2 * len(ends)}


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


def step_loop_exp(b: Obj, c: Obj) -> Obj:
    """The exponential's step loop with neither the closed form nor a guard:
    meet the partials with every term ``t | ~m``, keep the maximal meets."""
    partials = [-1]
    for m in b._signed:
        terms = {t | ~m for t in c._signed}
        partials = _maximal({p & t for p in partials for t in terms})
    return _from_maximal(partials)


@pytest.mark.parametrize("objs", [C2, W3], ids=["C2", "W3"])
def test_exp_is_the_step_loop_and_terminal_exactly_on_arrows(objs):
    for b, c in itertools.product(objs, repeat=2):
        e, want = exp_explicit(b, c), step_loop_exp(b, c)
        assert e == want and e._signed == want._signed, (b, c)
        assert (e == TERMINAL) == arrow_exists(b, c), (b, c)


def test_exp_stops_past_max_partials(monkeypatch):
    # k disjoint pairs against their 2k singletons keep 2**k partials
    k = 3
    b = normalize(fin([2 * i, 2 * i + 1]) for i in range(k))
    c = normalize(fin([j]) for j in range(2 * k))
    assert len(exp_explicit(b, c).members) == 2**k + 1
    # the kernel's bound is the one guard, of product and of this step
    assert not hasattr(vobj, "MAX_PARTIALS")
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 2**k)
    assert len(exp_explicit(b, c).members) == 2**k + 1
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 2**k - 1)
    with pytest.raises(SizeGuardError, match="MAX_PARTIALS"):
        exp_explicit(b, c)
    monkeypatch.undo()
    k = 10
    b = normalize(fin([2 * i, 2 * i + 1]) for i in range(k))
    c = normalize(fin([j]) for j in range(2 * k))
    assert len(exp_explicit(b, c).members) == 2**k + 1 == kernel.MAX_PARTIALS + 1
    assert SizeGuardError is famcat.SizeGuardError is famcat.harness.SizeGuardError


def test_exp_step_stops_before_pruning_its_meets(monkeypatch):
    # B = two n-element members, C = their 2n singletons: the empty member
    # of B takes no step, and the second step meets n partials with n
    # terms, n * n distinct sets
    n = 150
    b = normalize([fin(range(n)), fin(range(n, 2 * n))])
    c = normalize(fin([j]) for j in range(2 * n))
    pruned = []

    def counting(masks):
        masks = list(masks)
        pruned.append(len(masks))
        return _maximal(masks)

    monkeypatch.setattr(vobj, "_maximal", counting)
    with pytest.raises(SizeGuardError, match="an exponential step passed MAX_PARTIALS"):
        exp_explicit(b, c)
    assert pruned and max(pruned) <= kernel.MAX_PARTIALS


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


@given(family_strategy)
def test_wexp_member_builds_the_normalized_singleton_family(ms):
    # the closed form agrees with the w label on the products with {{}, s}
    for s in ms:
        for b, c in ((A, B), (C, NEAR_FULL), (TERMINAL, C)):
            z = normalize([s])
            assert wexp_member(b, c, s) == label_w(product(z, b), product(z, c))


@given(family_strategy)
def test_exp_member_is_the_singleton_hom_criterion(ms):
    for s in ms:
        z = normalize([s])
        for b, c in itertools.product((A, C, NEAR_FULL, TERMINAL, Obj.of(cofin([1]), fin([0]))),
                                      repeat=2):
            member = exp_member(b, c, s)
            assert arrow_into_vobj(z, VObj.exp(b, c)) == member
            assert member == arrow_exists(product(z, b), c)
            assert member == arrow_exists(z, exp_explicit(b, c))


def test_arrows_into_exponentials_and_classifiers_split_by_member():
    # cofinite W2 against bases and targets with and without cofinite members
    sides = (INITIAL, A, C, NEAR_FULL, TERMINAL, Obj.of(cofin([1]), fin([0])))
    for z in C2:
        for b, c in itertools.product(sides, repeat=2):
            zb, zc = product(z, b), product(z, c)
            assert arrow_into_vobj(z, VObj.exp(b, c)) == arrow_exists(zb, c)
            assert arrow_into_vobj(z, VObj.wexp(TERMINAL, b, c)) == label_w(zb, zc)
            assert arrow_into_vobj(z, VObj.exp_slice(TERMINAL, b, c)) == arrow_exists(zb, c)
            assert arrow_into_vobj(z, VObj.exp(b, c)) == all(exp_member(b, c, m) for m in z)
            assert arrow_into_vobj(z, VObj.wexp(TERMINAL, b, c)) == all(
                wexp_member(b, c, m) for m in z
            )


def test_wexp_membership_criterion_matches_whole_family_w():
    # C2 holds A, B, C, NEAR_FULL and TERMINAL; with cofinite members the
    # near-inclusion of the criterion depends on the order of b and c
    for z, b, c in itertools.product(C2, repeat=3):
        whole = label_w(product(z, b), product(z, c))
        membered = all(wexp_member(b, c, m) for m in z)
        assert whole == membered, (z, b, c)


def test_arrow_into_wexp_is_the_hom_criterion():
    for a in (TERMINAL, NEAR_FULL, A):
        slices = [ob for ob in C2 if arrow_exists(ob, a)]
        for b, c in itertools.product(slices, repeat=2):
            v = VObj.wexp(a, b, c)
            for z in C2:
                expected = arrow_exists(z, a) and label_w(product(z, b), product(z, c))
                assert arrow_into_vobj(z, v) == expected, (a, b, c, z)


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


@pytest.mark.parametrize("objs", [C2, W3], ids=["C2", "W3"])
def test_factorization_facts_hold_on_every_pair(objs):
    # the proof in decide's docstring: the facts hold with or without an arrow
    for x, y in itertools.product(objs, repeat=2):
        assert check_factorization(x, y).ok, (x, y)


def test_f_into_the_bound_family_is_the_arrow_on_every_c2_pair(monkeypatch):
    # decide runs no spot check: f is the arrow out of the middle, which
    # the facts checked on every pair above make the same verdict
    def refuse(x, y):
        raise AssertionError("decide ran the factorization spot check")

    monkeypatch.setattr(vobj, "check_factorization", refuse)
    for x, y in itertools.product(C2, repeat=2):
        v = VObj.wc(x, y)
        assert decide(v, y, "f") == (arrow_from_vobj(v, y), None), (x, y)


def factor_pair(n: int) -> tuple[Obj, Obj]:
    """n two-element members against n three-element ones and a cofinite
    member: ``(n + 1) * (5n + 7)**2`` factorization instances."""
    x = normalize(fin([2 * i, 2 * i + 1]) for i in range(n))
    y = normalize([*(fin([2 * i, 2 * i + 1, 2 * n + i]) for i in range(n)),
                   cofin(range(2 * n, 3 * n))])
    return x, y


def test_factorization_stops_past_max_factor_instances(monkeypatch):
    assert check_factorization(*factor_pair(20)).instances == 240_429
    with pytest.raises(SizeGuardError, match="MAX_FACTOR_INSTANCES"):
        check_factorization(*factor_pair(40))  # 1,756,809 instances
    monkeypatch.setattr(vobj, "MAX_FACTOR_INSTANCES", 50)
    assert check_factorization(A, B).instances == 50
    monkeypatch.setattr(vobj, "MAX_FACTOR_INSTANCES", 49)
    with pytest.raises(SizeGuardError, match="MAX_FACTOR_INSTANCES = 49"):
        check_factorization(A, B)


def test_factorization_facts_are_independent_of_the_missing_arrow():
    # the pinned counterexample: facts hold although the middle does not
    # map onto the target family
    fc = check_factorization(A, C)
    assert fc.ok
    assert not arrow_from_vobj(VObj.wc(A, C), C)


def test_wc_covers_is_downward_closed():
    # check_factorization asks coverage of each witness but not of the
    # smaller set the witness contains; this lemma is why that is enough
    pairs = [(s, t) for s in POOL for t in POOL if s.is_subset(t)]
    count = 0
    for x, y in itertools.product(C2, repeat=2):
        v = VObj.wc(x, y)
        for s, t in pairs:
            if covered(v, t):
                count += 1
                assert covered(v, s), (x, y, s, t)
    assert (len(C2), len(pairs), count) == (19, 81, 18801)


def _spread(m: NSet, margin: int) -> list[NSet]:
    """The spot-check spread of finite subsets of ``m``, in NSet algebra:
    the empty set, singletons of its least members (found below ``margin``
    when m is cofinite), and their union, each once."""
    if m.cofinite:
        elems = tuple(i for i in range(margin + 1) if i in m)[:4]
    else:
        elems = m.support[:5]
    subs = [EMPTY, *(fin([e]) for e in elems), fin(elems)]
    return list(dict.fromkeys(subs))


def _factorization_per_instance(x, y, covers=wc_covers):
    """check_factorization in NSet algebra, with ``covers`` asked afresh at
    every instance of every generator, repeats included, and the distinct
    witnesses it asks about.  Its spread of finite subsets must be the one
    check_factorization builds on masks."""
    v = VObj.wc(x, y)
    margin = 2 + max((e for m in x.members + y.members for e in m.support), default=0)
    bounds = [(ym, _spread(ym, margin)) for ym in y]
    for ym, subs in bounds:
        assert _finite_subsets(ym._s, margin) == [s._s for s in subs], (ym, margin)
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
    mask_covers = vobj._covers

    def counted(xs, ys, s):
        asked.append(s)
        return mask_covers(xs, ys, s)

    pairs = [(x, y) for x, y in itertools.product(objs, repeat=2) if arrow_exists(x, y)]
    repeated = 0
    for x, y in pairs:
        expected, witnesses = _factorization_per_instance(x, y)
        asked.clear()
        monkeypatch.setattr(vobj, "_covers", counted)
        assert check_factorization(x, y) == expected, (x, y)
        monkeypatch.undo()
        # each distinct witness once, and nothing else: the members of x
        # are witnesses too
        assert sorted(asked) == sorted(w._s for w in witnesses), (x, y)
        repeated += expected.instances > len(witnesses)
    return len(pairs), repeated


def test_factorization_decides_each_witness_once(monkeypatch):
    assert _count_decisions(monkeypatch, C2) == (148, 147)


@pytest.mark.parametrize(
    "objs, pinned",
    [
        (W3, (148, 147)),
        (_sampled_objects(0), (760, 759)),
        (_sampled_objects(1), (809, 808)),
    ],
    ids=["W3", "sampled-C3-seed-0", "sampled-C3-seed-1"],
)
def test_factorization_decides_each_witness_once_on_wider_sets(monkeypatch, objs, pinned):
    assert _count_decisions(monkeypatch, objs) == pinned


def test_factorization_matches_the_per_instance_oracle_off_the_arrow():
    # famcat factorize runs the check on any pair, and its facts do not
    # need the arrow x -> y
    pairs = [(x, y) for x, y in itertools.product(C2, repeat=2) if not arrow_exists(x, y)]
    assert len(pairs) == 213
    for x, y in pairs:
        assert check_factorization(x, y) == _factorization_per_instance(x, y)[0], (x, y)


def test_factorization_fails_on_a_repeated_generator(monkeypatch):
    # ({}, {}) is a generator once for each member of B, and {} | {1} is one
    # of its witnesses: a middle that misses {1} fails those instances
    x, y = A, B
    expected, witnesses = _factorization_per_instance(x, y, lambda v, s: s != fin([1]))
    assert fin([1]) in witnesses
    monkeypatch.setattr(vobj, "_covers", lambda xs, ys, s: s != 0b10)
    fc = check_factorization(x, y)
    assert fc == expected
    assert (fc.instances, fc.arrow_into_middle, fc.fibration_instances_ok) == (50, True, False)


def test_factorization_reports_a_failing_fibration_fact(monkeypatch):
    # a middle that covers no set of two or more elements breaks only the
    # fibration instances: the members of x and the star back are untouched
    x, y = A, Obj.of(fin([0, 1, 2]))
    assert check_factorization(x, y).ok
    monkeypatch.setattr(vobj, "_covers", lambda xs, ys, s: s >= 0 and s.bit_count() <= 1)
    fc = check_factorization(x, y)
    assert fc.arrow_into_middle and fc.star_back_to_source
    assert not fc.fibration_instances_ok and not fc.ok


# Weakened middles: a filter on the sets the NSet oracle asks about, the same
# filter on the masks check_factorization asks about, each kept in front of
# the real coverage, and the number of C2 and W3 arrow pairs whose fibration
# instances then fail.  On canonical pairs those instances cannot fail, so
# only a weakened middle shows a grouping of instances that drops or merges one.
WEAK_MIDDLES = {
    "no-cofinite-set": (lambda s: not s.cofinite, lambda s: s >= 0, 84),
    "at-most-one-point": (
        lambda s: not s.cofinite and len(s.support) <= 1,
        lambda s: s >= 0 and s.bit_count() <= 1,
        279,
    ),
    "not-{1}": (lambda s: s != fin([1]), lambda s: s != 0b10, 268),
}


@pytest.mark.parametrize("weak", list(WEAK_MIDDLES))
def test_factorization_matches_the_per_instance_oracle_under_weak_middles(monkeypatch, weak):
    keep_set, keep_mask, failing = WEAK_MIDDLES[weak]
    mask_covers = vobj._covers
    monkeypatch.setattr(vobj, "_covers", lambda xs, ys, s: keep_mask(s) and mask_covers(xs, ys, s))
    pairs = [(x, y) for objs in (C2, W3) for x, y in itertools.product(objs, repeat=2)]
    pairs = [(x, y) for x, y in pairs if arrow_exists(x, y)]

    def weak_covers(v, s):
        return keep_set(s) and wc_covers(v, s)

    failed = 0
    for x, y in pairs:
        expected, _ = _factorization_per_instance(x, y, weak_covers)
        fc = check_factorization(x, y)
        assert fc == expected, (x, y)
        failed += not fc.fibration_instances_ok
    assert (len(pairs), failed) == (296, failing)


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


@pytest.mark.parametrize(
    "objs, pinned", [(C2, (55, 65, 28)), (W3, (55, 93, 0))], ids=["C2", "W3"]
)
def test_the_factorization_middle_maps_to_its_target_on_few_arrow_pairs(objs, pinned):
    # check_factorization asks three facts, and none of them is the arrow
    # WC(x, y) -> y.  Over the 148 arrow pairs, count those where that arrow
    # holds, those where it fails but x -> y is (w), so that x -> y -> y is a
    # (wc, f) factorization, and those with neither.  A check that asks for the
    # arrow must move these counts.
    rows = [0, 0, 0]
    for x, y in itertools.product(objs, repeat=2):
        if arrow_exists(x, y):
            assert check_factorization(x, y).ok
            if decide(VObj.wc(x, y), y, "arrow")[0]:
                rows[0] += 1
            else:
                rows[1 if label_w(x, y) else 2] += 1
    assert tuple(rows) == pinned


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
