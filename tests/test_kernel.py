"""Arrows, labels, and limits of the posetal category of set families.

Hand-derived verdicts pin the decision procedures; the three fibration
deciders are then played against each other, and structural laws
(posetality, universal properties, iso = canonical equality) are checked
exhaustively over the small enumerated universe.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from famcat.harness import (
    Universe,
    _literal_star,
    enumerate_objects,
    iso_presentations,
    universe_objects,
)
from famcat.kernel import (
    INITIAL,
    TERMINAL,
    Obj,
    arrow_exists,
    coproduct,
    fibration_condition,
    fibration_condition_enumerated,
    fibration_gap,
    is_iso,
    label_f,
    label_verdict,
    label_w,
    maximal,
    normalize,
    product,
    star_arrow,
)
from famcat.nset import EMPTY, FULL, NSet

fin = NSet.fin
cofin = NSet.cofin

A = Obj.of(fin([0]))  # {{}, {0}}
B = Obj.of(fin([0, 1]))  # {{}, {0,1}}
C = Obj.of(fin([0]), fin([1]))  # {{}, {0}, {1}}
NEAR_FULL = Obj.of(cofin([0]))  # {{}, N-{0}}

W2 = enumerate_objects(Universe(window=2))


# -- canonical form ---------------------------------------------------------------


def test_normalize_adds_empty_and_prunes_dominated_members():
    assert normalize([fin([0, 1]), fin([0])]) == B
    assert normalize([]) == INITIAL
    assert normalize([FULL, fin([1])]) == TERMINAL
    assert normalize([fin([0]), fin([0])]) == A


def quadratic_normalize(members) -> tuple[NSet, ...]:
    """The all-pairs canonical form: every member against every other."""
    pool = set(members)
    pool.add(EMPTY)
    keep = {m for m in pool if not any(m != o and m.is_subset(o) for o in pool)}
    keep.add(EMPTY)
    return tuple(sorted(keep, key=lambda m: (m.cofinite, m.mask.bit_count(), m.support)))


def _member(elems: set[int], cofinite: bool) -> NSet:
    return cofin(elems) if cofinite else fin(elems)


# small supports make domination common; wide ones give masks of unequal lengths
family_strategy = st.lists(
    st.one_of(
        st.just(EMPTY),
        st.just(FULL),
        st.builds(_member, st.sets(st.integers(0, 4), max_size=4), st.booleans()),
        st.builds(_member, st.sets(st.integers(0, 300), max_size=3), st.booleans()),
    ),
    max_size=8,
)


@given(family_strategy, st.integers(0, 8))
def test_normalize_matches_the_quadratic_filter(ms, repeat):
    ms = ms + ms[:repeat]  # duplicates
    canon = normalize(ms)
    assert canon.members == quadratic_normalize(ms)
    assert Obj(canon.members) == canon
    kept, pool = maximal(ms), set(ms)
    assert len(kept) == len(set(kept))
    assert set(kept) == {m for m in pool if not any(m != o and m <= o for o in pool)}


def test_normalize_keeps_mutual_arrows_with_the_input():
    fam = [fin([0, 1]), fin([1]), cofin([2])]
    canon = normalize(fam)
    assert arrow_exists(fam, canon) and arrow_exists(canon, fam)


def test_obj_constructor_rejects_non_canonical_families():
    with pytest.raises(ValueError):
        Obj((fin([0]),))  # missing the empty set
    with pytest.raises(ValueError):
        Obj((EMPTY, fin([0]), fin([0, 1])))  # dominated member
    with pytest.raises(ValueError):
        Obj((fin([0]), EMPTY))  # unsorted
    with pytest.raises(ValueError):
        Obj((EMPTY, fin([0]), fin([0])))  # repeated member
    with pytest.raises(ValueError):
        Obj((EMPTY, fin([1, 2]), fin([0, 3])))  # same size, supports out of order
    with pytest.raises(ValueError):
        Obj((EMPTY, cofin([0]), fin([0])))  # cofinite before finite
    # the same members in canonical order are accepted
    assert Obj((EMPTY, fin([0, 3]), fin([1, 2]))) == normalize([fin([1, 2]), fin([0, 3])])
    assert Obj((EMPTY, fin([0]), cofin([0]))) == normalize([cofin([0]), fin([0])])


def test_obj_antichain_check_covers_every_kind_of_containment():
    dominated = [
        (EMPTY, fin([0]), fin([0, 1])),  # finite in finite
        (EMPTY, fin([0, 300]), fin([0, 2, 300])),
        (EMPTY, fin([0]), cofin([1])),  # finite in cofinite
        (EMPTY, fin([5, 300]), cofin([4])),
        (EMPTY, FULL, cofin([0])),  # cofinite in cofinite
        (EMPTY, cofin([300]), cofin([0, 300])),
        (EMPTY, fin([1]), fin([0, 3]), cofin([3])),  # one pair among three
    ]
    for ms in dominated:
        with pytest.raises(ValueError, match="not an antichain"):
            Obj(ms)
    with pytest.raises(ValueError, match=r"^\{0\} is dominated by N-\{1\};"):
        Obj((EMPTY, fin([0]), cofin([1])))
    # a cofinite member beside a finite one it does not contain
    for ms in [
        (EMPTY, fin([0]), cofin([0])),
        (EMPTY, fin([5, 300]), cofin([300])),
        (EMPTY, fin([0, 1]), cofin([1, 2])),
        (EMPTY, fin([0, 1]), cofin([0]), cofin([1])),
    ]:
        assert Obj(ms).members == ms == normalize(ms).members


def test_extreme_objects():
    assert INITIAL == Obj.of()
    assert TERMINAL == Obj.of(FULL)
    for x in W2:
        assert arrow_exists(INITIAL, x)
        assert arrow_exists(x, TERMINAL)


def test_obj_container_protocol():
    assert len(C) == 3 and fin([1]) in C and list(C) == list(C.members)
    # membership falls back to iteration over the members
    assert FULL in TERMINAL and FULL not in C and fin([0, 1]) not in C


def test_obj_json_round_trip_and_rejects():
    for x in (INITIAL, TERMINAL, C, NEAR_FULL):
        assert Obj.from_json_dict(x.to_json_dict()) == x
    for bad in ({}, {"members": 3}, {"members": [{}]}, {"x": []}):
        with pytest.raises(ValueError):
            Obj.from_json_dict(bad)


# -- arrows -----------------------------------------------------------------------


def test_arrow_examples():
    assert arrow_exists(A, B)  # {0} fits in {0,1}
    assert not arrow_exists(B, A)  # {0,1} fits in no member of A
    assert arrow_exists(C, B) and not arrow_exists(B, C)
    assert not arrow_exists(TERMINAL, A)  # N fits only in N
    assert arrow_exists(NEAR_FULL, TERMINAL)


def _presentations(family):
    """Makers of the family as a list, a one-shot generator and, if canonical, an Obj."""
    makers = [lambda: list(family), lambda: (m for m in family)]
    if normalize(family).members == tuple(family):
        makers.append(lambda: Obj(tuple(family)))
    return makers


@given(family_strategy, family_strategy)
def test_arrow_exists_matches_the_subset_definition(ms, ns):
    x, y = normalize(ms).members, normalize(ns).members
    # the drawn lists, their canonical forms and the empty family, each way round
    for src, tgt in itertools.product((ms, x, []), (ns, y, [])):
        want = all(any(s.is_subset(t) for t in tgt) for s in src)
        for make_src, make_tgt in itertools.product(_presentations(src), _presentations(tgt)):
            assert arrow_exists(make_src(), make_tgt()) == want, (src, tgt)


def test_arrows_are_a_preorder_on_the_small_universe():
    for x in W2:
        assert arrow_exists(x, x)
    for x, y, z in itertools.product(W2, repeat=3):
        if arrow_exists(x, y) and arrow_exists(y, z):
            assert arrow_exists(x, z)


def test_iso_is_canonical_equality_on_the_small_universe():
    for x in W2:
        for y in W2:
            assert is_iso(x, y) == (x == y)


def test_iso_accepts_non_canonical_presentations():
    assert is_iso([fin([0, 1]), fin([1])], B)
    assert is_iso([FULL, fin([3])], TERMINAL)


# -- near-inclusion and the w label -------------------------------------------------


def test_star_measures_source_minus_target_by_default():
    assert star_arrow(A, B) and star_arrow(B, A)  # finite families: always near
    assert star_arrow(NEAR_FULL, TERMINAL)
    assert not star_arrow(TERMINAL, A)  # N - {0} is infinite
    assert star_arrow(TERMINAL, NEAR_FULL)  # N - (N-{0}) = {0}


def test_star_literal_template_measures_the_other_difference():
    # the harness's diagnostic orientation, target minus source
    assert _literal_star(TERMINAL, A)  # {0} - N is empty
    # on canonical families the empty target member absorbs the test ...
    assert _literal_star(A, TERMINAL)
    # ... so the defect only shows on presentations without the empty set:
    assert not _literal_star([EMPTY], [FULL])  # N - {} is infinite
    assert _literal_star([EMPTY], [EMPTY, FULL])
    assert _literal_star(A, B)


def _star_by_difference(source, target, literal=False):
    """Reference oracle: build each difference and read its kind; ``literal``
    measures target minus source instead of source minus target."""
    tgt = tuple(target)
    if not literal:
        return all(any(not (s - t).cofinite for t in tgt) for s in source)
    return all(any(not (t - s).cofinite for t in tgt) for s in source)


def _small_families():
    """The empty family, every singleton and pair family over window-3
    members of at most two points, their canonical forms, and the iso
    presentations of those."""
    pool = [
        k(sup)
        for k in (fin, cofin)
        for r in range(3)
        for sup in itertools.combinations(range(3), r)
    ]
    raw = [()] + [(m,) for m in pool] + list(itertools.combinations(pool, 2))
    canon = {normalize(f) for f in raw}
    fams = set(raw) | {x.members for x in canon}
    for x in canon:
        fams.update(iso_presentations(x))
    return sorted(fams, key=lambda f: [(not m.cofinite, m.support) for m in f])


def test_star_closed_form_matches_the_difference_oracle():
    fams = _small_families()
    assert len(fams) > 200
    for s, t in itertools.product(fams, repeat=2):
        assert star_arrow(s, t) == _star_by_difference(s, t), (s, t)
        assert _literal_star(s, t) == _star_by_difference(s, t, literal=True), (s, t)


def test_w_examples():
    assert label_w(INITIAL, A)  # every member of A is nearly empty
    assert label_w(A, B)
    assert not label_w(B, A)  # no arrow B -> A
    assert not label_w(INITIAL, TERMINAL)  # N is not nearly empty
    assert label_w(NEAR_FULL, TERMINAL)
    assert not label_w(TERMINAL, NEAR_FULL)  # no arrow N -> N-{0}


def test_w_is_arrow_plus_star_back_everywhere():
    for x in W2 + [TERMINAL, NEAR_FULL]:
        for y in W2 + [TERMINAL, NEAR_FULL]:
            assert label_w(x, y) == (arrow_exists(x, y) and star_arrow(y, x))


# -- the fibration condition ---------------------------------------------------------


def test_fibration_condition_examples():
    assert fibration_condition(B, B)
    assert fibration_condition(B, A)  # {0} sits inside {0,1}
    assert not fibration_condition(A, B)  # {0,1} sits inside no member of A
    assert fibration_condition(TERMINAL, TERMINAL)
    assert fibration_condition(C, A) and not fibration_condition(A, C)


def test_gap_witness_example_is_replayable():
    w = fibration_gap(A, B)
    assert w is not None
    assert w.defeats(A)
    # the recorded blocker really is a finite subset of the target member
    assert not w.blocker.cofinite and w.blocker.is_subset(w.y)
    assert fibration_gap(B, A) is None


def test_gap_witness_with_cofinite_members():
    w = fibration_gap(A, TERMINAL)
    assert w is not None and w.defeats(A)
    assert fibration_gap(TERMINAL, NEAR_FULL) is None


def test_three_fibration_deciders_agree_on_finite_pairs():
    for x in W2:
        for y in W2:
            reduced = fibration_condition(x, y)
            assert (fibration_gap(x, y) is None) == reduced
            assert fibration_condition_enumerated(x, y) == reduced


def test_enumerated_decider_rejects_infinite_or_oversized_members():
    with pytest.raises(ValueError):
        fibration_condition_enumerated(TERMINAL, TERMINAL)
    with pytest.raises(ValueError):
        fibration_condition_enumerated(Obj.of(fin(range(20))), A)


def test_f_label_examples():
    assert label_f(B, B) and label_f(INITIAL, INITIAL)
    assert not label_f(A, B)  # arrow holds, condition fails
    assert not label_f(B, A)  # condition holds, arrow fails
    assert not label_f(INITIAL, A)
    # a non-canonical presentation can be a fibration without being an identity
    assert label_f([fin([0, 1]), fin([0])], [fin([0, 1])])


def test_explicit_fibrations_collapse_to_isomorphisms():
    for x in W2:
        for y in W2:
            if label_f(x, y):
                assert is_iso(x, y)


# -- verdicts ---------------------------------------------------------------------


def test_verdict_examples():
    v = label_verdict(A, B)
    assert (v.arrow, v.star, v.w, v.f, v.c) == (True, True, True, False, True)
    v = label_verdict(INITIAL, TERMINAL)
    assert (v.arrow, v.w, v.f, v.c) == (True, False, False, True)
    v = label_verdict(TERMINAL, A)
    assert (v.arrow, v.star, v.c) == (False, False, False)


def test_verdict_json_shape():
    d = label_verdict(A, A).to_json_dict()
    assert d == {"arrow": True, "star": True, "w": True, "f": True, "c": True}


members_strategy = st.lists(
    st.builds(
        lambda sup, f: fin(sup) if f else cofin(sup),
        st.sets(st.integers(min_value=0, max_value=4), max_size=4),
        st.booleans(),
    ),
    max_size=4,
)


@given(members_strategy, members_strategy)
def test_verdict_invariants(ms, ns):
    x, y = normalize(ms), normalize(ns)
    v = label_verdict(x, y)
    assert v.c == v.arrow
    assert not v.w or v.arrow
    assert not v.f or v.arrow
    assert v.w == label_w(x, y)
    assert v.f == label_f(x, y)
    assert v.c == arrow_exists(x, y)
    # the non-canonical presentations ISO_INVARIANCE hands to label_verdict
    for px in [x.members, *iso_presentations(x)]:
        for py in [y.members, *iso_presentations(y)]:
            got = label_verdict(px, py)
            assert got.w == label_w(px, py), (px, py)
            assert got.f == label_f(px, py), (px, py)


@given(members_strategy)
def test_identities_carry_every_label(ms):
    x = normalize(ms)
    v = label_verdict(x, x)
    assert v.arrow and v.star and v.w and v.f and v.c


# -- limits -----------------------------------------------------------------------


def test_product_examples():
    assert product(A, B) == A  # {0} & {0,1} = {0}
    assert product(B, C) == C  # {0,1}&{0}={0}, {0,1}&{1}={1}
    assert product(TERMINAL, C) == C
    assert product(INITIAL, B) == INITIAL
    assert product(NEAR_FULL, TERMINAL) == NEAR_FULL


def test_product_closed_form_matches_the_construction():
    universes = (
        Universe(window=2, include_cofinite=True),
        Universe(window=3),
        Universe(window=3, include_cofinite=True, samples=400, seed=11),
    )
    for u in universes:
        objs = list(dict.fromkeys(universe_objects(u)))  # distinct draws
        for x, y in itertools.product(objs, repeat=2):
            p = product(x, y)
            assert p == normalize(a & b for a in x for b in y), (x, y)
            if arrow_exists(x, y):
                assert p is x, (x, y)


def test_coproduct_examples():
    assert coproduct(A, B) == B  # {0} is dominated by {0,1}
    assert coproduct(A, Obj.of(fin([1]))) == C
    assert coproduct(INITIAL, C) == C
    assert coproduct(TERMINAL, A) == TERMINAL


def test_limits_universal_properties_on_the_small_universe():
    for x, y in itertools.product(W2, repeat=2):
        p, s = product(x, y), coproduct(x, y)
        assert arrow_exists(p, x) and arrow_exists(p, y)
        assert arrow_exists(x, s) and arrow_exists(y, s)
        for z in W2:
            assert arrow_exists(z, p) == (arrow_exists(z, x) and arrow_exists(z, y))
            assert arrow_exists(s, z) == (arrow_exists(x, z) and arrow_exists(y, z))


def test_products_commute_up_to_equality():
    for x, y in itertools.product(W2 + [TERMINAL, NEAR_FULL], repeat=2):
        assert product(x, y) == product(y, x)
        assert coproduct(x, y) == coproduct(y, x)


# -- structural claims used elsewhere -------------------------------------------------


def test_w_and_f_arrows_have_a_reverse_arrow():
    pairs = itertools.product(W2 + [TERMINAL, NEAR_FULL], repeat=2)
    for x, y in pairs:
        if label_w(x, y) and label_f(x, y):
            assert arrow_exists(y, x)


def test_two_of_three_for_w_on_the_small_universe():
    for x, y, z in itertools.product(W2, repeat=3):
        if arrow_exists(x, y) and arrow_exists(y, z):
            flags = (label_w(x, y), label_w(y, z), label_w(x, z))
            assert sum(flags) != 2, (x, y, z)
