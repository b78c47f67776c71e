"""Arrows, labels, and limits of the posetal category of set families.

Hand-derived verdicts pin the decision procedures; the three fibration
deciders are then played against each other, and structural laws
(posetality, universal properties, iso = canonical equality) are checked
exhaustively over the small enumerated universe.
"""

import copy
import inspect
import itertools
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from famcat import harness, kernel
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
    GapWitness,
    Obj,
    SizeGuardError,
    _canonical,
    _maximal,
    _member_sort_key,
    arrow_exists,
    coproduct,
    fibration_condition,
    fibration_condition_enumerated,
    fibration_gap,
    is_iso,
    label_f,
    label_verdict,
    label_w,
    normalize,
    product,
    star_arrow,
)
from famcat.nset import EMPTY, FULL, MAX_ELEMENT, NSet, _make
from famcat.vobj import exp_explicit

fin = NSet.fin
cofin = NSet.cofin

A = Obj.of(fin([0]))  # {{}, {0}}
B = Obj.of(fin([0, 1]))  # {{}, {0,1}}
C = Obj.of(fin([0]), fin([1]))  # {{}, {0}, {1}}
NEAR_FULL = Obj.of(cofin([0]))  # {{}, N-{0}}

W2 = enumerate_objects(Universe(window=2))
W3 = enumerate_objects(Universe(window=3))
C2 = enumerate_objects(Universe(window=2, include_cofinite=True))


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


def _nset(elems: set[int], cofinite: bool) -> NSet:
    return cofin(elems) if cofinite else fin(elems)


# small supports make domination common; wide ones give masks of unequal
# lengths, up to the widest a literal can ask for
member_strategy = st.one_of(
    st.just(EMPTY),
    st.just(FULL),
    st.builds(_nset, st.sets(st.integers(0, 4), max_size=4), st.booleans()),
    st.builds(_nset, st.sets(st.integers(0, 300), max_size=3), st.booleans()),
    st.builds(_nset, st.sets(st.integers(0, MAX_ELEMENT), max_size=3), st.booleans()),
)
family_strategy = st.lists(member_strategy, max_size=8)


@given(member_strategy, member_strategy)
def test_signed_masks_are_the_set_algebra(s, t):
    a, b = s._s, t._s
    assert _make(a) == s
    assert (a < 0) == s.cofinite
    assert _make(a & b) == s.intersect(t)
    assert _make(a | b) == s.union(t)
    assert _make(~a) == s.complement()
    assert _make(a | ~b) == s.union(t.complement())
    assert (not a & ~b) == s.is_subset(t)


def _nset_sort_key(m: NSet) -> tuple[bool, int, tuple[int, ...]]:
    return (m.cofinite, m.mask.bit_count(), m.support)


def _nset_superset_first_key(m: NSet) -> tuple[bool, int]:
    size = m.mask.bit_count()
    return (not m.cofinite, size if m.cofinite else -size)


def nset_normalize(members) -> Obj:
    """Canonical form on NSets: keep the members no other one contains, in
    one superset-first pass, sort them by the member key, then build."""
    pool = set(members)
    pool.discard(EMPTY)
    keep: list[NSet] = []
    for m in sorted(pool, key=_nset_superset_first_key):
        if not any(m.is_subset(k) for k in keep):
            keep.append(m)
    keep.sort(key=_nset_sort_key)
    return Obj((EMPTY, *keep))


@given(family_strategy, st.integers(0, 8))
def test_mask_canonicalizer_is_the_nset_normalize(ms, repeat):
    ms = ms + ms[:repeat]  # duplicates
    want = nset_normalize(ms)
    for got in (_canonical([m._s for m in ms]), normalize(ms), normalize(iter(ms))):
        assert got == want and got.members == want.members
        assert got._signed == want._signed


# few elements, on both sides of the 1,024-bit chunks that nset._elements
# peels and near MAX_ELEMENT, so a pair of them often has one kind and size
_WIDE = [0, 1, 1022, 1023, 1024, 1025, 2047, 2048, MAX_ELEMENT - 1, MAX_ELEMENT]
wide_member_strategy = st.builds(
    _nset, st.sets(st.sampled_from(_WIDE), min_size=2, max_size=3), st.booleans()
)


@given(
    st.one_of(
        st.tuples(member_strategy, member_strategy),
        st.tuples(wide_member_strategy, wide_member_strategy),
    )
)
# the supports ascending order the pair one way and descending the other
@example((fin([0, 3]), fin([1, 2])))
def test_mask_order_is_the_sort_key_order(pair):
    s, t = pair
    # the NSet reference order of members; distinct members never tie
    key_s, key_t = _member_sort_key(s._s), _member_sort_key(t._s)
    ref_s, ref_t = _nset_sort_key(s), _nset_sort_key(t)
    assert (key_s < key_t) == (ref_s < ref_t)
    assert (key_s == key_t) == (s == t)


@given(family_strategy, st.integers(0, 8))
def test_normalize_matches_the_quadratic_filter(ms, repeat):
    ms = ms + ms[:repeat]  # duplicates
    canon = normalize(ms)
    assert canon.members == quadratic_normalize(ms)
    assert Obj(canon.members) == canon
    kept, pool = _maximal(m._s for m in ms), set(ms) - {EMPTY}
    assert len(kept) == len(set(kept))
    assert set(kept) == {m._s for m in pool if not any(m != o and m <= o for o in pool)}


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


def test_obj_order_check_keeps_its_messages():
    # one case per branch of the mask order: kind, size, lowest differing bit
    unsorted = [
        (EMPTY, cofin([0]), fin([0])),
        (EMPTY, fin([0, 1]), fin([2])),
        (EMPTY, fin([1, 2]), fin([0, 3])),
        (EMPTY, fin([300]), fin([5])),
        (EMPTY, cofin([1, 2]), cofin([0, 3])),
        (fin([0]), EMPTY),
    ]
    for ms in unsorted:
        with pytest.raises(ValueError, match="^members must be sorted and duplicate-free$"):
            Obj(ms)
        assert Obj(tuple(sorted(ms, key=lambda m: _member_sort_key(m._s)))).members != ms
    for ms in [(EMPTY, EMPTY), (EMPTY, fin([0]), fin([0])), (EMPTY, FULL, FULL)]:
        with pytest.raises(ValueError, match="^members must be sorted and duplicate-free$"):
            Obj(ms)
    for ms in [(), (fin([0]),), (fin([0]), FULL)]:
        with pytest.raises(ValueError, match="^a canonical family contains the empty set$"):
            Obj(ms)


def test_obj_holds_the_masks_of_its_members():
    for x in W3 + C2:
        held = x._signed
        assert held == tuple(~m.mask if m.cofinite else m.mask for m in x.members)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
                  Obj(x.members)):
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            assert y._signed == held
    # the masks are the value's identity, but only the members are shown
    assert repr(C) == f"Obj(members={C.members!r})"
    assert Obj.from_json_dict(C.to_json_dict())._signed == C._signed
    assert list(inspect.signature(Obj).parameters) == ["members"]
    # one mask layout only
    assert Obj.__slots__ == ("members", "_signed")


def assert_checked_form(ob: Obj) -> None:
    """``ob`` passes every check of ``Obj(...)`` and holds the masks it computes."""
    assert Obj(ob.members)._signed == ob._signed


@pytest.mark.parametrize(
    "u",
    [
        Universe(window=3),
        Universe(window=2, include_cofinite=True),
        Universe(window=3, include_cofinite=True, samples=250, seed=0),
        Universe(window=3, include_cofinite=True, samples=250, seed=1),
    ],
    ids=["W3", "C2", "C3-250-seed0", "C3-250-seed1"],
)
def test_unchecked_builds_pass_the_checked_constructor(u):
    # the enumeration, the sampled draw, normalize, product, coproduct and
    # exp_explicit build objects without Obj's checks; each must be what
    # those checks accept
    objs = list(dict.fromkeys(universe_objects(u)))
    for x in objs:
        assert_checked_form(x)
    for x, y in itertools.product(objs, repeat=2):
        assert_checked_form(normalize(m & n for m in x for n in y))
        assert_checked_form(normalize(x.members + y.members))
        assert_checked_form(product(x, y))
        assert_checked_form(coproduct(x, y))
        assert_checked_form(exp_explicit(x, y))


def once(x):
    """The members of ``x`` as a one-shot generator."""
    return (m for m in x.members)


def test_deciders_give_one_answer_on_objects_and_one_shot_iterables():
    for x, y in itertools.product(C2 + [B, C], repeat=2):
        assert label_w(once(x), once(y)) == label_w(x, y)
        assert label_verdict(once(x), once(y)) == label_verdict(x, y)
        assert is_iso(once(x), once(y)) == is_iso(x, y)
        assert star_arrow(once(x), once(y)) == star_arrow(x, y)
        assert arrow_exists(once(x), once(y)) == arrow_exists(x, y)
        assert label_w(x.members, y.members) == label_w(x, y)
        assert star_arrow(x.members, y.members) == star_arrow(x, y)


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


def test_obj_holds_a_tuple_of_a_list_or_a_generator():
    members = (EMPTY, fin([1]), cofin([1]))
    want = Obj(members)
    given = list(members)
    held = Obj(given)
    given.append(fin([5]))  # the caller's list is not the object's
    for x in (held, Obj(m for m in members)):
        assert type(x.members) is tuple and x.members == members
        assert x == want and hash(x) == hash(want) and str(x) == str(want)
        assert x.to_json_dict() == want.to_json_dict()
        y = pickle.loads(pickle.dumps(x))
        assert y == want and y.members == members
    # a bad family gets the same message whatever iterable carries it
    for bad in [
        (fin([0]), EMPTY),
        (EMPTY, fin([0]), fin([0, 1])),
        (EMPTY, fin([0]), cofin([1])),
        (fin([0]),),
    ]:
        with pytest.raises(ValueError) as err:
            Obj(bad)
        for other in (list(bad), (m for m in bad)):
            with pytest.raises(ValueError) as got:
                Obj(other)
            assert str(got.value) == str(err.value)


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
    # the need is the meet plus the blocker: {0} & {1} is empty, which {0} holds
    assert not GapWitness(x=fin([0]), y=fin([1]), blocker=fin([])).defeats((fin([0]),))


def test_the_empty_source_family_is_no_fibration():
    # with no source member x still ranges over the empty set, and nothing covers it
    T = Obj.of(fin([0]))
    assert not fibration_condition((), T)
    w = fibration_gap((), T)
    assert w is not None and w.defeats(())
    assert fibration_condition_enumerated((), T) is False


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
    # too wide a member is a size guard, which is still a ValueError
    assert fibration_condition_enumerated(Obj.of(fin(range(12))), A)
    with pytest.raises(SizeGuardError, match="support too large to enumerate"):
        fibration_condition_enumerated(Obj.of(fin(range(13))), A)
    assert issubclass(SizeGuardError, ValueError)


def test_gap_witness_may_name_a_point_past_max_element():
    # the one member holding 0..MAX_ELEMENT misses only points past it, so the
    # blocker of (empty, N) picks 0 from the empty member and MAX_ELEMENT + 1
    # from the other; a literal could not name that point, but a witness can
    source = Obj.of(fin(range(MAX_ELEMENT + 1)))
    assert not fibration_condition(source, TERMINAL)
    w = fibration_gap(source, TERMINAL)
    assert w == GapWitness(x=EMPTY, y=FULL, blocker=_make(1 | 1 << (MAX_ELEMENT + 1)))
    assert w.defeats(source)


# -- the NSet-algebra oracles of the fibration deciders --------------------------------


def oracle_fibration_gap(source, target) -> tuple[NSet, NSet, NSet] | None:
    """The witness search on NSet algebra: the first ``(x, y, blocker)``."""
    src = tuple(source)
    for x in src if EMPTY in src else src + (EMPTY,):
        for y in target:
            meet = x & y
            candidates = [m for m in src if meet.is_subset(m)]
            if any(y.is_subset(m) for m in candidates):
                continue
            return x, y, fin((y - m).smallest() for m in candidates)
    return None


def oracle_defeats(x: NSet, y: NSet, blocker: NSet, source) -> bool:
    need = (x & y) | blocker
    return not any(need.is_subset(m) for m in source)


def oracle_fibration_condition_enumerated(source, target) -> bool:
    """The enumerating decider on NSet algebra, every b by size."""
    src, tgt = tuple(source), tuple(target)
    for m in src + tgt:
        if m.cofinite:
            raise ValueError("the enumerating decider needs finite members")
        if m.mask.bit_count() > 12:
            raise SizeGuardError("support too large to enumerate")
    for x in src if EMPTY in src else src + (EMPTY,):
        for y in tgt:
            for size in range(len(y.support) + 1):
                for b in itertools.combinations(y.support, size):
                    need = (x & y) | fin(b)
                    if not any(need.is_subset(m) for m in src):
                        return False
    return True


def _enumerated_outcome(decider, x, y) -> object:
    """The verdict, or the type and message of the error."""
    try:
        return decider(x, y)
    except ValueError as e:
        return type(e), str(e)


def _distinct_pairs(u: Universe) -> list[tuple[Obj, Obj]]:
    objs = list(dict.fromkeys(universe_objects(u)))
    return list(itertools.product(objs, repeat=2))


# the window-14 draw gives finite members of 2 to 12 points, up to the widest
# the enumerating decider walks
_ORACLE_PAIRS = {
    "C2": list(itertools.product(C2, repeat=2)),
    "W3": list(itertools.product(W3, repeat=2)),
    "C3-250-seed0": _distinct_pairs(Universe(window=3, include_cofinite=True, samples=250, seed=0)),
    "C3-250-seed1": _distinct_pairs(Universe(window=3, include_cofinite=True, samples=250, seed=1)),
    "W14-40-seed0": _distinct_pairs(Universe(window=14, samples=40, seed=0)),
}


@pytest.mark.parametrize("name", _ORACLE_PAIRS)
def test_fibration_deciders_match_their_nset_oracles(name):
    for x, y in _ORACLE_PAIRS[name]:
        w = fibration_gap(x, y)
        want = oracle_fibration_gap(x, y)
        if w is None:
            assert want is None, (x, y)
        else:
            assert (w.x, w.y, w.blocker) == want, (x, y)
            # replayed against the source, which it defeats, and the target
            for s in (x, y):
                assert w.defeats(s) == oracle_defeats(*want, s), (x, y, s)
            assert w.defeats(x)
        got = _enumerated_outcome(fibration_condition_enumerated, x, y)
        assert got == _enumerated_outcome(oracle_fibration_condition_enumerated, x, y), (x, y)


_NSET_ALGEBRA = (
    "__and__", "intersect", "__or__", "union", "__sub__", "difference", "__invert__",
    "complement", "is_subset", "__le__", "smallest", "to_json_dict", "__eq__", "__hash__",
)


def test_fibration_deciders_and_object_json_build_no_nset_algebra(monkeypatch):
    def answers():
        out = []
        for x, y in itertools.product(C2, repeat=2):
            w = fibration_gap(x, y)
            out.append((
                fibration_condition(x, y),
                None if w is None else (w.x._s, w.y._s, w.blocker._s, w.defeats(x), w.defeats(y)),
                _enumerated_outcome(fibration_condition_enumerated, x, y),
            ))
        return out, [x.to_json_dict() for x in C2]

    want = answers()
    # each member as the NSet writer writes it
    assert want[1] == [{"members": [m.to_json_dict() for m in x]} for x in C2]

    def refuse(*args):
        raise AssertionError("NSet algebra was used")

    with monkeypatch.context() as mp:
        for name in _NSET_ALGEBRA:
            mp.setattr(NSet, name, refuse)
        for name in ("fin", "cofin"):
            mp.setattr(NSet, name, classmethod(refuse))
        for name in ("cofinite", "mask", "support"):
            mp.setattr(NSet, name, property(refuse))
        got = answers()
    assert got == want


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


def test_label_verdict_matches_each_fact_decider_on_c2_presentations():
    # every ordered pair of C2 objects and of the presentations ISO_INVARIANCE
    # hands over, and the empty family, where an empty target takes only an
    # empty source; each field of the shared verdict against its own decider
    families = [p for x in C2 for p in [x.members, *iso_presentations(x)]] + [()]
    seen, shared = set(), {}
    for px, py in itertools.product(families, repeat=2):
        v = label_verdict(px, py)
        expected = (
            arrow_exists(px, py),
            star_arrow(px, py),
            label_w(px, py),
            label_f(px, py),
            arrow_exists(px, py),
        )
        assert (v.arrow, v.star, v.w, v.f, v.c) == expected, (px, py)
        seen.add(expected)
        shared[id(v)] = v
    # arrow implies star, and f implies w, so five verdicts are reached, and
    # each is one shared object
    assert len(seen) == 5
    assert len(shared) == 5


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


def test_product_stops_past_max_partials(monkeypatch):
    # the 3 rows of a 3-by-3 grid against its 3 columns meet in 9
    # singletons and the empty set
    rows = normalize(fin(range(3 * i, 3 * i + 3)) for i in range(3))
    cols = normalize(fin(range(j, 9, 3)) for j in range(3))
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 10)
    assert product(rows, cols) == normalize(a & b for a in rows for b in cols)
    assert len(product(rows, cols).members) == 10
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 9)
    with pytest.raises(SizeGuardError, match="MAX_PARTIALS"):
        product(rows, cols)
    # a comparable pair returns before anything is built
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 0)
    assert product(rows, TERMINAL) is rows and product(TERMINAL, cols) is cols


def test_meets_stops_at_the_first_row_past_max_partials(monkeypatch):
    made = []

    class CountingMask(int):
        """A signed mask that records each meet it takes part in."""

        def __and__(self, other):
            made.append(1)
            return int.__and__(self, other)

    # a_i = {i} | {20..39} and b_j = {0..19} | {20 + j} meet in {i, 20 + j}:
    # all 400 meets are distinct
    n = 20
    low, high = (1 << n) - 1, ((1 << n) - 1) << n
    xs = [CountingMask(1 << i | high) for i in range(n)]
    ys = [low | 1 << (n + j) for j in range(n)]
    grid = {int.__and__(a, b) for a in xs for b in ys}
    assert len(grid) == n * n
    for cap in (10, 45, n * n - 1):
        monkeypatch.setattr(kernel, "MAX_PARTIALS", cap)
        made.clear()
        with pytest.raises(SizeGuardError, match="the test passed MAX_PARTIALS"):
            kernel._meets(xs, ys, "the test")
        assert 0 < len(made) <= cap + len(ys)
    # the same inputs pass exactly when their distinct meets fit
    for cap in (n * n, n * n + 1, 10**6):
        monkeypatch.setattr(kernel, "MAX_PARTIALS", cap)
        assert kernel._meets(xs, ys, "the test") == grid
    # repeated meets count once
    rows = [0b0011, 0b0110, 0b1100]
    for cap in (4, 9):
        monkeypatch.setattr(kernel, "MAX_PARTIALS", cap)
        assert kernel._meets(rows, [0b0001, 0b0010, 0b1000], "the test") == {0, 1, 2, 8}
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 3)
    with pytest.raises(SizeGuardError):
        kernel._meets(rows, [0b0001, 0b0010, 0b1000], "the test")
    # what is bounded is the set held, not the work: rows that repeat the
    # first row's n meets add none, and only the last row's n new meets
    # pass the guard, so every cell of the grid is met first
    ys = [1 << j | 1 << (n + j) for j in range(n)]
    xs = [CountingMask(low)] * (3 * n) + [CountingMask(high)]
    monkeypatch.setattr(kernel, "MAX_PARTIALS", n)
    made.clear()
    with pytest.raises(SizeGuardError, match="the test passed MAX_PARTIALS"):
        kernel._meets(xs, ys, "the test")
    assert len(made) == len(xs) * len(ys)
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 2 * n)
    assert len(kernel._meets(xs, ys, "the test")) == 2 * n


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


# -- the cofinite universe is the finite one a window up ------------------------------


def relabel(x: Obj, window: int) -> frozenset[int]:
    """phi on the signed masks of x: a finite member stays; a cofinite one
    with holes h, all inside ``range(window)``, becomes
    ``(range(window) - h) | {window}``, the new point standing for its
    infinite part.  phi keeps and reflects inclusion of members, so it maps
    a canonical family onto the members of a canonical one."""
    top = 1 << window
    return frozenset(s if s >= 0 else s & (top - 1) | top for s in x._signed)


def has_cofinite(x: Obj) -> bool:
    return min(x._signed) < 0


def assert_relabelling_keeps_pairs(cofinite, finite, window):
    """phi is a bijection from ``cofinite`` onto ``finite`` that keeps
    arrows, products and coproducts, and w differs from its image exactly on
    the arrows into an object with a cofinite member from one with none,
    where w on finite objects is the arrow.  Returns phi and that count."""
    images = {frozenset(y._signed): y for y in finite}
    phi = {x: images[relabel(x, window)] for x in cofinite}
    assert len(set(phi.values())) == len(cofinite) == len(finite)
    differ = 0
    for x, y in itertools.product(cofinite, repeat=2):
        fx, fy = phi[x], phi[y]
        arrow = arrow_exists(x, y)
        assert arrow == arrow_exists(fx, fy), (x, y)
        assert relabel(product(x, y), window) == frozenset(product(fx, fy)._signed), (x, y)
        assert relabel(coproduct(x, y), window) == frozenset(coproduct(fx, fy)._signed), (x, y)
        assert label_w(fx, fy) == arrow, (x, y)
        lost = arrow and has_cofinite(y) and not has_cofinite(x)
        assert label_w(x, y) == (arrow and not lost), (x, y)
        differ += lost
    return phi, differ


def test_cofinite_window_2_is_the_finite_window_3():
    phi, differ = assert_relabelling_keeps_pairs(C2, W3, 2)
    assert differ == 50
    # exponentials differ, their down-sets do not: d -> exp(b, c) iff
    # phi d -> exp(phi b, phi c), on all 6,859 triples
    for b, c in itertools.product(C2, repeat=2):
        e, fe = exp_explicit(b, c), exp_explicit(phi[b], phi[c])
        for d in C2:
            assert arrow_exists(d, e) == arrow_exists(phi[d], fe), (d, b, c)


def test_cofinite_window_3_is_the_finite_window_4(monkeypatch):
    with monkeypatch.context() as m:  # both universes have 167 objects
        m.setattr(harness, "_guard", lambda u: None)
        c3 = enumerate_objects(Universe(window=3, include_cofinite=True))
        w4 = enumerate_objects(Universe(window=4))
    _, differ = assert_relabelling_keeps_pairs(c3, w4, 3)
    assert differ == 1692
