"""Exact set algebra on finite and cofinite subsets of the naturals.

The oracle is a windowed model: any set built from supports inside
``range(W)`` is determined by its membership bits on the window plus one
tail bit saying whether everything at or beyond W is inside.  All algebra
laws are checked against that model, both exhaustively on a small window
and with randomized inputs.
"""

import copy
import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from famcat.nset import EMPTY, FULL, MAX_ELEMENT, NSet

W = 8


def model(s: NSet) -> tuple[frozenset[int], bool]:
    """Window membership bits plus the tail bit; exact for supports < W.

    Also checks that the derived support and printed form agree with the
    membership bits, so every operation that builds ``s`` is covered.
    """
    assert all(e < W for e in s.support)
    bits = frozenset(n for n in range(W) if n in s)
    listed = sorted(set(range(W)) - bits) if s.cofinite else sorted(bits)
    assert s.support == tuple(listed)
    body = "{" + ",".join(map(str, listed)) + "}"
    assert str(s) == (("N" if not listed else f"N-{body}") if s.cofinite else body)
    return bits, s.cofinite


supports = st.sets(st.integers(min_value=0, max_value=W - 1), max_size=W)
nsets = st.builds(
    lambda sup, fin: NSet.fin(sup) if fin else NSet.cofin(sup),
    supports,
    st.booleans(),
)


# -- construction and canonical form -------------------------------------------


def test_support_is_sorted_and_deduplicated():
    s = NSet.fin([3, 1, 3, 2, 1])
    assert s.support == (1, 2, 3)
    assert NSet.cofin([5, 0, 5]).support == (0, 5)


def test_equal_supports_mean_equal_values():
    assert NSet.fin([2, 1]) == NSet.fin([1, 2, 2])
    assert hash(NSet.cofin([0])) == hash(NSet.cofin([0, 0]))
    assert NSet.fin([1]) != NSet.cofin([1])


def test_negative_or_non_integer_support_is_rejected():
    with pytest.raises(ValueError):
        NSet.fin([-1])
    with pytest.raises(ValueError):
        NSet.cofin([1.5])  # type: ignore[list-item]


def test_bools_are_not_naturals():
    # bool is an int subclass; accepting it made True and 1 print differently
    for bad in ([True], [False], [1, True], [True, 1]):
        with pytest.raises(ValueError):
            NSet.fin(bad)
        with pytest.raises(ValueError):
            NSet.cofin(bad)
    with pytest.raises(ValueError):
        NSet.from_json_dict({"fin": [True]})


def test_elements_are_bounded_by_max_element():
    assert NSet.fin([MAX_ELEMENT]).support == (MAX_ELEMENT,)
    assert MAX_ELEMENT not in NSet.cofin([MAX_ELEMENT])
    for build in (NSet.fin, NSet.cofin):
        with pytest.raises(ValueError):
            build([MAX_ELEMENT + 1])
    with pytest.raises(ValueError):
        NSet.from_json_dict({"fin": [10**9]})


def test_values_are_immutable():
    s = NSet.fin([1])
    for name in ("_s", "mask", "cofinite", "support", "other"):
        with pytest.raises(AttributeError, match="NSet is immutable"):
            setattr(s, name, 0)
        with pytest.raises(AttributeError, match="NSet is immutable"):
            delattr(s, name)
    assert s == NSet.fin([1]) and s._s == 0b10
    assert NSet.fin([0]).__eq__(object()) is NotImplemented
    # copies are rebuilt from the mask, not by setting attributes
    for t in (s, FULL, NSet.cofin([0, 3])):
        assert copy.copy(t) == t and copy.deepcopy(t) == t
        assert pickle.loads(pickle.dumps(t)) == t


def test_one_slot_holds_the_signed_mask():
    assert NSet.__slots__ == ("_s",)
    assert NSet.fin([0, 2])._s == 0b101 and NSet.cofin([1])._s == ~0b10
    for s in (EMPTY, FULL, NSet.fin([300]), NSet.cofin([0, 300])):
        assert not hasattr(s, "__dict__")
        # the kind and the mask are derived, read-only views of the slot
        for name in ("cofinite", "mask"):
            with pytest.raises(AttributeError):
                object.__setattr__(s, name, 0)
            with pytest.raises(AttributeError):
                object.__delattr__(s, name)
            with pytest.raises(AttributeError):
                getattr(NSet, name).__set__(s, 0)
            with pytest.raises(AttributeError):
                getattr(NSet, name).__delete__(s)


@given(nsets)
def test_hash_is_the_mask_or_minus_two_minus_the_holes(s):
    bits, tail = model(s)
    mask = sum(1 << n for n in range(W) if (n in bits) is not tail)
    assert hash(s) == (-2 - mask if tail else mask)


def test_direct_construction_raises_type_error():
    # a value must come with its slot set; only the named builders do that
    for args in ((), ("fin", [1]), (False, 0)):
        with pytest.raises(TypeError, match="NSet.fin, NSet.cofin or NSet.from_json_dict"):
            NSet(*args)


def test_named_constants():
    assert EMPTY == NSet.fin()
    assert FULL == NSet.cofin()
    assert not EMPTY.cofinite and EMPTY.mask.bit_count() == 0
    assert FULL.cofinite and not FULL.mask
    assert hash(EMPTY) == 0 and hash(FULL) == -2 and hash(NSet.cofin([0])) == -3


# -- membership, size, order ----------------------------------------------------


def test_membership_examples():
    assert 1 in NSet.fin([1, 4])
    assert 2 not in NSet.fin([1, 4])
    assert 2 in NSet.cofin([1, 4])
    assert 4 not in NSet.cofin([1, 4])
    assert 10**9 in FULL and 10**9 not in EMPTY
    # a negative integer is no natural, so no set, finite or cofinite, has it
    for s in (EMPTY, FULL, NSet.fin([0, 1]), NSet.cofin([0]), NSet.cofin([1, 4])):
        assert -1 not in s and -5 not in s, s


def test_membership_of_huge_naturals_allocates_nothing():
    tracemalloc.start()
    try:
        assert 10**9 in FULL and 10**9 not in EMPTY
        assert 10**9 in NSet.cofin([3]) and 10**9 not in NSet.fin([3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # a mask reaching 10**9 would take 125 MB


def test_smallest_element():
    assert NSet.fin([5, 3]).smallest() == 3
    assert EMPTY.smallest() is None
    assert NSet.cofin([0, 1, 3]).smallest() == 2
    assert NSet.cofin([1]).smallest() == 0
    assert NSet.cofin([1]).drop_least().smallest() == 2


def test_drop_least_is_a_proper_subset():
    for s in (NSet.fin([1, 2]), NSet.cofin([0]), FULL):
        smaller = s.drop_least()
        assert smaller.is_subset(s) and smaller != s
        assert s.smallest() not in smaller
    with pytest.raises(ValueError):
        EMPTY.drop_least()


def test_drop_least_stays_within_max_element():
    top = NSet.cofin(range(MAX_ELEMENT))  # least member is MAX_ELEMENT itself
    for s in (NSet.fin([0, MAX_ELEMENT]), NSet.fin([MAX_ELEMENT]), NSet.cofin([0]), top):
        smaller = s.drop_least()
        assert NSet.from_json_dict(smaller.to_json_dict()) == smaller
    assert top.drop_least() == NSet.cofin(range(MAX_ELEMENT + 1))
    with pytest.raises(ValueError, match="MAX_ELEMENT"):
        NSet.cofin(range(MAX_ELEMENT + 1)).drop_least()


# -- algebra: exhaustive window-3 oracle ----------------------------------------


def all_small_nsets() -> list[NSet]:
    out = []
    for size in range(4):
        for sup in itertools.combinations(range(3), size):
            out.append(NSet.fin(sup))
            out.append(NSet.cofin(sup))
    return out


SMALL = all_small_nsets()
PROBES = list(range(6))  # supports live in {0,1,2}; 3..5 probe the tail


def test_intersection_is_pointwise_and():
    for a in SMALL:
        for b in SMALL:
            c = a & b
            for n in PROBES:
                assert (n in c) == (n in a and n in b), (a, b, n)


def test_union_is_pointwise_or():
    for a in SMALL:
        for b in SMALL:
            c = a | b
            for n in PROBES:
                assert (n in c) == (n in a or n in b), (a, b, n)


def test_difference_is_pointwise_and_not():
    for a in SMALL:
        for b in SMALL:
            c = a - b
            for n in PROBES:
                assert (n in c) == (n in a and n not in b), (a, b, n)


def test_complement_is_pointwise_not():
    for a in SMALL:
        c = ~a
        for n in PROBES:
            assert (n in c) == (n not in a), (a, n)
        assert ~c == a


def test_subset_matches_pointwise_implication():
    # membership agreement on the window plus the tail kind decides it
    for a in SMALL:
        for b in SMALL:
            pointwise = all((n not in a) or (n in b) for n in PROBES) and not (
                a.cofinite and not b.cofinite
            )
            assert a.is_subset(b) == pointwise, (a, b)


def test_lattice_laws_hold_exhaustively():
    for a in SMALL:
        for b in SMALL:
            assert a & b == b & a
            assert a | b == b | a
            assert a & (a | b) == a
            assert a | (a & b) == a
            assert ~(a & b) == ~a | ~b
            assert ~(a | b) == ~a & ~b


def test_diff_card_infinite_exactly_for_cofinite_minus_finite():
    for a in SMALL:
        for b in SMALL:
            expect_infinite = a.cofinite and not b.cofinite
            assert (a - b).cofinite == expect_infinite, (a, b)


def test_subset_iff_difference_is_empty():
    for a in SMALL:
        for b in SMALL:
            assert a.is_subset(b) == ((a - b) == EMPTY)


# -- algebra: randomized window-8 model -----------------------------------------


@given(nsets, nsets)
def test_model_agreement_intersection(a, b):
    bits_a, tail_a = model(a)
    bits_b, tail_b = model(b)
    assert model(a & b) == (bits_a & bits_b, tail_a and tail_b)


@given(nsets, nsets)
def test_model_agreement_union(a, b):
    bits_a, tail_a = model(a)
    bits_b, tail_b = model(b)
    assert model(a | b) == (bits_a | bits_b, tail_a or tail_b)


@given(nsets, nsets)
def test_model_agreement_difference(a, b):
    bits_a, tail_a = model(a)
    bits_b, tail_b = model(b)
    assert model(a - b) == (bits_a - bits_b, tail_a and not tail_b)


@given(nsets, nsets)
def test_model_agreement_subset(a, b):
    bits_a, tail_a = model(a)
    bits_b, tail_b = model(b)
    assert a.is_subset(b) == (bits_a <= bits_b and tail_a <= tail_b)


@given(nsets)
def test_model_agreement_complement(a):
    bits, tail = model(a)
    assert model(~a) == (frozenset(range(W)) - bits, not tail)


@given(nsets)
def test_model_agreement_drop_least(a):
    if a == EMPTY:
        return
    bits, tail = model(a)
    if tail and not bits:  # the least member lies beyond the window
        return
    assert model(a.drop_least()) == (bits - {a.smallest()}, tail)


@given(nsets, nsets)
def test_diff_card_counts_the_window(a, b):
    d = a - b
    bits, tail = model(d)
    assert d.cofinite == tail
    if not tail:
        assert d.mask.bit_count() == len(bits)


@given(nsets)
def test_operator_aliases(a):
    assert a.complement() == ~a
    assert a.difference(a) == EMPTY
    assert a.union(EMPTY) == a and a.intersect(FULL) == a
    assert (a <= FULL) and (EMPTY <= a)


# -- serialization ---------------------------------------------------------------


def test_json_round_trip():
    for s in SMALL + [NSet.fin([10, 99]), NSet.cofin([7])]:
        assert NSet.from_json_dict(s.to_json_dict()) == s


def test_json_shape():
    assert NSet.fin([1, 0]).to_json_dict() == {"fin": [0, 1]}
    assert NSet.cofin().to_json_dict() == {"cofin": []}
    # an element list denotes a set: order and repeats do not survive a load
    assert NSet.from_json_dict({"cofin": [5, 0, 5]}).to_json_dict() == {"cofin": [0, 5]}


def test_json_rejects_malformed_literals():
    for bad in ({}, {"fin": [0], "cofin": []}, {"weird": []}, {"fin": 3}, "fin"):
        with pytest.raises(ValueError):
            NSet.from_json_dict(bad)  # type: ignore[arg-type]


def test_str_forms():
    assert str(NSet.fin([0, 1])) == "{0,1}"
    assert str(FULL) == "N"
    assert str(NSet.cofin([2])) == "N-{2}"
    assert str(EMPTY) == "{}"
    assert repr(NSet.cofin([2, 0])) == "NSet.cofin([0, 2])" and repr(EMPTY) == "NSet.fin([])"
