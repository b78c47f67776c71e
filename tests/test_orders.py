"""The harness's generic axioms on a model with known answers: finite total orders.

The total order [n] = {0 < 1 < ... < n-1} is a posetal category: the arrow
i -> j exists when i <= j, the product is min and the coproduct is max.  Its
model structures are listed here by brute force and compared with the pairs
(W, F) that the harness's own axioms accept.  Each (W, F) is handed to the
harness as one ``harness.Relations`` record of [n]'s tables (``<=``,
``min``, ``max``, W and F), and an axiom rejects it when its premise, the
axiom as table algebra, yields a tuple.  The cofibrations C are every
arrow, as famcat's ``c`` label is the arrow itself.

Only the axioms whose premise reads nothing but those tables run here:
``M1_LIFTING``, ``M2_FACTOR_C_WF``, ``M5_TWO_OF_THREE``, ``BASE_CHANGE_F``
and ``COBASE_CHANGE_WC``.  ``M2_FACTOR_WC_F`` reads famcat's virtual
objects (the middle ``WC(x, y)``) and ``RETRACT_CLOSURE`` and
``ISO_INVARIANCE`` read its presentations of an object as sets of sets, so
those stay famcat-only.  Each of the generic axioms but
``M2_FACTOR_C_WF`` rejects, on [4], some non-model that no other one
rejects; the test names one for each, and records that ``M2_FACTOR_C_WF``
rejects nothing there.
"""

import itertools

import pytest

from famcat import harness

GENERIC = ("M1_LIFTING", "M2_FACTOR_C_WF", "M5_TWO_OF_THREE", "BASE_CHANGE_F", "COBASE_CHANGE_WC")


def _arrows(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _lifts(left, right):
    """``left`` has the left lifting property against ``right``: every square
    from ``x -> y`` to ``w -> z`` (``x <= w``, ``y <= z``) has the diagonal ``y -> w``."""
    (x, y), (w, z) = left, right
    return not (x <= w and y <= z) or y <= w


def _factors(n, first, second):
    """Every arrow is an arrow of ``first`` followed by one of ``second``."""
    return all(
        any((x, m) in first and (m, y) in second for m in range(x, y + 1))
        for x, y in _arrows(n)
    )


def _with_identities(n, arrows):
    return frozenset(arrows).union((i, i) for i in range(n))


def _classes(n):
    """Every set of arrows of [n] that holds the identities."""
    others = [(i, j) for i, j in _arrows(n) if i < j]
    for k in range(len(others) + 1):
        for chosen in itertools.combinations(others, k):
            yield _with_identities(n, chosen)


def weak_factorization_systems(n):
    """The pairs (L, R) with R = RLP(L), L = LLP(R) and every arrow an L then an R."""
    arrows = _arrows(n)
    systems = []
    for left in _classes(n):
        right = {r for r in arrows if all(_lifts(l, r) for l in left)}
        closed = left == {l for l in arrows if all(_lifts(l, r) for r in right)}
        if closed and _factors(n, left, right):
            systems.append((left, frozenset(right)))
    return systems


def _two_of_three(n, w):
    return all(
        sum(((x, y) in w, (y, z) in w, (x, z) in w)) != 2
        for x, y, z in itertools.combinations_with_replacement(range(n), 3)
    )


def model_structures(n):
    """With C = every arrow, (C, F ∩ W) and (C ∩ W, F) = (W, F) are weak
    factorization systems.  The first says that F ∩ W is the identities, and
    the second gives that, since an arrow in both lifts against itself.  So
    the model structures are the (W, F) = (L, R) whose L has 2-of-3."""
    return {(l, r) for l, r in weak_factorization_systems(n) if _two_of_three(n, l)}


def _rows(n, arrows):
    """One bitset row per object of [n]: bit j of row i is set when (i, j) is in ``arrows``."""
    return [sum(1 << j for j in range(n) if (i, j) in arrows) for i in range(n)]


def rejections(n):
    """Each (W, F), both holding the identities, mapped to the names of the
    generic axioms whose premise yields some tuple of [n]."""
    objects = range(n)
    arrow = _rows(n, _arrows(n))
    meets = [[min(i, j) for j in objects] for i in objects]
    joins = [[max(i, j) for j in objects] for i in objects]
    premises = [(name, harness._AXIOMS[name][2]) for name in GENERIC]
    rejected = {}
    for w, f in itertools.product(list(_classes(n)), repeat=2):
        order = harness.Relations(arrow, _rows(n, w), _rows(n, f), meets, joins)
        rejected[w, f] = {
            name for name, premise in premises if next(premise(order), None) is not None
        }
    return rejected


def accepted_pairs(n):
    """The (W, F), each holding the identities, that no axiom rejects."""
    return {pair for pair, by in rejections(n).items() if not by}


@pytest.mark.parametrize(
    "n, systems, models, accepted",
    [(1, 1, 1, 1), (2, 2, 2, 3), (3, 5, 4, 12), (4, 14, 8, 60)],
    ids=["n=1", "n=2", "n=3", "n=4"],
)
def test_the_predicates_and_a_factorization_accept_exactly_the_model_structures(
    n, systems, models, accepted
):
    # the weak factorization systems of [n] are counted by the Catalan numbers
    assert len(weak_factorization_systems(n)) == systems
    truth = model_structures(n)
    assert len(truth) == models
    found = accepted_pairs(n)
    assert len(found) == accepted
    # every model structure passes the axioms, but they alone let
    # non-models through; the generic fact "every arrow is a (w) then an (f)"
    # removes exactly those
    assert truth <= found
    assert {(w, f) for w, f in found if _factors(n, w, f)} == truth


# On [4]: how many non-models each generic axiom rejects with no other
# axiom rejecting them, and the first of them by size, named by the
# arrows of W and of F besides the identities.  M2_FACTOR_C_WF rejects none
# at all: with C every arrow, x -> y -> y is a (c, wf) factorization once the
# identities are (w) and (f), and every W and F here holds them.
ALONE = {
    "M1_LIFTING": (132, {(0, 1)}, {(0, 1)}),
    "M2_FACTOR_C_WF": (0, None, None),
    "M5_TWO_OF_THREE": (42, {(0, 1), (1, 2)}, set()),
    "BASE_CHANGE_F": (75, set(), {(0, 2)}),
    "COBASE_CHANGE_WC": (27, {(0, 2)}, set()),
}


def test_each_generic_predicate_but_one_rejects_a_non_model_alone():
    rejected = rejections(4)
    truth = model_structures(4)
    assert set(ALONE) == set(GENERIC)
    for name, (count, w, f) in ALONE.items():
        assert sum(by == {name} for by in rejected.values()) == count, name
        if count:
            pair = (_with_identities(4, w), _with_identities(4, f))
            assert rejected[pair] == {name} and pair not in truth, name
    assert not any("M2_FACTOR_C_WF" in by for by in rejected.values())
