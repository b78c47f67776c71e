"""The verification harness: enumeration, sampling, checks, and reports.

Enumeration counts are pinned and cross-checked against an independent
antichain enumerator; sampling is checked for determinism; every axiom and
claim check must pass on the exhaustive and a seeded cofinite universe;
both suites, exhaustive (premise-first or not) and sampled, must report
exactly what a hand-built scan of every tuple reports, also under
deliberately weakened deciders that make each violation test of an axiom or
claim fire (the premises then read the weakened facts from the per-pair
oracle of the relation tables, which the column-built tables must equal on
every universe of up to 167 objects); each premise must yield exactly the
tuples on which its predicate fires, in order; a sampled suite call decides each
distinct tuple once and keeps nothing for the next call; and the opt-in
literal star template must produce real, replayable counterexamples to
isomorphism invariance.
"""

import itertools
import json
import random

import pytest

from famcat import harness
from famcat.harness import (
    AXIOM_NAMES,
    CLAIM_NAMES,
    MAX_HELD,
    MAX_RECORDED_VIOLATIONS,
    MAX_SAMPLES,
    SizeGuardError,
    Universe,
    check_axiom,
    check_claim,
    enumerate_objects,
    instance_tuples,
    iso_presentations,
    run_axioms,
    run_claims,
    shrink_tuple,
    universe_objects,
)
from famcat.kernel import (
    INITIAL,
    TERMINAL,
    GapWitness,
    LabelVerdict,
    Obj,
    _canonical,
    arrow_exists,
    fibration_condition,
    is_iso,
    label_verdict,
    normalize,
)
from famcat.nset import EMPTY, FULL, NSet
from famcat.vobj import FactorizationCheck, check_factorization

fin = NSet.fin

W2 = Universe(window=2)
W3 = Universe(window=3)
C2 = Universe(window=2, include_cofinite=True)
C1 = Universe(window=1, include_cofinite=True)
SAMPLED = Universe(window=3, include_cofinite=True, samples=200, seed=42)


# -- enumeration -----------------------------------------------------------------


def test_window_zero_and_one_counts():
    assert enumerate_objects(Universe(window=0)) == [Obj.of()]
    assert set(map(str, enumerate_objects(Universe(window=1)))) == {
        "{{}}",
        "{{}, {0}}",
    }


def test_window_two_objects_are_pinned():
    got = {o.members for o in enumerate_objects(W2)}
    expected = {
        (EMPTY,),
        (EMPTY, fin([0])),
        (EMPTY, fin([1])),
        (EMPTY, fin([0]), fin([1])),
        (EMPTY, fin([0, 1])),
    }
    assert got == expected


def brute_force_canonical_objects(window: int, cofinite: bool = False) -> set[tuple]:
    """All antichains of nonempty subsets of the window (and, with
    ``cofinite``, of cofinite sets with holes in it), plus the empty set."""
    subsets = [
        c for size in range(window + 1) for c in itertools.combinations(range(window), size)
    ]
    ground = [fin(c) for c in subsets if c]
    if cofinite:
        ground += [NSet.cofin(c) for c in subsets]
    out = set()
    for picks in itertools.product([False, True], repeat=len(ground)):
        chosen = [g for g, p in zip(ground, picks) if p]
        if any(
            a != b and a.is_subset(b)
            for a, b in itertools.permutations(chosen, 2)
        ):
            continue
        out.add(normalize(chosen).members)
    return out


def test_window_three_count_matches_independent_enumerator():
    got = {o.members for o in enumerate_objects(W3)}
    assert len(got) == 19
    assert got == brute_force_canonical_objects(3)


def test_exhaustive_cofinite_universes():
    # cofinite window w has as many objects as finite window w + 1
    counts = []
    for window in range(3):
        got = {o.members for o in enumerate_objects(Universe(window, include_cofinite=True))}
        assert got == brute_force_canonical_objects(window, cofinite=True)
        counts.append(len(got))
    assert counts == [2, 5, 19]
    report = run_axioms(C2)
    assert report.passed
    assert [c.instances for c in report.checks[:2]] == [19**4, 19**2]


def test_enumerated_objects_are_distinct_and_canonical():
    for universe in (W3, C2):
        objs = enumerate_objects(universe)
        assert len(objs) == len(set(objs))
        for o in objs:
            assert o == normalize(o.members)


# -- size guards -----------------------------------------------------------------


def test_exhaustive_guards():
    with pytest.raises(SizeGuardError):
        enumerate_objects(Universe(window=4))
    with pytest.raises(SizeGuardError):
        enumerate_objects(Universe(window=3, include_cofinite=True))  # 167 objects
    with pytest.raises(ValueError):
        Universe(window=-1)
    with pytest.raises(SizeGuardError):
        Universe(window=3, samples=MAX_SAMPLES + 1)
    assert Universe(window=3, samples=MAX_SAMPLES).samples == MAX_SAMPLES
    # sampled universes take any window and cofinite members
    assert len(universe_objects(Universe(window=5, include_cofinite=True, samples=7))) == 7


# -- sampling --------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    a = universe_objects(SAMPLED)
    b = universe_objects(SAMPLED)
    assert a == b
    other = universe_objects(Universe(window=3, include_cofinite=True, samples=200, seed=7))
    assert a != other


def test_sampling_respects_the_flags():
    finite_only = universe_objects(Universe(window=3, samples=150, seed=1))
    assert not any(m.cofinite for o in finite_only for m in o)
    with_cofinite = universe_objects(
        Universe(window=3, include_cofinite=True, samples=150, seed=1)
    )
    assert any(m.cofinite for o in with_cofinite for m in o)
    assert all(e < 3 for o in with_cofinite for m in o for e in m.support)


def test_universe_objects_dispatches_on_mode():
    assert universe_objects(W2) == enumerate_objects(W2)
    rng = random.Random(SAMPLED.seed)
    drawn = [nset_draw(rng, SAMPLED) for _ in range(SAMPLED.samples)]
    assert universe_objects(SAMPLED) == drawn


def test_instance_tuples_counts():
    assert sum(1 for _ in instance_tuples(W2, 2)) == 25
    assert sum(1 for _ in instance_tuples(W2, 3)) == 125
    sampled = list(instance_tuples(SAMPLED, 3))
    assert len(sampled) == 200
    assert all(len(t) == 3 for t in sampled)
    # same seed, same stream
    assert sampled == list(instance_tuples(SAMPLED, 3))


# -- axiom and claim checks --------------------------------------------------------


@pytest.mark.parametrize("name", AXIOM_NAMES)
def test_axiom_passes_exhaustively_and_sampled(name):
    assert check_axiom(name, W2).passed
    assert check_axiom(name, SAMPLED).passed


@pytest.mark.parametrize("name", CLAIM_NAMES)
def test_claim_passes_exhaustively_and_sampled(name):
    assert check_claim(name, W2).passed
    assert check_claim(name, SAMPLED).passed


# -- the suite runner against a brute-force oracle ------------------------------------


def replayed_tuples(u, arity):
    """The tuples a check sees, built by hand: every ``itertools.product``
    tuple of the enumerated objects, or ``samples`` tuples of ``arity``
    consecutive draws from a fresh ``random.Random(seed)``."""
    if u.is_exhaustive:
        yield from itertools.product(enumerate_objects(u), repeat=arity)
        return
    rng = random.Random(u.seed)
    for _ in range(u.samples):
        yield tuple(nset_draw(rng, u) for _ in range(arity))


@pytest.mark.parametrize(
    "u",
    [
        Universe(window=3, include_cofinite=True, samples=400, seed=5),
        # 4 x 1100 draws with more than MAX_HELD distinct ones
        Universe(window=16, include_cofinite=True, samples=1100, seed=3),
    ],
    ids=["window-3", "window-16"],
)
def test_instance_tuples_are_the_nset_draw_replay_also_past_max_held(u):
    if u.window == 16:
        draws = [x for t in replayed_tuples(u, 4) for x in t]
        assert len(set(draws)) > MAX_HELD
    for arity in (1, 4):
        got, want = list(instance_tuples(u, arity)), list(replayed_tuples(u, arity))
        assert got == want
        assert all(g.members == w.members for gt, wt in zip(got, want) for g, w in zip(gt, wt))


def nset_draw(rng, u):
    """One sampled object drawn as NSets: a geometric number of members,
    each window element with probability 1/2, then, with cofinite members,
    the complement with probability 1/4; then normalized."""
    count = 1
    while rng.random() < 0.5:
        count += 1
    drawn = []
    for _ in range(count):
        support = tuple(i for i in range(u.window) if rng.random() < 0.5)
        cofinite = u.include_cofinite and rng.random() < 0.25
        drawn.append(NSet.cofin(support) if cofinite else NSet.fin(support))
    return normalize(frozenset(drawn))


@pytest.mark.parametrize("window", [0, 1, 3, 16])
@pytest.mark.parametrize("cofinite", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_mask_draw_is_the_nset_draw(window, cofinite, seed):
    # at windows 0 and 1 nearly every draw repeats raw masks already met,
    # one mask or several, so the objects found without canonicalizing are checked
    u = Universe(window=window, include_cofinite=cofinite, samples=300, seed=seed)
    for arity in (1, 3, 4):
        rng = random.Random(seed)
        want = [tuple(nset_draw(rng, u) for _ in range(arity)) for _ in range(u.samples)]
        got = list(instance_tuples(u, arity))
        assert got == want
        assert all(g.members == w.members for gt, wt in zip(got, want) for g, w in zip(gt, wt))


def test_a_stream_interns_at_most_max_held_objects(monkeypatch):
    # at window 16 nearly every draw is a new object; at window 3 most repeat
    # raw masks, and many keys name an object they are not the maximal masks of
    wide = Universe(window=16, include_cofinite=True, samples=300, seed=3)
    narrow = Universe(window=3, include_cofinite=True, samples=300, seed=3)
    want = {u: list(replayed_tuples(u, 2)) for u in (wide, narrow)}
    monkeypatch.setattr(harness, "MAX_HELD", 8)
    sizes = []
    draw = harness._draw_object

    def spy(rng, bits, cofinite, held, objs):
        i = draw(rng, bits, cofinite, held, objs)
        sizes.append((len(set(held.values())), len(held), len(objs), i))
        # each held object is keyed under its maximal masks, the one mask or
        # their frozenset, and every key's masks canonicalize to the object it names
        for j, ob in enumerate(objs[: harness.MAX_HELD]):
            top = ob._signed[1:]
            assert held[top[0] if len(top) == 1 else frozenset(top)] == j
        for key, j in held.items():
            assert objs[j] == _canonical(key if isinstance(key, frozenset) else [key])
        return i

    monkeypatch.setattr(harness, "_draw_object", spy)
    for u in (wide, narrow):
        sizes.clear()
        assert list(instance_tuples(u, 2)) == want[u]
        assert len(sizes) == 600
        assert max(held for held, _, _, _ in sizes) == 8
        assert max(keys for _, keys, _, _ in sizes) < 2 * 8
        assert max(objs for _, _, objs, _ in sizes) == 8 + 1  # the held objects, the spare slot
        assert sum(i == 8 for *_, i in sizes) > 1  # new draws past the held ones share the slot
    assert max(keys for _, keys, _, _ in sizes) > 8  # window 3 keys objects under raw masks too
    # a second stream starts empty: nothing outlives the first
    sizes.clear()
    next(instance_tuples(wide, 1))
    assert sizes[0][0] == sizes[0][2] == 1


def brute_force(u, suite, names, literal_star=False):
    """Every tuple through each predicate, counted; the first violations
    recorded, each shrunk, as the suite runner promises."""
    table = harness._CLAIMS if suite == "claims" else harness._AXIOMS
    out = []
    for name in names:
        arity, pred, _ = table[name]
        if literal_star and name == "ISO_INVARIANCE":
            pred = harness._pred_iso_literal_star
        instances, found = 0, []
        for tup in replayed_tuples(u, arity):
            instances += 1
            detail = pred(tup)
            if detail is not None and len(found) < MAX_RECORDED_VIOLATIONS:
                small = shrink_tuple(tup, pred)
                found.append((small, pred(small) or detail))
        out.append((name, instances, found))
    return out


def harness_suite(u, suite, names, literal_star=False):
    if suite == "claims":
        report = run_claims(u, names)
    else:
        report = run_axioms(u, names, literal_star=literal_star)
    return [
        (c.name, c.instances, [(v.objects, v.detail) for v in c.violations])
        for c in report.checks
    ]


def assert_matches_brute_force(universe, suite, names, literal_star=False):
    got = harness_suite(universe, suite, names, literal_star)
    assert got == brute_force(universe, suite, names, literal_star)
    violations = {name: len(found) for name, _, found in got}
    if "ISO_INVARIANCE" in names:
        assert bool(violations["ISO_INVARIANCE"]) == literal_star
    if literal_star:
        assert not violations["RETRACT_CLOSURE"]
    return violations


@pytest.mark.parametrize(
    "universe, literal_star, names",
    [
        (W2, False, AXIOM_NAMES),
        (W3, False, AXIOM_NAMES),
        (C2, False, AXIOM_NAMES),
        (C2, True, ("RETRACT_CLOSURE", "ISO_INVARIANCE")),
    ],
    ids=["W2", "W3", "C2", "C2-literal-star"],
)
def test_premise_first_checks_match_brute_force(universe, literal_star, names):
    violations = assert_matches_brute_force(universe, "axioms", names, literal_star)
    assert violations["ISO_INVARIANCE"] == (MAX_RECORDED_VIOLATIONS if literal_star else 0)


# WEXP_REPRESENTABILITY on W3 is 130,321 quadruples (about 16 s against the
# brute force on 2 vCPU, Python 3.11); W2 and the sampled universe cover it
# here, and CI runs the whole W3 claim suite end to end.
W3_CLAIMS = tuple(n for n in CLAIM_NAMES if n != "WEXP_REPRESENTABILITY")


@pytest.mark.parametrize(
    "universe, suite, literal_star, names",
    [
        (SAMPLED, "axioms", False, AXIOM_NAMES),
        (SAMPLED, "axioms", False, ("M2_FACTOR_C_WF",)),
        (SAMPLED, "axioms", False, ("M1_LIFTING",)),
        (SAMPLED, "axioms", False, ("M5_TWO_OF_THREE", "M2_FACTOR_WC_F")),
        (SAMPLED, "axioms", True, ("RETRACT_CLOSURE", "ISO_INVARIANCE")),
        (W2, "claims", False, CLAIM_NAMES),
        (W3, "claims", False, W3_CLAIMS),
        (SAMPLED, "claims", False, CLAIM_NAMES),
    ],
    ids=[
        "sampled",
        "sampled-width-2",
        "sampled-width-4",
        "sampled-widths-3-2",
        "sampled-literal-star",
        "W2-claims",
        "W3-claims",
        "sampled-claims",
    ],
)
def test_suite_runner_matches_brute_force(universe, suite, literal_star, names):
    # a sampled suite draws once at its widest picked arity; each check must
    # still see the tuples of its own fresh per-check draw
    assert_matches_brute_force(universe, suite, names, literal_star)


def _small_source(fact):
    return lambda a, b: fact(a, b) and len(a.members) <= 2


def _small_target(fact):
    return lambda a, b: fact(a, b) and len(b.members) <= 2


def _factorization_failing_into_large_targets(x, y):
    fc = check_factorization(x, y)
    return FactorizationCheck(
        fc.x, fc.y, fc.arrow_into_middle, len(y.members) <= 2, fc.fibration_instances_ok,
        fc.instances,
    )


def per_pair_relations(objs):
    """The relation tables decided pair by pair, through the names the harness
    reads and the tests patch: the oracle of the column-built ``_relations``."""
    rows = tuple(
        [sum(1 << j for j, y in enumerate(objs) if fact(x, y)) for x in objs]
        for fact in (harness.arrow_exists, harness.label_w, harness.label_f)
    )
    index = {ob: i for i, ob in enumerate(objs)}
    P, C = (
        [[index[op(x, y)] for y in objs] for x in objs]
        for op in (harness.product, harness.coproduct)
    )
    return harness.Relations(*rows, P, C)


# Each weakened decider breaks the axioms it names, so the comparison below
# covers the pruning of tuples where violations exist.
WEAKENED = {
    "f-is-arrow": ({"label_f": arrow_exists}, {"M1_LIFTING"}),
    "w-small-source-f-small-target": (
        {"label_w": _small_source(arrow_exists), "label_f": _small_target(arrow_exists)},
        {
            "M1_LIFTING",
            "M2_FACTOR_C_WF",
            "M5_TWO_OF_THREE",
            "BASE_CHANGE_F",
            "COBASE_CHANGE_WC",
        },
    ),
    "w-small-target": (
        {"label_w": _small_target(arrow_exists)},
        {"M2_FACTOR_C_WF", "M5_TWO_OF_THREE", "COBASE_CHANGE_WC"},
    ),
    "f-small-target": (
        {"label_f": _small_target(arrow_exists)},
        {"M1_LIFTING", "M2_FACTOR_C_WF", "BASE_CHANGE_F"},
    ),
    # the only weakened f that reads its source beyond the arrow, so that base
    # change sees which object is pulled back
    "f-small-source": (
        {"label_f": _small_source(arrow_exists)},
        {"M1_LIFTING", "M2_FACTOR_C_WF", "BASE_CHANGE_F"},
    ),
    "factorization": (
        {"check_factorization": _factorization_failing_into_large_targets},
        {"M2_FACTOR_WC_F"},
    ),
}


@pytest.mark.parametrize("universe", [W2, C1], ids=["W2", "C1"])
@pytest.mark.parametrize("patch", WEAKENED)
def test_premise_first_checks_match_brute_force_on_weakened_deciders(
    monkeypatch, universe, patch
):
    deciders, broken = WEAKENED[patch]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    # the column tables hold the real facts; the premises must see the weakened ones
    monkeypatch.setattr(harness, "_relations", per_pair_relations)
    got = harness_suite(universe, "axioms", AXIOM_NAMES)
    assert got == brute_force(universe, "axioms", AXIOM_NAMES)
    assert {name for name, _, found in got if found} == broken


def _empty_gap_unless_a_fibration(s, t):
    return None if fibration_condition(s, t) else GapWitness(EMPTY, EMPTY, EMPTY)


# Each weakened decider makes the claims it names fail, each with one detail,
# so the violation test behind each detail is seen to fire.  A product patch
# leaves WEXP_REPRESENTABILITY out: VObj.wexp rejects the wrong slices.
CLAIM5_BROKEN = "member criterion False but whole-family (w) is True"
WEAKENED_CLAIMS = {
    "f-is-arrow": (
        {"label_f": arrow_exists},
        {"WCF_REVERSE": "a (wcf) arrow without its reverse arrow"},
    ),
    "reduced-fibration-always": (
        {"fibration_condition": lambda s, t: True},
        {"F_REDUCTION": "definitional and reduced fibration deciders disagree"},
    ),
    "gap-defeats-nothing": (
        {"fibration_gap": _empty_gap_unless_a_fibration},
        {"F_REDUCTION": "gap witness does not defeat the source family"},
    ),
    "exp-is-terminal": (
        {"exp_explicit": lambda b, c: TERMINAL},
        {
            "EXP_REPRESENTABILITY":
                "exponential not representing: exp=True product=False vobj=False",
        },
    ),
    "product-is-terminal": (
        {"product": lambda x, y: TERMINAL},
        {
            "CLAIM5": CLAIM5_BROKEN,
            "EXP_REPRESENTABILITY":
                "exponential not representing: exp=True product=False vobj=True",
            "LIMITS_UNIVERSAL": "product lost a projection",
        },
    ),
    "product-is-initial": (
        {"product": lambda x, y: INITIAL},
        {
            "CLAIM5": CLAIM5_BROKEN,
            "EXP_REPRESENTABILITY":
                "exponential not representing: exp=False product=True vobj=False",
            "LIMITS_UNIVERSAL": "product universal property failed",
        },
    ),
    "coproduct-is-initial": (
        {"coproduct": lambda x, y: INITIAL},
        {"LIMITS_UNIVERSAL": "coproduct lost an injection"},
    ),
    "coproduct-is-terminal": (
        {"coproduct": lambda x, y: TERMINAL},
        {"LIMITS_UNIVERSAL": "coproduct universal property failed"},
    ),
}


@pytest.mark.parametrize("universe", [W2, C1], ids=["W2", "C1"])
@pytest.mark.parametrize("patch", WEAKENED_CLAIMS)
def test_claim_suites_match_brute_force_on_weakened_deciders(monkeypatch, universe, patch):
    deciders, broken = WEAKENED_CLAIMS[patch]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    names = CLAIM_NAMES
    if "product" in deciders:
        names = tuple(n for n in CLAIM_NAMES if n != "WEXP_REPRESENTABILITY")
    got = harness_suite(universe, "claims", names)
    assert got == brute_force(universe, "claims", names)
    details = {name: {detail for _, detail in found} for name, _, found in got if found}
    assert details == {name: {detail} for name, detail in broken.items()}


PREMISED = {name: check for name, check in harness._AXIOMS.items() if check[2]}


C3 = Universe(window=3, include_cofinite=True)
W4 = Universe(window=4)


@pytest.mark.parametrize(
    "universe",
    [Universe(window=0), Universe(window=0, include_cofinite=True), Universe(window=1)]
    + [C1, W2, C2, W3, C3, W4],
    ids=["W0", "C0", "W1", "C1", "W2", "C2", "W3", "C3", "W4"],
)
def test_column_tables_are_the_per_pair_tables(monkeypatch, universe):
    monkeypatch.setattr(harness, "_guard", lambda u: None)  # C3 and W4 have 167 objects
    objs = enumerate_objects(universe)

    def refuse(*args):
        raise AssertionError("an NSet was compared or hashed")

    # both builders read signed masks only: the columns, and the oracle's
    # index of objects, whose equality and hash are those of their masks
    monkeypatch.setattr(NSet, "__eq__", refuse)
    monkeypatch.setattr(NSet, "__hash__", refuse)
    A, W, F, P, C = tables = harness._relations(objs)
    assert tables == per_pair_relations(objs)
    # every fact occurs: some arrow is not (w), and some (w) arrow is not (f)
    if len(objs) > 2:
        assert any(a & ~w for a, w in zip(A, W)) == universe.include_cofinite
        assert any(w & ~f for w, f in zip(W, F))


@pytest.mark.parametrize("universe", [W2, C1, C2], ids=["W2", "C1", "C2"])
@pytest.mark.parametrize("patch", ["real-deciders", *WEAKENED])
def test_premises_admit_every_tuple_their_predicate_fires_on(monkeypatch, universe, patch):
    # the oracle of the table algebra: each premise yields exactly the tuples
    # on which its predicate fires, in the order of a full scan
    deciders, broken = WEAKENED.get(patch, ({}, set()))
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    objs = enumerate_objects(universe)
    relations = per_pair_relations(objs)
    fired = set()
    for name, (arity, pred, premise) in PREMISED.items():
        firing = [
            index
            for index in itertools.product(range(len(objs)), repeat=arity)
            if pred(tuple(objs[i] for i in index)) is not None
        ]
        assert list(premise(relations)) == firing, name
        fired.update([name] if firing else [])
    assert fired == broken & set(PREMISED)


@pytest.mark.parametrize("universe", [W3, C2], ids=["W3", "C2"])
def test_conclusion_reading_premises_yield_nothing_on_canonical_objects(universe):
    relations = harness._relations(enumerate_objects(universe))
    for premise in (
        harness._premise_m1,
        harness._premise_m2_c_wf,
        harness._premise_m5,
        harness._premise_base_change,
        harness._premise_cobase_change,
    ):
        assert next(premise(relations), None) is None, premise.__name__


def test_f_reduction_still_asks_the_enumerating_decider(monkeypatch):
    # every W3 member fits the enumerating decider, so a wrong one is caught
    monkeypatch.setattr(harness, "fibration_condition_enumerated", lambda x, y: True)
    (check,) = run_claims(W3, ["F_REDUCTION"]).checks
    assert check.violations and all(
        v.detail == "enumerating decider disagrees on a finite-only pair" for v in check.violations
    )


def test_sampled_suites_match_brute_force_on_a_weakened_decider(monkeypatch):
    deciders, broken = WEAKENED["w-small-target"]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    got = {}
    for suite, names in (("axioms", AXIOM_NAMES), ("claims", CLAIM_NAMES)):
        checks = harness_suite(SAMPLED, suite, names)
        assert checks == brute_force(SAMPLED, suite, names)
        got.update({name: found for name, _, found in checks})
    assert {name for name, found in got.items() if found} == broken | {
        "CLAIM5",
        "WEXP_REPRESENTABILITY",
    }
    # the claims stream holds more violations than are recorded
    assert len(got["CLAIM5"]) == MAX_RECORDED_VIOLATIONS


def test_a_repeated_violating_tuple_is_recorded_at_each_occurrence(monkeypatch):
    u = Universe(window=1, include_cofinite=True, samples=300, seed=5)
    names = ("M2_FACTOR_C_WF", "M5_TWO_OF_THREE", "COBASE_CHANGE_WC")
    deciders, _ = WEAKENED["w-small-target"]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    shrunk = []
    monkeypatch.setattr(
        harness, "shrink_tuple", lambda t, pred: shrunk.append(t) or shrink_tuple(t, pred)
    )
    got = harness_suite(u, "axioms", names)
    assert got == brute_force(u, "axioms", names)
    recorded = []
    for name in names:
        arity, pred, _ = harness._AXIOMS[name]
        firing = [t for t in replayed_tuples(u, arity) if pred(t) is not None]
        recorded.append(firing[:MAX_RECORDED_VIOLATIONS])
    # recorded at each occurrence, shrunk once per distinct tuple and check
    assert [(len(r), len(set(r))) for r in recorded] == [(19, 4), (2, 2), (10, 5)]
    assert sorted(map(str, shrunk)) == sorted(str(t) for r in recorded for t in set(r))


def test_each_distinct_sampled_tuple_is_decided_once_per_call(monkeypatch):
    calls = {}

    def counted(name, pred):
        def run(t):
            calls[name] = calls.get(name, 0) + 1
            return pred(t)

        return run

    wrapped, distinct = {}, {}
    for name, (arity, pred, premise) in harness._AXIOMS.items():
        if pred not in wrapped:
            wrapped[pred] = counted(name, pred)
            distinct[name] = len(set(replayed_tuples(SAMPLED, arity)))
        monkeypatch.setitem(harness._AXIOMS, name, (arity, wrapped[pred], premise))
    first = run_axioms(SAMPLED)
    per_call = dict(calls)
    calls.clear()
    second = run_axioms(SAMPLED)
    # no cache outlives a call, and within one each distinct tuple is decided once
    assert calls == per_call == distinct
    assert first.machine_json() == second.machine_json()
    assert sum(per_call.values()) < SAMPLED.samples * len(per_call)


@pytest.mark.parametrize(
    "universe, held",
    [(SAMPLED, 8), (Universe(window=2, include_cofinite=True, samples=300, seed=7), 40)],
    ids=["more-objects-than-held", "more-tuples-than-held"],
)
def test_sampled_suites_past_max_held_match_brute_force(monkeypatch, universe, held):
    # past MAX_HELD distinct objects each check draws its own stream; past
    # MAX_HELD distinct tuples a check forgets some and decides them again
    monkeypatch.setattr(harness, "MAX_HELD", held)
    deciders, broken = WEAKENED["w-small-target"]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    got = harness_suite(universe, "axioms", AXIOM_NAMES)
    assert got == brute_force(universe, "axioms", AXIOM_NAMES)
    assert {name for name, _, found in got if found} == broken


def test_a_draw_with_no_repeats_is_not_held(monkeypatch):
    # at window 16 nearly every draw is new: 4 x 1100 draws pass MAX_HELD
    u = Universe(window=16, include_cofinite=True, samples=1100, seed=3)
    wide = Universe(window=16, include_cofinite=True, samples=4400, seed=3)
    distinct: set[Obj] = set()
    for shared, ob in enumerate(universe_objects(wide), 1):
        distinct.add(ob)
        if len(distinct) > MAX_HELD:
            break
    assert len(distinct) > MAX_HELD
    names = ("M1_LIFTING", "RETRACT_CLOSURE")
    expected = brute_force(u, "axioms", names)
    draws = []
    draw = harness._draw_object
    monkeypatch.setattr(harness, "_draw_object", lambda *args: draws.append(1) or draw(*args))
    assert harness_suite(u, "axioms", names) == expected
    # the shared draw stops at its first object past MAX_HELD; then each check draws its own
    assert len(draws) == shared + 4 * 1100 + 2 * 1100


def test_unknown_check_names_are_rejected():
    with pytest.raises(ValueError):
        check_axiom("NOT_A_CHECK", W2)
    with pytest.raises(ValueError):
        check_claim("M1_LIFTING", W2)  # axiom name, not a claim


def test_names_are_checked_before_any_work(monkeypatch):
    def no_work(u):
        raise AssertionError("enumerated before the names were checked")

    monkeypatch.setattr(harness, "enumerate_objects", no_work)
    with pytest.raises(ValueError, match="unknown check 'NOPE'"):
        run_axioms(W2, ["M1_LIFTING", "NOPE"])
    with pytest.raises(ValueError, match="unknown check 'M1_LIFTING'"):
        run_claims(W2, ["CLAIM5", "M1_LIFTING"])
    with pytest.raises(ValueError, match="check 'M1_LIFTING' is named twice"):
        run_axioms(W2, ["M1_LIFTING", "M5_TWO_OF_THREE", "M1_LIFTING"])
    with pytest.raises(ValueError, match="check 'CLAIM5' is named twice"):
        run_claims(W2, ["CLAIM5", "CLAIM5"])


def test_an_empty_selection_is_rejected():
    with pytest.raises(ValueError, match="no checks selected"):
        run_axioms(W2, [])
    with pytest.raises(ValueError, match="no checks selected"):
        run_claims(SAMPLED, ())


def test_check_result_counts_instances():
    r = check_axiom("M2_FACTOR_WC_F", W2)
    assert r.instances == 25 and r.passed and r.name == "M2_FACTOR_WC_F"


# -- the literal star diagnostic ----------------------------------------------------


def test_iso_presentations_really_are_isomorphic():
    for x in enumerate_objects(W2) + [Obj.of(NSet.cofin([1]))]:
        for pres in iso_presentations(x):
            assert is_iso(pres, x)


def test_literal_star_breaks_iso_invariance_on_cofinite_universes():
    universe = Universe(window=3, include_cofinite=True, samples=300, seed=42)
    adopted = check_axiom("ISO_INVARIANCE", universe)
    literal = check_axiom("ISO_INVARIANCE", universe, literal_star=True)
    assert adopted.passed
    assert not literal.passed
    assert len(literal.violations) >= 1


def test_literal_star_counterexample_is_replayable():
    # the minimal shape: {{}} -> {{}, N}; dropping the empty member from the
    # target presentation flips the literal star verdict
    x, y = Obj.of(), Obj.of(FULL)
    canonical = harness._literal_verdict(x, y)
    variant = harness._literal_verdict(x.members, (FULL,))
    assert canonical.star and not variant.star
    # the adopted orientation is invariant on the same presentations
    assert label_verdict(x, y).star == label_verdict(x.members, (FULL,)).star


def test_literal_star_is_harmless_on_finite_only_universes():
    assert check_axiom("ISO_INVARIANCE", W2, literal_star=True).passed


def _fresh_verdict(s, t):
    """label_verdict's verdict, as an equal value that is not the shared one."""
    v = label_verdict(s, t)
    return LabelVerdict(v.arrow, v.star, v.w, v.f, v.c)


def _c_flipped_on_presentations(s, t):
    """The fresh verdict, with ``c`` flipped on every presentation but the canonical pair."""
    v = _fresh_verdict(s, t)
    return v if isinstance(s, Obj) else LabelVerdict(v.arrow, v.star, v.w, v.f, not v.c)


def test_presentation_check_compares_verdicts_by_equality():
    # identity only short-cuts the comparison: an equal verdict that is not
    # the shared one is no violation, and one field changed is one
    pairs = list(itertools.product(enumerate_objects(C2), repeat=2))
    for pair in pairs:
        assert harness._iso_invariance_detail(pair, _fresh_verdict) is None, pair
        detail = harness._iso_invariance_detail(pair, _c_flipped_on_presentations)
        assert detail is not None and detail.startswith("verdict changed"), pair
    assert len(pairs) == 361


# -- shrinking -------------------------------------------------------------------


def test_shrinking_preserves_the_violation_and_shrinks():
    big = (
        normalize([fin([0, 1, 2]), fin([3])]),
        normalize([fin([0, 1]), fin([2, 3])]),
    )

    def violates(t):
        x, y = t
        return "source nonempty" if any(m != EMPTY for m in x) else None

    small = shrink_tuple(big, violates)
    assert violates(small) is not None
    assert sum(len(m.support) for o in small for m in o) <= sum(
        len(m.support) for o in big for m in o
    )
    # the greedy minimum here: a single one-element member on the left
    assert small[0] == normalize([fin([0])]) or len(small[0]) <= len(big[0])
    assert small[1] == normalize([])

    # shrinking a cofinite member's holes keeps it cofinite
    def has_cofinite(t):
        return "cofinite source member" if any(m.cofinite for m in t[0]) else None

    big = (normalize([NSet.cofin([0, 1]), fin([3])]),)
    assert shrink_tuple(big, has_cofinite) == (normalize([FULL]),)


def _nset_shrink_candidates(ob):
    """Reference: the shrink candidates built from NSets, in the shrinker's
    order: drop each member, then drop each element or hole of each one."""
    nonempty = ob.members[1:]
    for m in nonempty:
        yield normalize(mm for mm in ob.members if mm != m)
    for m in nonempty:
        for e in m.support:
            slim = (NSet.cofin if m.cofinite else NSet.fin)(s for s in m.support if s != e)
            yield normalize(slim if mm == m else mm for mm in ob.members)


@pytest.mark.parametrize("u", [C2, W3], ids=["C2", "W3"])
def test_shrink_candidates_match_the_nset_reference(u):
    for ob in enumerate_objects(u):
        candidates = list(harness._shrink_candidates(ob))
        assert candidates == list(_nset_shrink_candidates(ob)), ob
        assert ob not in candidates, ob


def test_recorded_violations_are_shrunk():
    universe = Universe(window=3, include_cofinite=True, samples=300, seed=42)
    literal = check_axiom("ISO_INVARIANCE", universe, literal_star=True)
    for v in literal.violations:
        # every recorded counterexample is small: supports within the window
        assert all(len(m.support) <= 3 for o in v.objects for m in o)
        assert v.detail


# -- reports ---------------------------------------------------------------------


def test_machine_report_is_byte_stable():
    r1 = run_axioms(W2).machine_json()
    r2 = run_axioms(W2).machine_json()
    assert r1 == r2
    s1 = run_claims(SAMPLED).machine_json()
    s2 = run_claims(SAMPLED).machine_json()
    assert s1 == s2


def test_machine_report_shape():
    report = run_axioms(W2, names=["M5_TWO_OF_THREE"])
    data = json.loads(report.machine_json())
    assert data["passed"] is True
    assert data["universe"]["mode"] == "exhaustive"
    assert [c["name"] for c in data["checks"]] == ["M5_TWO_OF_THREE"]
    assert "elapsed" not in data["checks"][0]


def test_human_report_lines():
    text = run_axioms(W2).human_text()
    assert text.endswith("result: PASS")
    for name in AXIOM_NAMES:
        assert f"[PASS] {name}:" in text
    failing = run_axioms(
        Universe(window=3, include_cofinite=True, samples=120, seed=42),
        names=["ISO_INVARIANCE"],
        literal_star=True,
    )
    text = failing.human_text()
    assert "[FAIL] ISO_INVARIANCE" in text and text.endswith("result: FAIL")


def test_report_passed_agrees_with_checks():
    report = run_claims(W2)
    assert report.passed == all(c.passed for c in report.checks)


def test_selected_names_run_in_order():
    names = ["RETRACT_CLOSURE", "M1_LIFTING"]
    report = run_axioms(W2, names=names)
    assert [c.name for c in report.checks] == names


def _check_json(report, name):
    (found,) = [c.to_json_dict() for c in report.checks if c.name == name]
    return {k: v for k, v in found.items() if k != "name"}


def test_retract_and_iso_checks_share_one_result():
    for universe in (W2, SAMPLED):
        report = run_axioms(universe)
        shared = _check_json(report, "RETRACT_CLOSURE")
        assert shared == _check_json(report, "ISO_INVARIANCE")
        assert shared["instances"] > 0
        # the shared result is the one a lone run of either check gives
        alone = check_axiom("ISO_INVARIANCE", universe).to_json_dict()
        assert shared == {k: v for k, v in alone.items() if k != "name"}


def test_literal_star_changes_only_the_iso_check():
    universe = Universe(window=3, include_cofinite=True, samples=120, seed=42)
    literal = run_axioms(
        universe, names=["RETRACT_CLOSURE", "ISO_INVARIANCE"], literal_star=True
    )
    retract = _check_json(literal, "RETRACT_CLOSURE")
    iso = _check_json(literal, "ISO_INVARIANCE")
    assert retract["passed"] and not iso["passed"]
    assert retract == _check_json(run_axioms(universe), "RETRACT_CLOSURE")


# -- cross-check: factorization middles against explicit pairs -----------------------


def test_factorization_axiom_agrees_with_direct_arrow_scan():
    # M2_FACTOR_WC_F ran green above; spot-check the precondition logic:
    # pairs without an arrow are skipped, pairs with one are verified
    objs = enumerate_objects(W2)
    arrows = [(x, y) for x in objs for y in objs if arrow_exists(x, y)]
    assert len(arrows) > len(objs)  # strictly more than the identities
    r = check_axiom("M2_FACTOR_WC_F", W2)
    assert r.instances == len(objs) ** 2
