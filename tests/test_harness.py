"""The verification harness: enumeration, sampling, checks, and reports.

Enumeration counts are pinned and cross-checked against an independent
antichain enumerator; sampling is checked for determinism; every axiom and
claim check must pass on the exhaustive and a seeded cofinite universe;
both suites, exhaustive (premise-first or not) and sampled, must report
exactly what a hand-built scan of every tuple reports, also under
deliberately weakened deciders; a sampled suite call decides each distinct
tuple once and keeps nothing for the next call; and the opt-in literal star
template must produce real, replayable counterexamples to isomorphism
invariance.
"""

import dataclasses
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
    Obj,
    arrow_exists,
    is_iso,
    label_verdict,
    normalize,
)
from famcat.nset import EMPTY, FULL, NSet
from famcat.vobj import check_factorization

fin = NSet.fin

W2 = Universe(window=2)
W3 = Universe(window=3)
C2 = Universe(window=2, include_cofinite=True)
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
    drawn = [harness._draw_object(rng, SAMPLED) for _ in range(SAMPLED.samples)]
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
        yield tuple(harness._draw_object(rng, u) for _ in range(arity))


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
    return dataclasses.replace(fc, star_back_to_source=len(y.members) <= 2)


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
    "factorization": (
        {"check_factorization": _factorization_failing_into_large_targets},
        {"M2_FACTOR_WC_F"},
    ),
}


@pytest.mark.parametrize(
    "universe", [W2, Universe(window=1, include_cofinite=True)], ids=["W2", "C1"]
)
@pytest.mark.parametrize("patch", WEAKENED)
def test_premise_first_checks_match_brute_force_on_weakened_deciders(
    monkeypatch, universe, patch
):
    deciders, broken = WEAKENED[patch]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    got = harness_suite(universe, "axioms", AXIOM_NAMES)
    assert got == brute_force(universe, "axioms", AXIOM_NAMES)
    assert {name for name, _, found in got if found} == broken


C1 = Universe(window=1, include_cofinite=True)
PREMISED = {name: check for name, check in harness._AXIOMS.items() if check[2]}


def assert_premises_admit_every_firing_tuple(objs):
    relations = harness._relations(objs)
    for name, (arity, pred, premise) in PREMISED.items():
        admitted = set(premise(*relations))
        for index in itertools.product(range(len(objs)), repeat=arity):
            if pred(tuple(objs[i] for i in index)) is not None:
                assert index in admitted, (name, index)


@pytest.mark.parametrize("universe", [W2, C1, C2], ids=["W2", "C1", "C2"])
@pytest.mark.parametrize("patch", WEAKENED)
def test_premises_admit_every_tuple_their_predicate_fires_on(monkeypatch, universe, patch):
    deciders, _ = WEAKENED[patch]
    for attr, fake in deciders.items():
        monkeypatch.setattr(harness, attr, fake)
    assert_premises_admit_every_firing_tuple(enumerate_objects(universe))


@pytest.mark.parametrize("universe", [W3, C2], ids=["W3", "C2"])
def test_conclusion_reading_premises_yield_nothing_on_canonical_objects(universe):
    relations = harness._relations(enumerate_objects(universe))
    for premise in (
        harness._premise_m1,
        harness._premise_m5,
        harness._premise_base_change,
        harness._premise_cobase_change,
    ):
        assert next(premise(*relations), None) is None, premise.__name__


def test_a_product_or_coproduct_outside_the_universe_is_yielded(monkeypatch):
    objs = enumerate_objects(C1)
    outside = Obj.of(fin([5]))
    # one unordered pair, with an arrow one way, leaves the universe under both
    i, j = next(
        (i, j)
        for i, j in itertools.combinations(range(len(objs)), 2)
        if arrow_exists(objs[i], objs[j]) and not arrow_exists(objs[j], objs[i])
    )
    missed = {objs[i], objs[j]}

    def leaving(op):
        return lambda x, y: outside if {x, y} == missed else op(x, y)

    monkeypatch.setattr(harness, "product", leaving(harness.product))
    monkeypatch.setattr(harness, "coproduct", leaving(harness.coproduct))
    A, W, F, P, C = harness._relations(objs)
    assert P[i][j] is P[j][i] is C[i][j] is C[j][i] is None
    base = set(harness._premise_base_change(A, W, F, P, C))
    assert {(i, j, z) for z in range(len(objs)) if F[j] >> z & 1 and A[i] >> z & 1} <= base
    cobase = set(harness._premise_cobase_change(A, W, F, P, C))
    assert {(x, i, j) for x in range(len(objs)) if W[x] >> i & 1 and A[x] >> j & 1} <= cobase
    assert_premises_admit_every_firing_tuple(objs)
    names = ("BASE_CHANGE_F", "COBASE_CHANGE_WC")
    got = harness_suite(C1, "axioms", names)
    assert got == brute_force(C1, "axioms", names)
    assert all(found for _, _, found in got)


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
    assert len(set(universe_objects(dataclasses.replace(u, samples=4400)))) > MAX_HELD
    names = ("M1_LIFTING", "RETRACT_CLOSURE")
    expected = brute_force(u, "axioms", names)
    draws = []
    draw = harness._draw_object
    monkeypatch.setattr(harness, "_draw_object", lambda rng, u: draws.append(1) or draw(rng, u))
    assert harness_suite(u, "axioms", names) == expected
    # the dropped shared draw stops one past MAX_HELD; then each check draws its own
    assert len(draws) > MAX_HELD + 4 * 1100 + 2 * 1100


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
