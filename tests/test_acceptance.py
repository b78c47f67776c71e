"""Acceptance gate: the eight package-level criteria at desk scale.

Each test drives one criterion end to end at its pinned scale and tolerance
(seed 42 throughout, zero violations unless stated otherwise) and prints a
single ``[PASS]``/``[FAIL]`` line so a human can read the gate's outcome
straight from the test log.
"""

import time

from famcat.harness import (
    AXIOM_NAMES,
    Universe,
    check_axiom,
    enumerate_objects,
    instance_tuples,
    run_axioms,
    run_claims,
)
from famcat.kernel import (
    INITIAL,
    TERMINAL,
    Obj,
    arrow_exists,
    is_iso,
    label_verdict,
)
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
from famcat.vobj import VObj, check_factorization, exp_explicit, is_iso_virtual

SEED = 42
EXHAUSTIVE = Universe(window=2)
SAMPLED_10K = Universe(window=3, include_cofinite=True, samples=10_000, seed=SEED)
SAMPLED_1K = Universe(window=3, include_cofinite=True, samples=1_000, seed=SEED)
SAMPLED_100 = Universe(window=3, include_cofinite=True, samples=100, seed=SEED)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description} {detail}".rstrip()


def test_criterion_1_axiom_suite_is_clean_and_fast():
    start = time.perf_counter()
    exhaustive = run_axioms(EXHAUSTIVE)
    sampled = run_axioms(SAMPLED_10K)
    elapsed = time.perf_counter() - start
    clean = exhaustive.passed and sampled.passed
    fast = elapsed < 120.0
    counts = {c.name: c.instances for c in sampled.checks}
    _report(
        1,
        "all model-structure axiom checks: exhaustive window-2 plus 10,000 "
        f"seeded cofinite samples, zero violations, in {elapsed:.1f}s (< 120s)",
        clean and fast,
        detail=f"exhaustive={exhaustive.passed} sampled={sampled.passed} counts={counts}",
    )
    assert set(counts) == set(AXIOM_NAMES)
    assert all(n == 10_000 for n in counts.values())


def test_criterion_2_exponentials_represent_products_exhaustively():
    result = run_claims(EXHAUSTIVE, names=["EXP_REPRESENTABILITY"]).checks[0]
    _report(
        2,
        "exponential representability on every window-2 triple "
        f"({result.instances} instances), zero violations",
        result.passed and result.instances == 125,
        detail=f"violations={len(result.violations)}",
    )


def test_criterion_3_weak_exponential_membership_on_seeded_triples():
    claim5 = run_claims(SAMPLED_1K, names=["CLAIM5"]).checks[0]
    wexp = run_claims(SAMPLED_1K, names=["WEXP_REPRESENTABILITY"]).checks[0]
    _report(
        3,
        "weak-exponential membership criterion and slice classifier on "
        "1,000 seeded cofinite triples, zero violations",
        claim5.passed and claim5.instances == 1_000 and wexp.passed,
        detail=f"claim5={len(claim5.violations)} wexp={len(wexp.violations)}",
    )


def test_criterion_4_univalence_certificates_and_self_exponentials():
    fibs = sample_fibrations(SAMPLED_100)
    certs = [is_univalent(q) for q in fibs]
    failing = [c.failing_step for c in certs if not c.valid]
    self_exp = all(
        is_iso(exp_explicit(c, c), TERMINAL)
        for c in enumerate_objects(Universe(window=3))
    )
    _report(
        4,
        "100 seeded fibrations certify univalent and every enumerated "
        "self-exponential collapses to the terminal object",
        len(certs) == 100 and not failing and self_exp,
        detail=f"failing_steps={failing} self_exp={self_exp}",
    )


def test_criterion_5_smallness_matches_p_smallness():
    exhaustive = verify_universal(EXHAUSTIVE)
    sampled = verify_universal(SAMPLED_1K)
    facts = universe_object_facts()
    _report(
        5,
        "smallness coincides with p-smallness on the exhaustive window plus "
        "1,000 seeded fibrations, and the universal factorization facts hold",
        exhaustive.passed
        and sampled.passed
        and sampled.instances == 1_000
        and all(facts.values()),
        detail=f"facts={facts}",
    )


def test_criterion_6_the_model_structure_is_not_degenerate():
    target = Obj.of(NSet.fin([0]))
    v = label_verdict(INITIAL, target)
    degenerate_checks = {
        "initial_to_singleton_is_wc_not_f": v.w and v.c and not v.f,
        "universe_not_initial": not is_iso_virtual(VObj.universe(), INITIAL),
        "universe_not_terminal": not is_iso_virtual(VObj.universe(), TERMINAL),
    }
    _report(
        6,
        "non-triviality: a (wc) arrow that is not (f), and the universe "
        "object differs from both ends of its factorization",
        all(degenerate_checks.values()),
        detail=str(degenerate_checks),
    )


def test_criterion_7_seeded_factorizations_verify():
    pairs = [
        (x, y)
        for x, y in instance_tuples(SAMPLED_10K, 2)
        if arrow_exists(x, y)
    ][:1_000]
    failures = [
        (str(x), str(y))
        for x, y in pairs
        if not check_factorization(x, y).ok
    ]
    _report(
        7,
        "1,000 seeded arrows factor through their middle with all "
        "fibration instances verified",
        len(pairs) == 1_000 and not failures,
        detail=f"pairs={len(pairs)} failures={failures[:3]}",
    )


def test_criterion_8_literal_star_template_breaks_iso_invariance():
    adopted = check_axiom("ISO_INVARIANCE", SAMPLED_1K)
    literal = check_axiom("ISO_INVARIANCE", SAMPLED_1K, literal_star=True)
    _report(
        8,
        "the literal star template shows at least one isomorphism-invariance "
        "counterexample while the adopted template shows none",
        adopted.passed and len(literal.violations) >= 1,
        detail=(
            f"adopted_violations={len(adopted.violations)} "
            f"literal_violations={len(literal.violations)}"
        ),
    )
