"""The mutant gate: each named mutant of the library must fail its tests.

A mutant is one exact text replaced in one file under ``src/``, and the
test ids that must catch it.  For each mutant the gate copies ``src/``,
``tests/``, ``README.md`` and ``pyproject.toml`` into a temporary directory,
applies the mutant there and runs ``python -m pytest -x -q`` on its tests.
Each run is bounded: it is stopped after ``TIMEOUT_S`` seconds, and its
address space is capped at ``MEMORY_BYTES``, so a mutant that loops or
allocates without end stops with a ``MemoryError`` or a timeout instead of
taking the machine's memory.
The mutant is killed when pytest exits 1, that is when a test failed.  Any
other exit fails the gate: 0 (the mutant survived), 2 to 5 (pytest could
not run the tests, or found none), and so does a run that times out.  So
does an old text that does not occur exactly once, so a change to the
library must restate the mutants it touches.  The checkout itself is never
written.

Run it from anywhere, with pytest and hypothesis installed::

    python tools/mutants.py

It runs every mutant, ``WORKERS`` copies at a time, prints one line per
mutant in the order of ``MUTANTS`` and exits 0 when every mutant is killed.
It lives outside ``tests/`` so that pytest does not collect it, and it uses
the standard library only (``resource`` makes it POSIX-only).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 60  # one run's wall-clock bound; the slowest kill, a runaway, takes about 7 s
MEMORY_BYTES = 512 << 20  # one run's address-space bound; all of tier-1 maps 64 MiB
WORKERS = 2  # mutant copies tested at a time, each under both bounds


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    # pytest ids, at least one of which must fail; none draws its inputs at
    # random (hypothesis), so that a kill does not depend on the draw
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "wexp-star-swapped",
        "src/famcat/vobj.py",
        "_star(c._signed, b._signed))",
        "_star(b._signed, c._signed))",
        (
            "tests/test_vobj.py::test_wexp_membership_criterion_matches_whole_family_w",
            "tests/test_vobj.py::test_arrow_into_wexp_is_the_hom_criterion",
            "tests/test_vobj.py::test_arrows_into_exponentials_and_classifiers_split_by_member",
            "tests/test_harness.py::test_claim_passes_exhaustively_and_sampled[CLAIM5]",
        ),
    ),
    Mutant(
        "maps-into-exp-joins",
        "src/famcat/vobj.py",
        "[s & m for s in zs for m in b._signed]",
        "[s | m for s in zs for m in b._signed]",
        (
            "tests/test_vobj.py::test_exp_representability_on_examples",
            "tests/test_vobj.py::test_wexp_membership_examples",
        ),
    ),
    Mutant(
        "meets-guard-at-the-bound",
        "src/famcat/kernel.py",
        "if len(meets) > MAX_PARTIALS:",
        "if len(meets) >= MAX_PARTIALS:",
        ("tests/test_kernel.py::test_product_stops_past_max_partials",),
    ),
    Mutant(
        "factorization-guard-at-the-bound",
        "src/famcat/vobj.py",
        "if instances > MAX_FACTOR_INSTANCES:",
        "if instances >= MAX_FACTOR_INSTANCES:",
        ("tests/test_vobj.py::test_factorization_stops_past_max_factor_instances",),
    ),
    Mutant(
        "factorization-parts-keyed-without-b0",
        "src/famcat/vobj.py",
        "parts = {(b0 & ym) | b for ym, subs in spreads.items() for b0 in b0s for b in subs}",
        "parts = {(ym, b): (b0 & ym) | b for ym, subs in spreads.items() for b0 in b0s"
        " for b in subs}.values()",
        # on canonical pairs every witness is covered, so only a weakened
        # middle tells the parts apart
        ("tests/test_vobj.py::test_factorization_matches_the_per_instance_oracle_under_weak_middles",),
    ),
    Mutant(
        "factorization-parts-without-the-target-meet",
        "src/famcat/vobj.py",
        "{(b0 & ym) | b for",
        "{b0 | b for",
        ("tests/test_vobj.py::test_factorization_matches_the_per_instance_oracle_under_weak_middles",),
    ),
    Mutant(
        "factorization-parts-only-with-the-empty-b",
        "src/famcat/vobj.py",
        "for b0 in b0s for b in subs}",
        "for b0 in b0s for b in subs[:1]}",
        # every witness it drops is covered, so only the exact set of the
        # sets asked about shows it
        ("tests/test_vobj.py::test_factorization_decides_each_witness_once",),
    ),
    Mutant(
        "exp-without-its-arrow-test",
        "src/famcat/vobj.py",
        "    if _arrow(b._signed, c._signed):\n        return TERMINAL",
        "    if True:\n        return TERMINAL",
        ("tests/test_vobj.py::test_exp_matches_the_brute_force_oracle",),
    ),
    Mutant(
        "exp-skips-a-non-empty-member",
        "src/famcat/vobj.py",
        "for m in b._signed[1:]:",
        "for m in b._signed[2:]:",
        ("tests/test_vobj.py::test_exp_matches_the_brute_force_oracle",),
    ),
    Mutant(
        "sort-key-descending",
        "src/famcat/kernel.py",
        "return (s < 0, mask.bit_count(), _elements(mask))",
        "return (s < 0, mask.bit_count(), _elements(mask)[::-1])",
        (
            "tests/test_kernel.py::test_obj_constructor_rejects_non_canonical_families",
            "tests/test_kernel.py::test_obj_order_check_keeps_its_messages",
        ),
    ),
    Mutant(
        "superset-first-misorders-cofinite",
        "src/famcat/kernel.py",
        "(False, (~s).bit_count())",
        "(False, -(~s).bit_count())",
        ("tests/test_kernel.py::test_cofinite_window_2_is_the_finite_window_3",),
    ),
    Mutant(
        "product-drops-the-cofinite-meet",
        "src/famcat/kernel.py",
        "meets.update([a & b for b in ys])",
        "meets.update([a & b for b in ys if a >= 0 or b >= 0])",
        ("tests/test_kernel.py::test_cofinite_window_2_is_the_finite_window_3",),
    ),
    Mutant(
        "covers-without-its-kind-term",
        "src/famcat/vobj.py",
        "        if s >= 0 or x < 0:\n            rest = s & ~x",
        "        if True:\n            rest = s & ~x",
        ("tests/test_vobj.py::test_mask_oracles_match_the_nset_formulas_on_every_c2_pair",),
    ),
    Mutant(
        "shrink-flips-the-next-bit",
        "src/famcat/harness.py",
        "s ^ 1 << e]",
        "s ^ 1 << (e + 1)]",
        ("tests/test_harness.py::test_shrinking_preserves_the_violation_and_shrinks",),
    ),
    Mutant(
        "presentations-built-from-x",
        "src/famcat/harness.py",
        "pys = [y.members, *iso_presentations(y)]",
        "pys = [x.members, *iso_presentations(x)]",
        ("tests/test_harness.py::test_axiom_passes_exhaustively_and_sampled[ISO_INVARIANCE]",),
    ),
    Mutant(
        "presentation-verdicts-compared-by-identity",
        "src/famcat/harness.py",
        "if got is not base and got != base:",
        "if got is not base:",
        (
            "tests/test_harness.py::test_literal_star_is_harmless_on_finite_only_universes",
            "tests/test_harness.py::test_presentation_check_compares_verdicts_by_equality",
        ),
    ),
    Mutant(
        "enumerating-decider-says-yes",
        "src/famcat/kernel.py",
        "                else:\n                    return False\n",
        "                else:\n                    return True\n",
        ("tests/test_kernel.py::test_three_fibration_deciders_agree_on_finite_pairs",),
    ),
    Mutant(
        "decide-w-star-swapped",
        "src/famcat/vobj.py",
        "star_arrow(_wc_parts(dst)[0], _wc_parts(src)[0])",
        "star_arrow(_wc_parts(src)[0], _wc_parts(dst)[0])",
        ("tests/test_vobj.py::test_decide_explicit_into_virtual",),
    ),
    Mutant(
        "decide-f-without-its-bound-test",
        "src/famcat/vobj.py",
        'if label == "f" and _wc_parts(src)[1] == dst:',
        'if label == "f":',
        ("tests/test_vobj.py::test_decide_refuses_pairs_without_a_rule",),
    ),
    Mutant(
        "verdict-arrow-alone-star-and-w-swapped",
        "src/famcat/kernel.py",
        "_ARROW = LabelVerdict(True, True, False, False, True)",
        "_ARROW = LabelVerdict(True, False, True, False, True)",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "verdict-f-read-as-the-arrow",
        "src/famcat/kernel.py",
        "if _arrow(tgt, src):",
        "if _arrow(src, tgt):",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "verdict-c-without-the-arrow",
        "src/famcat/kernel.py",
        "_NO_ARROW_STAR = LabelVerdict(False, True, False, False, False)",
        "_NO_ARROW_STAR = LabelVerdict(False, True, False, False, True)",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "verdict-iso-read-as-w",
        "src/famcat/kernel.py",
        "        return _ISO\n",
        "        return _ARROW_W\n",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "verdict-no-arrow-star-reversed",
        "src/famcat/kernel.py",
        "_NO_ARROW_STAR if _star(src, tgt)",
        "_NO_ARROW_STAR if _star(tgt, src)",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "verdict-w-star-forward",
        "src/famcat/kernel.py",
        "_ARROW_W if _star(tgt, src)",
        "_ARROW_W if _star(src, tgt)",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "verdict-target-converted-from-the-source",
        "src/famcat/kernel.py",
        "else [m._s for m in target]",
        "else [m._s for m in source]",
        ("tests/test_kernel.py::test_label_verdict_matches_each_fact_decider_on_c2_presentations",),
    ),
    Mutant(
        "m5-premise-masks-swapped",
        "src/famcat/harness.py",
        "W[y] ^ W[x] if W[x] >> y & 1 else W[y] & W[x]",
        "W[y] & W[x] if W[x] >> y & 1 else W[y] ^ W[x]",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[w-small-target-W2]",
        ),
    ),
    Mutant(
        # widens the premise past its firing tuples: the suites still report
        # the same violations, since the predicate runs on each yielded tuple
        "lifting-premise-without-the-second-square-w",
        "src/famcat/harness.py",
        "_elements(lifts if W[x] >> y & 1 else lifts & W[w])",
        "_elements(lifts)",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[f-is-arrow-C1]",
        ),
    ),
    Mutant(
        "base-change-skip-inverted",
        "src/famcat/harness.py",
        "if F[P[x][y]] >> x & 1:",
        "if not F[P[x][y]] >> x & 1:",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[f-small-target-W2]",
        ),
    ),
    Mutant(
        "relation-tables-without-their-diagonal",
        "src/famcat/harness.py",
        "[[at[r & s] for s in rows] for r in rows]",
        "[[at[r & s] if r != s else 0 for s in rows] for r in rows]",
        (
            "tests/test_harness.py::"
            "test_conclusion_reading_premises_yield_nothing_on_canonical_objects[W3]",
        ),
    ),
    Mutant(
        "w-table-without-its-cofinite-mask",
        "src/famcat/harness.py",
        "W = [a if min(ob._signed) < 0 else a & finite for a, ob in zip(A, objs)]",
        "W = list(A)",
        ("tests/test_harness.py::test_column_tables_are_the_per_pair_tables",),
    ),
    Mutant(
        "f-table-is-the-arrow-table",
        "src/famcat/harness.py",
        "F = [a & d for a, d in zip(A, down)]",
        "F = list(A)",
        ("tests/test_harness.py::test_column_tables_are_the_per_pair_tables",),
    ),
    Mutant(
        "products-looked-up-by-up-sets",
        "src/famcat/harness.py",
        "for rows in (down, A):",
        "for rows in (A, A):",
        ("tests/test_harness.py::test_column_tables_are_the_per_pair_tables",),
    ),
    Mutant(
        "draw-key-not-maximal",
        "src/famcat/harness.py",
        "keep = _maximal(masks)",
        "keep = list(dict.fromkeys(m for m in masks if m))",
        ("tests/test_harness.py::test_mask_draw_is_the_nset_draw",),
    ),
    Mutant(
        "draw-keyed-by-its-first-mask",
        "src/famcat/harness.py",
        "key = masks[0] if count == 1 else frozenset(masks)",
        "key = masks[0]",
        ("tests/test_harness.py::test_mask_draw_is_the_nset_draw",),
    ),
    Mutant(
        "draw-never-dropped",
        "src/famcat/harness.py",
        "if i == MAX_HELD:",
        "if False:",
        ("tests/test_harness.py::test_a_draw_with_no_repeats_is_not_held",),
    ),
    Mutant(
        "stream-interns-without-bound",
        "src/famcat/harness.py",
        "            if i < MAX_HELD:\n                held[canon] = i",
        "            if True:\n                held[canon] = i",
        ("tests/test_harness.py::test_a_stream_interns_at_most_max_held_objects",),
    ),
    Mutant(
        "stream-keys-raw-masks-without-bound",
        "src/famcat/harness.py",
        "if len(held) < MAX_HELD:",
        "if True:",
        ("tests/test_harness.py::test_a_stream_interns_at_most_max_held_objects",),
    ),
    Mutant(
        "no-memo",
        "src/famcat/harness.py",
        "memo = functools.lru_cache(MAX_HELD)(lambda t: decide(at(t)))",
        "memo = lambda t: decide(at(t))",
        ("tests/test_harness.py::test_each_distinct_sampled_tuple_is_decided_once_per_call",),
    ),
    Mutant(
        "memo-outlives-the-call",
        "src/famcat/harness.py",
        "memo = functools.lru_cache(MAX_HELD)(lambda t: decide(at(t)))",
        (
            "memo = run_suite.__dict__.setdefault("
            "pred, functools.lru_cache(MAX_HELD)(lambda t: decide(at(t))))"
        ),
        ("tests/test_harness.py::test_each_distinct_sampled_tuple_is_decided_once_per_call",),
    ),
    Mutant(
        "dropped-draw-reads-half-its-stream",
        "src/famcat/harness.py",
        "found = map(decide, instance_tuples(u, arity))",
        "found = map(decide, itertools.islice(instance_tuples(u, arity), u.samples // 2))",
        ("tests/test_harness.py::test_sampled_suites_past_max_held_match_brute_force",),
    ),
    Mutant(
        "repeated-violation-recorded-once",
        "src/famcat/harness.py",
        "if v is not None:",
        "if v is not None and v not in violations:",
        (
            "tests/test_harness.py::"
            "test_a_repeated_violating_tuple_is_recorded_at_each_occurrence",
        ),
    ),
    Mutant(
        "certificate-json-memo-keyed-by-a-constant",
        "src/famcat/univalence.py",
        "        if id(x) not in built:\n"
        "            built[id(x)] = x.to_json_dict()\n"
        "        return built[id(x)]",
        "        if 0 not in built:\n            built[0] = x.to_json_dict()\n        return built[0]",
        (
            "tests/test_univalence.py::"
            "test_certificate_matches_the_reference_on_identity_fibrations",
            "tests/test_univalence.py::"
            "test_certificate_matches_the_reference_on_every_cofinite_w2_pair",
        ),
    ),
    Mutant(
        "classifier-json-a-and-b-swapped",
        "src/famcat/vobj.py",
        "out[f] = write(getattr(v, f))",
        'out[f] = write(getattr(v, {"a": "b", "b": "a"}.get(f, f)))',
        (
            "tests/test_univalence.py::"
            "test_certificate_matches_the_reference_on_every_cofinite_w2_pair",
            "tests/test_vobj.py::test_json_round_trip_for_every_kind",
        ),
    ),
    Mutant(
        "obj-keeps-the-given-iterable",
        "src/famcat/kernel.py",
        "        members = tuple(members)  # a caller's list or generator is not held\n",
        "",
        ("tests/test_kernel.py::test_obj_holds_a_tuple_of_a_list_or_a_generator",),
    ),
    Mutant(
        "object-literal-guard-one-past-the-bound",
        "src/famcat/kernel.py",
        "if len(raw) > MAX_PARTIALS + 1:",
        "if len(raw) > MAX_PARTIALS + 2:",
        ("tests/test_cli.py::test_object_literals_past_max_partials_exit_4",),
    ),
    Mutant(
        "object-literal-guard-without-the-empty-member",
        "src/famcat/kernel.py",
        "if len(raw) > MAX_PARTIALS + 1:",
        "if len(raw) > MAX_PARTIALS:",
        (
            "tests/test_cli.py::test_object_literals_past_max_partials_exit_4",
            "tests/test_cli.py::test_construction_outputs_decide_or_exit_4[exp]",
        ),
    ),
    Mutant(
        "coproduct-without-its-guard",
        "src/famcat/kernel.py",
        "if len(keep) > MAX_PARTIALS:",
        "if False:",
        ("tests/test_cli.py::test_construction_outputs_decide_or_exit_4[coproduct]",),
    ),
    Mutant(
        "generated-init-without-annotations",
        "src/famcat/_value.py",
        '{n: cls.__annotations__[n] for n in names} | {"return": "None"}',
        '{"return": "None"}',
        ("tests/test_api.py::test_value_class_contract[Violation]",),
    ),
    Mutant(
        "generated-init-drops-the-last-field",
        "src/famcat/_value.py",
        "for n in names)",
        "for n in names[:-1])",
        ("tests/test_api.py::test_value_class_contract[GapWitness]",),
    ),
    Mutant(
        "a-check-named-twice-runs-twice",
        "src/famcat/harness.py",
        '        if name in picked[:i]:\n            raise ValueError(f"check {name!r} is named twice")\n',
        "",
        (
            "tests/test_harness.py::test_names_are_checked_before_any_work",
            "tests/test_cli.py::test_a_check_named_twice_exits_2",
        ),
    ),
    Mutant(
        "gap-takes-the-empty-x-only-when-held",
        "src/famcat/kernel.py",
        "    for x in src if 0 in src else (*src, 0):"
        "\n        for y in tgt:\n            meet = x & y\n            blocker",
        "    for x in src if 0 not in src else (*src, 0):"
        "\n        for y in tgt:\n            meet = x & y\n            blocker",
        ("tests/test_kernel.py::test_the_empty_source_family_is_no_fibration",),
    ),
    Mutant(
        "gap-without-the-empty-x",
        "src/famcat/kernel.py",
        "    for x in src if 0 in src else (*src, 0):"
        "\n        for y in tgt:\n            meet = x & y\n            blocker",
        "    for x in src if 0 in src else src:"
        "\n        for y in tgt:\n            meet = x & y\n            blocker",
        ("tests/test_kernel.py::test_the_empty_source_family_is_no_fibration",),
    ),
    Mutant(
        "enumerated-takes-the-empty-x-only-when-held",
        "src/famcat/kernel.py",
        'raise SizeGuardError("support too large to enumerate")\n'
        "    for x in src if 0 in src else",
        'raise SizeGuardError("support too large to enumerate")\n'
        "    for x in src if 0 not in src else",
        ("tests/test_kernel.py::test_the_empty_source_family_is_no_fibration",),
    ),
    Mutant(
        "enumerated-without-the-empty-x",
        "src/famcat/kernel.py",
        'raise SizeGuardError("support too large to enumerate")\n'
        "    for x in src if 0 in src else (*src, 0):",
        'raise SizeGuardError("support too large to enumerate")\n'
        "    for x in src if 0 in src else src:",
        ("tests/test_kernel.py::test_the_empty_source_family_is_no_fibration",),
    ),
    Mutant(
        "gap-witness-joins-x-and-y",
        "src/famcat/kernel.py",
        "need = (self.x._s & self.y._s) | self.blocker._s",
        "need = (self.x._s | self.y._s) | self.blocker._s",
        ("tests/test_kernel.py::test_gap_witness_example_is_replayable",),
    ),
    Mutant(
        "gap-blocker-takes-the-whole-gap",
        "src/famcat/kernel.py",
        "blocker |= d & -d",
        "blocker |= d",
        ("tests/test_kernel.py::test_fibration_deciders_match_their_nset_oracles",),
    ),
    Mutant(
        "gap-candidates-hold-y",
        "src/famcat/kernel.py",
        "                if not meet & ~m:\n",
        "                if not y & ~m:\n",
        ("tests/test_kernel.py::test_fibration_deciders_match_their_nset_oracles",),
    ),
    Mutant(
        "object-json-writes-cofinite-as-finite",
        "src/famcat/kernel.py",
        '{"cofin": _elements(~s)} if s < 0',
        '{"fin": _elements(~s)} if s < 0',
        ("tests/test_kernel.py::test_fibration_deciders_and_object_json_build_no_nset_algebra",),
    ),
    Mutant(
        "object-identity-compares-the-members",
        "src/famcat/kernel.py",
        "        return self._signed == other._signed\n\n"
        "    def __hash__(self) -> int:\n"
        "        return hash((self._signed,))",
        "        return self.members == other.members\n\n"
        "    def __hash__(self) -> int:\n"
        "        return hash((self.members,))",
        ("tests/test_harness.py::test_column_tables_are_the_per_pair_tables",),
    ),
    Mutant(
        "literal-star-source-not-complemented",
        "src/famcat/harness.py",
        "_star([~m for m in _signed_masks(source)],",
        "_star([m for m in _signed_masks(source)],",
        ("tests/test_kernel.py::test_star_closed_form_matches_the_difference_oracle",),
    ),
    Mutant(
        "cli-imports-the-harness-eagerly",
        "src/famcat/cli.py",
        "from .kernel import MAX_SAMPLES,",
        "from .harness import run_axioms\nfrom .kernel import MAX_SAMPLES,",
        (
            "tests/test_cold_imports.py::"
            "test_light_verbs_load_neither_the_harness_nor_univalence",
        ),
    ),
    Mutant(
        "kernel-loads-dataclasses",
        "src/famcat/kernel.py",
        "import itertools\n",
        "import dataclasses\nimport itertools\n",
        (
            "tests/test_cold_imports.py::"
            "test_light_verbs_load_neither_the_harness_nor_univalence",
        ),
    ),
    Mutant(
        # _elements walks a negative mask without end, at the import of the
        # kernel (INITIAL sorts the empty mask); the test's fresh interpreter
        # dies with a MemoryError under MEMORY_BYTES, and no collection fails
        "member-sort-key-runs-away",
        "src/famcat/kernel.py",
        "mask = ~s if s < 0 else s",
        "mask = ~s if s <= 0 else s",
        (
            "tests/test_cold_imports.py::"
            "test_light_verbs_load_neither_the_harness_nor_univalence",
        ),
    ),
    Mutant(
        "value-equality-ignores-a-field",
        "src/famcat/_value.py",
        "return self._fields(self) == self._fields(other)",
        "return self._fields(self)[1:] == self._fields(other)[1:]",
        ("tests/test_api.py::test_value_class_contract",),
    ),
    Mutant(
        "value-reduce-drops-a-field",
        "src/famcat/_value.py",
        "return self.__class__, self._fields(self)",
        "return self.__class__, self._fields(self)[:-1]",
        ("tests/test_api.py::test_value_class_contract",),
    ),
    Mutant(
        "wcf-reverse-never-fires",
        "src/famcat/harness.py",
        "if label_w(x, y) and label_f(x, y) and not arrow_exists(y, x):",
        "if False:",
        (
            "tests/test_harness.py::test_claim_suites_match_brute_force_on_weakened_deciders",
        ),
    ),
    Mutant(
        "f-reduction-disagreement-never-fires",
        "src/famcat/harness.py",
        "if (gap is None) != reduced:",
        "if False:",
        (
            "tests/test_harness.py::test_claim_suites_match_brute_force_on_weakened_deciders",
        ),
    ),
    Mutant(
        "f-reduction-gap-never-fails",
        "src/famcat/harness.py",
        "if gap is not None and not gap.defeats(x):",
        "if False:",
        (
            "tests/test_harness.py::test_claim_suites_match_brute_force_on_weakened_deciders",
        ),
    ),
    Mutant(
        "exp-representability-never-fires",
        "src/famcat/harness.py",
        "if not (through_exp == through_product == through_vobj):",
        "if False:",
        (
            "tests/test_harness.py::test_claim_suites_match_brute_force_on_weakened_deciders",
        ),
    ),
    Mutant(
        "product-universality-never-fires",
        "src/famcat/harness.py",
        "if (arrow_exists(z, x) and arrow_exists(z, y)) != arrow_exists(z, p):",
        "if False:",
        (
            "tests/test_harness.py::test_claim_suites_match_brute_force_on_weakened_deciders",
        ),
    ),
    Mutant(
        "coproduct-injection-never-fires",
        "src/famcat/harness.py",
        "if not (arrow_exists(x, s) and arrow_exists(y, s)):",
        "if False:",
        (
            "tests/test_harness.py::test_claim_suites_match_brute_force_on_weakened_deciders",
        ),
    ),
    Mutant(
        "failing-step-unnamed",
        "src/famcat/univalence.py",
        "                return s.name\n",
        "                return None\n",
        (
            "tests/test_univalence.py::test_a_failing_certificate_names_its_first_failing_step",
            "tests/test_cli.py::test_univalence_names_the_failing_step_and_exits_1",
        ),
    ),
    Mutant(
        "value-equality-denies-identity",
        "src/famcat/_value.py",
        "if other is self:\n            return True",
        "if other is self:\n            return False",
        (
            "tests/test_api.py::test_value_class_contract",
            "tests/test_harness.py::test_axiom_passes_exhaustively_and_sampled",
        ),
    ),
    Mutant(
        "main-prints-machine-json-whatever-the-format",
        "src/famcat/cli.py",
        'if lines is None or args.format == "machine":',
        "if True:",
        ("tests/test_cli.py::test_every_verb_prints_its_pinned_bytes",),
    ),
    Mutant(
        "main-exits-0-whatever-the-verdict",
        "src/famcat/cli.py",
        "return 0 if holds else 1",
        "return 0",
        ("tests/test_cli.py::test_factorize_fails_without_an_arrow",),
    ),
    Mutant(
        "lifting-first-square-never-fires",
        "src/famcat/harness.py",
        "    if label_w(x, y):\n",
        "    if False:\n",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[f-is-arrow-C1]",
        ),
    ),
    Mutant(
        "c-wf-factorization-reads-the-arrow",
        "src/famcat/harness.py",
        "not (label_w(y, y) and label_f(y, y))",
        "not (label_w(x, y) and label_f(y, y))",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[w-small-source-f-small-target-W2]",
        ),
    ),
    Mutant(
        "base-change-pulls-back-along-z",
        "src/famcat/harness.py",
        "not label_f(product(x, y), x)",
        "not label_f(product(x, z), x)",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[f-small-source-W2]",
        ),
    ),
    Mutant(
        "cobase-change-pushes-out-x",
        "src/famcat/harness.py",
        "not label_w(y, coproduct(z, y))",
        "not label_w(y, coproduct(x, y))",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[w-small-target-W2]",
        ),
    ),
    Mutant(
        "two-of-three-fires-on-no-pair",
        "src/famcat/harness.py",
        "if sum(ws) >= 2 and not all(ws):",
        "if sum(ws) > 2 and not all(ws):",
        (
            "tests/test_harness.py::test_premises_admit_every_tuple_their_predicate_fires_on"
            "[w-small-target-W2]",
        ),
    ),
)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply one mutant in a fresh copy and run its tests: (outcome, why)."""
    source = (ROOT / mutant.path).read_text()
    found = source.count(mutant.old)
    if found != 1:
        return "SURVIVED", f"its old text occurs {found} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="famcat-mutant-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        (Path(tmp) / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                cwd=tmp,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                timeout=TIMEOUT_S,
                preexec_fn=_cap_memory,
            )
        except subprocess.TimeoutExpired:
            return "TIMEOUT", f"no result within {TIMEOUT_S} s"
    if proc.returncode == 1:
        return "killed", "a test failed"
    if proc.returncode == 0:
        return "SURVIVED", "every named test passed"
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return "SURVIVED", f"pytest exited {proc.returncode}: {tail[0]}"


def _timed(mutant: Mutant) -> tuple[str, str, float]:
    begun = time.perf_counter()
    outcome, why = run(mutant)
    return outcome, why, time.perf_counter() - begun


def main() -> int:
    killed = 0
    start = time.perf_counter()
    # pool workers are single-threaded processes, so each may start its
    # pytest run with a preexec_fn; imap yields the results in order
    with multiprocessing.Pool(WORKERS) as pool:
        for mutant, (outcome, why, took) in zip(MUTANTS, pool.imap(_timed, MUTANTS)):
            killed += outcome == "killed"
            print(f"{outcome:<8} {mutant.name}: {why} ({took:.1f} s)", flush=True)
    took = time.perf_counter() - start
    print(f"{killed} of {len(MUTANTS)} mutants killed in {took:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
