"""The command-line interface: verbs, formats, files, and exit codes.

Exit codes are part of the contract: 0 = facts hold / checks pass,
1 = a verdict is false or a check failed, 2 = parse error, 3 = undecided
virtual pair, 4 = size guard, 141 = stdout closed by its reader.
Everything is driven through ``main`` so the tests see exactly what the
console script would do; only the closed-pipe case needs a real process.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import famcat
from famcat.cli import load_input, main
from famcat.harness import MAX_SAMPLES
from famcat.kernel import Obj
from famcat.nset import MAX_ELEMENT, NSet
from famcat.vobj import VObj

fin = NSet.fin

A_LIT = '{"members":[{"fin":[]},{"fin":[0]}]}'
B_LIT = '{"members":[{"fin":[]},{"fin":[0,1]}]}'
C_LIT = '{"members":[{"fin":[]},{"fin":[0]},{"fin":[1]}]}'
INITIAL_LIT = '{"members":[{"fin":[]}]}'
TERMINAL_LIT = '{"members":[{"fin":[]},{"cofin":[]}]}'
UTILDE_LIT = '{"vkind":"utilde"}'


def run(*argv: str) -> int:
    return main(list(argv))


# -- input loading ---------------------------------------------------------------


def test_load_input_inline_literals():
    assert load_input(A_LIT) == Obj.of(fin([0]))
    assert load_input(UTILDE_LIT) == VObj.universe()
    assert load_input(" \n" + A_LIT) == Obj.of(fin([0]))


def test_load_input_from_files(tmp_path):
    p = tmp_path / "obj.json"
    p.write_text(B_LIT)
    assert load_input(str(p)) == Obj.of(fin([0, 1]))
    v = tmp_path / "vobj.json"
    v.write_text(json.dumps({"vkind": "uprod", "x": json.loads(A_LIT)}))
    assert load_input(str(v)) == VObj.uprod(Obj.of(fin([0])))


def test_deeply_nested_literals_exit_2(capsys):
    deep = '{"members":' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ValueError, match="nested too deeply"):
        load_input(deep)
    assert run("decide", "--from", deep, "--to", A_LIT) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert run("decide", "--from", A_LIT, "--to", '{"vkind":"uprod","x":' + deep + "}") == 2


# Literals for the fuzz below: well-formed objects and virtual objects, the
# same shapes with wrong keys and values mixed in, arbitrary text after an
# opening brace, and deep nesting.  Each starts with "{", so none is read as
# a file path.
_ELEMENT = st.integers(-2, MAX_ELEMENT + 2) | st.booleans() | st.floats() | st.text(max_size=2)
_SET = st.builds(
    lambda key, elements: {key: elements},
    st.sampled_from(["fin", "cofin"]),
    st.lists(st.integers(0, 5), max_size=4) | st.lists(_ELEMENT, max_size=3),
)
_OBJ = st.fixed_dictionaries({"members": st.lists(_SET, max_size=4)})
_FIELDS = {"wc": "xy", "utilde": "", "uprod": "x", "exp": "bc", "exp_slice": "abc", "wexp": "abc"}
_VOBJ = st.sampled_from(sorted(_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"vkind": st.just(kind), **{f: _OBJ for f in _FIELDS[kind]}},
        optional={"zzz": st.integers()},
    )
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _OBJ,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["members", "fin", "cofin", "vkind", "x"]) | st.text(max_size=3),
        inner,
        max_size=3,
    ),
    max_leaves=12,
)
_LITERALS = st.one_of(
    _OBJ.map(json.dumps),
    _VOBJ.map(json.dumps),
    st.dictionaries(st.text(max_size=8), _JSON, max_size=3).map(json.dumps),
    st.text(max_size=40).map(lambda t: "{" + t),
    st.integers(1, 5_000).map(lambda d: '{"members":' + "[" * d + "]" * d + "}"),
)


@settings(max_examples=200, deadline=None)
@given(_LITERALS)
def test_load_input_fuzz(text):
    try:
        loaded = load_input(text)
    except ValueError:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["decide", "--from", text, "--to", INITIAL_LIT])
        assert code in (2, 3, 4) and err.getvalue().startswith("error: ")
        return
    assert load_input(json.dumps(loaded.to_json_dict())) == loaded


# -- decide -----------------------------------------------------------------------


def test_decide_arrow_and_w_pass(capsys):
    assert run("decide", "--from", A_LIT, "--to", B_LIT) == 0
    assert "arrow: true" in capsys.readouterr().out
    assert run("decide", "--from", A_LIT, "--to", B_LIT, "--label", "w") == 0


def test_decide_f_fails_with_full_verdict(capsys):
    code = run(
        "decide", "--from", A_LIT, "--to", B_LIT, "--label", "f", "--format", "machine"
    )
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] is False
    assert data["verdict"] == {
        "arrow": True,
        "star": True,
        "w": True,
        "f": False,
        "c": True,
    }


def test_decide_with_virtual_endpoints(capsys):
    assert run("decide", "--from", C_LIT, "--to", UTILDE_LIT) == 0
    assert run("decide", "--from", TERMINAL_LIT, "--to", UTILDE_LIT) == 1
    assert run("decide", "--from", UTILDE_LIT, "--to", TERMINAL_LIT) == 0
    assert run("decide", "--from", UTILDE_LIT, "--to", B_LIT) == 1
    assert run("decide", "--from", INITIAL_LIT, "--to", UTILDE_LIT, "--label", "w") == 0


def test_decide_exponential_endpoints_reduce(capsys):
    exp_lit = json.dumps(
        {"vkind": "exp", "b": json.loads(A_LIT), "c": json.loads(A_LIT)}
    )
    # C^C is terminal, so the arrow from anything into it holds
    assert run("decide", "--from", B_LIT, "--to", exp_lit) == 0
    # and the arrow out of it reaches only families with the full set
    assert run("decide", "--from", exp_lit, "--to", TERMINAL_LIT) == 0
    assert run("decide", "--from", exp_lit, "--to", A_LIT) == 1


def test_decide_f_from_wc_middle(capsys):
    wc_lit = json.dumps(
        {"vkind": "wc", "x": json.loads(INITIAL_LIT), "y": json.loads(TERMINAL_LIT)}
    )
    assert run("decide", "--from", wc_lit, "--to", TERMINAL_LIT, "--label", "f") == 0


def test_decide_undecided_pairs_exit_3(capsys):
    uprod_lit = json.dumps({"vkind": "uprod", "x": json.loads(A_LIT)})
    assert run("decide", "--from", UTILDE_LIT, "--to", uprod_lit) == 3
    assert "undecided" in capsys.readouterr().err
    assert run("decide", "--from", UTILDE_LIT, "--to", A_LIT, "--label", "f") == 3
    assert run("decide", "--from", A_LIT, "--to", UTILDE_LIT, "--label", "f") == 3
    # w into a classifier over a = B: false without the arrow (the terminal
    # object misses B), undecided once the arrow holds
    wexp_lit = json.dumps(
        {"vkind": "wexp", "a": json.loads(B_LIT), "b": json.loads(A_LIT), "c": json.loads(B_LIT)}
    )
    capsys.readouterr()
    assert run("decide", "--from", TERMINAL_LIT, "--to", wexp_lit, "--label", "w") == 1
    assert capsys.readouterr().out == "w: false\n"
    assert run("decide", "--from", B_LIT, "--to", wexp_lit, "--label", "w") == 3
    assert "is not WC-shaped" in capsys.readouterr().err


def test_decide_parse_errors_exit_2(capsys):
    assert run("decide", "--from", "no-such-file.json", "--to", A_LIT) == 2
    assert run("decide", "--from", '{"members": "x"}', "--to", A_LIT) == 2
    assert run("decide", "--from", '{"vkind":"wc"}', "--to", A_LIT) == 2
    assert run("decide", "--from", "{not json", "--to", A_LIT) == 2


def test_bool_elements_exit_2(capsys):
    # true used to load as the natural 1 and print back as true or 1
    # depending on which argument came first
    bool_lit = '{"members":[{"fin":[true]}]}'
    one_lit = '{"members":[{"fin":[1]}]}'
    assert run("product", "--x", bool_lit, "--y", one_lit) == 2
    assert run("product", "--x", one_lit, "--y", bool_lit) == 2
    assert run("decide", "--from", bool_lit, "--to", A_LIT) == 2
    assert run("decide", "--from", A_LIT, "--to", '{"members":[{"cofin":[false]}]}') == 2
    assert capsys.readouterr().out == ""


def test_elements_above_the_bound_exit_2(capsys):
    big_lit = json.dumps({"members": [{"fin": [MAX_ELEMENT + 1]}]})
    assert run("decide", "--from", big_lit, "--to", A_LIT) == 2
    assert run("product", "--x", A_LIT, "--y", '{"members":[{"cofin":[1000000000]}]}') == 2
    assert "MAX_ELEMENT" in capsys.readouterr().err
    edge_lit = json.dumps({"members": [{"fin": [MAX_ELEMENT]}]})
    assert run("decide", "--from", edge_lit, "--to", TERMINAL_LIT) == 0


def test_duplicate_json_keys_exit_2(capsys):
    # the last value used to win silently, at every level of the literal
    twice_members = '{"members":[], "members":[{"fin":[0]}]}'
    twice_fin = '{"members":[{"fin":[0],"fin":[5]}]}'
    twice_x = '{"vkind":"uprod","x":%s,"x":%s}' % (INITIAL_LIT, A_LIT)
    for lit, key in ((twice_members, "members"), (twice_fin, "fin"), (twice_x, "x")):
        assert run("decide", "--from", lit, "--to", A_LIT) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"duplicate key {key!r}" in captured.err
    assert run("product", "--x", A_LIT, "--y", twice_fin) == 2


def test_element_lists_load_as_sets_and_print_sorted(capsys):
    assert load_input('{"members":[{"fin":[2,1,1]}]}') == load_input(
        '{"members":[{"fin":[1,2]}]}'
    )
    assert run("product", "--x", '{"members":[{"fin":[2,1,1]}]}', "--y", TERMINAL_LIT) == 0
    assert capsys.readouterr().out == '{"members":[{"fin":[]},{"fin":[1,2]}]}\n'


def test_virtual_literals_with_unused_keys_exit_2(capsys):
    utilde_extra = '{"vkind":"utilde","x":{"members":[{"cofin":[]}]},"zzz":1}'
    assert run("decide", "--from", utilde_extra, "--to", TERMINAL_LIT) == 2
    uprod_extra = json.dumps(
        {"vkind": "uprod", "x": json.loads(A_LIT), "y": json.loads(A_LIT)}
    )
    assert run("decide", "--from", A_LIT, "--to", uprod_extra) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--x", UTILDE_LIT, "--y", A_LIT],
        ["exp", "--b", UTILDE_LIT, "--c", A_LIT],
        ["factorize", "--from", UTILDE_LIT, "--to", A_LIT],
        ["psmall", "--total", UTILDE_LIT, "--base", A_LIT],
    ],
    ids=lambda argv: argv[0],
)
def test_virtual_literals_where_an_object_is_needed_exit_2(capsys, argv):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: this argument needs an explicit object")


def test_closed_stdout_exits_141_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(famcat.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "famcat", "decide", "--from", A_LIT, "--to", B_LIT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# -- constructions ------------------------------------------------------------------


def test_product_and_coproduct_output(capsys):
    assert run("product", "--x", A_LIT, "--y", B_LIT) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(A_LIT)
    assert run("coproduct", "--x", A_LIT, "--y", B_LIT) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(B_LIT)


def test_exp_output_is_the_explicit_object(capsys):
    assert run("exp", "--b", A_LIT, "--c", A_LIT) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(TERMINAL_LIT)


def test_wexp_descriptor_and_membership_query(capsys):
    assert run("wexp", "--a", TERMINAL_LIT, "--b", A_LIT, "--c", B_LIT) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vkind"] == "wexp"
    assert (
        run("wexp", "--a", TERMINAL_LIT, "--b", A_LIT, "--c", B_LIT, "--z", A_LIT) == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True


def test_wexp_rejects_non_slice_arguments(capsys):
    assert run("wexp", "--a", A_LIT, "--b", TERMINAL_LIT, "--c", A_LIT) == 2


def test_factorize_passes_on_arrows(capsys):
    assert run("factorize", "--from", INITIAL_LIT, "--to", TERMINAL_LIT) == 0
    out = capsys.readouterr().out
    assert "arrow: true" in out and "fibration=true" in out


def test_factorize_machine_format(capsys):
    code = run(
        "factorize", "--from", A_LIT, "--to", C_LIT, "--format", "machine"
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arrow"] and data["fibration_instances_ok"]
    assert data["wc"]["vkind"] == "wc"


def test_factorize_fails_without_an_arrow(capsys):
    assert run("factorize", "--from", TERMINAL_LIT, "--to", A_LIT) == 1


# -- suites -----------------------------------------------------------------------


def test_axioms_exhaustive_passes_and_writes_stable_reports(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run("axioms", "--format", "machine", "--out", str(out1)) == 0
    assert run("axioms", "--format", "machine", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["passed"] is True and len(data["checks"]) == 8


def test_axioms_subset_and_human_format(capsys):
    assert run("axioms", "--checks", "M5_TWO_OF_THREE,M1_LIFTING") == 0
    text = capsys.readouterr().out
    assert "[PASS] M5_TWO_OF_THREE" in text and "result: PASS" in text


@pytest.mark.parametrize("verb", ["axioms", "claims"])
def test_timings_show_only_in_human_output(tmp_path, capsys, verb):
    universe = ("--window", "3", "--cofinite", "--samples", "50")
    out = tmp_path / "report.json"
    assert run(verb, *universe, "--format", "machine", "--out", str(out)) == 0
    machine = capsys.readouterr().out
    assert out.read_text() == machine
    assert "elapsed" not in machine
    assert run(verb, *universe, "--format", "machine") == 0
    assert capsys.readouterr().out == machine
    assert run(verb, *universe) == 0
    checks = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
    assert checks and all(re.search(r" violations, \d+\.\d{3}s$", ln) for ln in checks)


def test_axioms_unknown_check_exits_2(capsys):
    assert run("axioms", "--checks", "NOPE") == 2


@pytest.mark.parametrize("verb", ["axioms", "claims"])
@pytest.mark.parametrize("checks", [",", "", " , "])
def test_an_empty_check_selection_exits_2(capsys, verb, checks):
    assert run(verb, "--checks", checks) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no checks selected" in captured.err


def test_axioms_literal_star_diagnostic_fails(capsys):
    code = run(
        "axioms",
        "--window",
        "3",
        "--cofinite",
        "--samples",
        "200",
        "--checks",
        "ISO_INVARIANCE",
        "--diagnostic-literal-star",
        "--format",
        "machine",
    )
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["violations"]


def test_axioms_size_guard_exits_4(capsys):
    assert run("axioms", "--window", "9") == 4
    assert run("axioms", "--window", "3", "--cofinite") == 4  # exhaustive, 167 objects
    assert run("axioms", "--samples", str(MAX_SAMPLES + 1)) == 4
    assert run("axioms", "--samples", "100000000") == 4
    # a sampled window past the element bound is refused before any draw
    window = str(MAX_ELEMENT + 2)
    assert run("axioms", "--window", window, "--samples", "1") == 4
    assert run("univalence", "--window", window, "--samples", "1") == 4
    assert run("axioms", "--window", "100000", "--samples", "1") == 4


def test_exponential_size_guard_exits_4(capsys):
    # k disjoint pairs against their 2k singletons keep 2**k partials; at
    # k = 16 the unguarded construction practically never returns
    k = 16
    b = json.dumps({"members": [{"fin": [2 * i, 2 * i + 1]} for i in range(k)]})
    c = json.dumps({"members": [{"fin": [j]} for j in range(2 * k)]})
    assert run("exp", "--b", b, "--c", c) == 4
    assert "MAX_PARTIALS" in capsys.readouterr().err
    exp_lit = json.dumps({"vkind": "exp", "b": json.loads(b), "c": json.loads(c)})
    assert run("decide", "--from", A_LIT, "--to", exp_lit) == 4


def test_claims_pass(capsys):
    assert run("claims") == 0
    capsys.readouterr()
    assert run("claims", "--checks", "CLAIM5", "--format", "machine") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"][0]["name"] == "CLAIM5"


# -- univalence and smallness --------------------------------------------------------


def test_univalence_single_fibration(capsys):
    assert run("univalence", "--total", B_LIT, "--base", B_LIT) == 0
    assert "valid" in capsys.readouterr().out
    code = run(
        "univalence", "--total", B_LIT, "--base", B_LIT, "--format", "machine"
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] is True and len(data["certificates"]) == 1


def test_univalence_batch_over_a_window(capsys):
    assert run("univalence", "--window", "2") == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_univalence_rejects_non_fibrations(capsys):
    assert run("univalence", "--total", A_LIT, "--base", B_LIT) == 2
    assert run("univalence", "--total", A_LIT) == 2  # --base missing


def test_psmall_output_and_exit(capsys):
    assert run("psmall", "--total", A_LIT, "--base", A_LIT) == 0
    out = capsys.readouterr().out
    assert "small: true" in out and "p_small: true" in out
    assert run("psmall", "--total", TERMINAL_LIT, "--base", TERMINAL_LIT) == 1
    out = capsys.readouterr().out
    assert "p_small: false" in out


def test_psmall_machine_format(capsys):
    code = run(
        "psmall", "--total", INITIAL_LIT, "--base", B_LIT, "--format", "machine"
    )
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"is_fibration": False, "small": True, "p_small": False}


# -- argparse wiring ----------------------------------------------------------------


def test_unknown_verb_raises_system_exit():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 2


def test_console_entry_point_matches_main():
    from famcat.cli import run as entry

    with pytest.raises(SystemExit) as err:
        entry()  # no argv: argparse reads sys.argv and fails on pytest's args
    assert err.value.code == 2
