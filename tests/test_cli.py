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
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_vobj import factor_pair

import famcat
from famcat import kernel, univalence, vobj
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


@pytest.mark.parametrize(
    "verb, flags",
    [("product", ("--x", "--y")), ("coproduct", ("--x", "--y")), ("exp", ("--b", "--c"))],
)
def test_construction_verbs_keep_their_flags(capsys, verb, flags):
    first, second = flags
    with pytest.raises(SystemExit) as err:
        run(verb, "--help")
    assert err.value.code == 0
    usage = f"usage: famcat {verb} [-h] {first} {first[2:].upper()} {second} {second[2:].upper()}"
    assert capsys.readouterr().out.startswith(usage + "\n")
    # a missing operand is a parse error that names its own flag
    for given, missing in ((first, second), (second, first)):
        with pytest.raises(SystemExit) as err:
            run(verb, given, A_LIT)
        assert err.value.code == 2
        assert f"the following arguments are required: {missing}\n" in capsys.readouterr().err


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


def test_factorize_size_guard_exits_4(capsys, monkeypatch):
    # 44,582,329 instances at n = 120; the unguarded check runs for minutes
    x, y = (json.dumps(o.to_json_dict()) for o in factor_pair(120))
    assert run("factorize", "--from", x, "--to", y) == 4
    assert "MAX_FACTOR_INSTANCES" in capsys.readouterr().err
    # A -> B decides 50 instances
    monkeypatch.setattr(vobj, "MAX_FACTOR_INSTANCES", 50)
    assert run("factorize", "--from", A_LIT, "--to", B_LIT) == 0
    assert "(50 instances)" in capsys.readouterr().out
    monkeypatch.setattr(vobj, "MAX_FACTOR_INSTANCES", 49)
    assert run("factorize", "--from", A_LIT, "--to", B_LIT) == 4
    assert "MAX_FACTOR_INSTANCES = 49" in capsys.readouterr().err


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


@pytest.mark.parametrize("verb", ["axioms", "claims"])
def test_a_failed_out_prints_no_report_and_exits_2(tmp_path, capsys, verb):
    # the report is not printed before --out fails: a caller never sees a
    # complete report beside the parse-error status
    out = tmp_path / "missing" / "report.json"
    assert run(verb, "--window", "2", "--format", "machine", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno 2]")
    assert not out.exists()


def test_axioms_unknown_check_exits_2(capsys):
    assert run("axioms", "--checks", "NOPE") == 2


def test_a_check_named_twice_exits_2(capsys):
    assert run("axioms", "--window", "1", "--checks", "M5_TWO_OF_THREE,M5_TWO_OF_THREE") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'M5_TWO_OF_THREE' is named twice" in captured.err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--window", "1_0"),
        ("--window", "+2"),
        ("--window", " 2"),
        ("--window", "02"),
        ("--window", "\uff12"),  # fullwidth digit two
        ("--seed=-5",),
        ("--samples", "-1"),
        ("--samples", "3", "--seed", "0x10"),
    ],
    ids=["underscore", "plus", "space", "leading-zero", "fullwidth", "negative-seed",
         "negative-samples", "hex"],
)
def test_numeric_options_take_only_canonical_natural_literals(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run("axioms", *argv)
    assert err.value.code == 2
    assert "not a natural-number literal" in capsys.readouterr().err


def test_numeric_options_accept_canonical_literals(capsys):
    assert run("axioms", "--window", "0") == 0
    assert run("axioms", "--window", "1", "--samples", "10", "--seed", "0") == 0
    assert run("univalence", "--window", "1", "--samples", "3", "--seed", "12") == 0


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
    # two n-element members against their 2n singletons: the second step
    # meets n * n distinct sets; at n = 150 pruning them unguarded takes
    # half a minute
    n = 150
    b = json.dumps({"members": [{"fin": list(range(n))}, {"fin": list(range(n, 2 * n))}]})
    c = json.dumps({"members": [{"fin": [j]} for j in range(2 * n)]})
    assert run("exp", "--b", b, "--c", c) == 4
    assert "an exponential step passed MAX_PARTIALS" in capsys.readouterr().err


def test_product_size_guard_exits_4(capsys, monkeypatch):
    # the rows of an n-by-n grid against its columns meet in n*n distinct
    # singletons; at n = 120 the unguarded product runs for minutes
    def grid(n):
        rows = [{"fin": list(range(i * n, (i + 1) * n))} for i in range(n)]
        cols = [{"fin": list(range(j, n * n, n))} for j in range(n)]
        return json.dumps({"members": rows}), json.dumps({"members": cols})

    rows, cols = grid(120)
    assert run("product", "--x", rows, "--y", cols) == 4
    assert "MAX_PARTIALS" in capsys.readouterr().err
    # 3 rows against 3 columns meet in 9 singletons and the empty set
    rows, cols = grid(3)
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 10)
    assert run("product", "--x", rows, "--y", cols) == 0
    assert len(json.loads(capsys.readouterr().out)["members"]) == 10
    monkeypatch.setattr(kernel, "MAX_PARTIALS", 9)
    assert run("product", "--x", rows, "--y", cols) == 4
    assert "MAX_PARTIALS" in capsys.readouterr().err


def test_object_literals_past_max_partials_exit_4(capsys):
    # an n-member antichain decided against itself takes time quadratic in
    # n; past the empty member and MAX_PARTIALS others the literal is
    # refused before it is parsed
    def antichain(n):
        return {"members": [{"fin": []}, *({"fin": [i]} for i in range(n - 1))]}

    big = json.dumps(antichain(kernel.MAX_PARTIALS + 2))
    uprod = json.dumps({"vkind": "uprod", "x": antichain(kernel.MAX_PARTIALS + 2)})
    start = time.perf_counter()
    assert run("decide", "--from", big, "--to", big) == 4
    assert "MAX_PARTIALS" in capsys.readouterr().err
    assert run("decide", "--from", A_LIT, "--to", uprod) == 4
    assert "MAX_PARTIALS" in capsys.readouterr().err
    assert time.perf_counter() - start < 1
    edge = json.dumps(antichain(kernel.MAX_PARTIALS + 1))
    assert run("decide", "--from", edge, "--to", edge) == 0
    assert capsys.readouterr().out.endswith("arrow: true\n")


def _finite(sets):
    return json.dumps({"members": [{"fin": list(s)} for s in sets]})


_PAIRS = _finite((2 * i, 2 * i + 1) for i in range(10))
_LOW, _HIGH = _finite(zip(range(1023))), _finite(zip(range(1023, 2046)))


@pytest.mark.parametrize(
    "argv, code",
    [
        # 10 disjoint pairs against their 20 singletons: 2**10 choices, all kept
        (("exp", "--b", _PAIRS, "--c", _finite(zip(range(20)))), 0),
        # two disjoint antichains of 1,023 singletons would keep 2,046
        (("coproduct", "--x", _LOW, "--y", _HIGH), 4),
    ],
    ids=["exp", "coproduct"],
)
def test_construction_outputs_decide_or_exit_4(capsys, argv, code):
    assert run(*argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "MAX_PARTIALS" in err
        return
    assert len(json.loads(out)["members"]) == kernel.MAX_PARTIALS + 1
    assert run("decide", "--from", out, "--to", out) == 0
    assert capsys.readouterr().out.endswith("arrow: true\n")


def test_claims_pass_on_wide_sampled_windows(capsys):
    # some sampled pairs have members too wide for the enumerating decider
    assert run("claims", "--window", "14", "--samples", "200", "--seed", "1") == 0
    assert run("claims", "--window", "20", "--samples", "50") == 0
    assert "result: PASS" in capsys.readouterr().out


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


def test_univalence_names_the_failing_step_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(univalence, "exp_explicit", lambda b, c: b)
    assert run("univalence", "--total", A_LIT, "--base", A_LIT) == 1
    out = capsys.readouterr().out
    assert out == "{{}, {0}} over {{}, {0}}: INVALID at self_exponential_is_terminal\n"


def test_univalence_batch_over_a_window(capsys):
    assert run("univalence", "--window", "2") == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_human_univalence_builds_no_certificate_json(capsys, monkeypatch):
    built = []
    to_json = univalence.UnivalenceCertificate.to_json_dict

    def spy(cert):
        built.append(cert)
        return to_json(cert)

    monkeypatch.setattr(univalence.UnivalenceCertificate, "to_json_dict", spy)
    assert run("univalence", "--window", "2") == 0
    assert run("univalence", "--total", B_LIT, "--base", B_LIT) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert built == []
    # the spy does see the machine format build each certificate's payload
    assert run("univalence", "--window", "2", "--format", "machine") == 0
    assert len(json.loads(capsys.readouterr().out)["certificates"]) == len(built) == 5


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


# -- exact output ---------------------------------------------------------------------

WC_AB_LIT = json.dumps({"vkind": "wc", "x": json.loads(A_LIT), "y": json.loads(B_LIT)})

# The exact stdout and exit status of every verb, in each format it has.  A
# human suite report ends each check's line in its elapsed time, which is
# masked as #.###s.
PINNED_OUTPUT = [
    pytest.param(
        ("decide", "--from", A_LIT, "--to", B_LIT, "--label", "w"),
        0,
        "arrow=true star=true w=true f=false c=true\n"
        "w: true\n",
        id="decide-w-human",
    ),
    pytest.param(
        ("decide", "--from", A_LIT, "--to", B_LIT, "--label", "f"),
        1,
        "arrow=true star=true w=true f=false c=true\n"
        "f: false\n",
        id="decide-f-fails-human",
    ),
    pytest.param(
        ("decide", "--from", WC_AB_LIT, "--to", B_LIT, "--label", "f"),
        0,
        "f: true\n",
        id="decide-wc-f-human",
    ),
    pytest.param(
        ("decide", "--from", WC_AB_LIT, "--to", A_LIT),
        1,
        "arrow: false\n",
        id="decide-wc-arrow-fails-human",
    ),
    pytest.param(
        ("factorize", "--from", A_LIT, "--to", C_LIT),
        0,
        "arrow: true\n"
        "middle: wc({{}, {0}}, {{}, {0}, {1}})\n"
        "facts: into=true star_back=true fibration=true (50 instances)\n",
        id="factorize-human",
    ),
    pytest.param(
        ("factorize", "--from", TERMINAL_LIT, "--to", A_LIT),
        1,
        "arrow: false\n"
        "middle: wc({{}, N}, {{}, {0}})\n"
        "facts: into=true star_back=true fibration=true (18 instances)\n",
        id="factorize-fails-human",
    ),
    pytest.param(
        ("psmall", "--total", A_LIT, "--base", A_LIT),
        0,
        "is_fibration: true\n"
        "small: true\n"
        "p_small: true\n",
        id="psmall-human",
    ),
    pytest.param(
        ("psmall", "--total", TERMINAL_LIT, "--base", TERMINAL_LIT),
        1,
        "is_fibration: true\n"
        "small: false\n"
        "p_small: false\n",
        id="psmall-fails-human",
    ),
    pytest.param(
        ("univalence", "--total", INITIAL_LIT, "--base", INITIAL_LIT),
        0,
        "{{}} over {{}}: valid\n",
        id="univalence-human",
    ),
    pytest.param(
        ("axioms", "--window", "1", "--checks", "M5_TWO_OF_THREE,M1_LIFTING"),
        0,
        "universe: window=1 cofinite=False mode=exhaustive samples=0 seed=42\n"
        "[PASS] M5_TWO_OF_THREE: 8 instances, 0 violations, #.###s\n"
        "[PASS] M1_LIFTING: 16 instances, 0 violations, #.###s\n"
        "result: PASS\n",
        id="axioms-human",
    ),
    pytest.param(
        ("univalence", "--window", "1", "--cofinite"),
        0,
        "{{}} over {{}}: valid\n"
        "{{}, {0}} over {{}, {0}}: valid\n"
        "{{}, {0}, N-{0}} over {{}, {0}, N-{0}}: valid\n"
        "{{}, N} over {{}, N}: valid\n"
        "{{}, N-{0}} over {{}, N-{0}}: valid\n",
        id="univalence-window-human",
    ),
    pytest.param(
        ("decide", "--from", A_LIT, "--to", B_LIT, "--label", "w", "--format", "machine"),
        0,
        '{"holds":true,"label":"w","verdict":{"arrow":true,"c":true,"f":false,'
        '"star":true,"w":true}}\n',
        id="decide-w-machine",
    ),
    pytest.param(
        ("decide", "--from", A_LIT, "--to", B_LIT, "--label", "f", "--format", "machine"),
        1,
        '{"holds":false,"label":"f","verdict":{"arrow":true,"c":true,"f":false,'
        '"star":true,"w":true}}\n',
        id="decide-f-fails-machine",
    ),
    pytest.param(
        ("decide", "--from", WC_AB_LIT, "--to", B_LIT, "--label", "f", "--format", "machine"),
        0,
        '{"holds":true,"label":"f"}\n',
        id="decide-wc-f-machine",
    ),
    pytest.param(
        ("decide", "--from", WC_AB_LIT, "--to", A_LIT, "--format", "machine"),
        1,
        '{"holds":false,"label":"arrow"}\n',
        id="decide-wc-arrow-fails-machine",
    ),
    pytest.param(
        ("factorize", "--from", A_LIT, "--to", C_LIT, "--format", "machine"),
        0,
        '{"arrow":true,"arrow_into_middle":true,"fibration_instances_ok":true,'
        '"instances":50,"star_back_to_source":true,"wc":{"vkind":"wc",'
        '"x":{"members":[{"fin":[]},{"fin":[0]}]},"y":{"members":[{"fin":[]},'
        '{"fin":[0]},{"fin":[1]}]}}}\n',
        id="factorize-machine",
    ),
    pytest.param(
        ("factorize", "--from", TERMINAL_LIT, "--to", A_LIT, "--format", "machine"),
        1,
        '{"arrow":false,"arrow_into_middle":true,"fibration_instances_ok":true,'
        '"instances":18,"star_back_to_source":true,"wc":{"vkind":"wc",'
        '"x":{"members":[{"fin":[]},{"cofin":[]}]},"y":{"members":[{"fin":[]},'
        '{"fin":[0]}]}}}\n',
        id="factorize-fails-machine",
    ),
    pytest.param(
        ("psmall", "--total", A_LIT, "--base", A_LIT, "--format", "machine"),
        0,
        '{"is_fibration":true,"p_small":true,"small":true}\n',
        id="psmall-machine",
    ),
    pytest.param(
        ("psmall", "--total", TERMINAL_LIT, "--base", TERMINAL_LIT, "--format", "machine"),
        1,
        '{"is_fibration":true,"p_small":false,"small":false}\n',
        id="psmall-fails-machine",
    ),
    pytest.param(
        ("univalence", "--total", INITIAL_LIT, "--base", INITIAL_LIT, "--format", "machine"),
        0,
        '{"certificates":[{"base":{"members":[{"fin":[]}]},'
        '"steps":[{"facts":{"base":{"members":[{"fin":[]}]},'
        '"square":{"members":[{"fin":[]}]}},"name":"product_collapse",'
        '"passed":true},{"facts":{"diagonal_exists":true},'
        '"name":"diagonal_into_square","passed":true},'
        '{"facts":{"left":{"members":[{"fin":[]}]},'
        '"right":{"members":[{"fin":[]}]}},"name":"product_symmetry",'
        '"passed":true},{"facts":{"exponential":{"members":[{"fin":[]},'
        '{"cofin":[]}]}},"name":"self_exponential_is_terminal","passed":true},'
        '{"facts":{"classifier":{"a":{"members":[{"fin":[]}]},'
        '"b":{"members":[{"fin":[]}]},"c":{"members":[{"fin":[]}]},'
        '"vkind":"wexp"},"full_set_is_member":true,'
        '"slice_terminal_maps_in":true},'
        '"name":"weq_classifier_is_slice_terminal","passed":true},'
        '{"facts":{"comparison_exists":true,'
        '"interval_argument":"the map is sandwiched between isomorphic endpoints"},'
        '"name":"comparison_map_is_iso","passed":true}],'
        '"total":{"members":[{"fin":[]}]},"valid":true}],"valid":true}\n',
        id="univalence-machine",
    ),
    pytest.param(
        ("axioms", "--window", "1", "--checks", "M5_TWO_OF_THREE,M1_LIFTING")
        + ("--format", "machine"),
        0,
        '{"checks":[{"instances":8,"name":"M5_TWO_OF_THREE","passed":true,'
        '"violations":[]},{"instances":16,"name":"M1_LIFTING","passed":true,'
        '"violations":[]}],"passed":true,"universe":{"include_cofinite":false,'
        '"mode":"exhaustive","samples":0,"seed":42,"window":1}}\n',
        id="axioms-machine",
    ),
    pytest.param(
        ("product", "--x", A_LIT, "--y", C_LIT),
        0,
        '{"members":[{"fin":[]},{"fin":[0]}]}\n',
        id="product",
    ),
    pytest.param(
        ("coproduct", "--x", A_LIT, "--y", C_LIT),
        0,
        '{"members":[{"fin":[]},{"fin":[0]},{"fin":[1]}]}\n',
        id="coproduct",
    ),
    pytest.param(
        ("exp", "--b", A_LIT, "--c", C_LIT),
        0,
        '{"members":[{"fin":[]},{"cofin":[]}]}\n',
        id="exp",
    ),
    pytest.param(
        ("wexp", "--a", TERMINAL_LIT, "--b", A_LIT, "--c", B_LIT),
        0,
        '{"a":{"members":[{"fin":[]},{"cofin":[]}]},"b":{"members":[{"fin":[]},'
        '{"fin":[0]}]},"c":{"members":[{"fin":[]},{"fin":[0,1]}]},'
        '"vkind":"wexp"}\n',
        id="wexp",
    ),
    pytest.param(
        ("wexp", "--a", TERMINAL_LIT, "--b", A_LIT, "--c", B_LIT, "--z", A_LIT),
        0,
        '{"classifier":{"a":{"members":[{"fin":[]},{"cofin":[]}]},'
        '"b":{"members":[{"fin":[]},{"fin":[0]}]},"c":{"members":[{"fin":[]},'
        '{"fin":[0,1]}]},"vkind":"wexp"},"holds":true}\n',
        id="wexp-z",
    ),
    pytest.param(
        ("wexp", "--a", TERMINAL_LIT, "--b", C_LIT, "--c", A_LIT, "--z", C_LIT),
        1,
        '{"classifier":{"a":{"members":[{"fin":[]},{"cofin":[]}]},'
        '"b":{"members":[{"fin":[]},{"fin":[0]},{"fin":[1]}]},'
        '"c":{"members":[{"fin":[]},{"fin":[0]}]},"vkind":"wexp"},'
        '"holds":false}\n',
        id="wexp-z-fails",
    ),
]


@pytest.mark.parametrize("argv, code, out", PINNED_OUTPUT)
def test_every_verb_prints_its_pinned_bytes(capsys, argv, code, out):
    assert run(*argv) == code
    assert re.sub(r"\d+\.\d{3}s", "#.###s", capsys.readouterr().out) == out


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
