"""The import boundary of a cold command line.

A light verb loads the kernel and the virtual-object oracles and nothing
else: not the check suites, not univalence, and not ``dataclasses`` or the
``inspect`` it loads.  Each verb runs in one fresh interpreter.  This module
imports nothing from ``famcat`` itself, so a library that cannot even be
imported fails the test here instead of stopping collection.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

A_LIT = '{"members":[{"fin":[]},{"fin":[0]}]}'
B_LIT = '{"members":[{"fin":[]},{"fin":[0,1]}]}'
TERMINAL_LIT = '{"members":[{"fin":[]},{"cofin":[]}]}'

# the modules no light verb may load
HEAVY = {"famcat.harness", "famcat.univalence", "dataclasses", "inspect"}

# Runs each argv through main in one fresh interpreter and prints, as JSON,
# the famcat submodules and heavy standard modules loaded after
# `import famcat` and then after each call, with the call's exit code.
_LOADED_AFTER_EACH_CALL = """\
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("famcat.") or m in {heavy})

import famcat
seen = [[None, loaded()]]
from famcat.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), loaded()])
print(json.dumps(seen))
""".format(heavy=sorted(HEAVY))


def test_light_verbs_load_neither_the_harness_nor_univalence():
    light = [
        ["decide", "--from", A_LIT, "--to", B_LIT, "--label", "w"],
        ["product", "--x", A_LIT, "--y", B_LIT],
        ["coproduct", "--x", A_LIT, "--y", B_LIT],
        ["exp", "--b", A_LIT, "--c", B_LIT],
        ["wexp", "--a", TERMINAL_LIT, "--b", A_LIT, "--c", B_LIT, "--z", A_LIT],
        ["factorize", "--from", A_LIT, "--to", B_LIT],
    ]
    psmall = ["psmall", "--total", A_LIT, "--base", A_LIT]
    # the package's location, found without importing it
    package = Path(importlib.util.find_spec("famcat").origin).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH_CALL, json.dumps([*light, psmall])],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    (_, bare), *after_light, (psmall_code, after_psmall) = json.loads(done.stdout)
    assert bare == []
    assert [code for code, _ in after_light] == [0, 0, 0, 0, 0, 0]
    for _, modules in after_light:
        assert HEAVY.isdisjoint(modules), modules
    assert psmall_code == 0
    assert "famcat.univalence" in after_psmall
    assert (HEAVY - {"famcat.univalence"}).isdisjoint(after_psmall), after_psmall
