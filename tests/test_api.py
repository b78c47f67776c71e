"""The public surface: what ``famcat`` exports, and the README's tour.

Names are deleted from the package from time to time; these tests catch an
export, a removed name or a README example that was left behind.
"""

import inspect
import re
from pathlib import Path

import pytest

import famcat
from famcat import harness, kernel, nset, vobj
from famcat.kernel import GapWitness, Obj
from famcat.nset import NSet
from famcat.univalence import Fibration
from famcat.vobj import VObj

README = Path(__file__).resolve().parents[1] / "README.md"

# One spelling per fact: each of these restated a fact another name states.
REMOVED = {
    famcat: (
        "Cardinality", "Kind", "initial", "terminal", "sample_objects", "StarTemplate",
        "wc_covers", "exp_member",
    ),
    harness: ("sample_objects",),
    nset: ("Cardinality", "INFINITE", "Kind"),
    kernel: ("initial", "terminal", "StarTemplate"),
    vobj: ("wc_covers", "exp_member"),
    NSet: ("cardinality", "is_finite", "kind"),
    Obj: ("has_full",),
    GapWitness: ("to_json_dict",),
    Fibration: ("to_json_dict",),
    VObj: ("describe",),
}


def test_every_exported_name_resolves():
    assert len(set(famcat.__all__)) == len(famcat.__all__)
    assert [n for n in famcat.__all__ if not hasattr(famcat, n)] == []
    star: dict[str, object] = {}
    exec("from famcat import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(famcat.__all__)
    assert [n for n in famcat.__all__ if star[n] is not getattr(famcat, n)] == []
    assert set(famcat.__all__) <= set(dir(famcat))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        famcat.no_such_name


def test_removed_names_stay_gone():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in getattr(owner, "__all__", ()), (owner, name)
    # membership in an object falls back to iterating its members
    assert "__contains__" not in vars(Obj)
    # these deciders take the two families and nothing else
    for fn in (kernel.fibration_condition_enumerated, kernel.star_arrow, kernel.label_verdict):
        assert list(inspect.signature(fn).parameters) == ["source", "target"], fn


def test_readme_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None
    namespace: dict[str, object] = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert namespace["x"] == Obj.of(NSet.fin([0]))
