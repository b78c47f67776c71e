"""The public surface: what ``famcat`` exports, its value classes, and the README's tour.

Names are deleted from the package from time to time; these tests catch an
export, a removed name or a README example that was left behind.  Every
value class keeps one contract: its constructor, field equality, hashing,
``repr``, immutability, copying and pickling.
"""

import copy
import inspect
import pickle
import re
from pathlib import Path

import pytest

import famcat
from famcat import harness, kernel, nset, vobj
from famcat.harness import CheckResult, Report, Universe, Violation
from famcat.kernel import GapWitness, LabelVerdict, Obj
from famcat.nset import EMPTY, FULL, NSet
from famcat.univalence import CertificateStep, Fibration, UnivalenceCertificate
from famcat.vobj import FactorizationCheck, VKind, VObj

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


_A = Obj.of(NSet.fin([0]))
_B = Obj.of(NSet.fin([0, 1]))
_STEP = CertificateStep("diagonal", True, {"arrow": [1]})
_VIOLATION = Violation((_A, _B), "no arrow")

# Each value class: its constructor's parameters, as ``inspect.signature``
# printed them when the class was a dataclass, and two argument tuples that
# differ in every field.
VALUE_CLASSES = {
    Obj: ("(members: 'tuple[NSet, ...]')", ((EMPTY, NSet.fin([0])),), ((EMPTY, FULL),)),
    GapWitness: (
        "(x: 'NSet', y: 'NSet', blocker: 'NSet')",
        (NSet.fin([0]), NSet.fin([1]), EMPTY),
        (NSet.fin([1]), FULL, NSet.fin([0])),
    ),
    LabelVerdict: (
        "(arrow: 'bool', star: 'bool', w: 'bool', f: 'bool', c: 'bool')",
        (True, True, False, False, True),
        (False, False, True, True, False),
    ),
    VObj: (
        "(kind: 'VKind', x: 'Obj | None' = None, y: 'Obj | None' = None,"
        " a: 'Obj | None' = None, b: 'Obj | None' = None, c: 'Obj | None' = None)",
        (VKind.WC, _A, _B, None, None, None),
        (VKind.WEXP, _B, _A, _A, _B, _A),
    ),
    FactorizationCheck: (
        "(x: 'Obj', y: 'Obj', arrow_into_middle: 'bool', star_back_to_source: 'bool',"
        " fibration_instances_ok: 'bool', instances: 'int')",
        (_A, _B, True, True, True, 3),
        (_B, _A, False, False, False, 4),
    ),
    Fibration: ("(total: 'Obj', base: 'Obj')", (_A, _A), (_B, _B)),
    CertificateStep: (
        "(name: 'str', passed: 'bool', facts: 'dict[str, object]')",
        ("diagonal", True, {"arrow": [1]}),
        ("exponential", False, {"arrow": [2]}),
    ),
    UnivalenceCertificate: (
        "(total: 'Obj', base: 'Obj', steps: 'tuple[CertificateStep, ...]')",
        (_A, _A, (_STEP,)),
        (_B, _B, (_STEP, _STEP)),
    ),
    Universe: (
        "(window: 'int', include_cofinite: 'bool' = False, samples: 'int' = 0,"
        " seed: 'int' = 42)",
        (3, True, 200, 7),
        (2, False, 0, 9),
    ),
    Violation: ("(objects: 'tuple[Obj, ...]', detail: 'str')", ((_A, _B), "x"), ((_B,), "y")),
    CheckResult: (
        "(name: 'str', instances: 'int', violations: 'tuple[Violation, ...]',"
        " elapsed: 'float')",
        ("M1_LIFTING", 4, (_VIOLATION,), 0.5),
        ("CLAIM5", 5, (), 0.25),
    ),
    Report: (
        "(universe: 'Universe', checks: 'tuple[CheckResult, ...]')",
        (Universe(3), (CheckResult("CLAIM5", 5, (), 0.25),)),
        (Universe(2, samples=9), ()),
    ),
}
# they hold a dict, directly or in their steps
UNHASHABLE = {CertificateStep, UnivalenceCertificate}


@pytest.mark.parametrize("cls", list(VALUE_CLASSES), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    want, args, other = VALUE_CLASSES[cls]
    sig = inspect.signature(cls)
    assert str(sig.replace(return_annotation=sig.empty)) == want
    names = list(sig.parameters)
    for a in (args, other):
        x = cls(*a)
        assert cls(**dict(zip(names, a))) == x
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, a))
        assert repr(x) == f"{cls.__name__}({shown})"
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y.__class__ is cls and y == x and not y != x and repr(y) == repr(x)
            if cls not in UNHASHABLE:
                assert hash(y) == hash(x)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(x)
        assert x.__eq__(object()) is NotImplemented and x.__eq__(x) is True
        for name in (*names, *cls.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, a[0])
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert cls(*a) == x
    # equality reads every field: changing any one of them changes the value
    for i in range(len(args)):
        assert cls(*args[:i], other[i], *args[i + 1 :]) != cls(*args)
    # dropping a field raises an arity error that names the constructor and the field
    missing = f"{cls.__name__}.__init__() missing 1 required positional argument: '{names[0]}'"
    with pytest.raises(TypeError, match=f"^{re.escape(missing)}$"):
        cls(**dict(zip(names[1:], args[1:])))
