"""famcat: an executable posetal model category of set families.

Objects are finite families of finite-or-cofinite subsets of the naturals;
there is at most one arrow between any ordered pair.  The package decides
arrows and their model-structure labels, builds limits, factorizations and
exponentials, answers queries against virtual (infinite) objects through
closed forms, and machine-checks the axioms and structural claims over
exhaustive or sampled universes of objects.

``import famcat`` loads no submodule: each exported name imports its
submodule on first use, so a caller of the deciders never pays for the
check suites.
"""

import importlib

__version__ = "0.1.0"

# each export, by the submodule that defines it
_EXPORTS = {
    "harness": (
        "AXIOM_NAMES", "CLAIM_NAMES", "CheckResult", "Report", "Universe", "Violation",
        "check_axiom", "check_claim", "enumerate_objects", "run_axioms", "run_claims",
        "universe_objects",
    ),
    "kernel": (
        "INITIAL", "TERMINAL", "GapWitness", "LabelVerdict", "Obj", "SizeGuardError",
        "arrow_exists", "coproduct", "fibration_condition", "fibration_condition_enumerated",
        "fibration_gap", "is_iso", "label_f", "label_verdict", "label_w", "normalize",
        "product", "star_arrow",
    ),
    "nset": ("EMPTY", "FULL", "NSet"),
    "univalence": (
        "CertificateStep", "Fibration", "UnivalenceCertificate", "is_p_small", "is_small",
        "is_univalent", "sample_fibrations", "universe_object_facts", "verify_universal",
    ),
    "vobj": (
        "FactorizationCheck", "UndecidedPairError", "VKind", "VObj", "arrow_from_vobj",
        "arrow_into_vobj", "check_factorization", "decide", "exp_explicit", "exp_slice",
        "is_iso_virtual", "wexp_member",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import the submodule that defines an export on its first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
