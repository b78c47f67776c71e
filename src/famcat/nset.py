"""Finite and cofinite subsets of the naturals, with exact set algebra.

A value is either ``FIN(S)``, the finite set with members ``S``, or
``COFIN(S)``, the set of all naturals except ``S``.  This class of sets is
closed under intersection, union, difference and complement, so every
construction in the package stays inside it.  Values are immutable and
hashable, operations are pure, and nothing here touches global state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping


class Kind(enum.Enum):
    """Whether the support lists the members (FIN) or the holes (COFIN)."""

    FIN = "fin"
    COFIN = "cofin"


@dataclass(frozen=True)
class Cardinality:
    """A natural number, or ``None`` standing for the one infinite size."""

    value: int | None

    @classmethod
    def finite(cls, n: int) -> "Cardinality":
        if n < 0:
            raise ValueError("cardinalities are non-negative")
        return cls(n)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITE = Cardinality(None)


def _clean_support(elems: Iterable[int]) -> tuple[int, ...]:
    raw = tuple(elems)
    for e in raw:
        # bool is an int subclass, but True is not the natural 1 on the wire
        if type(e) is not int or e < 0:
            raise ValueError(f"support elements must be naturals, got {e!r}")
    return tuple(sorted(set(raw)))


@dataclass(frozen=True)
class NSet:
    """A finite or cofinite subset of the naturals.

    ``support`` is the finite list of members (FIN) or excluded members
    (COFIN), kept sorted and duplicate-free so equality and hashing are
    structural.
    """

    kind: Kind
    support: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", _clean_support(self.support))

    @classmethod
    def fin(cls, elems: Iterable[int] = ()) -> "NSet":
        """The finite set with exactly these elements."""
        return cls(Kind.FIN, tuple(elems))

    @classmethod
    def cofin(cls, excluded: Iterable[int] = ()) -> "NSet":
        """The set of all naturals except these."""
        return cls(Kind.COFIN, tuple(excluded))

    # -- membership and size --------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind is Kind.FIN

    def __contains__(self, n: int) -> bool:
        return (n in self.support) == (self.kind is Kind.FIN)

    def cardinality(self) -> Cardinality:
        return Cardinality.finite(len(self.support)) if self.is_finite else INFINITE

    def smallest(self) -> int | None:
        """Least element, or ``None`` for the empty set."""
        if self.is_finite:
            return self.support[0] if self.support else None
        k = 0
        while k in self.support:
            k += 1
        return k

    def drop_least(self) -> "NSet":
        """The same set minus its least element (a proper subset)."""
        least = self.smallest()
        if least is None:
            raise ValueError("the empty set has no element to drop")
        if self.is_finite:
            return NSet.fin(self.support[1:])
        return NSet.cofin(self.support + (least,))

    # -- boolean algebra --------------------------------------------------

    def complement(self) -> "NSet":
        return NSet(Kind.COFIN if self.is_finite else Kind.FIN, self.support)

    __invert__ = complement

    def intersect(self, other: "NSet") -> "NSet":
        a, b = set(self.support), set(other.support)
        if self.is_finite and other.is_finite:
            return NSet.fin(a & b)
        if self.is_finite:
            return NSet.fin(a - b)
        if other.is_finite:
            return NSet.fin(b - a)
        return NSet.cofin(a | b)

    __and__ = intersect

    def union(self, other: "NSet") -> "NSet":
        a, b = set(self.support), set(other.support)
        if self.is_finite and other.is_finite:
            return NSet.fin(a | b)
        if self.is_finite:
            return NSet.cofin(b - a)
        if other.is_finite:
            return NSet.cofin(a - b)
        return NSet.cofin(a & b)

    __or__ = union

    def difference(self, other: "NSet") -> "NSet":
        return self.intersect(other.complement())

    __sub__ = difference

    def is_subset(self, other: "NSet") -> bool:
        a, b = set(self.support), set(other.support)
        if self.is_finite and other.is_finite:
            return a <= b
        if self.is_finite:
            return not (a & b)
        if other.is_finite:
            return False
        return b <= a

    __le__ = is_subset

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict[str, list[int]]:
        return {self.kind.value: list(self.support)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "NSet":
        if not isinstance(data, Mapping) or len(data) != 1:
            raise ValueError(f"a set literal has exactly one of 'fin'/'cofin': {data!r}")
        key, value = next(iter(data.items()))
        if key not in ("fin", "cofin") or not isinstance(value, (list, tuple)):
            raise ValueError(f"bad set literal: {data!r}")
        return cls(Kind(key), tuple(value))

    def __str__(self) -> str:
        body = "{" + ",".join(str(e) for e in self.support) + "}"
        if self.is_finite:
            return body
        return "N" if not self.support else f"N-{body}"


EMPTY = NSet.fin()
FULL = NSet.cofin()

