"""Finite and cofinite subsets of the naturals, with exact set algebra.

A value is either ``FIN(S)``, the finite set with members ``S``, or
``COFIN(S)``, the set of all naturals except ``S``.  This class of sets is
closed under intersection, union, difference and complement, so every
construction in the package stays inside it.  Values are immutable and
hashable, operations are pure, and nothing here touches global state.

A value is stored as ``(cofinite, mask)``: bit *i* of the int ``mask`` is
set exactly when *i* is in ``S``.  Every boolean operation is one or two
int operations on the masks.  Elements named by a constructor are bounded
by :data:`MAX_ELEMENT`, so a literal cannot ask for a huge mask.
"""

from __future__ import annotations

from typing import Iterable, Mapping

MAX_ELEMENT = (1 << 16) - 1
"""The largest element a constructor accepts; a mask spans at most 8 KiB."""


def _mask_of(elems: Iterable[int]) -> int:
    mask = 0
    for e in elems:
        # bool is an int subclass, but True is not the natural 1 on the wire
        if type(e) is not int or e < 0:
            raise ValueError(f"support elements must be naturals, got {e!r}")
        if e > MAX_ELEMENT:
            raise ValueError(f"support element {e} exceeds MAX_ELEMENT = {MAX_ELEMENT}")
        mask |= 1 << e
    return mask


_CHUNK_BITS = 1024
_CHUNK = (1 << _CHUNK_BITS) - 1


def _elements(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending.

    Bits are peeled off one chunk at a time, so clearing each bit costs a
    small-int operation and a wide mask takes time linear in its length.
    """
    out = []
    base = 0
    while mask:
        chunk = mask & _CHUNK
        mask >>= _CHUNK_BITS
        while chunk:
            low = chunk & -chunk
            out.append(base + low.bit_length() - 1)
            chunk ^= low
        base += _CHUNK_BITS
    return out


class NSet:
    """A finite or cofinite subset of the naturals.

    ``mask`` holds the members (finite) or the excluded members (cofinite),
    so equality and hashing are structural, and ``support`` (the sorted
    tuple of mask bits) is derived from it.  Values come only from
    :meth:`fin`, :meth:`cofin` and :meth:`from_json_dict`.
    """

    __slots__ = ("cofinite", "mask")
    cofinite: bool
    mask: int

    def __new__(cls, *args: object, **kwargs: object) -> "NSet":
        raise TypeError("build an NSet with NSet.fin, NSet.cofin or NSet.from_json_dict")

    @classmethod
    def fin(cls, elems: Iterable[int] = ()) -> "NSet":
        """The finite set with exactly these elements."""
        return _make(False, _mask_of(elems))

    @classmethod
    def cofin(cls, excluded: Iterable[int] = ()) -> "NSet":
        """The set of all naturals except these."""
        return _make(True, _mask_of(excluded))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"NSet is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"NSet is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple[object, tuple[bool, int]]:
        return _make, (self.cofinite, self.mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NSet:
            return NotImplemented
        return self.mask == other.mask and self.cofinite is other.cofinite

    def __hash__(self) -> int:
        return hash((self.cofinite, self.mask))

    def __repr__(self) -> str:
        return f"NSet.{'cofin' if self.cofinite else 'fin'}({list(self.support)})"

    @property
    def support(self) -> tuple[int, ...]:
        """The members (finite) or the holes (cofinite), sorted."""
        return tuple(_elements(self.mask))

    # -- membership -------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (bool(self.mask >> n & 1) is not self.cofinite)

    def smallest(self) -> int | None:
        """Least element, or ``None`` for the empty set."""
        m = self.mask
        low = ~m & (m + 1) if self.cofinite else m & -m  # lowest member bit
        return low.bit_length() - 1 if low else None

    def drop_least(self) -> "NSet":
        """The same set minus its least element (a proper subset).

        Raises ``ValueError`` when that element is above :data:`MAX_ELEMENT`,
        since the result could not be written back as a literal.
        """
        m = self.mask
        if self.cofinite:
            low = ~m & (m + 1)  # the least member becomes a hole
            if low >> MAX_ELEMENT > 1:
                least = low.bit_length() - 1
                raise ValueError(f"least element {least} exceeds MAX_ELEMENT = {MAX_ELEMENT}")
            return _make(True, m | low)
        if not m:
            raise ValueError("the empty set has no element to drop")
        return _make(False, m & (m - 1))

    # -- boolean algebra --------------------------------------------------

    def complement(self) -> "NSet":
        return _make(not self.cofinite, self.mask)

    __invert__ = complement

    def intersect(self, other: "NSet") -> "NSet":
        a, b = self.mask, other.mask
        if self.cofinite:
            return _make(True, a | b) if other.cofinite else _make(False, b & ~a)
        return _make(False, a & ~b if other.cofinite else a & b)

    __and__ = intersect

    def union(self, other: "NSet") -> "NSet":
        a, b = self.mask, other.mask
        if self.cofinite:
            return _make(True, a & b if other.cofinite else a & ~b)
        return _make(True, b & ~a) if other.cofinite else _make(False, a | b)

    __or__ = union

    def difference(self, other: "NSet") -> "NSet":
        a, b = self.mask, other.mask
        if self.cofinite:
            return _make(False, b & ~a) if other.cofinite else _make(True, a | b)
        return _make(False, a & b if other.cofinite else a & ~b)

    __sub__ = difference

    def is_subset(self, other: "NSet") -> bool:
        a, b = self.mask, other.mask
        if self.cofinite:
            return other.cofinite and not b & ~a
        return not (a & b if other.cofinite else a & ~b)

    __le__ = is_subset

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict[str, list[int]]:
        return {"cofin" if self.cofinite else "fin": _elements(self.mask)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "NSet":
        """Read a literal whose element list denotes a set: order and repeats
        are ignored, and :meth:`to_json_dict` writes each element once, sorted."""
        if not isinstance(data, Mapping) or len(data) != 1:
            raise ValueError(f"a set literal has exactly one of 'fin'/'cofin': {data!r}")
        key, value = next(iter(data.items()))
        if key not in ("fin", "cofin") or not isinstance(value, (list, tuple)):
            raise ValueError(f"bad set literal: {data!r}")
        return _make(key == "cofin", _mask_of(value))

    def __str__(self) -> str:
        body = "{" + ",".join(str(e) for e in _elements(self.mask)) + "}"
        if not self.cofinite:
            return body
        return "N" if not self.mask else f"N-{body}"


_new = object.__new__
_set_cofinite = NSet.cofinite.__set__  # type: ignore[attr-defined]
_set_mask = NSet.mask.__set__  # type: ignore[attr-defined]


def _make(cofinite: bool, mask: int) -> NSet:
    """Build a value from a mask already known to be valid, unchecked."""
    s = _new(NSet)
    _set_cofinite(s, cofinite)
    _set_mask(s, mask)
    return s


EMPTY = NSet.fin()
FULL = NSet.cofin()
