"""Finite and cofinite subsets of the naturals, with exact set algebra.

A value is either ``FIN(S)``, the finite set with members ``S``, or
``COFIN(S)``, the set of all naturals except ``S``.  This class of sets is
closed under intersection, union, difference and complement, so every
construction in the package stays inside it.  Values are immutable and
hashable, operations are pure, and nothing here touches global state.

A value is stored as one signed int: the mask of ``S`` (bit *i* set when
*i* is in ``S``) for ``FIN(S)``, ``~mask`` for ``COFIN(S)``.  Every boolean
operation is one or two int operations on it, the same for both kinds.
Elements named by a constructor are bounded by :data:`MAX_ELEMENT`, so a
literal cannot ask for a huge mask.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ._value import Value

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


class NSet(Value):
    """A finite or cofinite subset of the naturals.

    ``_s`` is the signed mask: the members' mask for a finite set, ``~holes``
    for a cofinite one.  Python ints are infinite two's complement, so
    ``&``, ``|`` and ``~`` on it are intersection, union and complement,
    and ``_s < 0`` says the set is cofinite.  Immutable, with equality from
    :class:`Value`; the hash is the mask, and ``cofinite``, ``mask`` and
    ``support`` (the sorted tuple of mask bits) are derived from it.  Values
    come only from :meth:`fin`, :meth:`cofin` and :meth:`from_json_dict`.
    """

    __slots__ = ("_s",)
    _s: int

    def __new__(cls, *args: object, **kwargs: object) -> "NSet":
        raise TypeError("build an NSet with NSet.fin, NSet.cofin or NSet.from_json_dict")

    @classmethod
    def fin(cls, elems: Iterable[int] = ()) -> "NSet":
        """The finite set with exactly these elements."""
        return _make(_mask_of(elems))

    @classmethod
    def cofin(cls, excluded: Iterable[int] = ()) -> "NSet":
        """The set of all naturals except these."""
        return _make(~_mask_of(excluded))

    def __reduce__(self) -> tuple[object, tuple[int]]:
        return _make, (self._s,)

    def __hash__(self) -> int:
        # the mask itself, or for a cofinite set ``-2 - holes``, below -1
        # (Python reserves -1): narrow masks never collide
        return self._s if self._s >= 0 else self._s - 1

    def __repr__(self) -> str:
        return f"NSet.{'cofin' if self.cofinite else 'fin'}({list(self.support)})"

    @property
    def cofinite(self) -> bool:
        return self._s < 0

    @property
    def mask(self) -> int:
        """The members (finite) or the holes (cofinite), as a mask."""
        return ~self._s if self._s < 0 else self._s

    @property
    def support(self) -> tuple[int, ...]:
        """The members (finite) or the holes (cofinite), sorted."""
        return tuple(_elements(self.mask))

    # -- membership -------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        return n >= 0 and bool(self._s >> n & 1)

    def smallest(self) -> int | None:
        """Least element, or ``None`` for the empty set."""
        s = self._s
        low = s & -s  # the lowest member bit
        return low.bit_length() - 1 if low else None

    def drop_least(self) -> "NSet":
        """The same set minus its least element (a proper subset).

        Raises ``ValueError`` when that element is above :data:`MAX_ELEMENT`,
        since the result could not be written back as a literal.
        """
        s = self._s
        if not s:
            raise ValueError("the empty set has no element to drop")
        low = s & -s
        if low >> MAX_ELEMENT > 1:
            least = low.bit_length() - 1
            raise ValueError(f"least element {least} exceeds MAX_ELEMENT = {MAX_ELEMENT}")
        return _make(s ^ low)

    # -- boolean algebra --------------------------------------------------

    def complement(self) -> "NSet":
        return _make(~self._s)

    __invert__ = complement

    def intersect(self, other: "NSet") -> "NSet":
        return _make(self._s & other._s)

    __and__ = intersect

    def union(self, other: "NSet") -> "NSet":
        return _make(self._s | other._s)

    __or__ = union

    def difference(self, other: "NSet") -> "NSet":
        return _make(self._s & ~other._s)

    __sub__ = difference

    def is_subset(self, other: "NSet") -> bool:
        return not self._s & ~other._s

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
        mask = _mask_of(value)
        return _make(~mask if key == "cofin" else mask)

    def __str__(self) -> str:
        body = "{" + ",".join(str(e) for e in _elements(self.mask)) + "}"
        if not self.cofinite:
            return body
        return "N" if not self.mask else f"N-{body}"


_new = object.__new__
_set_s = NSet._s.__set__  # type: ignore[attr-defined]


def _make(s: int) -> NSet:
    """The value whose signed mask is ``s``, built unchecked."""
    v = _new(NSet)
    _set_s(v, s)
    return v


EMPTY = NSet.fin()
FULL = NSet.cofin()
