"""Hereditarily finite sets, membership frames, and the singleton/pair join families."""

from __future__ import annotations

import itertools
from typing import Iterable

from .kripke import KripkeModel, PointedModel, join


def _enc_order(encoding: str) -> tuple[int, str]:
    return (len(encoding), encoding)


class HFSet:
    """A hereditarily finite set with a canonical brace-string encoding.

    Children are sorted by encoding, so two HFSets are equal iff they are
    extensionally equal, and the encoding is unique per set.
    """

    __slots__ = ("elements", "encoding", "_hash")

    def __init__(self, elements: Iterable["HFSet"] = ()) -> None:
        els = frozenset(elements)
        for e in els:
            if not isinstance(e, HFSet):
                raise TypeError(f"elements must be HFSet instances, got {e!r}")
        self.elements = els
        self.encoding = "{" + ",".join(sorted((e.encoding for e in els), key=_enc_order)) + "}"
        self._hash = hash(self.encoding)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HFSet):
            return NotImplemented
        return self.encoding == other.encoding

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "HFSet") -> bool:
        return _enc_order(self.encoding) < _enc_order(other.encoding)

    def __str__(self) -> str:
        return self.encoding

    def __repr__(self) -> str:
        return f"HFSet({self.encoding})"


EMPTY_SET = HFSet()


def parse_hf(text: str) -> HFSet:
    """Parse a nested-brace encoding such as ``{{},{{}}}``."""
    pos = 0

    def parse() -> HFSet:
        nonlocal pos
        if pos >= len(text) or text[pos] != "{":
            raise ValueError(f"expected '{{' at position {pos}")
        pos += 1
        elements = []
        if pos < len(text) and text[pos] == "}":
            pos += 1
            return HFSet(elements)
        while True:
            elements.append(parse())
            if pos >= len(text):
                raise ValueError("unexpected end of input")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == "}":
                pos += 1
                return HFSet(elements)
            raise ValueError(f"expected ',' or '}}' at position {pos}")

    value = parse()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}")
    return value


def tower(n: int) -> int:
    """tower(0) = 1 and tower(n+1) = 2 ** tower(n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    value = 1
    for _ in range(n):
        value = 2**value
    return value


# |level 5| = 65536 is the enumeration ceiling: levels up to LEVEL_CAP are
# listed freely, LEVEL_MAX only behind a flag.  The families stop at n = 3:
# level 4 has 16 sets and 120 pairs, while level 5 has 65,536 sets, too many to
# pair or to color.
LEVEL_CAP = 4
LEVEL_MAX = 5
FAMILY_CAP = 3


class LevelTooLarge(ValueError):
    """A level past the enumeration ceiling: above ``LEVEL_MAX``, or above
    ``LEVEL_CAP`` without ``allow_large``."""


class FamilyTooLarge(ValueError):
    """A join family past ``FAMILY_CAP``."""


def v_level(
    n: int, *, allow_large: bool = False, flag: str = "allow_large=True", name: str = "n"
) -> frozenset[HFSet]:
    """The n-th iterated powerset of the empty set.

    A negative n raises ``ValueError`` worded after ``name``, the caller's
    name for n.  A level past the ceiling raises ``LevelTooLarge``; at
    ``LEVEL_MAX`` its message names ``flag``, the caller's way to pass
    ``allow_large``."""
    if n < 0:
        raise ValueError(f"{name} must be non-negative")
    if n > LEVEL_MAX or (n > LEVEL_CAP and not allow_large):
        hint = f"; pass {flag} to enumerate level {n}" if n == LEVEL_MAX else ""
        raise LevelTooLarge(f"refusing to enumerate level {n}{hint}")
    level: list[HFSet] = []
    for _ in range(n):
        below = sorted(level)
        level = [
            HFSet(e for i, e in enumerate(below) if mask >> i & 1) for mask in range(1 << len(below))
        ]
    return frozenset(level)


def model_of(a: HFSet) -> PointedModel:
    """The membership frame on the transitive closure of ``a``, pointed at ``a``.

    Worlds are canonical encodings; there is an edge x -> y iff y is an
    element of x; the signature is empty.
    """
    closure: dict[str, HFSet] = {}
    stack = [a]
    while stack:
        x = stack.pop()
        if x.encoding in closure:
            continue
        closure[x.encoding] = x
        stack.extend(x.elements)
    edges = {
        (x.encoding, y.encoding) for x in closure.values() for y in x.elements
    }
    return PointedModel(KripkeModel(closure.keys(), edges, {}), a.encoding)


def frame(n: int) -> KripkeModel:
    """The full membership frame on level n (edge x -> y iff y in x)."""
    level = v_level(n)
    edges = {(x.encoding, y.encoding) for x in level for y in x.elements}
    return KripkeModel((x.encoding for x in level), edges, {})


def _check_family(n: int, family: str, name: str) -> None:
    """Refuse a negative n with a ``ValueError`` worded after ``name``, the
    caller's name for n, and an n past ``FAMILY_CAP`` with ``FamilyTooLarge``."""
    if n < 0:
        raise ValueError(f"{name} must be non-negative")
    if n > FAMILY_CAP:
        raise FamilyTooLarge(f"refusing to build the {family} family at n={n}")


def vv_set(n: int, *, name: str = "n") -> frozenset[PointedModel]:
    """Fresh-root joins of the singleton families from level n+1; refused as
    ``_check_family`` says."""
    _check_family(n, "singleton", name)
    return frozenset(join([model_of(a)]) for a in v_level(n + 1))


def ee_set(n: int, *, name: str = "n") -> frozenset[PointedModel]:
    """Fresh-root joins of all unordered distinct pairs from level n+1;
    refused as ``_check_family`` says."""
    _check_family(n, "pair", name)
    frames = [model_of(a) for a in sorted(v_level(n + 1))]
    return frozenset(join(pair) for pair in itertools.combinations(frames, 2))
