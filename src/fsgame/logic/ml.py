"""Modal formulas in negation normal form: sizes, evaluation, parsing, enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..kripke import KripkeModel, PointedModel


class MLFormula:
    """Base class of the NNF modal syntax tree."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_ml(self)


@dataclass(frozen=True, repr=False)
class Top(MLFormula):
    def __repr__(self) -> str:
        return "Top()"


@dataclass(frozen=True, repr=False)
class Bot(MLFormula):
    def __repr__(self) -> str:
        return "Bot()"


@dataclass(frozen=True)
class Prop(MLFormula):
    name: str


@dataclass(frozen=True)
class NegProp(MLFormula):
    name: str


@dataclass(frozen=True)
class And(MLFormula):
    left: MLFormula
    right: MLFormula


@dataclass(frozen=True)
class Or(MLFormula):
    left: MLFormula
    right: MLFormula


@dataclass(frozen=True)
class Diamond(MLFormula):
    child: MLFormula


@dataclass(frozen=True)
class Box(MLFormula):
    child: MLFormula


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class SizeReport:
    """Operator counts of a modal formula; the total is their sum."""

    ms: int
    cs: int

    @property
    def s(self) -> int:
        return self.ms + self.cs


def ml_sizes(f: MLFormula) -> SizeReport:
    """Count modal operators (ms) and binary connectives (cs)."""
    ms = cs = 0
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            cs += 1
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Diamond, Box)):
            ms += 1
            stack.append(node.child)
    return SizeReport(ms=ms, cs=cs)


def modal_depth(f: MLFormula) -> int:
    """Maximum nesting depth of modal operators."""
    if isinstance(f, (And, Or)):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, (Diamond, Box)):
        return 1 + modal_depth(f.child)
    return 0


def prop_names(f: MLFormula) -> frozenset[str]:
    """Proposition symbols occurring in the formula."""
    if isinstance(f, (Prop, NegProp)):
        return frozenset((f.name,))
    if isinstance(f, (And, Or)):
        return prop_names(f.left) | prop_names(f.right)
    if isinstance(f, (Diamond, Box)):
        return prop_names(f.child)
    return frozenset()


def eval_ml(p: PointedModel, f: MLFormula) -> bool:
    """Truth of ``f`` at the distinguished point, by the usual Kripke semantics."""
    _check_symbols(prop_names(f), p)
    return p.point in extent(f, p.model, {})


def _check_symbols(names: frozenset[str], p: PointedModel) -> None:
    """Raise ``ValueError`` unless the model's signature has every name."""
    unknown = names - p.model.prop_set
    if unknown:
        raise ValueError(f"unknown proposition symbols: {sorted(unknown)}")


def extent(f: MLFormula, model: KripkeModel, memo: dict) -> frozenset[str]:
    """The worlds of the model where ``f`` holds.

    ``memo`` keeps the extent of each subformula node on each model, keyed by
    their identities, so the caller keeps both alive while it keeps the memo.
    The model's signature must have every proposition of ``f``."""
    key = (id(f), id(model))
    out = memo.get(key)
    if out is not None:
        return out
    kind = type(f)
    if kind is Prop:
        out = model.valuation[f.name]
    elif kind is NegProp:
        out = model.worlds - model.valuation[f.name]
    elif kind is And:
        out = extent(f.left, model, memo) & extent(f.right, model, memo)
    elif kind is Or:
        out = extent(f.left, model, memo) | extent(f.right, model, memo)
    elif kind is Diamond:
        child = extent(f.child, model, memo)
        out = frozenset([w for w, succ in model._succ.items() if not child.isdisjoint(succ)])
    elif kind is Box:
        child = extent(f.child, model, memo)
        out = frozenset([w for w, succ in model._succ.items() if child.issuperset(succ)])
    elif kind is Top:
        out = model.worlds
    elif kind is Bot:
        out = frozenset()
    else:
        raise TypeError(f"not a modal formula node: {f!r}")
    memo[key] = out
    return out


def separates(f: MLFormula, a: Iterable[PointedModel], b: Iterable[PointedModel]) -> bool:
    """True iff ``f`` holds on every member of ``a`` and fails on every member of ``b``."""
    return _separates(f, a, b, {})


def _separates(
    f: MLFormula, a: Iterable[PointedModel], b: Iterable[PointedModel], memo: dict
) -> bool:
    """``separates``, keeping in ``memo`` the extents it computes (see ``extent``).

    Members are read in order, the left side first, and each member's
    signature is checked just before the formula is evaluated on it."""
    names = prop_names(f)
    for side, wanted in ((a, True), (b, False)):
        for p in side:
            if not names <= p.model.prop_set:
                _check_symbols(names, p)
            if (p.point in extent(f, p.model, memo)) != wanted:
                return False
    return True


class ParseError(ValueError):
    """Syntax error in modal formula text, with a character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = ("<>", "[]", "&", "|", "~", "(", ")")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<>", i) or text.startswith("[]", i):
            tokens.append(("op", text[i : i + 2], i))
            i += 2
            continue
        if c in "&|~()":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "const" if word in ("T", "F") else "ident"
            tokens.append((kind, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


def parse_ml(text: str) -> MLFormula:
    """Parse formula text.

    Grammar: ``T | F | ident | ~ident | f & f | f "|" f | <>f | []f | (f)``
    with precedence unary > ``&`` > ``|``, both connectives left-associative.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, str, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(text))
        pos += 1
        return tok

    def parse_or() -> MLFormula:
        node = parse_and()
        while (tok := peek()) is not None and tok[1] == "|":
            take()
            node = Or(node, parse_and())
        return node

    def parse_and() -> MLFormula:
        node = parse_unary()
        while (tok := peek()) is not None and tok[1] == "&":
            take()
            node = And(node, parse_unary())
        return node

    def parse_unary() -> MLFormula:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(text))
        kind, value, at = tok
        if value == "<>":
            take()
            return Diamond(parse_unary())
        if value == "[]":
            take()
            return Box(parse_unary())
        if value == "~":
            take()
            nxt = take()
            if nxt[0] != "ident":
                raise ParseError("negation applies only to proposition names", nxt[2])
            return NegProp(nxt[1])
        return parse_atom()

    def parse_atom() -> MLFormula:
        kind, value, at = take()
        if value == "(":
            node = parse_or()
            closer = take()
            if closer[1] != ")":
                raise ParseError("expected ')'", closer[2])
            return node
        if kind == "const":
            return TOP if value == "T" else BOT
        if kind == "ident":
            return Prop(value)
        raise ParseError(f"unexpected token {value!r}", at)

    node = parse_or()
    if pos < len(tokens):
        raise ParseError(f"unexpected token {tokens[pos][1]!r}", tokens[pos][2])
    return node


def _level(f: MLFormula) -> int:
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


def print_ml(f: MLFormula) -> str:
    """Render a formula so that ``parse_ml(print_ml(f)) == f``."""
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, NegProp):
        return "~" + f.name
    if isinstance(f, Diamond):
        return "<>" + _wrap(f.child, 3)
    if isinstance(f, Box):
        return "[]" + _wrap(f.child, 3)
    if isinstance(f, And):
        return _wrap(f.left, 2) + " & " + _wrap(f.right, 3)
    if isinstance(f, Or):
        return _wrap(f.left, 1) + " | " + _wrap(f.right, 2)
    raise TypeError(f"not a modal formula node: {f!r}")


def _wrap(f: MLFormula, minimum: int) -> str:
    text = print_ml(f)
    return text if _level(f) >= minimum else f"({text})"


def enumerate_ml(
    ms_bound: int, cs_bound: int, signature: Iterable[str] = ()
) -> Iterator[MLFormula]:
    """Yield every NNF formula with ms <= ms_bound and cs <= cs_bound.

    The children of each binary connective come in sorted order, one of the
    two orderings, which halves the search space without losing any
    separating power.
    """
    if ms_bound < 0 or cs_bound < 0:
        raise ValueError("bounds must be non-negative")
    # a structural sort key per node, tracked by identity: subtrees are
    # shared within one enumeration, so hashing whole trees is never needed
    keys: dict[int, str] = {}

    def made(f: MLFormula, key: str, out: list[MLFormula]) -> None:
        keys[id(f)] = key
        out.append(f)

    leaves: list[MLFormula] = []
    made(BOT, "F", leaves)
    made(TOP, "T", leaves)
    for p in sorted(set(signature)):
        made(Prop(p), p, leaves)
        made(NegProp(p), "~" + p, leaves)
    classes: dict[tuple[int, int], list[MLFormula]] = {(0, 0): leaves}

    def cls(m: int, k: int) -> list[MLFormula]:
        key = (m, k)
        out = classes.get(key)
        if out is not None:
            return out
        out = []
        if m >= 1:
            for g in cls(m - 1, k):
                made(Diamond(g), "D(" + keys[id(g)] + ")", out)
                made(Box(g), "B(" + keys[id(g)] + ")", out)
        if k >= 1:
            for k1 in range(k):
                k2 = k - 1 - k1
                for m1 in range(m + 1):
                    m2 = m - m1
                    for g, h in itertools.product(cls(m1, k1), cls(m2, k2)):
                        if keys[id(g)] > keys[id(h)]:
                            continue
                        body = keys[id(g)] + "," + keys[id(h)]
                        made(And(g, h), "A(" + body + ")", out)
                        made(Or(g, h), "O(" + body + ")", out)
        classes[key] = out
        return out

    for m in range(ms_bound + 1):
        for k in range(cs_bound + 1):
            yield from cls(m, k)
