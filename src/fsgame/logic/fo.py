"""First-order formulas over one binary relation: evaluation, size counting,
and the recursive family expressing depth-bounded back-and-forth equivalence."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from ..kripke import KripkeModel


class FOFormula:
    """Base class of the first-order syntax tree (named variables)."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_fo(self)


@dataclass(frozen=True)
class RelAtom(FOFormula):
    """R(x, y) over the accessibility relation."""

    x: str
    y: str


@dataclass(frozen=True)
class Equal(FOFormula):
    x: str
    y: str


@dataclass(frozen=True)
class Not(FOFormula):
    body: FOFormula


@dataclass(frozen=True)
class And(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class Or(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class Implies(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class Iff(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class Exists(FOFormula):
    var: str
    body: FOFormula


@dataclass(frozen=True)
class Forall(FOFormula):
    var: str
    body: FOFormula


class SizeConvention(Enum):
    """How atomic formulas are counted.

    ATOMIC_ONE (default): quantifiers, binary connectives and atoms each
    count 1, negation is free, and a biconditional counts as its expansion
    into two implications and a conjunction.  ATOMIC_ZERO is identical except
    that atoms count 0.
    """

    ATOMIC_ONE = "atomic-one"
    ATOMIC_ZERO = "atomic-zero"


def fo_size(f: FOFormula, convention: SizeConvention = SizeConvention.ATOMIC_ONE) -> int:
    atom = 1 if convention is SizeConvention.ATOMIC_ONE else 0

    def size(node: FOFormula) -> int:
        if isinstance(node, (RelAtom, Equal)):
            return atom
        if isinstance(node, Not):
            return size(node.body)
        if isinstance(node, (And, Or, Implies)):
            return size(node.left) + size(node.right) + 1
        if isinstance(node, Iff):
            return 2 * (size(node.left) + size(node.right)) + 3
        if isinstance(node, (Exists, Forall)):
            return size(node.body) + 1
        raise TypeError(f"not a first-order formula node: {node!r}")

    return size(f)


def free_vars(f: FOFormula) -> frozenset[str]:
    if isinstance(f, (RelAtom, Equal)):
        return frozenset((f.x, f.y))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a first-order formula node: {f!r}")


def eval_fo(model: KripkeModel, f: FOFormula, env: Mapping[str, str]) -> bool:
    """Tarskian truth over the finite structure (worlds; R = edges)."""
    scope = dict(env)
    unbound = free_vars(f) - scope.keys()
    if unbound:
        raise ValueError(f"unbound variables: {sorted(unbound)}")
    for var, w in scope.items():
        if w not in model.worlds:
            raise ValueError(f"assignment {var}={w!r} is not a world of the model")
    worlds = sorted(model.worlds)
    edges = model.edges

    def ev(node: FOFormula) -> bool:
        if isinstance(node, RelAtom):
            return (scope[node.x], scope[node.y]) in edges
        if isinstance(node, Equal):
            return scope[node.x] == scope[node.y]
        if isinstance(node, Not):
            return not ev(node.body)
        if isinstance(node, And):
            return ev(node.left) and ev(node.right)
        if isinstance(node, Or):
            return ev(node.left) or ev(node.right)
        if isinstance(node, Implies):
            return (not ev(node.left)) or ev(node.right)
        if isinstance(node, Iff):
            return ev(node.left) == ev(node.right)
        if isinstance(node, (Exists, Forall)):
            saved = scope.get(node.var)
            want = isinstance(node, Exists)
            result = not want
            for w in worlds:
                scope[node.var] = w
                if ev(node.body) == want:
                    result = want
                    break
            if saved is None:
                scope.pop(node.var, None)
            else:
                scope[node.var] = saved
            return result
        raise TypeError(f"not a first-order formula node: {node!r}")

    return ev(f)


def make_psi(n: int, x: str = "x", y: str = "y") -> FOFormula:
    """The formula asserting that x and y are n-step back-and-forth equivalent.

    Built recursively: the base case compares successor existence, and each
    further level demands matching successors both ways.  Bound variables are
    numbered by level so substitution never captures.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s, t = f"s{n}", f"t{n}"
    if n == 1:
        return Iff(Exists(s, RelAtom(x, s)), Exists(t, RelAtom(y, t)))
    inner = make_psi(n - 1, s, t)
    forth = Forall(s, Implies(RelAtom(x, s), Exists(t, And(RelAtom(y, t), inner))))
    back = Forall(t, Implies(RelAtom(y, t), Exists(s, And(RelAtom(x, s), inner))))
    return And(forth, back)


def make_phi(n: int) -> FOFormula:
    """The formula asserting that all successors of x are pairwise n-equivalent."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Forall(
        "y",
        Forall("z", Implies(And(RelAtom("x", "y"), RelAtom("x", "z")), make_psi(n, "y", "z"))),
    )


def print_fo(f: FOFormula) -> str:
    """Conventional rendering, for reports; binary connectives fully parenthesized."""
    if isinstance(f, RelAtom):
        return f"R({f.x},{f.y})"
    if isinstance(f, Equal):
        return f"{f.x} = {f.y}"
    if isinstance(f, Not):
        return f"¬{print_fo(f.body)}"
    if isinstance(f, And):
        return f"({print_fo(f.left)} ∧ {print_fo(f.right)})"
    if isinstance(f, Or):
        return f"({print_fo(f.left)} ∨ {print_fo(f.right)})"
    if isinstance(f, Implies):
        return f"({print_fo(f.left)} → {print_fo(f.right)})"
    if isinstance(f, Iff):
        return f"({print_fo(f.left)} ↔ {print_fo(f.right)})"
    if isinstance(f, Exists):
        return f"∃{f.var} {print_fo(f.body)}"
    if isinstance(f, Forall):
        return f"∀{f.var} {print_fo(f.body)}"
    raise TypeError(f"not a first-order formula node: {f!r}")
