"""Conflict graphs over join families, exact coloring, and coloring-guided play.

A family of singleton joins and a family of pair joins induce a graph: the
vertices are the unwrapped singletons and the edges are the pairs present in
the pair family.  Its chromatic number bounds the second player's safety: as
long as the connective budget k satisfies 2**k < chromatic number, the
responder below never loses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .bisim import _check_signatures, bounded_type
from .bisim import n_bisimilar  # noqa: F401  (kept importable here: a benchmark probe site)
from .game import (
    GamePosition,
    IllegalMoveError,
    LeftSplit,
    LeftSucc,
    Move,
    RightSplit,
    RightSucc,
    _advance,
    _BisimResponder,
    _check_pins,
    _move_kind,
    apply_move,
)
from .hierarchy import model_of, parse_hf
from .kripke import PointedModel, generated


@dataclass(frozen=True)
class Graph:
    """Finite simple graph; edges are stored as sorted pairs, no self-loops."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if (u, v) != tuple(sorted((u, v))):
                raise ValueError(f"edge ({u!r}, {v!r}) is not stored sorted")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u!r}, {v!r}) mentions an unknown vertex")


def make_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> Graph:
    norm = frozenset(tuple(sorted((u, v))) for u, v in edges)
    return Graph(frozenset(vertices), norm)


def _unwrap(member: PointedModel, expected: int, frames: dict[str, PointedModel]) -> list[str]:
    """Recover the hierarchy elements under a join member's fresh root.

    ``frames`` maps each element world met so far to its membership frame;
    the worlds of this member are added to it."""
    targets = member.model.succ(member.point)
    if len(targets) != expected:
        raise ValueError(
            f"member rooted at {member.point!r} has {len(targets)} children, expected {expected}"
        )
    if member.model.prop_set:
        raise ValueError("join members over the hierarchy carry no propositions")
    for world in targets:
        frame = frames.get(world)
        if frame is None:
            try:
                element = parse_hf(world)
            except ValueError as exc:
                raise ValueError(f"world {world!r} is not a canonical set encoding") from exc
            frame = frames[world] = model_of(element)
        if generated(PointedModel(member.model, world)) != frame:
            raise ValueError(f"submodel under {world!r} is not the membership frame of {world!r}")
    return list(targets)


def _labels(
    vv: frozenset[PointedModel], ee: frozenset[PointedModel]
) -> dict[PointedModel, tuple[str, ...]]:
    """Each member's unwrapped elements, sorted: one for a singleton join,
    two for a pair join."""
    if not vv:
        raise ValueError("the vertex family must be nonempty")
    frames: dict[str, PointedModel] = {}
    labels = {member: tuple(_unwrap(member, 1, frames)) for member in vv}
    labels.update((member, tuple(sorted(_unwrap(member, 2, frames)))) for member in ee)
    return labels


def _graph(
    labels: dict[PointedModel, tuple[str, ...]],
    vv: Iterable[PointedModel],
    ee: Iterable[PointedModel],
) -> Graph:
    """The conflict graph of members whose ``labels`` are already known."""
    vertices = frozenset(labels[member][0] for member in vv)
    edges = frozenset(labels[member] for member in ee if vertices.issuperset(labels[member]))
    return Graph(vertices, edges)


def graph_of(vv: Iterable[PointedModel], ee: Iterable[PointedModel]) -> Graph:
    """The graph whose vertices unwrap the singleton joins and whose edges are
    the pairs (restricted to those vertices) present in the pair joins."""
    vv, ee = frozenset(vv), frozenset(ee)
    return _graph(_labels(vv, ee), vv, ee)


MAX_COLORING_VERTICES = 16  # the n=3 conflict graph has 16 vertices; larger graphs are refused


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least k for which backtracking over the
    vertices in sorted order finds a proper k-coloring.

    Each vertex tries the colors used so far and then one new color, so
    colorings that only rename colors are never tried twice.
    """
    n = len(g.vertices)
    if n > MAX_COLORING_VERTICES:
        raise ValueError(f"graph has {n} vertices, over the cap of {MAX_COLORING_VERTICES}")
    index = {v: i for i, v in enumerate(sorted(g.vertices))}
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        i, j = sorted((index[u], index[v]))
        earlier[j].append(i)
    colors = [0] * n

    def colorable(v: int, used: int, k: int) -> bool:
        if v == n:
            return True
        taken = {colors[u] for u in earlier[v]}
        for c in range(min(used + 1, k)):
            if c not in taken:
                colors[v] = c
                if colorable(v + 1, max(used, c + 1), k):
                    return True
        return False

    k = 0
    while not colorable(0, 0, k):
        k += 1
    return k


def to_edge_list(g: Graph) -> str:
    """Edge-list text, one ``u v`` pair per line, for debugging."""
    return "\n".join(f"{u} {v}" for u, v in sorted(g.edges))


def _fits(k: int, chi: int) -> bool:
    # the guarantee needs k < log2(chi), i.e. 2**k < chi
    return (1 << k) < chi


class StrategyInvariantBroken(RuntimeError):
    """The coloring invariant failed; indicates a malformed position."""


def duplicator_coloring_strategy(pos: GamePosition) -> "_ColoringResponder":
    """Second-player play for positions of (singleton-family, pair-family)
    shape, valid whenever 2**k is below the chromatic number of the graph."""
    labels = _labels(pos.left, pos.right)
    chi = chromatic_number(_graph(labels, pos.left, pos.right))
    if chi < 2:
        raise ValueError(f"chromatic number {chi} is below 2; no guarantee applies")
    if not _fits(pos.k, chi):
        raise ValueError(f"budget k={pos.k} is not below log2({chi})")
    return _ColoringResponder(pos, labels)


@dataclass
class _ColoringResponder:
    """Branch choices that keep the chromatic bound invariant; successor moves
    hand off to a pinned-pair responder on a duplicated model.  ``labels``
    holds every member's unwrapped elements, computed once for the root;
    ``_pinned`` is computed once per responder, on its first hand-off."""

    position: GamePosition
    labels: dict[PointedModel, tuple[str, ...]]

    def respond(self, move: Move) -> tuple[str | None, object]:
        pos, kind = self.position, _move_kind(move)
        if kind is LeftSplit or kind is RightSplit:
            for name in ("left", "right"):
                nxt = apply_move(pos, move, name)
                if not nxt.left:
                    continue
                chi = chromatic_number(_graph(self.labels, nxt.left, nxt.right))
                if _fits(nxt.k, chi):
                    return name, _ColoringResponder(nxt, self.labels)
            raise StrategyInvariantBroken("no split branch preserves the coloring bound")
        if kind is None:
            raise IllegalMoveError(f"not a move: {move!r}")
        return None, self._hand_off(move)

    @cached_property
    def _pinned(self) -> tuple[str, dict[str, PointedModel], PointedModel]:
        """The least edge's first vertex, the vertex members by element and the
        least edge's pair member: the same for every successor move."""
        pos, labels = self.position, self.labels
        a, b = min(_graph(labels, pos.left, pos.right).edges)
        by_vertex = {labels[member][0]: member for member in pos.left}
        by_pair = {labels[member]: member for member in pos.right}
        return a, by_vertex, by_pair[(a, b)]

    def _hand_off(self, move: LeftSucc | RightSucc) -> _BisimResponder:
        """The pinned-pair responder after a successor move.  The pair is
        checked once, as ``n_bisimilar`` and then ``duplicator_bisim_strategy``
        check it, and with their errors: signatures, equal depth-m classes,
        then membership."""
        a, by_vertex, pair_member = self._pinned
        kind = _move_kind(move)
        nxt = _advance(self.position, kind, move)
        if kind is LeftSucc:
            pin_left = move.choice[by_vertex[a]]
            pin_right = PointedModel(pair_member.model, a)
        else:
            pin_right = move.choice[pair_member]
            c = pin_right.point
            pin_left = PointedModel(by_vertex[c].model, c)
        _check_signatures(pin_left, pin_right)
        if bounded_type(pin_left, nxt.m) != bounded_type(pin_right, nxt.m):
            raise StrategyInvariantBroken("duplicated model is not deeply equivalent")
        _check_pins(nxt, pin_left, pin_right)
        return _BisimResponder(nxt, pin_left, pin_right)
