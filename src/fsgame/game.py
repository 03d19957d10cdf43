"""The two-player budget game on pairs of model sets.

A position carries a modal budget m, a connective budget k, and two sets of
pointed models.  The first player claims the sets can be separated by a
formula with at most m modal operators and k binary connectives and moves by
splitting one side (a connective) or advancing both sides along the
accessibility relation (a modal operator); the second player picks a branch
after every split.  The solver is exact and memoized on depth-m behavior
classes, so its verdicts depend only on what formulas within budget can see.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import kripke
from .bisim import TYPES, BisimWitness, _layers, bounded_type, truncate_type
from .kripke import PointedModel, canonical_key, diamond_all, ordered_successors, successors
from .logic import ml
from .logic.ml import BOT, TOP, Bot, MLFormula, NegProp, Prop, Top, extent, ml_sizes, separates
from .logic.ml import eval_ml  # noqa: F401  (kept importable here: a benchmark probe site)

DEFAULT_NODE_LIMIT = 10_000_000
"""A node is a search state or a kept table vector; ``_Solver`` states what a
vector costs, and so the memory this default bounds."""


class SearchBudgetExceeded(RuntimeError):
    """The solver ran out of its node budget; this is not a verdict.

    ``nodes`` counts the search states explored plus the truth vectors the
    solver's table kept, the two kinds of work the budget bounds.  The table
    keeps each vector with its complement and checks the limit after each
    such pair, so ``nodes`` passes the limit by one or two: an n=21 chain
    against a loop in ``minimal_separating`` with ``node_limit=10_000`` stops
    at 10,001.  ``_Solver`` states the work the budget leaves uncharged and
    the memory it bounds."""

    def __init__(self, nodes: int) -> None:
        super().__init__(
            f"search budget exceeded after {nodes} nodes (search states plus table vectors)"
        )
        self.nodes = nodes


class SearchTooDeep(RecursionError):
    """The search nested deeper than Python's recursion limit; this is not a
    verdict.

    The solver takes two frames per modal step, and class sort keys nest as
    deep as the classes, so long chains of worlds can pass the limit.  ``m``
    is the modal budget of the query that nested too deep.  A
    ``RecursionError``, so callers that refuse over-deep inputs catch it too."""

    def __init__(self, m: int) -> None:
        super().__init__(
            f"search nests deeper than the recursion limit ({sys.getrecursionlimit()})"
            f" at modal budget {m}"
        )
        self.m = m


class IllegalMoveError(ValueError):
    pass


class StrategyError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class GamePosition:
    """A game position.  Sides given as any iterable are kept as frozensets.

    A position keeps the literal list of its signature once something asks
    for it (``_position_literals``), so a ``solve`` makes it once for its root
    decision and its solver; a responder's successor move keeps the successor
    union of the side it leaves alone (``_advance``)."""

    m: int
    k: int
    left: frozenset[PointedModel]
    right: frozenset[PointedModel]

    def __init__(
        self, m: int, k: int, left: Iterable[PointedModel], right: Iterable[PointedModel]
    ) -> None:
        # one plain __init__, as a search builds many positions: the frozen
        # dataclass one and its __post_init__ cost more per position.  Each
        # field is written once; writing through ``self.__dict__`` would be
        # quicker still, but it gives every position a dict of its own, twice
        # the memory
        if type(m) is not int or type(k) is not int:
            raise ValueError(f"budgets must be integers, got m={m!r}, k={k!r}")
        if m < 0 or k < 0:
            raise ValueError("budgets must be non-negative")
        if type(left) is not frozenset:
            left = frozenset(left)
        if type(right) is not frozenset:
            right = frozenset(right)
        _setattr(self, "m", m)
        _setattr(self, "k", k)
        _setattr(self, "left", left)
        _setattr(self, "right", right)


_setattr = object.__setattr__


def position_signature(pos: GamePosition) -> frozenset[str]:
    """The common proposition signature of all member models.

    Mixed signatures are rejected: a literal over one member's signature
    would be unevaluable on another.  A member that is not a
    ``PointedModel`` raises ``TypeError``.
    """
    try:
        sigs = {p.model.prop_set for p in pos.left | pos.right}
    except AttributeError:
        for side in (pos.left, pos.right):
            for p in side:
                if not isinstance(p, PointedModel):
                    raise TypeError(f"position member {p!r} is not a PointedModel") from None
        raise
    if len(sigs) > 1:
        raise ValueError(f"position mixes signatures: {sorted(sorted(s) for s in sigs)}")
    return next(iter(sigs), frozenset())


@dataclass
class LeftSplit:
    m1: int
    k1: int
    left1: frozenset[PointedModel]
    m2: int
    k2: int
    left2: frozenset[PointedModel]


@dataclass
class RightSplit:
    m1: int
    k1: int
    right1: frozenset[PointedModel]
    m2: int
    k2: int
    right2: frozenset[PointedModel]


@dataclass
class LeftSucc:
    choice: Mapping[PointedModel, PointedModel]


@dataclass
class RightSucc:
    choice: Mapping[PointedModel, PointedModel]


Move = LeftSplit | RightSplit | LeftSucc | RightSucc


@dataclass(frozen=True)
class SWin:
    literal: MLFormula


@dataclass(frozen=True)
class DWin:
    pass


@dataclass(frozen=True)
class Ongoing:
    pass


D_WIN = DWin()
ONGOING = Ongoing()


def _literals(signature: Iterable[str]) -> list[MLFormula]:
    # BOT first: when both sides are empty every literal separates vacuously
    # and the tie is broken in favor of BOT.
    out: list[MLFormula] = [BOT, TOP]
    for p in sorted(set(signature)):
        out.append(Prop(p))
        out.append(NegProp(p))
    return out


def _position_literals(pos: GamePosition) -> list[MLFormula]:
    """``_literals`` of the position's signature, made on the first call and
    kept on the position; checks the signature like ``position_signature``."""
    literals = pos.__dict__.get("_literals")
    if literals is None:
        literals = _literals(position_signature(pos))
        object.__setattr__(pos, "_literals", literals)
    return literals


def _literal_separates(lit: MLFormula, pos: GamePosition) -> bool:
    """``separates`` for a literal of ``_literals``, read off the members'
    valuations.

    Members are read in the order of ``separates``, the left side first, so
    the first member whose model lacks the proposition is the one where
    ``separates`` raises; here it raises ``KeyError``."""
    kind = type(lit)
    if kind is Bot:
        return not pos.left
    if kind is Top:
        return not pos.right
    # p holds on the left and fails on the right; ~p the other way round
    name = lit.name
    on_left = kind is Prop
    for p in pos.left:
        if (p.point in p.model.valuation[name]) != on_left:
            return False
    for q in pos.right:
        if (q.point in q.model.valuation[name]) == on_left:
            return False
    return True


def terminal_status(pos: GamePosition) -> SWin | DWin | Ongoing:
    """S wins if a literal separates; D wins at exhausted budgets or stuck positions.

    ``solve`` decides its root with this rule before it builds a solver."""
    return _terminal(pos, _position_literals(pos))


def _terminal(pos: GamePosition, literals: list[MLFormula]) -> SWin | DWin | Ongoing:
    """``terminal_status`` with the position's literal list already made."""
    for lit in literals:
        if _literal_separates(lit, pos):
            return SWin(lit)
    if pos.m == 0 and pos.k == 0:
        return D_WIN
    if not _has_legal_move(pos):
        return D_WIN
    return ONGOING


def _side_can_advance(side: frozenset[PointedModel]) -> bool:
    for p in side:
        if not p.model._succ[p.point]:
            return False
    return True


def _has_legal_move(pos: GamePosition) -> bool:
    if pos.k >= 1:
        return True
    if pos.m >= 1 and (_side_can_advance(pos.left) or _side_can_advance(pos.right)):
        return True
    return False


def _sorted_members(side: frozenset[PointedModel]) -> list[PointedModel]:
    return sorted(side, key=canonical_key)


def legal_moves(pos: GamePosition) -> list[Move]:
    """Every legal move: partition splits when k >= 1, all successor-choice
    functions on a side whose members all have successors when m >= 1."""
    return list(_moves(pos))


def _moves(pos: GamePosition) -> Iterator[Move]:
    """The moves of ``legal_moves``, in its order, made one at a time."""
    m, k = pos.m, pos.k
    if k >= 1:
        budgets = [(m1, k1, m - m1, k - 1 - k1) for k1 in range(k) for m1 in range(m + 1)]
        for split, side in ((LeftSplit, pos.left), (RightSplit, pos.right)):
            # parts[mask] holds the members whose bits are set in mask, so
            # parts[full ^ mask] holds the rest of the side
            parts = [frozenset()]
            for p in _sorted_members(side):
                parts += [part | {p} for part in parts]
            full = len(parts) - 1
            for mask, part1 in enumerate(parts):
                part2 = parts[full ^ mask]
                for m1, k1, m2, k2 in budgets:
                    yield split(m1, k1, part1, m2, k2, part2)
    if m >= 1:
        for succ, side in ((LeftSucc, pos.left), (RightSucc, pos.right)):
            if not _side_can_advance(side):
                continue
            members = _sorted_members(side)
            for combo in itertools.product(*map(ordered_successors, members)):
                yield succ(dict(zip(members, combo)))


def _check_split(pos: GamePosition, move: LeftSplit | RightSplit, is_left: bool) -> None:
    if is_left:
        side, part1, part2 = pos.left, move.left1, move.left2
    else:
        side, part1, part2 = pos.right, move.right1, move.right2
    if pos.k < 1:
        raise IllegalMoveError("splitting requires a connective budget of at least 1")
    if move.m1 + move.m2 != pos.m or move.k1 + move.k2 + 1 != pos.k:
        raise IllegalMoveError("split budgets do not add up")
    if min(move.m1, move.m2, move.k1, move.k2) < 0:
        raise IllegalMoveError("split budgets must be non-negative")
    # disjoint parts whose sizes add up cover the side without a union built
    if not (part1 <= side and part2 <= side) or (
        not (len(part1) + len(part2) == len(side) and part1.isdisjoint(part2))
        and part1 | part2 != side
    ):
        raise IllegalMoveError("split sets must be subsets covering the split side")


def _check_succ(pos: GamePosition, move: LeftSucc | RightSucc, is_left: bool) -> None:
    side = pos.left if is_left else pos.right
    if pos.m < 1:
        raise IllegalMoveError("successor moves require a modal budget of at least 1")
    if move.choice.keys() != side:
        raise IllegalMoveError("choice function must be total on the advanced side")
    for p, target in move.choice.items():
        if target not in successors(p):
            raise IllegalMoveError(f"choice maps {p!r} outside its successor set")


_MOVES = (LeftSplit, RightSplit, LeftSucc, RightSucc)


def _move_kind(move: object) -> type | None:
    """The move type ``move`` moves as: its own type, or for a subclass the
    first of the four types it is an instance of; None for a non-move."""
    kind = type(move)
    if kind in _MOVES:
        return kind
    return next((t for t in _MOVES if isinstance(move, t)), None)


def apply_move(pos: GamePosition, move: Move, d_choice: str | None = None) -> GamePosition:
    """The position after S's move (and D's branch choice, for splits)."""
    kind = type(move)
    if kind not in _MOVES:
        kind = _move_kind(move)
    if kind is LeftSplit or kind is RightSplit:
        _check_split(pos, move, kind is LeftSplit)
        if d_choice not in ("left", "right"):
            raise IllegalMoveError('split moves need a branch choice of "left" or "right"')
    elif kind is LeftSucc or kind is RightSucc:
        _check_succ(pos, move, kind is LeftSucc)
        if d_choice is not None:
            raise IllegalMoveError("successor moves take no branch choice")
    else:
        raise IllegalMoveError(f"not a move: {move!r}")
    return _next_position(pos, kind, move, d_choice)


def _next_position(
    pos: GamePosition, kind: type, move: Move, d_choice: str | None, rest: frozenset | None = None
) -> GamePosition:
    """The position after a legal move of type ``kind`` and D's branch choice;
    ``rest``, when given, is the successor union of the side a successor move
    leaves alone."""
    if kind is LeftSplit:
        if d_choice == "left":
            return GamePosition(move.m1, move.k1, move.left1, pos.right)
        return GamePosition(move.m2, move.k2, move.left2, pos.right)
    if kind is RightSplit:
        if d_choice == "left":
            return GamePosition(move.m1, move.k1, pos.left, move.right1)
        return GamePosition(move.m2, move.k2, pos.left, move.right2)
    # a legal choice is total on its side, so its values are the image
    image = frozenset(move.choice.values())
    if rest is None:
        rest = diamond_all(pos.right if kind is LeftSucc else pos.left)
    if kind is LeftSucc:
        return GamePosition(pos.m - 1, pos.k, image, rest)
    return GamePosition(pos.m - 1, pos.k, rest, image)


def _advance(pos: GamePosition, kind: type, move: LeftSucc | RightSucc) -> GamePosition:
    """``apply_move`` of a successor move of type ``kind``, for the
    responders, which answer every move at a position: the successor union of
    the side the move leaves alone is kept on the position, so a playout
    builds it once per position rather than once per move."""
    _check_succ(pos, move, kind is LeftSucc)
    kept, name = pos.__dict__, "_right_union" if kind is LeftSucc else "_left_union"
    rest = kept.get(name)
    if rest is None:
        rest = kept[name] = diamond_all(pos.right if kind is LeftSucc else pos.left)
    return _next_position(pos, kind, move, None, rest)


_MISS = object()


class _Solver:
    """Exhaustive memoized search over behavior-class positions.

    A solver is built for one position and answers it at any modal budget up
    to ``pos.m``; ``root(m)`` gives its two sides at budget m.  A side is an
    int bitmask over ``self.types``, the class universe of the solver: every
    depth-d class (``bisim._layers``, d <= pos.m) of every world of the
    members' models, ordered by their ``TYPES._keys``.  Bit i stands for
    ``self.types[i]``, so reading a mask from its low bit up visits its
    classes in sort order.  Positions whose members are pairwise depth-m
    equivalent set the same bit and share memo entries, and successor choices
    range over equivalence classes of successors rather than raw successors.

    Contract: the sides passed to ``win`` at modal budget m are masks of
    depth-m classes (``truncate_type(t, m) == t`` for every member), and the
    callers cut them.  ``bounded_type(p, m)`` and the children of depth-m
    classes already are such classes; only a split lowers the budget of a
    branch, so ``_split_formula`` is the one place that truncates.  The universe
    holds the children and the cuts of each of its classes.

    With a table the solver also keeps the truth vectors over its universe of
    the formulas within each budget, built on demand, and answers a memo miss
    None before trying any move when none of them separates the two sides
    (``_separable``).  It reads each split off the same vectors: the first
    partition S wins, in the order the table-less walk tries them, comes from
    the vectors that fit each part (``_first_winning_part``), and only that
    partition is searched.  Both cut only subtrees D wins, so the formulas
    found stay the same.  Every layer is closed under complement, as the
    budget counts no negation, so a layer is built from <> and & alone and
    each new vector is kept with its complement (``_new_vectors``).  It forms
    no candidate known to be reached below: <> once per projection onto the
    classes with a parent, no row of 0 or of the full mask, and each
    unordered pair of vectors once (``_operand_pairs`` yields each pair of
    layers once).  ``<>`` of a vector ORs one precomputed entry per byte of
    it (``_byte_tables``), and a pair of sides never scans a layer twice
    without a separator.

    Cost.  Each vector the table keeps is charged as one node, so
    ``node_limit`` bounds the table too and ``nodes`` counts search states
    plus table vectors, but for the ceiling layer m + k = pos.m + pos.k,
    which only root queries reach: it is decided without being kept or
    charged, by at most twice the product work of building it, over layers
    already charged (``_ceiling_holds``).  A kept vector costs its key, its
    dict slot and its place in its layer, and the key is an int as wide as
    the universe, so a node's memory grows with the class count: the peak
    RSS grew by 109 bytes per node at 23 classes and by 166 at 401 (a chain
    against a loop stopped at 10^6 nodes, Python 3.11).  The 10^7 nodes of
    ``DEFAULT_NODE_LIMIT`` thus bound a table at about 1.1 GB at 23 classes
    and 1.7 GB at 401.

    ``table=None`` builds the table when the root would split more ways than
    the universe has classes: k >= 1 and 2^(a-1) + 2^(b-1) > |universe|, for
    a and b distinct depth-m classes on the root's two sides.  Below that a
    small solve pays more for the table than it saves.  ``minimal_separating``,
    which asks one solver a whole budget grid, always builds it.  ``root``
    passes the root's depth-pos.m classes where the caller typed them.
    """

    def __init__(
        self, pos: GamePosition, node_limit: int | None, *, table: bool | None = None,
        root: tuple[Iterable[int], Iterable[int]] | None = None,
    ) -> None:
        self.node_limit = _node_limit(node_limit)
        self.pos = pos
        self.memo: dict[tuple[int, int, int, int], MLFormula | None] = {}
        self._roots: dict[int, tuple[int, int]] = {}  # m -> the masks ``root(m)`` gives
        self.nodes = 0
        literals = _position_literals(pos)
        m = pos.m
        ids: set[int] = set()
        for model in {p.model for p in pos.left | pos.right}:
            layers = _layers(model, m)
            for d in range(m + 1):
                # past its fixpoint a model's layers are one shared dict
                if not d or layers[d] is not layers[d - 1]:
                    ids.update(layers[d].values())
        # the type table's lists are read directly: this runs once per solve
        self.types = sorted(ids, key=TYPES._keys.__getitem__)
        self.bit = {t: 1 << i for i, t in enumerate(self.types)}
        if root is not None:
            self._roots[m] = (self.encode(root[0]), self.encode(root[1]))
        size = len(self.types)
        full = (1 << size) - 1
        descs = TYPES._descs
        holds: dict[str, int] = {}  # proposition -> the classes where it holds
        leaves = 0  # classes without successors
        for t, b in self.bit.items():
            props, children = descs[t]
            for p in props:
                holds[p] = holds.get(p, 0) | b
            if not children:
                leaves |= b
        self.leaves = leaves
        # each literal with the classes where it is true and where it is false
        self.literals = []
        for lit in literals:
            kind = type(lit)
            if kind is Bot:
                truth = 0
            elif kind is Top:
                truth = full
            elif kind is Prop:
                truth = holds.get(lit.name, 0)
            else:
                truth = full ^ holds.get(lit.name, 0)
            self.literals.append((lit, truth, full ^ truth))
        # per-bit child bits and cut bits, and per-mask images, unions and cuts
        self._children: list[list[int] | None] = [None] * size
        self._cut_rows: list[list[int] | None] = [None] * size
        self._images: dict[int, list[int]] = {}
        self._unions: dict[int, int] = {}
        self._cuts: dict[tuple[int, int], list[int]] = {}
        if table is None:
            left, right = self.root(pos.m)
            table = pos.k >= 1 and _splits(left.bit_count(), right.bit_count()) > size
        # the truth-vector table: budget -> the vectors first reached there,
        # vector -> its minimal budgets as one flat tuple (m1, k1, m2, k2, ..),
        # a pair of sides -> how many layers of each connective budget were
        # scanned without a separator, and the byte tables of ``_diamond``.
        # A vector's first budget is the (m, k) tuple its layer shares, and a
        # second is rare (16 of 920 on the n=2 frontier)
        self._table: dict[tuple[int, int], list[int]] | None = None
        if table:
            self._table = {}
            self._full = full
            self._ceiling = pos.m + pos.k  # the largest m + k a query asks
            self._reached: dict[int, tuple[int, ...]] = {}
            self._scanned: dict[tuple[int, int], list[int]] = {}
            self._parent_bytes = self._byte_tables()
            self._kids = self._union_children(full)  # the classes with a parent

    def root(self, m: int) -> tuple[int, int]:
        """The masks of the depth-m classes of the position's two sides, typed
        once for each m."""
        masks = self._roots.get(m)
        if masks is None:
            masks = self._roots[m] = tuple(
                self.encode(bounded_type(p, m) for p in side) for side in (self.pos.left, self.pos.right)
            )
        return masks

    def encode(self, types: Iterable[int]) -> int:
        """The mask of a set of classes; a class repeated sets one bit."""
        return sum(self.bit[t] for t in set(types))

    def win(self, m: int, k: int, left: int, right: int) -> MLFormula | None:
        """A separating formula within (m, k), or None.

        Both sides must already be masks of depth-m classes; they are the
        memo key as given, so a caller that skips the cut misses the memo.
        """
        key = (m, k, left, right)
        hit = self.memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise SearchBudgetExceeded(self.nodes)
        result = self._search(m, k, left, right)
        self.memo[key] = result
        return result

    def _search(self, m: int, k: int, A: int, B: int) -> MLFormula | None:
        # ``solve`` decides its root before it builds a solver, by the rules
        # of ``terminal_status`` (the literals, m = k = 0, and no legal move,
        # which here finds no move) and by the shared-class test below
        for lit, truth, falsity in self.literals:
            if not (A & falsity or B & truth):
                return lit
        if A & B:
            # a shared depth-m class defeats every formula within the budget
            return None
        if m == 0 and k == 0:
            return None
        if self._table is not None and not self._separable(m, k, A, B):
            return None
        if m >= 1:
            if not A & self.leaves:
                b_all = self._union_children(B)
                for image in self._images_of(A):
                    sub = self.win(m - 1, k, image, b_all)
                    if sub is not None:
                        return ml.Diamond(sub)
            if not B & self.leaves:
                a_all = self._union_children(A)
                for image in self._images_of(B):
                    sub = self.win(m - 1, k, a_all, image)
                    if sub is not None:
                        return ml.Box(sub)
        if k >= 1:
            found = self._try_splits(m, k, A, B, split_left=True)
            if found is not None:
                return found
            found = self._try_splits(m, k, A, B, split_left=False)
            if found is not None:
                return found
        return None

    def _try_splits(self, m: int, k: int, A: int, B: int, *, split_left: bool) -> MLFormula | None:
        # the first partition of the split side, in ``_anchored_partitions``
        # order, whose two parts S wins at some split of the budget: read off
        # the table when the solver keeps one, else found by walking them all.
        # The walk is lazy: each partition costs its ``win`` calls before the
        # next is made, so the node budget stops a side of many classes
        side, other = (A, B) if split_left else (B, A)
        if self._table is None:
            partitions = _iter_partitions(side)
        else:
            part1 = self._first_winning_part(m, k, side, other)
            partitions = [] if part1 is None else [(part1, side ^ part1)]
        others = self._cut(other, m)
        for part1, part2 in partitions:
            found = self._split_formula(m, k, part1, part2, others, split_left)
            if found is not None:
                return found
        return None

    def _split_formula(
        self, m: int, k: int, part1: int, part2: int, others: list[int], split_left: bool
    ) -> MLFormula | None:
        """The formula of the first budget split, k1-outer and m1-inner, at
        which S wins both parts of one partition of a side, or None.

        A branch with modal budget d sees only depth-d classes, so it gets the
        cut at d of each set (``others`` is that of the side not split).  The
        memo is probed here, and ``win`` is called only on a miss."""
        memo = self.memo
        parts1 = self._cut(part1, m)
        parts2 = None  # cut only once a first branch wins
        for k1 in range(k):
            k2 = k - 1 - k1
            for m1 in range(m + 1):
                if split_left:
                    key = (m1, k1, parts1[m1], others[m1])
                else:
                    key = (m1, k1, others[m1], parts1[m1])
                f1 = memo.get(key, _MISS)
                if f1 is _MISS:
                    f1 = self.win(*key)
                if f1 is None:
                    continue
                if parts2 is None:
                    parts2 = self._cut(part2, m)
                m2 = m - m1
                if split_left:
                    key = (m2, k2, parts2[m2], others[m2])
                else:
                    key = (m2, k2, others[m2], parts2[m2])
                f2 = memo.get(key, _MISS)
                if f2 is _MISS:
                    f2 = self.win(*key)
                if f2 is None:
                    continue
                return ml.Or(f1, f2) if split_left else ml.And(f1, f2)
        return None

    def _first_winning_part(self, m: int, k: int, side: int, other: int) -> int | None:
        """Part 1 of the first partition of ``side``, in ``_anchored_partitions``
        order, whose two parts S wins at some split (m1, k1) + (m2, k2) of
        (m, k); None when no partition wins.  Read off the table, with no
        search.

        An or-split part P wins (m1, k1) iff P is inside some vector v within
        (m1, k1) that misses ``other``; an and-split part wins iff it misses
        some v that holds all of ``other``, that is iff P is inside ~v, which
        misses ``other`` and lies in the same layers, as every layer is
        closed under complement.  So both kinds of split win the same parts.
        A formula of modal depth at most m1 has the same truth on a depth-m
        class as on its cut at m1, so the uncut masks answer for the cut
        ones.  The parts that win a budget are thus the subsets of its
        projections s = side & v.  A partition (anchor | sub, rest ^ sub)
        wins at a pair iff some s1 holding the anchor and some s2 cover the
        side together, and the least sub that s2 allows is rest & ~s2.  The layers within
        (m, k - 1) are built where missing, kk-outer and mm-inner.
        """
        anchor = side & -side
        rest = side ^ anchor
        # budget -> the projections of the vectors within it
        within: dict[tuple[int, int], set[int]] = {}
        for kk in range(k):
            for mm in range(m + 1):
                layer = self._layer(mm, kk)
                found = {side & v for v in layer if not v & other}
                if mm:
                    found |= within[mm - 1, kk]
                if kk:
                    found |= within[mm, kk - 1]
                within[mm, kk] = found
        best = None
        for (m1, k1), projections in within.items():
            for sub in sorted({rest & ~s2 for s2 in within[m - m1, k - 1 - k1]}):
                if best is not None and sub >= best:
                    break
                need = anchor | sub
                if any(s1 & need == need for s1 in projections):
                    best = sub
                    break
        return None if best is None else anchor | best

    def _separable(self, m: int, k: int, A: int, B: int) -> bool:
        """Whether some formula within (m, k) holds on every class of A and on
        no class of B.

        By the game theorem this is exactly whether S wins (m, k, A, B).  A
        formula's truth vector is the set of classes it holds on, read as
        trees whose childless classes are dead ends; that is its truth on the
        members wherever its modal depth is at most the depth of the class,
        and the sides at budget m are depth-m classes.

        The layers are scanned kk-outer, mm-inner, and missing ones are built
        in that order, where a scan reaches them.  A layer scanned once without
        a separator for these sides is not scanned again: each connective
        budget resumes at the first modal budget not yet scanned.  Layers
        below that point are built already, so the layers built, and when,
        are those of a full scan, but for the ceiling.  ``_first_winning_part``
        builds its layers through the same ``_layer``, in the same order.  A
        query at the ceiling, m + k = pos.m + pos.k, decides its own layer,
        the last it scans, with ``_ceiling_holds`` instead of building it.
        """
        scanned = self._scanned.get((A, B))
        if scanned is None:
            scanned = self._scanned[A, B] = []
        at_ceiling = m + k == self._ceiling
        for kk in range(k + 1):
            if kk == len(scanned):
                scanned.append(0)
            for mm in range(scanned[kk], m + 1):
                # every budget below (mm, kk) comes earlier in this order
                if at_ceiling and mm == m and kk == k:
                    if self._ceiling_holds(m, k, A, B):
                        return True
                else:
                    for v in self._layer(mm, kk):
                        if A & v == A and not v & B:
                            return True
                scanned[kk] = mm + 1
        return False

    def _ceiling_holds(self, m: int, k: int, A: int, B: int) -> bool:
        """Whether layer (m, k) would hold a v with A <= v and v & B == 0,
        tested on the candidates ``_new_vectors`` would make from the layers
        below, which must be built.  Those are <>v and v1 & v2 and their
        complements, and a complement separates A from B iff its candidate
        separates B from A, so ``_forms_separator`` asks both ways: in effect
        it tests [] and | as well as <> and &.  A candidate a smaller budget
        reaches separates there too, so after ``_separable`` scanned the
        layers below the answer is that of a scan of the built layer.
        ``_Solver`` states its cost."""
        if m == 0 and k == 0:
            return any(A & truth == A and not truth & B for _, truth, _ in self.literals)
        return self._forms_separator(m, k, A, B) or self._forms_separator(m, k, B, A)

    def _forms_separator(self, m: int, k: int, A: int, B: int) -> bool:
        """Whether some <>v or v1 & v2 that ``_new_vectors`` forms for layer
        (m, k) holds on all of A and misses B.  <>v misses B iff v misses B's
        children; v1 & v2 separates iff both hold A and their projections on
        B are disjoint."""
        if m >= 1:
            kids_b = self._union_children(B)
            for v in self._table[m - 1, k]:
                if not v & kids_b and self._diamond(v) & A == A:
                    return True
        for layer1, layer2 in self._operand_pairs(m, k):
            misses = {B & v for v in layer2 if A & v == A}
            for q1 in {B & v for v in layer1 if A & v == A}:
                if any(not q1 & q2 for q2 in misses):
                    return True
        return False

    def _operand_pairs(self, m: int, k: int) -> Iterator[tuple[list[int], list[int]]]:
        """The pairs of layers whose & and | make layer (m, k): budgets
        (m1, k1) + (m2, k2) = (m, k - 1), each unordered pair once, as & and
        | commute, so (m1, k1) <= (m2, k2): k1-outer and m1-inner, m1 up to
        m // 2, and at m1 = m2 only k1 <= k2.  A pair with an empty layer
        makes no vector, so it is left out."""
        table = self._table
        for k1 in range(k):
            k2 = k - 1 - k1
            for m1 in range(m // 2 + 1):
                m2 = m - m1
                if m1 == m2 and k1 > k2:
                    break
                layer1, layer2 = table[m1, k1], table[m2, k2]
                if layer1 and layer2:
                    yield layer1, layer2

    def _layer(self, m: int, k: int) -> list[int]:
        """Layer (m, k) of the table, built if missing after the layers below
        it: a query above the ceiling builds a ceiling layer it needs."""
        table = self._table
        layer = table.get((m, k))
        if layer is None:
            if m:
                self._layer(m - 1, k)
            if k:
                self._layer(m, k - 1)
            layer = table[m, k] = self._new_vectors(m, k)
        return layer

    def _new_vectors(self, m: int, k: int) -> list[int]:
        """The truth vectors of the formulas of size exactly (m, k) that no
        smaller budget reaches; every layer below (m, k) must be built.

        Each layer combines only the new vectors of the layers below it, and
        misses none: an operand that a smaller budget already reaches gives a
        vector that a budget smaller than (m, k) reaches too.  Negation is
        not counted, so the dual of a formula has its budget, and every layer
        is closed under complement (the literals come in pairs).  With v
        ranging over a closed layer, []v = ~<>~v and v1 | v2 = ~(~v1 & ~v2)
        are complements of candidates too, so only <>v and v1 & v2 are
        formed, and ``_keep`` keeps and charges each new one with its
        complement.  The ceiling layer is not built here but decided by
        ``_ceiling_holds``.

        No candidate is formed whose vector is known to be reached below:
        <>v depends only on v & kids, the classes that are someone's child,
        so <> is taken once per projection; a row whose v1 is 0 or ``full``
        (only layer (0, 0) holds them) gives 0 or v2, both reached at a
        smaller budget, so it is skipped; and a layer paired with itself
        pairs row i only with the rows after it, as & commutes and
        v1 & v1 = v1."""
        budget = (m, k)  # one tuple, shared by every vector this layer keeps
        new: list[int] = []
        table, full = self._table, self._full
        if m == 0 and k == 0:
            self._keep(budget, {truth for _, truth, _ in self.literals}, new)
        if m >= 1:
            kids = self._kids
            self._keep(budget, set(map(self._diamond, {v & kids for v in table[m - 1, k]})), new)
        for layer1, layer2 in self._operand_pairs(m, k):
            mirrored = layer1 is layer2
            for i, v1 in enumerate(layer1):
                if v1 == 0 or v1 == full:
                    continue
                row = layer2[i + 1 :] if mirrored else layer2
                self._keep(budget, {v1 & v2 for v2 in row}, new)
        return new

    def _keep(self, budget: tuple[int, int], found: set[int], new: list[int]) -> None:
        """Append to ``new`` the candidates of layer ``budget`` = (m, k) that
        no budget up to (m, k) reaches yet, each followed by its complement,
        charging one node for each and checking the limit after each pair.
        A candidate and its complement have the same minimal budgets, so both
        map to one tuple of them.  A candidate met earlier in this layer is
        refused here too: it was kept, and (m, k) now reaches it, or a
        smaller budget reached it then.  Only in an empty universe is a
        vector its own complement; it is kept once."""
        reached = self._reached
        full = self._full
        m, k = budget
        start = self.nodes - len(new)  # the nodes charged before this layer
        room = self.node_limit - start
        for v in found:
            budgets = reached.get(v)
            if budgets is None:
                budgets = budget
            # any() only for the rare vector whose first budget is not within (m, k)
            elif (budgets[0] <= m and budgets[1] <= k) or any(
                budgets[i] <= m and budgets[i + 1] <= k for i in range(2, len(budgets), 2)
            ):
                continue
            else:
                budgets += budget
            dual = full ^ v
            reached[v] = reached[dual] = budgets
            new.append(v)
            if dual != v:
                new.append(dual)
            if len(new) > room:
                self.nodes = start + len(new)
                raise SearchBudgetExceeded(self.nodes)
        self.nodes = start + len(new)

    def _diamond(self, v: int) -> int:
        """The classes with a child in v: one lookup per byte of v."""
        out = 0
        for parents, byte in zip(self._parent_bytes, v.to_bytes(len(self._parent_bytes), "little")):
            out |= parents[byte]
        return out

    def _byte_tables(self) -> list[list[int]]:
        """For each 8-class chunk of the universe, the mask of the classes
        with a child among the chunk's set bits, for each of its 256 values.
        A chunk's list doubles once per class: the entries with that class's
        bit are those without it, each ORed with the class's parents."""
        size = len(self.types)
        parents = [0] * size  # per class, the classes it is a child of
        for i in range(size):
            for kid in self._child_bits(i):
                parents[kid.bit_length() - 1] |= 1 << i
        tables = []
        for base in range(0, size, 8):
            entries = [0]
            for up in parents[base : base + 8]:
                entries += [e | up for e in entries]
            tables.append(entries)
        return tables

    def _child_bits(self, i: int) -> list[int]:
        kids = self._children[i]
        if kids is None:
            kids = self._children[i] = sorted(self.bit[c] for c in TYPES.children(self.types[i]))
        return kids

    def _union_children(self, side: int) -> int:
        union = self._unions.get(side)
        if union is None:
            union = 0
            for i in _bits(side):
                for kid in self._child_bits(i):
                    union |= kid
            self._unions[side] = union
        return union

    def _images_of(self, side: int) -> list[int]:
        images = self._images.get(side)
        if images is None:
            images = _choice_images([self._child_bits(i) for i in _bits(side)])
            self._images[side] = images
        return images

    def _cut(self, mask: int, m: int) -> list[int]:
        """The mask seen by a branch of modal budget d, for d = 0..m: its cut
        at each d < m, then the mask itself."""
        key = (mask, m)
        cuts = self._cuts.get(key)
        if cuts is None:
            cuts = [0] * m
            for i in _bits(mask):
                row = self._cut_row(i)
                for d in range(m):
                    cuts[d] |= row[d]
            cuts.append(mask)
            self._cuts[key] = cuts
        return cuts

    def _cut_row(self, i: int) -> list[int]:
        """The bit of the cut of class i at each depth d < pos.m."""
        row = self._cut_rows[i]
        if row is None:
            t, bit = self.types[i], self.bit
            row = self._cut_rows[i] = [bit[truncate_type(t, d)] for d in range(self.pos.m)]
        return row


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _splits(a: int, b: int) -> int:
    """How many ways a split can cut two sides of a and b classes:
    2^(a-1) + 2^(b-1), where an empty side adds none."""
    return ((1 << a) >> 1) + ((1 << b) >> 1)


def _choice_images(options: list[list[int]]) -> list[int]:
    """Every distinct successor image of a side, given each member's child
    bits in order: one child per member, in the order of their product."""
    images = [0]
    for kids in options:
        # a repeated prefix would only repeat images that come earlier
        images = list(dict.fromkeys(image | kid for image in images for kid in kids))
    return images


def _iter_partitions(side: int) -> Iterator[tuple[int, int]]:
    """Every unordered partition of a side once: its lowest bit is pinned to
    part 1, and the submasks of the rest follow in increasing order."""
    anchor = side & -side
    rest = side ^ anchor
    sub = 0
    while True:
        part1 = anchor | sub
        yield part1, side ^ part1
        if sub == rest:
            return
        sub = (sub - rest) & rest


def _anchored_partitions(side: int) -> list[tuple[int, int]]:
    """``_iter_partitions`` as a list: the order the split walk follows."""
    return list(_iter_partitions(side))


@dataclass(frozen=True)
class SpoilerWins:
    strategy: "SpoilerStrategy"
    formula: MLFormula
    nodes: int


@dataclass(frozen=True)
class DuplicatorWins:
    nodes: int


Verdict = SpoilerWins | DuplicatorWins


def _budget(value: int, name: str) -> int:
    """A budget as given.  Anything but a non-negative integer is an input
    error whose message names ``name``, the caller's parameter or flag."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def _node_limit(node_limit: int | None, name: str = "node_limit") -> int:
    """The limit to use, ``DEFAULT_NODE_LIMIT`` for None, else checked as a
    budget by ``_budget``."""
    return DEFAULT_NODE_LIMIT if node_limit is None else _budget(node_limit, name)


def solve(pos: GamePosition, *, node_limit: int | None = None) -> Verdict:
    """Exact verdict by exhaustive memoized search.

    The root is node 1 and is decided first without a solver: by
    ``terminal_status`` (a separating literal, exhausted budgets, no legal
    move), then by a depth-m class shared by the two sides, the test the
    search applies to every position.  Only a root that needs a move pays for
    the class universe of a ``_Solver``.  That solver keeps the truth-vector
    table when the root would split more ways than the universe has classes
    (``_Solver``'s rule); the table answers every subtree D wins without a
    search, and the verdict's ``nodes`` then counts the table's vectors too.
    The root's own layer (m, k) is decided, not built; ``_Solver`` states
    what that costs.

    Raises ``SearchBudgetExceeded`` (never a verdict) when the node ceiling is
    hit; it bounds search states and table vectors together.  Raises
    ``SearchTooDeep``, a ``RecursionError``, when typing the root or the
    search nests past the recursion limit.  A negative ``node_limit`` is an
    input error (``ValueError``).
    """
    if _node_limit(node_limit) == 0:
        position_signature(pos)  # a mixed signature is an input error first
        raise SearchBudgetExceeded(1)
    status = _terminal(pos, _position_literals(pos))
    if isinstance(status, SWin):
        leaf = SpoilerStrategy(pos, None, status.literal, ())
        return SpoilerWins(strategy=leaf, formula=status.literal, nodes=1)
    if isinstance(status, DWin):
        return DuplicatorWins(nodes=1)
    try:
        left = {bounded_type(p, pos.m) for p in pos.left}
        right = {bounded_type(q, pos.m) for q in pos.right}
        if not left.isdisjoint(right):
            # a shared depth-m class defeats every formula within the budget
            return DuplicatorWins(nodes=1)
        solver = _Solver(pos, node_limit, root=(left, right))
        formula = solver.win(pos.m, pos.k, *solver.root(pos.m))
        if formula is None:
            return DuplicatorWins(nodes=solver.nodes)
        strategy = _strategy_for(formula, pos)
    except RecursionError:
        raise SearchTooDeep(pos.m) from None
    return SpoilerWins(strategy=strategy, formula=formula, nodes=solver.nodes)


@dataclass
class SpoilerStrategy:
    """Certificate tree for a first-player win.

    Leaves carry the separating literal.  Split nodes carry two children, one
    per branch the second player may pick; successor nodes carry one child.
    """

    position: GamePosition
    move: Move | None
    literal: MLFormula | None
    children: tuple["SpoilerStrategy", ...]


def strategy_from_formula(
    f: MLFormula, a: Iterable[PointedModel], b: Iterable[PointedModel]
) -> SpoilerStrategy:
    """Turn a separating formula into a winning strategy for the position
    whose budgets are exactly the formula's sizes."""
    a, b = frozenset(a), frozenset(b)
    sizes = ml_sizes(f)
    return _strategy_for(f, GamePosition(sizes.ms, sizes.cs, a, b))


def _strategy_for(f: MLFormula, pos: GamePosition) -> SpoilerStrategy:
    # Each subformula is evaluated once per model, as the set of worlds where
    # it holds (the separation check fills the memo); splits and successor
    # choices then test membership.
    extents: dict = {}
    if not ml._separates(f, pos.left, pos.right, extents):
        raise ValueError(f"formula {f} does not separate the given sets")
    return _build_strategy(f, pos, extents)


def _build_strategy(f: MLFormula, pos: GamePosition, extents: dict) -> SpoilerStrategy:
    """The strategy of a formula that separates ``pos``, with the extents memo
    of ``ml.extent``.  A plain recursion: a nested builder that called itself
    would tie a reference cycle that keeps the memo alive until the cyclic
    collector runs.

    Every child separates by construction: a split part keeps the members
    where its disjunct holds (or its conjunct fails), and a successor choice
    picks successors where the child formula holds (or fails).  The moves are
    legal by construction too, so the children are made without the checks
    of ``apply_move``; ``verify_strategy`` replays them with the checks."""
    if isinstance(f, (ml.Top, ml.Bot, Prop, NegProp)):
        return SpoilerStrategy(pos, None, f, ())
    if isinstance(f, (ml.Or, ml.And)):
        is_or = isinstance(f, ml.Or)
        side = pos.left if is_or else pos.right
        part1 = frozenset(p for p in side if _holds(f.left, p, extents) == is_or)
        part2 = frozenset(p for p in side if _holds(f.right, p, extents) == is_or)
        sz = ml_sizes(f.left)
        split = LeftSplit if is_or else RightSplit
        move = split(sz.ms, sz.cs, part1, pos.m - sz.ms, pos.k - 1 - sz.cs, part2)
        children = (
            _build_strategy(f.left, _next_position(pos, split, move, "left"), extents),
            _build_strategy(f.right, _next_position(pos, split, move, "right"), extents),
        )
        return SpoilerStrategy(pos, move, None, children)
    if isinstance(f, (ml.Diamond, ml.Box)):
        is_diamond = isinstance(f, ml.Diamond)
        # the members in side order: a choice is a mapping, so its order
        # does not matter, and each member picks its first successor in
        # ``ordered_successors`` order where the child holds (or fails)
        choice = {}
        for p in pos.left if is_diamond else pos.right:
            succ = ordered_successors(p)
            choice[p] = next(s for s in succ if _holds(f.child, s, extents) == is_diamond)
        kind = LeftSucc if is_diamond else RightSucc
        move = kind(choice)
        child = _build_strategy(f.child, _next_position(pos, kind, move, None), extents)
        return SpoilerStrategy(pos, move, None, (child,))
    raise TypeError(f"not a modal formula node: {f!r}")


def _holds(f: MLFormula, p: PointedModel, extents: dict) -> bool:
    return p.point in extent(f, p.model, extents)


def extract_formula(strategy: SpoilerStrategy) -> MLFormula:
    """Read the separating formula off a strategy tree: left splits become
    disjunctions, right splits conjunctions, successor moves modal operators."""
    if strategy.move is None:
        if strategy.literal is None:
            raise StrategyError("leaf without a literal")
        return strategy.literal
    move = strategy.move
    if isinstance(move, (LeftSplit, RightSplit)):
        if len(strategy.children) != 2:
            raise StrategyError("split nodes need one child per branch")
        left = extract_formula(strategy.children[0])
        right = extract_formula(strategy.children[1])
        return ml.Or(left, right) if isinstance(move, LeftSplit) else ml.And(left, right)
    if isinstance(move, (LeftSucc, RightSucc)):
        if len(strategy.children) != 1:
            raise StrategyError("successor nodes need exactly one child")
        child = extract_formula(strategy.children[0])
        return ml.Diamond(child) if isinstance(move, LeftSucc) else ml.Box(child)
    raise StrategyError(f"not a move: {move!r}")


def verify_strategy(strategy: SpoilerStrategy) -> None:
    """Exhaustive playout of every branch; raises ``StrategyError`` unless all
    leaves carry a literal (``T``, ``F``, ``p`` or ``~p``) that separates their
    position.  A leaf with any other formula is refused even where it
    separates: the moves it stands for would spend budget the position may
    not have."""
    pos = strategy.position
    if strategy.move is None:
        literal = strategy.literal
        if literal is None:
            raise StrategyError("leaf without a literal")
        if type(literal) not in (Top, Bot, Prop, NegProp):
            raise StrategyError(f"leaf carries {literal}, which is not a literal")
        try:
            ok = _literal_separates(literal, pos)
        except KeyError:
            # a member without the proposition: ``separates`` meets the same
            # member first and raises its unknown-proposition error
            ok = separates(literal, pos.left, pos.right)
        if not ok:
            raise StrategyError(f"leaf literal {literal} does not separate")
        return
    move = strategy.move
    try:
        if isinstance(move, (LeftSplit, RightSplit)):
            expected = (apply_move(pos, move, "left"), apply_move(pos, move, "right"))
        else:
            expected = (apply_move(pos, move, None),)
    except IllegalMoveError as exc:
        raise StrategyError(f"illegal move in strategy: {exc}") from exc
    if len(strategy.children) != len(expected):
        raise StrategyError("wrong number of children for the recorded move")
    for child, child_pos in zip(strategy.children, expected):
        if child.position != child_pos:
            raise StrategyError("child position does not match the move")
        verify_strategy(child)


def duplicator_bisim_strategy(pos: GamePosition, witness: BisimWitness) -> "_BisimResponder":
    """A responder that keeps a depth-m equivalent cross pair pinned forever.

    The witness must relate a member of the left set to a member of the right
    set at depth at least ``pos.m``.
    """
    _check_pins(pos, witness.left, witness.right)
    if witness.depth < pos.m:
        raise ValueError(f"witness depth {witness.depth} is less than the modal budget {pos.m}")
    if bounded_type(witness.left, witness.depth) != bounded_type(witness.right, witness.depth):
        raise ValueError("witness pair is not equivalent at its stated depth")
    return _BisimResponder(pos, witness.left, witness.right)


def _check_pins(pos: GamePosition, left: PointedModel, right: PointedModel) -> None:
    if left not in pos.left:
        raise ValueError("witness left model is not in the left set")
    if right not in pos.right:
        raise ValueError("witness right model is not in the right set")


@dataclass
class _BisimResponder:
    """Second-player play glued to a pinned equivalent pair."""

    position: GamePosition
    pin_left: PointedModel
    pin_right: PointedModel

    def respond(self, move: Move) -> tuple[str | None, "_BisimResponder"]:
        pos, kind = self.position, _move_kind(move)
        if kind is LeftSplit or kind is RightSplit:
            is_left = kind is LeftSplit
            pin, part1 = (self.pin_left, move.left1) if is_left else (self.pin_right, move.right1)
            choice = "left" if pin in part1 else "right"
            _check_split(pos, move, is_left)
            nxt = _next_position(pos, kind, move, choice)
            return choice, _BisimResponder(nxt, self.pin_left, self.pin_right)
        if kind is None:
            raise IllegalMoveError(f"not a move: {move!r}")
        nxt = _advance(pos, kind, move)
        flip = kind is RightSucc
        pin, other = (self.pin_right, self.pin_left) if flip else (self.pin_left, self.pin_right)
        moved = move.choice[pin]
        pair = (moved, _matching_successor(other, moved, nxt.m))
        return None, _BisimResponder(nxt, *(pair[::-1] if flip else pair))


def _matching_successor(p: PointedModel, target: PointedModel, depth: int) -> PointedModel:
    wanted = bounded_type(target, depth)
    for s in ordered_successors(p):
        if bounded_type(s, depth) == wanted:
            return s
    raise StrategyError("pinned pair is not equivalent deeply enough to answer")


def exhaustive_playout(responder) -> bool:
    """Play every legal first-player continuation against the responder.

    Returns True iff no reachable terminal is a first-player win.  Every
    position of a game has the root's members or their successors, so the
    root's literal list serves them all.  The moves at each position are
    those of ``legal_moves``, in its order, made one at a time; every
    position reached gets one ``_terminal`` check, and only the ongoing ones
    are expanded.
    """
    pos = responder.position
    literals = _position_literals(pos)
    status = _terminal(pos, literals)
    if status is ONGOING:
        return _play_out(responder, literals)
    return not isinstance(status, SWin)


def _play_out(responder, literals: list[MLFormula]) -> bool:
    """``exhaustive_playout`` below a responder at an ongoing position."""
    terminal = _terminal
    for move in _moves(responder.position):
        nxt = responder.respond(move)[1]
        status = terminal(nxt.position, literals)
        if status is ONGOING:
            if not _play_out(nxt, literals):
                return False
        elif isinstance(status, SWin):
            return False
    return True


def minimal_separating(
    a: Iterable[PointedModel],
    b: Iterable[PointedModel],
    max_total: int,
    *,
    node_limit: int | None = None,
) -> list[tuple[int, int, MLFormula]]:
    """All budget-minimal (m, k) with m + k <= max_total that admit a
    separating formula, each with one such formula.

    Minimality is componentwise; the search shares one memo table and one
    truth-vector table across the whole budget grid.  The table answers every
    position where no formula within budget separates without a search, so
    only positions S wins are expanded.  The layers m + k = max_total are
    decided, not built; ``_Solver`` states what that costs.  A budget or
    ``node_limit`` that is not a non-negative integer raises ``ValueError``;
    the errors of ``solve`` stop it too, and ``SearchTooDeep`` names the modal
    budget of the query that nested too deep.
    """
    _budget(max_total, "max_total")
    frontier: list[tuple[int, int, MLFormula]] = []
    m = max_total  # the budget the solver types its universe to
    try:
        solver = _Solver(GamePosition(max_total, 0, a, b), node_limit, table=True)
        for total in range(max_total + 1):
            for m in range(total + 1):
                k = total - m
                if any(fm <= m and fk <= k for fm, fk, _ in frontier):
                    continue
                formula = solver.win(m, k, *solver.root(m))
                if formula is not None:
                    frontier.append((m, k, formula))
    except RecursionError:
        raise SearchTooDeep(m) from None
    return sorted(frontier, key=lambda entry: (entry[0], entry[1]))


def position_to_dict(pos: GamePosition) -> dict:
    return {
        "m": pos.m,
        "k": pos.k,
        "left": kripke.modelset_to_list(pos.left),
        "right": kripke.modelset_to_list(pos.right),
    }


def position_from_dict(obj: object) -> GamePosition:
    if not isinstance(obj, dict):
        raise ValueError("position must be a JSON object")
    missing = {"m", "k", "left", "right"} - obj.keys()
    if missing:
        raise ValueError(f"position object is missing keys: {sorted(missing)}")
    if any(type(obj[key]) is not int for key in ("m", "k")):
        raise ValueError('"m" and "k" must be integers')
    pos = GamePosition(
        obj["m"],
        obj["k"],
        kripke.modelset_from_list(obj["left"]),
        kripke.modelset_from_list(obj["right"]),
    )
    position_signature(pos)
    return pos


def verdict_to_dict(verdict: Verdict) -> dict:
    if isinstance(verdict, SpoilerWins):
        sizes = ml_sizes(verdict.formula)
        return {
            "winner": "S",
            "formula": ml.print_ml(verdict.formula),
            "ms": sizes.ms,
            "cs": sizes.cs,
            "nodes": verdict.nodes,
        }
    return {"winner": "D", "formula": None, "ms": None, "cs": None, "nodes": verdict.nodes}
