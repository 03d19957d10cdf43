"""Depth-bounded and full bisimulation: checks, witnesses, quotients.

The workhorse is iterated signature refinement: worlds are colored first by
their proposition set and then, round by round, by the *set* of successor
colors.  Colors are hash-consed into integer ids shared process-wide
(``TYPES``), which makes depth-bounded equivalence a single integer comparison
and gives the game solver cheap canonical keys.  The class maps of a model live
on the model (``KripkeModel._layers``) and die with it; ``TYPES`` stays
process-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .kripke import KripkeModel, PointedModel, generated, successors


class _ChildKey(tuple):
    """A sort key as an item of its parents' keys, equal to another child key
    only when it is the same object, as classes are interned.  A tuple
    comparison tests items for equality before it orders them, and a
    structural test would walk two keys as deep as they agree at each level."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = tuple.__hash__


class _TypeTable:
    """Hash-consed behavior descriptors: (propositions, set of child ids).

    ``_descs[t]`` is the descriptor of class t, the very key ``_ids`` maps to
    t."""

    def __init__(self) -> None:
        self._ids: dict[tuple[frozenset[str], frozenset[int]], int] = {}
        self._descs: list[tuple[frozenset[str], frozenset[int]]] = []
        # a class's sort key twice: plain for sorting classes, and as the
        # ``_ChildKey`` its parents' keys hold.  A class that defines __eq__
        # sends every < through a Python-level slot, so sorting by _ChildKey
        # would take about 2.4 times as long
        self._keys: list[tuple] = []
        self._child_keys: list[_ChildKey] = []

    def intern(self, props: frozenset[str], children: frozenset[int]) -> int:
        key = (props, children)
        tid = self._ids.get(key)
        if tid is None:
            # the keys first: an error while making them (a RecursionError deep
            # in a search) must leave the lists the same length.  A key orders
            # classes as their strings "(props;child|child)" do: its head keeps
            # the props and 64 more characters, so equal heads leave it to the
            # children's keys, in order.  It shares them, so it grows with the
            # classes below it, not with their unfolding
            ckeys = sorted([self._child_keys[c] for c in children])
            text = "(" + ",".join(sorted(props)) + ";"
            head = (text + "|".join([k[0] for k in ckeys]) + ")")[: len(text) + 64]
            sort_key = (head, *ckeys)
            child_key = _ChildKey(sort_key)
            tid = len(self._descs)
            self._descs.append(key)
            self._keys.append(sort_key)
            self._child_keys.append(child_key)
            self._ids[key] = tid
        return tid

    def props(self, tid: int) -> frozenset[str]:
        return self._descs[tid][0]

    def children(self, tid: int) -> frozenset[int]:
        return self._descs[tid][1]


TYPES = _TypeTable()


def _layers(model: KripkeModel, depth: int) -> list[dict[str, int]]:
    """The class id of each world at depths 0..depth, kept on the model.

    The list is the model's own and may already reach deeper; callers that
    need exactly depths 0..depth slice it.  Once a layer equals the one
    before it, every deeper one equals it too, so from there on the entries
    are that one dict, shared and not refined again: no caller may mutate a
    layer.  A well-founded model reaches this fixpoint one depth past its
    height; a cycle never does, as its unfolding keeps growing."""
    layers = model._layers
    if layers is not None and len(layers) > depth:
        return layers
    if layers is None:
        base = {w: TYPES.intern(model.props_at(w), frozenset()) for w in model.worlds}
        layers = model._layers = [base]
    base = layers[0]  # a world's propositions are those of its depth-0 class
    ids, descs, intern = TYPES._ids, TYPES._descs, TYPES.intern
    stable = len(layers) > 1 and layers[-1] is layers[-2]
    while len(layers) <= depth:
        prev = layers[-1]
        if not stable:
            layer = {}
            for w, succ in model._succ.items():
                # a class met before costs one lookup; only a new one is interned
                key = (descs[base[w]][0], frozenset([prev[v] for v in succ]))
                tid = ids.get(key)
                layer[w] = intern(*key) if tid is None else tid
            stable = layer == prev
        layers.append(prev if stable else layer)
    return layers


def bounded_type(p: PointedModel, depth: int) -> int:
    """Id of the depth-bounded equivalence class of the distinguished point.

    Two pointed models (over any frames, same signature) are depth-n
    back-and-forth equivalent iff their ids at depth n coincide.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return _layers(p.model, depth)[depth][p.point]


@lru_cache(maxsize=None)
def truncate_type(tid: int, depth: int) -> int:
    """Coarsen a type id to a smaller depth."""
    props = TYPES.props(tid)
    if depth == 0:
        return TYPES.intern(props, frozenset())
    children = frozenset(truncate_type(c, depth - 1) for c in TYPES.children(tid))
    return TYPES.intern(props, children)


def _check_signatures(p: PointedModel, q: PointedModel) -> None:
    if p.model.prop_set != q.model.prop_set:
        raise ValueError(
            f"signature mismatch: {sorted(p.model.prop_set)} vs {sorted(q.model.prop_set)}"
        )


def prop_equivalent(p: PointedModel, q: PointedModel) -> bool:
    """True iff the two distinguished points satisfy the same propositions."""
    _check_signatures(p, q)
    return p.model.props_at(p.point) == q.model.props_at(q.point)


@dataclass(frozen=True)
class BisimWitness:
    """Nested relations Z_depth <= ... <= Z_0 certifying depth-bounded equivalence.

    Layers are materialized lazily, once per witness; the solver never needs
    them, only verification does.
    """

    left: PointedModel
    right: PointedModel
    depth: int

    @cached_property
    def layers(self) -> tuple[frozenset[tuple[str, str]], ...]:
        """layers[i] relates worlds of the two models that are i-equivalent."""
        lm, rm = self.left.model, self.right.model
        out = []
        depth = self.depth
        for left, right in zip(_layers(lm, depth)[: depth + 1], _layers(rm, depth)[: depth + 1]):
            out.append(
                frozenset(
                    (v, v2) for v in lm.worlds for v2 in rm.worlds if left[v] == right[v2]
                )
            )
        return tuple(out)

    def layer(self, i: int) -> frozenset[tuple[str, str]]:
        return self.layers[i]

    def verify(self) -> bool:
        """Clause-by-clause check of the layered relations, from raw structure."""
        zs = self.layers
        lm, rm = self.left.model, self.right.model
        if (self.left.point, self.right.point) not in zs[self.depth]:
            return False
        for v, v2 in zs[0]:
            if lm.props_at(v) != rm.props_at(v2):
                return False
        for i in range(self.depth):
            if not zs[i + 1] <= zs[i]:
                return False
            for v, v2 in zs[i + 1]:
                for u in lm.succ(v):
                    if not any((u, u2) in zs[i] for u2 in rm.succ(v2)):
                        return False
                for u2 in rm.succ(v2):
                    if not any((u, u2) in zs[i] for u in lm.succ(v)):
                        return False
        return True


def n_bisimilar(p: PointedModel, q: PointedModel, n: int) -> BisimWitness | None:
    """A witness if the pointed models are depth-n equivalent, else None.

    Refinement on the two models side by side gains a class each round until
    it is stable, so it is stable by depth |W_p| + |W_q|, and the types are
    compared at most that deep; the witness keeps the depth n asked for."""
    _check_signatures(p, q)
    depth = min(n, len(p.model.worlds) + len(q.model.worlds))
    if bounded_type(p, depth) != bounded_type(q, depth):
        return None
    return BisimWitness(p, q, n)


def quotient(p: PointedModel, depth: int | None = None) -> PointedModel:
    """Collapse the reachable part under depth-bounded world equivalence.

    With ``depth=None`` the refinement runs to its fixpoint, i.e. full
    bisimulation.  The result is depth-n equivalent to the input (fully
    equivalent in the unbounded case).
    """
    model = p.model
    reach = sorted(generated(p).model.worlds)
    if depth is None:
        # a world's depth-(d+1) class fixes its depth-d class, so each
        # partition refines the one before, and two are equal iff they have
        # equally many blocks
        depth = 0
        while True:
            cur, nxt = _layers(model, depth + 1)[depth : depth + 2]
            if len({cur[w] for w in reach}) == len({nxt[w] for w in reach}):
                break
            depth += 1
    elif depth < 0:
        raise ValueError("depth must be non-negative")
    labels = _layers(model, depth)[depth]
    classes: dict[int, list[str]] = {}
    for w in reach:
        classes.setdefault(labels[w], []).append(w)
    ordered = sorted(classes.values())
    name: dict[str, str] = {}
    for i, members in enumerate(ordered):
        for w in members:
            name[w] = f"c{i}"
    worlds = {f"c{i}" for i in range(len(ordered))}
    edges = {(name[u], name[v]) for u in reach for v in model.succ(u)}
    valuation = {
        q: frozenset(name[w] for w in reach if w in extent)
        for q, extent in model.valuation.items()
    }
    return PointedModel(KripkeModel(worlds, edges, valuation), name[p.point])


def in_class_A(p: PointedModel, n: int) -> bool:
    """True iff all successors of the point are pairwise depth-n equivalent."""
    succ = successors(p)
    if len(succ) <= 1:
        return True
    types = {bounded_type(s, n) for s in succ}
    return len(types) == 1
