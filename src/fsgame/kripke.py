"""Finite pointed Kripke models, successor operators, and the fresh-root join."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping


class KripkeModel:
    """Immutable finite frame with a valuation.

    Worlds are opaque strings.  The proposition signature ``prop_set`` is
    exactly the key set of the valuation, so a proposition with empty extension
    must still be passed with an empty world set.  Proposition names are ASCII
    identifiers other than ``T`` and ``F``, so every literal prints back as
    itself.  Two models are equal iff they have the same worlds, edges and
    valuation.

    A model stores its worlds, its valuation and the sorted successors of
    each world (``succ``), the one copy of the relation.  ``edges`` builds
    the set of pairs on each read, so a loop should read it once.
    It also keeps, filled on demand, the successor set of each world
    (``successors``), the same successors in ``canonical_key`` order
    (``ordered_successors``), the canonical key of each point
    (``canonical_key``) and its class maps by depth (``bisim``); they are
    freed with the model.
    Pickling keeps the content only, so these caches and the hash are rebuilt
    in the process that loads the model.
    """

    __slots__ = ("worlds", "valuation", "prop_set", "_succ", "_hash", "_successors", "_ordered",
                 "_canon", "_layers", "__weakref__")

    def __init__(
        self,
        worlds: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        valuation: Mapping[str, Iterable[str]] | None = None,
    ) -> None:
        listed = list(worlds)
        for w in listed:
            if not isinstance(w, str):
                raise TypeError(f"world identifiers must be strings, got {w!r}")
        ws = frozenset(listed)
        succ: dict[str, set[str]] = {w: set() for w in ws}
        for u, v in edges:
            if u not in ws or v not in ws:
                raise ValueError(f"edge ({u!r}, {v!r}) mentions a world outside the model")
            succ[u].add(v)
        val = {p: frozenset(extent) for p, extent in dict(valuation or {}).items()}
        for p, extent in val.items():
            if not (isinstance(p, str) and p.isascii() and p.isidentifier()) or p in ("T", "F"):
                raise ValueError(f"proposition name {p!r} is not an identifier other than T and F")
            if not extent <= ws:
                raise ValueError(f"valuation of {p!r} mentions worlds outside the model")
        self.worlds = ws
        self.valuation = val
        self.prop_set = frozenset(val)
        self._succ = {w: tuple(sorted(vs)) for w, vs in succ.items()}
        self._hash = hash((ws, frozenset(self._succ.items()), frozenset(val.items())))
        # None until first use, so a model never stepped through, keyed or
        # typed allocates nothing more: the successor set of each point, its
        # successors in canonical_key order, the canonical_key of each point
        # and the class id of each world by depth (bisim)
        self._successors: dict[str, frozenset[PointedModel]] | None = None
        self._ordered: dict[str, tuple[PointedModel, ...]] | None = None
        self._canon: dict[str, str] | None = None
        self._layers: list[dict[str, int]] | None = None

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The accessibility relation as a set of pairs, built on each read."""
        return frozenset([(u, v) for u, vs in self._succ.items() for v in vs])

    def succ(self, world: str) -> tuple[str, ...]:
        """Successor worlds of ``world``, sorted."""
        return self._succ[world]

    def props_at(self, world: str) -> frozenset[str]:
        """Propositions true at ``world``."""
        return frozenset([p for p, extent in self.valuation.items() if world in extent])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (
            self.worlds == other.worlds
            and self._succ == other._succ
            and self.valuation == other.valuation
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return KripkeModel, (self.worlds, self.edges, self.valuation)

    def __repr__(self) -> str:
        n = sum(map(len, self._succ.values()))
        return f"KripkeModel({len(self.worlds)} worlds, {n} edges, props={sorted(self.valuation)})"


@dataclass(frozen=True, slots=True)
class PointedModel:
    """A Kripke model with a distinguished evaluation point.

    The hash is ``hash((model, point))``, computed on first use and kept.
    Pickling keeps the model and the point only.
    """

    model: KripkeModel
    point: str
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.point not in self.model.worlds:
            raise ValueError(f"point {self.point!r} is not a world of the model")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.model, self.point))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return PointedModel, (self.model, self.point)

    def __repr__(self) -> str:
        return f"PointedModel(point={self.point!r}, {self.model!r})"


def successors(p: PointedModel) -> frozenset[PointedModel]:
    """All pointed models (same frame) one step along the accessibility relation.

    The set is built once per world and kept on the model.
    """
    model = p.model
    cache = model._successors
    if cache is None:
        cache = model._successors = {}
    succ = cache.get(p.point)
    if succ is None:
        succ = cache[p.point] = frozenset(PointedModel(model, v) for v in model.succ(p.point))
    return succ


def ordered_successors(p: PointedModel) -> tuple[PointedModel, ...]:
    """``successors(p)`` sorted by ``canonical_key``, built once per world and
    kept on the model.

    This is the order in which moves and strategies list successor choices.
    It is not the order of ``model.succ``: that sorts raw world names, while
    a canonical key sorts the JSON encoding, where escaped names such as
    ``a"b`` or ``a\\x01`` sort by their escapes.  The successors share the
    model, so their canonical keys differ only in the encoded point, and a
    JSON string is never a proper prefix of another: sorting by the point's
    encoding alone gives the same order without encoding the model."""
    model = p.model
    cache = model._ordered
    if cache is None:
        cache = model._ordered = {}
    ordered = cache.get(p.point)
    if ordered is None:
        ordered = cache[p.point] = tuple(
            sorted(successors(p), key=lambda s: json.dumps(s.point))
        )
    return ordered


def diamond_all(models: Iterable[PointedModel]) -> frozenset[PointedModel]:
    """Union of ``successors`` over a set of pointed models."""
    return frozenset().union(*map(successors, models))


def diamond_choice(
    models: Iterable[PointedModel],
    choice: Mapping[PointedModel, PointedModel],
) -> frozenset[PointedModel]:
    """Image of a successor-choice function over a set of pointed models.

    ``choice`` must be total on the set and must map every member to one of
    its own successors.
    """
    out: set[PointedModel] = set()
    for p in models:
        if p not in choice:
            raise ValueError(f"choice function is not defined on {p!r}")
        target = choice[p]
        if target not in successors(p):
            raise ValueError(f"choice maps {p!r} outside its successor set")
        out.add(target)
    return frozenset(out)


def join(models: Iterable[PointedModel]) -> PointedModel:
    """Attach a fresh root above a set of pointed models.

    The world set is the union of the member domains plus the root; the root
    has an edge to each member's point and satisfies no proposition.  Members
    sharing worlds must agree on outgoing edges and propositions there.
    """
    members = sorted(set(models), key=canonical_key)
    out_edges: dict[str, frozenset[str]] = {}
    props: dict[str, frozenset[str]] = {}
    seen_models: set[KripkeModel] = set()
    for pm in members:
        model = pm.model
        if model in seen_models:
            continue
        seen_models.add(model)
        for w in model.worlds:
            o = frozenset(model.succ(w))
            pr = model.props_at(w)
            if w in out_edges and (out_edges[w] != o or props[w] != pr):
                raise ValueError(f"members disagree on shared world {w!r}")
            out_edges[w] = o
            props[w] = pr
    root = "_root"
    i = 0
    while root in out_edges:
        i += 1
        root = f"_root{i}"
    edges = {(w, v) for w, targets in out_edges.items() for v in targets}
    edges.update((root, pm.point) for pm in members)
    signature: set[str] = set()
    for model in seen_models:
        signature.update(model.prop_set)
    worlds = set(out_edges)
    valuation = {p: frozenset(w for w in worlds if p in props[w]) for p in signature}
    return PointedModel(KripkeModel(worlds | {root}, edges, valuation), root)


def generated(p: PointedModel) -> PointedModel:
    """Submodel on the worlds reachable from the point (signature preserved)."""
    model = p.model
    reach = {p.point}
    frontier = [p.point]
    while frontier:
        w = frontier.pop()
        for v in model.succ(w):
            if v not in reach:
                reach.add(v)
                frontier.append(v)
    edges = [(u, v) for u in reach for v in model.succ(u)]
    valuation = {q: extent & reach for q, extent in model.valuation.items()}
    return PointedModel(KripkeModel(reach, edges, valuation), p.point)


def pointed_to_dict(p: PointedModel) -> dict:
    """JSON-ready dict with sorted keys and arrays (byte-reproducible)."""
    m = p.model
    return {
        "worlds": sorted(m.worlds),
        "edges": [[u, v] for u in sorted(m.worlds) for v in m.succ(u)],
        "valuation": {q: sorted(extent) for q, extent in sorted(m.valuation.items())},
        "point": p.point,
    }


def pointed_from_dict(obj: object) -> PointedModel:
    if not isinstance(obj, dict):
        raise ValueError("model object must be a JSON object")
    missing = {"worlds", "edges", "valuation", "point"} - obj.keys()
    if missing:
        raise ValueError(f"model object is missing keys: {sorted(missing)}")
    worlds = obj["worlds"]
    edges = obj["edges"]
    valuation = obj["valuation"]
    point = obj["point"]
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ValueError('"worlds" must be a list of strings')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e) for e in edges
    ):
        raise ValueError('"edges" must be a list of [source, target] string pairs')
    if not isinstance(valuation, dict) or not all(
        isinstance(q, str) and isinstance(ws, list) and all(isinstance(w, str) for w in ws)
        for q, ws in valuation.items()
    ):
        raise ValueError('"valuation" must map proposition names to lists of worlds')
    if not isinstance(point, str):
        raise ValueError('"point" must be a string')
    model = KripkeModel(worlds, [tuple(e) for e in edges], valuation)
    return PointedModel(model, point)


def modelset_to_list(models: Iterable[PointedModel]) -> list[dict]:
    return [pointed_to_dict(p) for p in sorted(set(models), key=canonical_key)]


def modelset_from_list(objs: object) -> frozenset[PointedModel]:
    if not isinstance(objs, list):
        raise ValueError("model set must be a JSON array of model objects")
    return frozenset(pointed_from_dict(o) for o in objs)


def canonical_key(p: PointedModel) -> str:
    """Stable total order on pointed models (canonical JSON encoding)."""
    model = p.model
    keys = model._canon
    if keys is None:
        keys = model._canon = {}
    key = keys.get(p.point)
    if key is None:
        key = keys[p.point] = json.dumps(pointed_to_dict(p), sort_keys=True, separators=(",", ":"))
    return key


def read_pointed(path: str | Path) -> PointedModel:
    with open(path, encoding="utf-8") as fh:
        return pointed_from_dict(json.load(fh))


def write_pointed(path: str | Path, p: PointedModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pointed_to_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_modelset(path: str | Path) -> frozenset[PointedModel]:
    with open(path, encoding="utf-8") as fh:
        return modelset_from_list(json.load(fh))


def write_modelset(path: str | Path, models: Iterable[PointedModel]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(modelset_to_list(models), fh, indent=2, sort_keys=True)
        fh.write("\n")
