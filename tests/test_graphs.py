import itertools
import random

import pytest

from fsgame import game, graphs, hierarchy
from fsgame.game import DuplicatorWins, GamePosition, LeftSucc, RightSucc, exhaustive_playout, solve
from fsgame.graphs import (
    Graph,
    chromatic_number,
    duplicator_coloring_strategy,
    graph_of,
    make_graph,
    to_edge_list,
)
from fsgame.kripke import KripkeModel, PointedModel, join
from oracles import chromatic_brute


def complete_graph(n: int) -> Graph:
    verts = [f"v{i}" for i in range(n)]
    return make_graph(verts, itertools.combinations(verts, 2))


def random_graph(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    verts = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(verts, 2) if rng.random() < p]
    return make_graph(verts, edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        make_graph(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        make_graph(["a"], [("a", "b")])
    g = make_graph(["a", "b"], [("b", "a")])
    assert g.edges == {("a", "b")}


def test_graph_of_families(vv1, ee1, vv2, ee2):
    g1 = graph_of(vv1, ee1)
    assert len(g1.vertices) == 2 and len(g1.edges) == 1
    g2 = graph_of(vv2, ee2)
    assert len(g2.vertices) == 4 and len(g2.edges) == 6
    isolated = graph_of(vv2, frozenset())
    assert len(isolated.vertices) == 4 and not isolated.edges


def test_graph_of_restricts_edges_to_chosen_vertices(vv2, ee2):
    some = frozenset(sorted(vv2, key=game.canonical_key)[:2])
    g = graph_of(some, ee2)
    assert len(g.vertices) == 2
    assert len(g.edges) == 1


def test_graph_of_rejects_malformed(m_empty, vv1):
    with pytest.raises(ValueError):
        graph_of(frozenset(), frozenset())
    with pytest.raises(ValueError):
        graph_of({m_empty}, frozenset())  # not a fresh-root join
    bad = join([hierarchy.model_of(hierarchy.parse_hf("{{}}"))])
    tampered = join([bad])  # root over a root: child is not a set encoding
    with pytest.raises(ValueError):
        graph_of({tampered}, frozenset())


def test_chromatic_number_basics(vv2, ee2):
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(make_graph(["a", "b", "c"], [])) == 1
    assert chromatic_number(make_graph([], [])) == 0
    assert chromatic_number(graph_of(vv2, ee2)) == 4
    odd_cycle = make_graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    assert chromatic_number(odd_cycle) == 3
    # Groetzsch graph (Mycielskian of the 5-cycle): triangle-free, yet chi = 4
    rim = [(f"u{i}", f"u{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"v{i}", f"u{(i + d) % 5}") for i in range(5) for d in (1, 4)]
    hub = [(f"v{i}", "w") for i in range(5)]
    groetzsch = make_graph(
        [f"u{i}" for i in range(5)] + [f"v{i}" for i in range(5)] + ["w"], rim + spokes + hub
    )
    assert len(groetzsch.vertices) == 11 and len(groetzsch.edges) == 20
    assert chromatic_number(groetzsch) == 4


def test_chromatic_number_cap():
    with pytest.raises(ValueError, match="cap"):
        chromatic_number(complete_graph(17))
    assert chromatic_number(complete_graph(16)) == 16


def test_chromatic_number_matches_brute_force():
    rng = random.Random(83)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        assert chromatic_number(g) == chromatic_brute(g.vertices, g.edges)


def test_vertex_split_inequality():
    rng = random.Random(89)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        verts = sorted(g.vertices)
        cut = rng.randint(1, len(verts) - 1) if len(verts) > 1 else 1
        v1 = set(verts[:cut]) | {verts[0]}
        v2 = set(verts[cut:]) | {verts[-1]}
        g1 = make_graph(v1, [(u, v) for u, v in g.edges if u in v1 and v in v1])
        g2 = make_graph(v2, [(u, v) for u, v in g.edges if u in v2 and v in v2])
        assert chromatic_number(g) <= chromatic_number(g1) + chromatic_number(g2)


def test_edge_split_inequality():
    rng = random.Random(97)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        edges = sorted(g.edges)
        e1 = {e for e in edges if rng.random() < 0.5}
        e2 = set(edges) - e1 | {e for e in edges if rng.random() < 0.3}
        g1 = Graph(g.vertices, frozenset(e1))
        g2 = Graph(g.vertices, frozenset(e2))
        if e1 | e2 != set(edges):
            continue
        assert chromatic_number(g) <= chromatic_number(g1) * chromatic_number(g2)


def test_to_edge_list(vv1, ee1):
    text = to_edge_list(graph_of(vv1, ee1))
    assert text == "{{}} {}"
    assert len(to_edge_list(complete_graph(4)).splitlines()) == 6


def test_coloring_strategy_precondition(vv2, ee2):
    with pytest.raises(ValueError, match="log2"):
        duplicator_coloring_strategy(GamePosition(3, 2, vv2, ee2))
    single = frozenset(sorted(vv2, key=game.canonical_key)[:1])
    with pytest.raises(ValueError, match="below 2"):
        duplicator_coloring_strategy(GamePosition(1, 0, single, frozenset()))


def test_coloring_strategy_succ_handoff(vv1, ee1):
    pos = GamePosition(3, 0, vv1, ee1)
    responder = duplicator_coloring_strategy(pos)
    for move in game.legal_moves(pos):
        assert isinstance(move, (LeftSucc, RightSucc))
        choice, nxt = responder.respond(move)
        assert choice is None
        # the pinned models coincide on their reachable parts
        assert nxt.pin_left in nxt.position.left
        assert nxt.pin_right in nxt.position.right
        assert exhaustive_playout(nxt)


@pytest.mark.parametrize("m", [2, 3])
def test_coloring_strategy_survives_exhaustive_play(vv2, ee2, m, monkeypatch):
    unwrap = graphs._unwrap
    calls = []

    def counting_unwrap(member, expected, frames):
        calls.append(member)
        return unwrap(member, expected, frames)

    monkeypatch.setattr(graphs, "_unwrap", counting_unwrap)
    responder = duplicator_coloring_strategy(GamePosition(m, 1, vv2, ee2))
    assert exhaustive_playout(responder)
    # every join member is unwrapped once, however many moves are answered
    assert len(calls) == len(vv2) + len(ee2)


def test_coloring_playout_reaches_every_position(vv2, ee2, monkeypatch):
    terminal = game._terminal
    seen = []

    def counting(pos, literals):
        seen.append(pos)
        return terminal(pos, literals)

    monkeypatch.setattr(game, "_terminal", counting)
    assert exhaustive_playout(duplicator_coloring_strategy(GamePosition(1, 1, vv2, ee2)))
    assert len(seen) == 11_354


def test_coloring_responder_builds_its_graph_once(vv2, ee2, monkeypatch):
    graph, hand_off = graphs._graph, graphs._ColoringResponder._hand_off
    handing_off = []
    seen = {}  # id -> [responder, its hand-offs, conflict graphs built during them]

    def counting_graph(labels, vv, ee):
        if handing_off:
            seen[id(handing_off[-1])][2] += 1
        return graph(labels, vv, ee)

    def counting_hand_off(self, move):
        # the entry keeps the responder alive, so no other responder reuses its id
        seen.setdefault(id(self), [self, 0, 0])[1] += 1
        handing_off.append(self)
        try:
            return hand_off(self, move)
        finally:
            handing_off.pop()

    monkeypatch.setattr(graphs, "_graph", counting_graph)
    monkeypatch.setattr(graphs._ColoringResponder, "_hand_off", counting_hand_off)
    assert exhaustive_playout(duplicator_coloring_strategy(GamePosition(1, 1, vv2, ee2)))
    assert (len(seen), sum(hand_offs for _, hand_offs, _ in seen.values())) == (81, 1_961)
    assert all(built == 1 for _, _, built in seen.values())


def test_unwrap_checks_every_member_under_a_repeated_world(vv1):
    # "{{}}" is met first under the singleton join, then under a pair member
    # whose submodel there lacks the edge to "{}"
    tampered = PointedModel(
        KripkeModel(["_root", "{}", "{{}}"], [("_root", "{}"), ("_root", "{{}}")]), "_root"
    )
    with pytest.raises(ValueError, match="submodel under '{{}}'"):
        graph_of(vv1, {tampered})


def test_coloring_strategy_agrees_with_solver(vv2, ee2):
    rng = random.Random(101)
    vv_list = sorted(vv2, key=game.canonical_key)
    ee_list = sorted(ee2, key=game.canonical_key)
    checked = 0
    while checked < 6:
        vv = frozenset(rng.sample(vv_list, rng.randint(1, 4)))
        ee = frozenset(rng.sample(ee_list, rng.randint(0, 6)))
        chi = chromatic_number(graph_of(vv, ee))
        k = rng.randint(0, 1)
        m = rng.randint(0, 3)
        if chi < 2 or (1 << k) >= chi:
            continue
        checked += 1
        duplicator_coloring_strategy(GamePosition(m, k, vv, ee))
        assert isinstance(solve(GamePosition(m, k, vv, ee)), DuplicatorWins)
