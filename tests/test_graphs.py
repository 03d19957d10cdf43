import itertools
import random

import pytest

from fsgame import game, graphs, hierarchy
from fsgame.game import (
    DuplicatorWins,
    GamePosition,
    IllegalMoveError,
    LeftSplit,
    LeftSucc,
    RightSucc,
    exhaustive_playout,
    solve,
)
from fsgame.graphs import (
    Graph,
    StrategyInvariantBroken,
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


def test_coloring_responder_answers_subclass_moves(vv2, ee2):
    class MyLeftSplit(LeftSplit):
        pass

    class MyRightSucc(RightSucc):
        pass

    pos = GamePosition(1, 1, vv2, ee2)
    members = sorted(vv2, key=game.canonical_key)
    split = (0, 0, frozenset(members[:2]), 1, 0, frozenset(members[2:]))
    choice = next(move.choice for move in game.legal_moves(pos) if type(move) is RightSucc)
    for args, base, sub in ((split, LeftSplit, MyLeftSplit), ((choice,), RightSucc, MyRightSucc)):
        expected_branch, expected = duplicator_coloring_strategy(pos).respond(base(*args))
        branch, nxt = duplicator_coloring_strategy(pos).respond(sub(*args))
        assert branch == expected_branch
        assert type(nxt) is type(expected) and nxt.position == expected.position
    assert (nxt.pin_left, nxt.pin_right) == (expected.pin_left, expected.pin_right)
    with pytest.raises(IllegalMoveError, match="not a move"):
        duplicator_coloring_strategy(pos).respond("pass")


def test_hand_off_fails_as_before(vv2, ee2, monkeypatch):
    real = graphs._ColoringResponder._pinned.func

    def pin_with(pinned):
        # every coloring responder pins with pinned(a, by_vertex, pair_member)
        patched = property(lambda self: pinned(*real(self)))
        monkeypatch.setattr(graphs._ColoringResponder, "_pinned", patched)

    pos = GamePosition(2, 1, vv2, ee2)
    moves = game.legal_moves(pos)
    left_move = next(move for move in moves if type(move) is LeftSucc)
    right_moves = [move for move in moves if type(move) is RightSucc]
    # the pinned vertex answered by the member of a vertex that is not
    # equivalent to it: the pair fails the depth-m check
    members = {graphs._labels(vv2, ee2)[member][0]: member for member in vv2}
    pin_with(lambda a, by_vertex, pair: (a, {**by_vertex, a: members["{}"]}, pair))
    with pytest.raises(StrategyInvariantBroken, match="^duplicated model is not deeply equivalent$"):
        duplicator_coloring_strategy(pos).respond(left_move)
    # the empty set pinned under a pair member that holds it two steps down:
    # equivalent, but not a member of the right side
    pair_member = next(m for m in ee2 if "{}" in m.model.worlds and "{}" not in m.model.succ("_root"))
    pin_with(lambda a, by_vertex, pair: ("{}", by_vertex, pair_member))
    with pytest.raises(ValueError, match="^witness right model is not in the right set$"):
        duplicator_coloring_strategy(pos).respond(left_move)
    # both at once: the equivalence is checked first
    swapped = {**members, "{}": members["{{}}"]}
    pin_with(lambda a, by_vertex, pair: ("{}", swapped, pair_member))
    with pytest.raises(StrategyInvariantBroken, match="^duplicated model is not deeply equivalent$"):
        duplicator_coloring_strategy(pos).respond(left_move)
    # a chosen element pinned under a singleton join that holds it two steps
    # down: equivalent, but not a member of the left side
    move = next(m for m in right_moves if "{}" in {p.point for p in m.choice.values()})
    chooser = next(pair for pair, p in move.choice.items() if p.point == "{}")
    deep = next(m for m in vv2 if "{}" in m.model.worlds and "{}" not in m.model.succ("_root"))
    pin_with(lambda a, by_vertex, pair: (a, {**by_vertex, "{}": deep}, chooser))
    with pytest.raises(ValueError, match="^witness left model is not in the left set$"):
        duplicator_coloring_strategy(pos).respond(move)


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
