import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
import types
import weakref
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fsgame import bisim, game
from fsgame.game import (
    D_WIN,
    ONGOING,
    DuplicatorWins,
    DWin,
    GamePosition,
    IllegalMoveError,
    LeftSplit,
    LeftSucc,
    RightSplit,
    RightSucc,
    SearchBudgetExceeded,
    SearchTooDeep,
    SpoilerWins,
    StrategyError,
    SWin,
    apply_move,
    duplicator_bisim_strategy,
    exhaustive_playout,
    extract_formula,
    legal_moves,
    minimal_separating,
    position_from_dict,
    position_to_dict,
    solve,
    strategy_from_formula,
    terminal_status,
    verdict_to_dict,
    verify_strategy,
)
from fsgame.kripke import KripkeModel, PointedModel, diamond_all, ordered_successors, successors
from fsgame.logic import ml
from fsgame.logic.ml import BOT, TOP, Box, parse_ml, separates
from oracles import VectorOracle, separator_exists_enum
from randgen import random_pointed, random_position, random_signature, unfold


def test_terminal_status_examples(m_empty, m_single, vv1, ee1):
    status = terminal_status(GamePosition(2, 3, frozenset(), {m_single}))
    assert status == SWin(BOT)
    assert terminal_status(GamePosition(0, 0, {m_empty}, {m_empty})) == D_WIN
    assert terminal_status(GamePosition(2, 1, vv1, ee1)) == ONGOING


def test_terminal_status_edge_cases(m_empty, m_single):
    # both sides empty: every literal separates vacuously, BOT is pinned
    assert terminal_status(GamePosition(0, 0, frozenset(), frozenset())) == SWin(BOT)
    assert terminal_status(GamePosition(1, 2, {m_single}, frozenset())) == SWin(TOP)
    # stuck: budget remains but neither side can advance and no literal helps
    assert terminal_status(GamePosition(3, 0, {m_empty}, {m_empty})) == D_WIN
    assert terminal_status(GamePosition(1, 0, {m_empty}, {m_single})) == ONGOING


def test_terminal_status_uses_propositions(prop_model):
    other = PointedModel(prop_model.model, "c")
    status = terminal_status(GamePosition(0, 0, {prop_model}, {other}))
    assert status == SWin(ml.Prop("p"))
    # at budget (0, 0) the status is the first literal that separates by the
    # evaluator, or a D win; also with either side emptied
    rng = random.Random(29)
    for _ in range(500):
        pos = random_position(rng)
        for left, right in ((pos.left, pos.right), (frozenset(), pos.right), (pos.left, frozenset())):
            zero = GamePosition(0, 0, left, right)
            literals = game._literals(game.position_signature(zero))
            expected = next((SWin(lit) for lit in literals if separates(lit, left, right)), D_WIN)
            assert terminal_status(zero) == expected


def _exercise_fresh_objects() -> list[weakref.ref]:
    """Run every cached path on a fresh model and formula; only weak
    references to them outlive the call."""
    worlds = ["gc-a", "gc-b", "gc-c", "gc-d", "gc-e", "gc-f", "gc-g"]
    edges = [("gc-a", "gc-b"), ("gc-a", "gc-c"), ("gc-c", "gc-d"), ("gc-e", "gc-b"), ("gc-g", "gc-f")]
    model = KripkeModel(worlds, edges, {"p": {"gc-b"}})
    a, c, e, g = (PointedModel(model, w) for w in ("gc-a", "gc-c", "gc-e", "gc-g"))
    assert successors(a) is successors(PointedModel(model, "gc-a"))  # fills model._successors
    assert len(diamond_all({a, c, e})) == 3
    formula = parse_ml("<>(~p & <>T)")
    verdict = solve(GamePosition(1, 1, {a}, {e}))
    assert isinstance(verdict, SpoilerWins)
    verify_strategy(verdict.strategy)
    assert separates(formula, {a}, {e})
    assert game.canonical_key(a) < game.canonical_key(e)
    assert len(bisim.quotient(a).model.worlds) == 4
    witness = bisim.n_bisimilar(c, g, 2)
    assert exhaustive_playout(duplicator_bisim_strategy(GamePosition(2, 1, {c}, {g}), witness))
    return [weakref.ref(model), weakref.ref(formula), weakref.ref(verdict.formula)]


def test_no_cache_keeps_a_model_or_formula_alive():
    refs = _exercise_fresh_objects()
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_position_rejects_mixed_signatures(m_empty, prop_model):
    with pytest.raises(ValueError, match="signature"):
        game.position_signature(GamePosition(1, 1, {m_empty}, {prop_model}))


def test_members_that_are_not_pointed_models_are_type_errors(m_empty, m_single):
    # each entry point names the member instead of failing on its attributes
    for left, right in (({"abc"}, {m_empty}), ({m_empty}, {m_single, 7}), ({None}, set())):
        pos = GamePosition(1, 1, left, right)
        for call in (
            lambda: solve(pos),
            lambda: solve(pos, node_limit=0),
            lambda: terminal_status(pos),
            lambda: minimal_separating(pos.left, pos.right, 2),
        ):
            with pytest.raises(TypeError, match="is not a PointedModel") as exc:
                call()
            assert repr(next(p for p in pos.left | pos.right if p not in (m_empty, m_single))) in str(exc.value)


def test_sides_are_kept_as_frozensets(m_empty, m_single, e1):
    members = [m_empty, m_single]
    side = frozenset(members)
    positions = [GamePosition(1, 0, make(members), make([e1])) for make in (set, list, frozenset, tuple)]
    assert all(pos == positions[0] and hash(pos) == hash(positions[0]) for pos in positions)
    assert all(type(pos.left) is frozenset and type(pos.right) is frozenset for pos in positions)
    # a frozenset is kept as given, a subclass of it is copied into a plain one
    assert GamePosition(0, 0, side, side).left is side

    class Side(frozenset):
        pass

    pos = GamePosition(0, 0, Side(members), side)
    assert type(pos.left) is frozenset and pos.left == side and pos == GamePosition(0, 0, side, side)


def test_position_contract(m_empty, m_single, e1, vv1, ee1):
    # the checks and their messages, in order: m, then k, each worded by
    # game._budget after its parameter
    for m, k, message in (
        (1.0, 0, "m must be a non-negative integer, got 1.0"),
        (0, True, "k must be a non-negative integer, got True"),
        (-1, "2", "m must be non-negative, got -1"),
        (1, "2", "k must be a non-negative integer, got '2'"),
        (-1, 0, "m must be non-negative, got -1"),
        (0, -2, "k must be non-negative, got -2"),
    ):
        with pytest.raises(ValueError) as exc:
            GamePosition(m, k, {m_empty}, {m_single})
        assert str(exc.value) == message
    pos = GamePosition(m=2, k=1, left=iter([m_empty, m_single]), right=(e1,))
    assert (pos.m, pos.k, pos.left, pos.right) == (2, 1, frozenset([m_empty, m_single]), frozenset([e1]))
    assert [f.name for f in dataclasses.fields(pos)] == ["m", "k", "left", "right"]
    for name in ("m", "left", "_literals"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pos, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del pos.k
    # equality and hash read the four fields only, not the literal cache
    same = GamePosition(2, 1, {m_empty, m_single}, {e1})
    literals = game._position_literals(pos)
    assert game._position_literals(pos) is literals and pos.__dict__["_literals"] is literals
    assert pos == same and hash(pos) == hash(same) == hash((2, 1, pos.left, pos.right))
    assert pos != GamePosition(2, 0, pos.left, pos.right) and pos != (2, 1, pos.left, pos.right)
    assert repr(same) == f"GamePosition(m=2, k=1, left={same.left!r}, right={same.right!r})"
    # replace goes through the same checks
    moved = dataclasses.replace(pos, m=0, right=[m_single])
    assert moved == GamePosition(0, 1, pos.left, {m_single}) and type(moved.right) is frozenset
    with pytest.raises(ValueError, match="non-negative"):
        dataclasses.replace(pos, k=-1)
    loaded = pickle.loads(pickle.dumps(GamePosition(3, 2, vv1, ee1)))
    assert loaded == GamePosition(3, 2, vv1, ee1) and type(loaded.left) is frozenset
    assert solve(loaded) == solve(GamePosition(3, 2, vv1, ee1))


def test_legal_moves_empty_when_budgets_are_zero(m_empty, m_single):
    assert legal_moves(GamePosition(0, 0, {m_empty}, {m_single})) == []


def test_legal_moves_single_successor_move(m_empty, m_single):
    moves = legal_moves(GamePosition(1, 0, {m_empty}, {m_single}))
    assert len(moves) == 1
    (move,) = moves
    assert isinstance(move, RightSucc)
    assert move.choice == {m_single: PointedModel(m_single.model, "{}")}


def test_legal_moves_split_budgets_forced(vv1, ee1):
    moves = legal_moves(GamePosition(0, 1, vv1, ee1))
    assert moves and all(isinstance(m, (LeftSplit, RightSplit)) for m in moves)
    assert all((m.m1, m.m2, m.k1, m.k2) == (0, 0, 0, 0) for m in moves)


def _reference_moves(pos):
    # every move, each split part filtered from the members by its mask
    moves = []
    if pos.k >= 1:
        for split_left, make in ((True, LeftSplit), (False, RightSplit)):
            side = pos.left if split_left else pos.right
            members = sorted(side, key=game.canonical_key)
            for mask in range(1 << len(members)):
                part1 = frozenset(p for i, p in enumerate(members) if mask >> i & 1)
                for k1 in range(pos.k):
                    for m1 in range(pos.m + 1):
                        moves.append(make(m1, k1, part1, pos.m - m1, pos.k - 1 - k1, side - part1))
    if pos.m >= 1:
        for side, make in ((pos.left, LeftSucc), (pos.right, RightSucc)):
            members = sorted(side, key=game.canonical_key)
            options = [sorted(successors(p), key=game.canonical_key) for p in members]
            if all(options):
                moves.extend(make(dict(zip(members, c))) for c in itertools.product(*options))
    return moves


def test_legal_moves_match_the_reference_enumeration():
    # same moves in the same order, so CLI ``play`` menus keep their numbers
    rng = random.Random(61)
    sizes = set()
    for _ in range(80):
        pos = random_position(rng, max_side=5, m=rng.randint(0, 2), k=rng.randint(0, 2))
        sizes.add(max(len(pos.left), len(pos.right)))
        assert legal_moves(pos) == _reference_moves(pos), pos
    assert 5 in sizes


def test_successor_choices_are_checked(m_single, e1):
    pos = GamePosition(1, 0, {m_single}, {e1})
    child = PointedModel(m_single.model, "{}")
    for choice, reason in (
        ({}, "total"),  # misses the member
        ({m_single: child, e1: PointedModel(e1.model, "{}")}, "total"),  # an extra key
        ({m_single: m_single}, "outside"),  # not one of the member's successors
    ):
        with pytest.raises(IllegalMoveError, match=reason):
            apply_move(pos, LeftSucc(choice), None)
    # any mapping will do, not only a dict
    nxt = apply_move(pos, LeftSucc(types.MappingProxyType({m_single: child})), None)
    assert nxt == GamePosition(0, 0, {child}, successors(e1))


def test_apply_move_examples(m_empty, m_single, vv1, ee1):
    pos = GamePosition(1, 0, {m_empty}, {m_single})
    (move,) = legal_moves(pos)
    nxt = apply_move(pos, move, None)
    assert nxt == GamePosition(0, 0, frozenset(), {PointedModel(m_single.model, "{}")})
    assert terminal_status(nxt) == SWin(BOT)

    split_pos = GamePosition(0, 1, vv1, ee1)
    part1 = frozenset([sorted(vv1, key=game.canonical_key)[0]])
    move = LeftSplit(0, 0, part1, 0, 0, vv1 - part1)
    assert apply_move(split_pos, move, "left") == GamePosition(0, 0, part1, ee1)
    assert apply_move(split_pos, move, "right") == GamePosition(0, 0, vv1 - part1, ee1)


def test_apply_move_validation(m_empty, m_single, vv1, ee1):
    pos = GamePosition(1, 0, {m_empty}, {m_single})
    (move,) = legal_moves(pos)
    with pytest.raises(IllegalMoveError):
        apply_move(pos, move, "left")  # extraneous branch choice
    with pytest.raises(IllegalMoveError):
        apply_move(pos, LeftSucc({}), None)  # left member lacks successors
    split_pos = GamePosition(0, 1, vv1, ee1)
    ok = LeftSplit(0, 0, vv1, 0, 0, frozenset())
    with pytest.raises(IllegalMoveError):
        apply_move(split_pos, ok, None)  # missing branch choice
    with pytest.raises(IllegalMoveError):
        apply_move(split_pos, LeftSplit(1, 0, vv1, 0, 0, frozenset()), "left")
    with pytest.raises(IllegalMoveError):
        apply_move(split_pos, LeftSplit(0, 0, part1 := frozenset(), 0, 0, part1), "left")
    with pytest.raises(IllegalMoveError):
        apply_move(GamePosition(0, 0, vv1, ee1), ok, "left")


def test_split_cover_check_stays_exact(vv1, ee1):
    # parts whose sizes add up to the side's need not cover it: {a} and {a}
    # miss the other member of a two-member side
    assert len(vv1) == 2
    a = sorted(vv1, key=game.canonical_key)[0]
    pos = GamePosition(0, 1, vv1, ee1)
    twice = LeftSplit(0, 0, frozenset([a]), 0, 0, frozenset([a]))
    for choice in ("left", "right"):
        with pytest.raises(IllegalMoveError, match="covering the split side"):
            apply_move(pos, twice, choice)
    responder = duplicator_bisim_strategy(GamePosition(0, 1, vv1, {a}), bisim.n_bisimilar(a, a, 0))
    with pytest.raises(IllegalMoveError, match="covering the split side"):
        responder.respond(twice)
    # overlapping parts that cover the side stay legal
    both = LeftSplit(0, 0, vv1, 0, 0, vv1)
    assert apply_move(pos, both, "left") == GamePosition(0, 0, vv1, ee1)
    assert apply_move(pos, both, "right") == GamePosition(0, 0, vv1, ee1)
    flipped = GamePosition(0, 1, ee1, vv1)
    with pytest.raises(IllegalMoveError, match="covering the split side"):
        apply_move(flipped, RightSplit(0, 0, frozenset([a]), 0, 0, frozenset([a])), "left")
    assert apply_move(flipped, RightSplit(0, 0, vv1, 0, 0, vv1), "left") == GamePosition(0, 0, ee1, vv1)


def test_bisim_responder_answers_subclass_moves(m_single):
    class MyLeftSplit(LeftSplit):
        pass

    class MyRightSucc(RightSucc):
        pass

    left_extra = PointedModel(KripkeModel(["z"], [("z", "z")]), "z")
    pin, twin = m_single, unfold(m_single, 2)
    pos = GamePosition(2, 1, frozenset([pin, left_extra]), frozenset([twin]))
    responder = duplicator_bisim_strategy(pos, bisim.n_bisimilar(pin, twin, 2))
    isolated, rest = frozenset([pin]), frozenset([left_extra])
    succ_choice = {twin: next(iter(successors(twin)))}
    for args, base, sub in (
        ((2, 0, isolated, 0, 0, rest), LeftSplit, MyLeftSplit),
        ((0, 0, rest, 2, 0, isolated), LeftSplit, MyLeftSplit),
        ((succ_choice,), RightSucc, MyRightSucc),
    ):
        expected_choice, expected = responder.respond(base(*args))
        choice, nxt = responder.respond(sub(*args))
        assert choice == expected_choice
        assert (nxt.position, nxt.pin_left, nxt.pin_right) == (
            expected.position,
            expected.pin_left,
            expected.pin_right,
        )
    with pytest.raises(IllegalMoveError, match="not a move"):
        responder.respond("pass")


def test_apply_move_accepts_the_move_types_and_their_subclasses(m_empty, m_single, vv1, ee1):
    # a subclass of a move type moves as that type; anything else is not a move
    class MyLeftSplit(LeftSplit):
        pass

    class MyRightSucc(RightSucc):
        pass

    split_pos = GamePosition(0, 1, vv1, ee1)
    part1 = frozenset([sorted(vv1, key=game.canonical_key)[0]])
    args = (0, 0, part1, 0, 0, vv1 - part1)
    for choice in ("left", "right"):
        assert apply_move(split_pos, MyLeftSplit(*args), choice) == apply_move(
            split_pos, LeftSplit(*args), choice
        )
    succ_pos = GamePosition(1, 0, {m_empty}, {m_single})
    (move,) = legal_moves(succ_pos)
    assert apply_move(succ_pos, MyRightSucc(move.choice), None) == apply_move(succ_pos, move, None)
    with pytest.raises(IllegalMoveError, match="branch choice"):
        apply_move(split_pos, MyLeftSplit(*args), None)
    for not_a_move in (None, "left", args, types.SimpleNamespace(choice=move.choice)):
        with pytest.raises(IllegalMoveError, match="not a move"):
            apply_move(succ_pos, not_a_move, None)


def test_successor_moves_build_each_union_once(monkeypatch, vv2, ee2):
    # every successor move at one position keeps the successor union of the
    # side it leaves alone on that position, so the moves there build each
    # side's union once, made by apply_move or answered by a responder
    from fsgame import graphs

    calls: list[frozenset] = []

    def counting(side):
        calls.append(side)
        return diamond_all(side)

    monkeypatch.setattr(game, "diamond_all", counting)
    model = KripkeModel(["r", "a", "b"], [("r", "a"), ("r", "b"), ("a", "a")], {"p": ["a"]})
    pin, twin = PointedModel(model, "r"), unfold(PointedModel(model, "r"), 2)
    left, right = {pin, PointedModel(model, "a")}, {twin, unfold(PointedModel(model, "r"), 3)}

    def fresh() -> GamePosition:
        return GamePosition(2, 1, left, right)

    moves = [mv for mv in legal_moves(fresh()) if isinstance(mv, (LeftSucc, RightSucc))]
    assert sum(isinstance(mv, LeftSucc) for mv in moves) == 2
    assert sum(isinstance(mv, RightSucc) for mv in moves) == 4
    expected = [
        GamePosition(1, 1, frozenset(mv.choice.values()), diamond_all(right))
        if isinstance(mv, LeftSucc)
        else GamePosition(1, 1, diamond_all(left), frozenset(mv.choice.values()))
        for mv in moves
    ]
    pos = fresh()
    assert [apply_move(pos, mv) for mv in moves] == expected
    assert len(calls) == 2 and set(calls) == {pos.left, pos.right}
    calls.clear()
    responder = duplicator_bisim_strategy(fresh(), bisim.n_bisimilar(pin, twin, 2))
    assert [responder.respond(mv)[1].position for mv in moves] == expected
    assert set(calls) == {responder.position.left, responder.position.right} and len(calls) == 2
    # the coloring responder hands successor moves to a pinned pair
    calls.clear()
    coloring = graphs.duplicator_coloring_strategy(GamePosition(1, 0, vv2, ee2))
    succ = [mv for mv in legal_moves(coloring.position) if isinstance(mv, (LeftSucc, RightSucc))]
    answered = [coloring.respond(mv)[1].position for mv in succ]
    assert len(succ) > 2 and len(calls) == 2 and set(calls) == {vv2, ee2}
    assert answered == [apply_move(GamePosition(1, 0, vv2, ee2), mv) for mv in succ]


def test_solve_examples(m_empty, m_single, vv1, ee1):
    verdict = solve(GamePosition(1, 0, {m_empty}, {m_single}))
    assert isinstance(verdict, SpoilerWins)
    assert extract_formula(verdict.strategy) == Box(BOT)
    assert isinstance(solve(GamePosition(0, 2, {m_empty}, {m_single})), DuplicatorWins)
    assert isinstance(solve(GamePosition(3, 0, vv1, ee1)), DuplicatorWins)


def test_solve_nontrivial_win(vv1, ee1):
    verdict = solve(GamePosition(4, 1, vv1, ee1))
    assert isinstance(verdict, SpoilerWins)
    formula = extract_formula(verdict.strategy)
    sizes = ml.ml_sizes(formula)
    assert sizes.ms <= 4 and sizes.cs <= 1
    assert separates(formula, vv1, ee1)
    verify_strategy(verdict.strategy)


def test_extract_formula_examples(m_empty, m_single):
    verdict = solve(GamePosition(1, 0, {m_empty}, {m_single}))
    strategy = verdict.strategy
    assert isinstance(strategy.move, RightSucc)
    assert extract_formula(strategy) == Box(BOT)
    leaf = strategy_from_formula(TOP, {m_empty}, frozenset())
    assert leaf.move is None and extract_formula(leaf) == TOP


def test_strategy_from_formula(m_empty, m_single, vv1, ee1):
    strategy = strategy_from_formula(Box(BOT), {m_empty}, {m_single})
    verify_strategy(strategy)
    assert strategy.position == GamePosition(1, 0, frozenset([m_empty]), frozenset([m_single]))
    assert isinstance(strategy.move, RightSucc)

    witness = parse_ml("[][]F | []<>T")
    strategy = strategy_from_formula(witness, vv1, ee1)
    verify_strategy(strategy)
    assert extract_formula(strategy) == witness


def test_strategy_from_formula_rejects_non_separator(m_empty):
    with pytest.raises(ValueError, match="separate"):
        strategy_from_formula(TOP, {m_empty}, {m_empty})


def _strategy_by_eval(f, pos: GamePosition) -> game.SpoilerStrategy:
    """The strategy for a separating formula, built member by member with
    ``eval_ml``."""
    if isinstance(f, (ml.Top, ml.Bot, ml.Prop, ml.NegProp)):
        return game.SpoilerStrategy(pos, None, f, ())
    if isinstance(f, (ml.Or, ml.And)):
        is_or = isinstance(f, ml.Or)
        side = pos.left if is_or else pos.right
        part1 = frozenset(p for p in side if ml.eval_ml(p, f.left) == is_or)
        part2 = frozenset(p for p in side if ml.eval_ml(p, f.right) == is_or)
        sz = ml.ml_sizes(f.left)
        split = LeftSplit if is_or else RightSplit
        move = split(sz.ms, sz.cs, part1, pos.m - sz.ms, pos.k - 1 - sz.cs, part2)
        children = (
            _strategy_by_eval(f.left, apply_move(pos, move, "left")),
            _strategy_by_eval(f.right, apply_move(pos, move, "right")),
        )
        return game.SpoilerStrategy(pos, move, None, children)
    is_diamond = isinstance(f, ml.Diamond)
    choice = {}
    for p in sorted(pos.left if is_diamond else pos.right, key=game.canonical_key):
        succ = sorted(successors(p), key=game.canonical_key)
        choice[p] = next(s for s in succ if ml.eval_ml(s, f.child) == is_diamond)
    move = LeftSucc(choice) if is_diamond else RightSucc(choice)
    child = _strategy_by_eval(f.child, apply_move(pos, move, None))
    return game.SpoilerStrategy(pos, move, None, (child,))


def test_strategies_match_the_evaluator(vv2, ee2):
    witness = parse_ml("([][]<>T | []<>[]F) & ([]<><>T | [][][]F)")  # the n=2 frontier
    cases = [(witness, vv2, ee2)]
    rng = random.Random(20240521)
    for _ in range(150):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        verdict = solve(GamePosition(3, 2, pos.left, pos.right))
        if isinstance(verdict, SpoilerWins):
            cases.append((verdict.formula, pos.left, pos.right))
    # every small formula that separates, shared subformula nodes included
    rng = random.Random(61)
    for _ in range(20):
        pos = random_position(rng, max_worlds=3, max_side=2, max_props=1)
        signature = game.position_signature(pos)
        for f in ml.enumerate_ml(2, 1, signature):
            for g in (f, ml.Or(f, f), ml.And(f, f)):
                if separates(g, pos.left, pos.right):
                    cases.append((g, pos.left, pos.right))
    assert len(cases) > 500
    for f, left, right in cases:
        sizes = ml.ml_sizes(f)
        pos = GamePosition(sizes.ms, sizes.cs, left, right)
        strategy = strategy_from_formula(f, left, right)
        assert strategy == _strategy_by_eval(f, pos), f
        verify_strategy(strategy)


def _successor_nodes(node):
    if isinstance(node.move, (LeftSucc, RightSucc)):
        yield node
    for child in node.children:
        yield from _successor_nodes(child)


def test_solve_strategies_need_no_canonical_key():
    # successor order comes from each point's own encoding and a choice lists
    # its members in side order, so a solve and its verification encode no
    # model; the strategies are those of the canonical-order reference
    rng = random.Random(20240521)
    wins = choices = 0
    for _ in range(200):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        models = {p.model for p in pos.left | pos.right}
        strategies = []
        for m in range(4):
            for k in range(3):
                verdict = solve(GamePosition(m, k, pos.left, pos.right))
                if isinstance(verdict, SpoilerWins):
                    verify_strategy(verdict.strategy)
                    strategies.append(verdict)
        assert all(model._canon is None for model in models), pos
        for verdict in strategies:
            wins += 1
            strategy = verdict.strategy
            assert strategy == _strategy_by_eval(verdict.formula, strategy.position)
            # each member picks the first of its ordered successors where the
            # child formula holds (<>) or fails ([])
            for node in _successor_nodes(strategy):
                child = extract_formula(node.children[0])
                wanted = isinstance(node.move, LeftSucc)
                for p, target in node.move.choice.items():
                    first = next(s for s in ordered_successors(p) if ml.eval_ml(s, child) == wanted)
                    assert target == first
                    choices += 1
    assert wins > 300 and choices > 300, (wins, choices)


def test_strategy_from_formula_checks_symbols_like_separates(m_empty, m_single, prop_model):
    # mixed signatures: each member is checked where ``separates`` meets it
    only_q = PointedModel(prop_model.model, "c")
    cases = [
        (ml.Prop("p"), {prop_model}, {m_empty}),  # m_empty has no p
        (ml.Prop("p"), {only_q}, {m_empty}),  # fails on the left before that
        (ml.Diamond(TOP), {prop_model}, {m_empty}),  # no symbols: separates
        (ml.Or(ml.Prop("q"), Box(BOT)), {m_empty, only_q}, frozenset()),
        (ml.Prop("r"), {prop_model}, frozenset()),
        (Box(BOT), {m_single}, {m_empty}),
    ]
    for f, left, right in cases:
        try:
            expected = separates(f, left, right)
        except ValueError as exc:
            with pytest.raises(ValueError, match="unknown proposition") as raised:
                strategy_from_formula(f, left, right)
            assert str(raised.value) == str(exc)
            continue
        if expected:
            verify_strategy(strategy_from_formula(f, left, right))
        else:
            with pytest.raises(ValueError, match="does not separate"):
                strategy_from_formula(f, left, right)


def test_verify_strategy_catches_tampering(m_empty, m_single, vv1, ee1, vv2, ee2):
    strategy = strategy_from_formula(Box(BOT), {m_empty}, {m_single})
    broken = game.SpoilerStrategy(strategy.position, None, TOP, ())
    with pytest.raises(StrategyError):
        verify_strategy(broken)
    # a leaf must carry a literal: <>T separates a two-world chain from a
    # dead end, but not within (0, 0), where D wins
    chain = PointedModel(KripkeModel(["x", "y"], [("x", "y")], {}), "x")
    dead = PointedModel(KripkeModel(["z"], [], {}), "z")
    pos = GamePosition(0, 0, [chain], [dead])
    assert isinstance(solve(pos), DuplicatorWins)
    assert separates(ml.Diamond(TOP), pos.left, pos.right)
    with pytest.raises(StrategyError, match="not a literal"):
        verify_strategy(game.SpoilerStrategy(pos, None, ml.Diamond(TOP), ()))
    # a split subtree collapsed into one leaf that carries its disjunction,
    # which separates that leaf's position
    witness = parse_ml("([][]<>T | []<>[]F) & ([]<><>T | [][][]F)")  # the n=2 frontier
    strategy = strategy_from_formula(witness, vv2, ee2)
    verify_strategy(strategy)
    split = strategy.children[0]
    assert isinstance(strategy.move, RightSplit) and isinstance(split.move, LeftSplit)
    leaf = game.SpoilerStrategy(split.position, None, witness.left, ())
    assert separates(witness.left, split.position.left, split.position.right)
    with pytest.raises(StrategyError, match="not a literal"):
        verify_strategy(dataclasses.replace(strategy, children=(leaf, strategy.children[1])))
    # the whole tree collapsed into its root
    with pytest.raises(StrategyError, match="not a literal"):
        verify_strategy(game.SpoilerStrategy(strategy.position, None, witness, ()))
    # a literal over a proposition a member lacks is the input error of
    # ``separates``, also where a later member would fail it first
    without_p = PointedModel(KripkeModel(["a"], [], {"q": []}), "a")
    p_false = PointedModel(KripkeModel(["a"], [], {"p": []}), "a")
    for pos, lit in (
        (GamePosition(0, 0, vv1, ee1), ml.Prop("p")),
        (GamePosition(0, 0, {without_p}, {p_false}), ml.NegProp("p")),
        (GamePosition(0, 0, {p_false}, {without_p}), ml.NegProp("p")),
    ):
        with pytest.raises(ValueError, match="unknown proposition"):
            separates(lit, pos.left, pos.right)
        with pytest.raises(ValueError, match="unknown proposition"):
            verify_strategy(game.SpoilerStrategy(pos, None, lit, ()))
    # a member without the proposition after one that fails the literal
    pos = GamePosition(0, 0, {p_false}, {without_p})
    assert not separates(ml.Prop("p"), pos.left, pos.right)
    with pytest.raises(StrategyError, match="does not separate"):
        verify_strategy(game.SpoilerStrategy(pos, None, ml.Prop("p"), ()))


def test_solve_budget_exceeded(vv2, ee2):
    with pytest.raises(SearchBudgetExceeded):
        solve(GamePosition(3, 1, vv2, ee2), node_limit=2)


def test_negative_node_limit_is_an_input_error(vv1, ee1):
    pos = GamePosition(3, 1, vv1, ee1)
    with pytest.raises(ValueError, match="node_limit"):
        solve(pos, node_limit=-3)
    with pytest.raises(ValueError, match="node_limit"):
        minimal_separating(vv1, ee1, 5, node_limit=-1)
    # zero is a legal budget: the first state already exceeds it
    with pytest.raises(SearchBudgetExceeded):
        solve(pos, node_limit=0)
    with pytest.raises(SearchBudgetExceeded):
        minimal_separating(vv1, ee1, 5, node_limit=0)


@pytest.mark.parametrize(("m", "k", "nodes"), [(6, 3, 145), (8, 2, 217), (3, 1, 17)])
def test_solve_node_counts_are_pinned(vv2, ee2, m, k, nodes):
    # a node count that moves without a reason is a regression of the search.
    # The n=2 roots split 2^3 + 2^5 ways over 11 classes, so the solver
    # builds its table, finds no separating vector and answers D at the root:
    # each count is the root plus the table vectors built below (m, k).  The
    # root's own layer (m, k) is the ceiling, decided without being built:
    # it held 0, 90 and 4 vectors (145, 307 and 21 nodes when it was built).
    # The search without the table took 3477, 2922 and 98 nodes.
    verdict = verdict_to_dict(solve(GamePosition(m, k, vv2, ee2)))
    assert verdict == {"winner": "D", "formula": None, "ms": None, "cs": None, "nodes": nodes}


def _strategy_lines(node, out: list[str]) -> None:
    # a strategy tree in canonical terms: budgets, members by canonical key,
    # moves with their parts or choices, and leaf literals
    def keys(side):
        return sorted(map(game.canonical_key, side))

    pos, move = node.position, node.move
    out.append(repr((pos.m, pos.k, keys(pos.left), keys(pos.right))))
    if move is None:
        out.append("leaf " + ml.print_ml(node.literal))
    elif isinstance(move, (LeftSplit, RightSplit)):
        is_left = isinstance(move, LeftSplit)
        part1, part2 = (move.left1, move.left2) if is_left else (move.right1, move.right2)
        out.append(repr((type(move).__name__, move.m1, move.k1, keys(part1), move.m2, move.k2, keys(part2))))
    else:
        choice = sorted((game.canonical_key(p), game.canonical_key(q)) for p, q in move.choice.items())
        out.append(repr((type(move).__name__, choice)))
    for child in node.children:
        _strategy_lines(child, out)


def test_strategy_trees_are_pinned():
    # the strategy of every first-player win of a seeded corpus, fingerprinted;
    # the hash was taken before the solver read its successors from a cached
    # canonical order, so tree shape, moves and choices must not move
    rng = random.Random(7)
    digest = hashlib.sha256()
    wins = 0
    for _ in range(600):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        for m in range(4):
            for k in range(3):
                verdict = solve(GamePosition(m, k, pos.left, pos.right))
                if isinstance(verdict, SpoilerWins):
                    wins += 1
                    lines: list[str] = []
                    _strategy_lines(verdict.strategy, lines)
                    digest.update("\n".join(lines).encode() + b"\n\n")
    assert wins == 3127
    assert digest.hexdigest() == "e564e70a931cce8e2c475ebe8f4d9d80cc4879a5381392b23b431fd6ba5a5911"


@pytest.mark.parametrize("budget", [True, False, 2.5, 1.0, "1", None])
def test_non_integer_budgets_are_input_errors(vv1, ee1, budget):
    # bool is an int subclass: True would run as budget 1 without this check
    with pytest.raises(ValueError, match="integer"):
        GamePosition(budget, 0, vv1, ee1)
    with pytest.raises(ValueError, match="integer"):
        GamePosition(0, budget, vv1, ee1)
    with pytest.raises(ValueError, match="integer"):
        minimal_separating(vv1, ee1, budget)


@pytest.mark.parametrize("limit", [True, False, 2.5, "3"])
def test_non_integer_node_limits_are_input_errors(vv1, ee1, limit):
    with pytest.raises(ValueError, match="node_limit"):
        solve(GamePosition(3, 1, vv1, ee1), node_limit=limit)
    with pytest.raises(ValueError, match="node_limit"):
        minimal_separating(vv1, ee1, 5, node_limit=limit)


def test_minimal_stops_once_a_whole_total_is_dominated():
    # (0, 0) dominates the whole grid, so the walk stops after total 0
    # rather than testing 5 * 10^9 cells against the frontier
    p = PointedModel(KripkeModel(["w"], [], {"p": ["w"]}), "w")
    not_p = PointedModel(KripkeModel(["w"], [], {"p": []}), "w")
    start = time.perf_counter()
    frontier = minimal_separating([p], [not_p], 100_000)
    assert time.perf_counter() - start < 10
    assert frontier == [(0, 0, ml.Prop("p"))]


def _grid_frontier(a, b, max_total: int) -> list:
    """``minimal_separating`` without its stop: every cell up to max_total."""
    solver = game._Solver(GamePosition(max_total, 0, a, b), None, table=True)
    frontier: list = []
    for total in range(max_total + 1):
        for m in range(total + 1):
            k = total - m
            if not any(fm <= m and fk <= k for fm, fk, _ in frontier):
                formula = solver.win(m, k, *solver.root(m))
                if formula is not None:
                    frontier.append((m, k, formula))
    return sorted(frontier, key=lambda entry: entry[:2])


def test_minimal_stop_keeps_the_frontier():
    rng = random.Random(29)
    stopped = 0
    for _ in range(150):
        pos = random_position(rng, max_worlds=3, max_side=3, max_props=2)
        max_total = rng.randint(0, 5)
        expected = _grid_frontier(pos.left, pos.right, max_total)
        assert minimal_separating(pos.left, pos.right, max_total) == expected
        # a total below max_total whose cells are all dominated ends the walk
        stopped += any(
            all(any(fm <= m and fk <= t - m for fm, fk, _ in expected) for m in range(t + 1))
            for t in range(max_total)
        )
    assert stopped >= 20


def _searched_verdict(pos: GamePosition) -> dict:
    """``verdict_to_dict`` of the full search from the root, with no root
    decision before the solver; the solver decides on its table as in
    ``solve``."""
    solver = game._Solver(pos, None)
    formula = solver.win(pos.m, pos.k, *solver.root(pos.m))
    if formula is None:
        return verdict_to_dict(DuplicatorWins(nodes=solver.nodes))
    return verdict_to_dict(SpoilerWins(strategy=None, formula=formula, nodes=solver.nodes))


def _stuck_pair() -> tuple[frozenset, frozenset]:
    # each side holds a world without successors and the sides share no
    # class past depth 0, and no literal separates them
    model = KripkeModel(["a", "b", "c", "d"], [("b", "a"), ("d", "c")], {"p": ["a", "d"]})
    a, b, c, d = (PointedModel(model, w) for w in "abcd")
    return frozenset([a, b]), frozenset([c, d])


def test_root_decision_matches_the_search(monkeypatch, m_empty, m_single):
    built = []

    class CountingSolver(game._Solver):
        def __init__(self, pos, node_limit, **options):
            super().__init__(pos, node_limit, **options)
            built.append(pos)

    rng = random.Random(20240521)
    pairs = [random_position(rng, max_worlds=4, max_side=3, max_props=2) for _ in range(300)]
    pairs = [(pos.left, pos.right) for pos in pairs]
    pairs += [
        (frozenset(), frozenset()),
        (frozenset(), {m_single}),
        (frozenset([m_empty, m_single]), frozenset([m_single])),  # a shared class
        _stuck_pair(),
    ]
    decided = {"literal": 0, "terminal": 0, "shared": 0}
    for left, right in pairs:
        for m in range(4):
            for k in range(3):
                pos = GamePosition(m, k, left, right)
                expected = _searched_verdict(pos)
                with monkeypatch.context() as patch:
                    patch.setattr(game, "_Solver", CountingSolver)
                    verdict = solve(pos)
                assert verdict_to_dict(verdict) == expected, (pos, expected)
                status = terminal_status(pos)
                shared = {bisim.bounded_type(p, m) for p in left} & {
                    bisim.bounded_type(q, m) for q in right
                }
                if isinstance(status, SWin):
                    decided["literal"] += 1
                    assert verdict.strategy == game._strategy_for(status.literal, pos)
                elif status == D_WIN or shared:
                    decided["terminal" if status == D_WIN else "shared"] += 1
                else:
                    assert built.pop() is pos
                    continue
                assert verdict_to_dict(verdict)["nodes"] == 1 and not built, pos
    assert min(decided.values()) > 0, decided
    stuck = GamePosition(2, 0, *_stuck_pair())
    assert terminal_status(stuck) == D_WIN and verdict_to_dict(solve(stuck))["nodes"] == 1


def test_root_is_charged_before_it_is_decided(m_empty, m_single, prop_model):
    literal = GamePosition(2, 1, {prop_model}, {PointedModel(prop_model.model, "c")})
    shared = GamePosition(2, 1, {m_empty, m_single}, {m_single})
    for pos in (literal, shared):
        with pytest.raises(SearchBudgetExceeded) as exc:
            solve(pos, node_limit=0)
        assert exc.value.nodes == 1
        assert verdict_to_dict(solve(pos, node_limit=1))["nodes"] == 1
        for limit in (-1, True, 2.5, "1"):
            with pytest.raises(ValueError, match="node_limit"):
                solve(pos, node_limit=limit)
    # a mixed signature is an input error before any budget is charged
    mixed = GamePosition(1, 1, {m_empty}, {prop_model})
    for limit in (0, 1, None):
        with pytest.raises(ValueError, match="signature"):
            solve(mixed, node_limit=limit)


def test_vector_table_matches_the_oracle():
    # the criterion-1 corpus: the table's verdict at the root of each budget
    # is the oracle's, which works over worlds rather than classes
    rng = random.Random(20240521)
    for _ in range(300):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        oracle = VectorOracle(pos.left, pos.right, game.position_signature(pos))
        solver = game._Solver(GamePosition(3, 0, pos.left, pos.right), None, table=True)
        for m in range(4):
            for k in range(3):
                assert solver._separable(m, k, *solver.root(m)) == oracle.exists(m, k), (pos, m, k)


def test_vector_table_holds_every_vector_within_budget():
    # the solver's classes as the worlds of one model, with the children of
    # each class as its successors: the oracle's truth vectors over these
    # worlds are then vectors over the classes, read as trees.  A vector is
    # within (m, k) iff the table separates it from its complement there.
    rng = random.Random(83)
    for _ in range(12):
        pos = random_position(rng, max_worlds=3, max_side=3, max_props=2, m=3)
        solver = game._Solver(pos, None, table=True)
        names = {t: f"c{i:03}" for i, t in enumerate(solver.types)}
        signature = game.position_signature(pos)
        model = KripkeModel(
            list(names.values()),
            [(names[t], names[c]) for t in solver.types for c in bisim.TYPES.children(t)],
            {p: [names[t] for t in solver.types if p in bisim.TYPES.props(t)] for p in signature},
        )
        oracle = VectorOracle([PointedModel(model, "c000")], [], signature)
        full = (1 << len(solver.types)) - 1
        vectors = set().union(*(oracle._cls(m, k) for m in range(4) for k in range(3)))
        for k in range(3):
            for m in range(4):
                within = set().union(*(oracle._cls(mm, kk) for mm in range(m + 1) for kk in range(k + 1)))
                for v in vectors:
                    assert solver._separable(m, k, v, full ^ v) == (v in within), (pos, m, k, v)


def test_minimal_separating_with_and_without_the_table(monkeypatch):
    # the table cuts only subtrees D wins: the frontier keeps every formula,
    # and every position the table-less search met is separable iff S won it
    tableless = []

    class TablelessSolver(game._Solver):
        def __init__(self, pos, node_limit, *, table):
            super().__init__(pos, node_limit, table=False)
            tableless.append(self)

    rng = random.Random(97)
    for _ in range(100):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        with_table = minimal_separating(pos.left, pos.right, 6)
        with monkeypatch.context() as patch:
            patch.setattr(game, "_Solver", TablelessSolver)
            assert minimal_separating(pos.left, pos.right, 6) == with_table
        solver = tableless.pop()
        table = game._Solver(solver.pos, None, table=True)
        for (m, k, left, right), formula in solver.memo.items():
            assert table._separable(m, k, left, right) == (formula is not None)


def _family_splits(vv2, ee2, count: int) -> list[tuple[frozenset, frozenset]]:
    """Seeded splits of the n=2 family members into two non-empty sides."""
    members = sorted(vv2 | ee2, key=game.canonical_key)
    rng = random.Random(7)
    splits = []
    for _ in range(count):
        chosen = rng.sample(members, rng.randint(2, len(members)))
        cut = rng.randint(1, len(chosen) - 1)
        splits.append((frozenset(chosen[:cut]), frozenset(chosen[cut:])))
    return splits


def test_solve_table_rule_keeps_formulas_and_verdicts(monkeypatch, vv1, ee1, vv2, ee2):
    # solve builds the table where the root splits more ways than there are
    # classes; the table cuts only subtrees D wins, so the formula is the one
    # of the search without it, and the verdict is the oracle's
    gated = []

    class RecordingSolver(game._Solver):
        def __init__(self, pos, node_limit, **options):
            super().__init__(pos, node_limit, **options)
            gated.append(self._table is not None)

    tableless_solver = game._Solver
    monkeypatch.setattr(game, "_Solver", RecordingSolver)
    pairs = [(vv1, ee1), (vv2, ee2)] + _family_splits(vv2, ee2, 58)
    for left, right in pairs:
        oracle = VectorOracle(left, right, game.position_signature(GamePosition(0, 0, left, right)))
        for m in range(5):
            for k in range(3):
                pos = GamePosition(m, k, left, right)
                verdict = solve(pos)
                reference = tableless_solver(pos, None, table=False)
                formula = reference.win(m, k, *reference.root(m))
                found = verdict.formula if isinstance(verdict, SpoilerWins) else None
                assert found == formula, (pos, found, formula)
                assert isinstance(verdict, SpoilerWins) == oracle.exists(m, k), pos
    # the rule fires on some solves and not on others
    assert gated.count(True) >= 100 and gated.count(False) >= 100, (gated.count(True), len(gated))


def test_solve_table_rule_follows_the_root_split_count(vv1, ee1, vv2, ee2):
    # n=1: 2^1 + 2^0 = 3 ways over 4 classes; n=2: 2^3 + 2^5 = 40 over 11
    assert game._Solver(GamePosition(3, 1, vv1, ee1), None)._table is None
    assert game._Solver(GamePosition(3, 1, vv2, ee2), None)._table is not None
    # no split at k = 0, and explicit choices win over the rule
    assert game._Solver(GamePosition(3, 0, vv2, ee2), None)._table is None
    assert game._Solver(GamePosition(3, 1, vv2, ee2), None, table=False)._table is None
    assert game._Solver(GamePosition(3, 0, vv1, ee1), None, table=True)._table is not None
    assert game._splits(3, 0) == 4 and game._splits(1, 2) == 3
    # the rule counts the root's classes, not its members: on the criterion-1
    # corpus some roots would pass by their members alone
    rng = random.Random(20240521)
    fired = {"classes": 0, "members only": 0, "neither": 0}
    for _ in range(100):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        for m in range(4):
            solver = game._Solver(GamePosition(m, 1, pos.left, pos.right), None)
            size = len(solver.types)
            by_classes = game._splits(*(side.bit_count() for side in solver.root(m))) > size
            assert (solver._table is not None) == by_classes, (pos, m)
            by_members = game._splits(len(pos.left), len(pos.right)) > size
            fired["classes" if by_classes else "members only" if by_members else "neither"] += 1
    assert min(fired.values()) > 0, fired


def test_table_vectors_count_as_nodes(vv2, ee2):
    # a gated D root is one search state plus the vectors of its table
    solver = game._Solver(GamePosition(6, 3, vv2, ee2), None)
    assert solver.win(6, 3, *solver.root(6)) is None
    assert solver.nodes == 1 + sum(map(len, solver._table.values())) == 145
    # and the limit stops the table while it builds a layer
    for limit in (1, 10, 100, 144):
        with pytest.raises(SearchBudgetExceeded, match="table vectors") as exc:
            solve(GamePosition(6, 3, vv2, ee2), node_limit=limit)
        assert exc.value.nodes > limit
    assert verdict_to_dict(solve(GamePosition(6, 3, vv2, ee2), node_limit=145))["nodes"] == 145


def test_n3_solve_is_decided_by_the_table(vv3, ee3):
    # the 16 + 120 members would split 2^15 + 2^119 ways: without the table
    # the search listed the partitions of the right side and did not return
    started = time.perf_counter()
    verdict = solve(GamePosition(4, 2, vv3, ee3), node_limit=200_000)
    assert isinstance(verdict, DuplicatorWins)
    assert time.perf_counter() - started < 5


def test_small_node_limits_stop_the_n3_table(vv3, ee3):
    # the table is charged per vector and the limit is checked after each
    # vector kept with its complement, so a run stops one or two nodes past
    # it (a check per operand row stopped the 3,000 run at 3,032, a check
    # per layer at 4,212)
    for limit, run in (
        (200, lambda: minimal_separating(vv3, ee3, 16, node_limit=200)),
        (3_000, lambda: minimal_separating(vv3, ee3, 16, node_limit=3_000)),
        (200, lambda: solve(GamePosition(8, 4, vv3, ee3), node_limit=200)),
    ):
        started = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded) as exc:
            run()
        assert limit < exc.value.nodes <= limit + 2 and time.perf_counter() - started < 5


def test_diamond_reads_the_class_by_class_definition(vv2, ee2, vv3, ee3):
    # the byte tables give the classes with a child in v, for any mask v
    rng = random.Random(5)
    solvers = [
        game._Solver(GamePosition(15, 0, vv2, ee2), None, table=True),
        game._Solver(GamePosition(16, 0, vv3, ee3), None, table=True),
        game._Solver(GamePosition(0, 0, frozenset(), frozenset()), None, table=True),
    ]
    for _ in range(40):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        solvers.append(game._Solver(GamePosition(3, 1, pos.left, pos.right), None, table=True))
    assert [len(s.types) for s in solvers[:3]] == [11, 142, 0]
    assert max(len(s.types) for s in solvers[3:]) > 16  # more than two bytes
    for solver in solvers:
        size = len(solver.types)
        kids = [solver._union_children(1 << i) for i in range(size)]
        masks = [0, (1 << size) - 1] + [1 << i for i in range(size)]
        masks += [rng.getrandbits(size) for _ in range(200)] if size else []
        for v in masks:
            expected = sum(1 << i for i in range(size) if kids[i] & v)
            assert solver._diamond(v) == expected, (size, v)


def _closed_table_vectors(solver) -> int:
    """Assert that every built layer of a table is its own set of
    complements, with no vector twice, and that a vector and its complement
    share one budget tuple; return how many vectors the layers hold."""
    full = (1 << len(solver.types)) - 1
    for budget, layer in solver._table.items():
        assert len(set(layer)) == len(layer), budget
        assert {full ^ v for v in layer} == set(layer), budget
    reached = solver._reached
    assert all(reached[v] is reached[full ^ v] for v in reached)
    return sum(map(len, solver._table.values()))


def test_every_table_layer_is_closed_under_complement(monkeypatch, vv2, ee2, vv3, ee3):
    # the budget counts no negation, so the dual of a formula has its (m, k)
    # and every layer is closed under complement: the table forms only <>
    # and &, and keeps each new vector with its complement
    solvers = []

    class RecordingSolver(game._Solver):
        def __init__(self, pos, node_limit, *, table):
            super().__init__(pos, node_limit, table=table)
            solvers.append(self)

    monkeypatch.setattr(game, "_Solver", RecordingSolver)
    assert len(minimal_separating(vv2, ee2, 15)) == 1
    assert minimal_separating(vv3, ee3, 12) == []
    assert [_closed_table_vectors(solver) for solver in solvers] == [936, 4_136]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 2))
def test_seeded_table_layers_are_closed_under_complement(seed, m, k):
    # a searched position, then every layer within its budget, the ceiling too
    pos = random_position(random.Random(seed), max_worlds=4, max_side=3, max_props=2, m=m, k=k)
    solver = game._Solver(pos, None, table=True)
    solver.win(m, k, *solver.root(m))
    solver._layer(m, k)
    _closed_table_vectors(solver)


def test_an_empty_universe_keeps_the_literal_layer_once():
    # with no class every literal's truth vector is 0, its own complement:
    # layer (0, 0) keeps it once, and no other layer keeps a vector
    solver = game._Solver(GamePosition(2, 2, frozenset(), frozenset()), None, table=True)
    assert solver._layer(2, 2) == []
    assert solver._table[0, 0] == [0] and solver.nodes == 1
    assert all(layer == [] for budget, layer in solver._table.items() if budget != (0, 0))


def _reference_layers(solver, m: int, k: int) -> dict[tuple[int, int], set[int]]:
    """The vectors new to each budget within (m, k): those within it and
    within no smaller one.  The vectors within a budget are built plainly,
    with &, |, <> and [] over all vectors within the smaller budgets, and
    <> read class by class."""
    size = len(solver.types)
    full = (1 << size) - 1
    kids = [solver._union_children(1 << i) for i in range(size)]
    diamond = lambda v: sum(1 << i for i in range(size) if kids[i] & v)
    within: dict[tuple[int, int], set[int]] = {}
    new = {}
    for kk in range(k + 1):
        for mm in range(m + 1):
            smaller = set()
            if mm:
                smaller |= within[mm - 1, kk]
            if kk:
                smaller |= within[mm, kk - 1]
            found = set(smaller)
            if mm == kk == 0:
                found = {truth for _, truth, _ in solver.literals}
            if mm:
                found |= {diamond(v) for v in within[mm - 1, kk]}
                found |= {full ^ diamond(full ^ v) for v in within[mm - 1, kk]}
            for k1 in range(kk):
                for m1 in range(mm + 1):
                    for v1 in within[m1, k1]:
                        for v2 in within[mm - m1, kk - 1 - k1]:
                            found.add(v1 & v2)
                            found.add(v1 | v2)
            within[mm, kk] = found
            new[mm, kk] = found - smaller
    return new


def test_table_layers_match_a_plain_reference_build():
    # each layer, as a set, holds the vectors new to its budget, and the
    # solver charges one node for each of them
    rng = random.Random(29)
    for _ in range(100):
        m, k = rng.randint(0, 3), rng.randint(0, 2)
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2, m=m, k=k)
        solver = game._Solver(pos, None, table=True)
        solver._layer(m, k)
        reference = _reference_layers(solver, m, k)
        assert solver._table.keys() == reference.keys()
        for budget, layer in solver._table.items():
            assert len(set(layer)) == len(layer) and set(layer) == reference[budget], (pos, budget)
        assert solver.nodes == sum(map(len, reference.values())), pos


def _every_candidate(self, m: int, k: int) -> list[int]:
    """``_Solver._new_vectors`` with no candidate left out: every row of
    every pair of layers, both orders of each pair, and <> of every vector,
    read class by class; each is kept through ``_keep``."""
    size, table = len(self.types), self._table
    kids = [self._union_children(1 << i) for i in range(size)]
    budget = (m, k)
    new: list[int] = []
    if m == 0 and k == 0:
        self._keep(budget, {truth for _, truth, _ in self.literals}, new)
    if m >= 1:
        diamonds = {sum(1 << i for i in range(size) if kids[i] & v) for v in table[m - 1, k]}
        self._keep(budget, diamonds, new)
    for k1 in range(k):
        for m1 in range(m + 1):
            for v1 in table[m1, k1]:
                self._keep(budget, {v1 & v2 for v2 in table[m - m1, k - 1 - k1]}, new)
    return new


def test_table_skips_only_candidates_it_holds(monkeypatch, vv2, ee2, vv3, ee3):
    # the ⊥ and ⊤ rows, the mirrored half of a layer paired with itself and
    # a second <> of one projection add no vector: the frontiers, every
    # layer as a set and the node totals equal those of a build that forms
    # every candidate
    runs, base = {}, game._Solver
    for name, kernel in (("kernel", base._new_vectors), ("every", _every_candidate)):
        solvers = []

        class RecordingSolver(base):
            def __init__(self, pos, node_limit, *, table):
                super().__init__(pos, node_limit, table=table)
                solvers.append(self)

        monkeypatch.setattr(RecordingSolver, "_new_vectors", kernel)
        monkeypatch.setattr(game, "_Solver", RecordingSolver)
        frontiers = [minimal_separating(vv2, ee2, 15), minimal_separating(vv3, ee3, 12)]
        layers = [{b: set(layer) for b, layer in s._table.items()} for s in solvers]
        runs[name] = (frontiers, layers, [s.nodes for s in solvers])
    assert runs["kernel"] == runs["every"]
    assert runs["kernel"][2] == [1_130, 4_227]


def _plain_operand_pairs(table, m: int, k: int) -> list[tuple[list[int], list[int]]]:
    """Every pair of budgets (m1, k1) + (m2, k2) = (m, k - 1) with
    (m1, k1) <= (m2, k2) and both layers non-empty, k1-outer and m1-inner."""
    out = []
    for k1 in range(k):
        for m1 in range(m + 1):
            m2, k2 = m - m1, k - 1 - k1
            if (m1, k1) <= (m2, k2) and table[m1, k1] and table[m2, k2]:
                out.append((table[m1, k1], table[m2, k2]))
    return out


def test_operand_pairs_are_the_ordered_half_of_the_grid():
    # the same layers in the same order as a filter over the whole grid, with
    # every layer non-empty and with some of them empty
    solver = object.__new__(game._Solver)
    for empty in (lambda m, k: False, lambda m, k: (3 * m + k) % 4 == 1):
        solver._table = {(m, k): [] if empty(m, k) else [m, k] for m in range(13) for k in range(13)}
        for m in range(13):
            for k in range(13):
                pairs = list(solver._operand_pairs(m, k))
                expected = _plain_operand_pairs(solver._table, m, k)
                assert len(pairs) == len(expected), (m, k)
                assert all(a is c and b is d for (a, b), (c, d) in zip(pairs, expected)), (m, k)


def _scan_from_scratch(solver, m: int, k: int, A: int, B: int) -> bool:
    """``_separable`` without its record of scanned layers: every layer within
    (m, k), kk-outer and mm-inner, building the missing ones, the ceiling
    layer too."""
    table = solver._table
    for kk in range(k + 1):
        for mm in range(m + 1):
            layer = table.get((mm, kk))
            if layer is None:
                layer = table[mm, kk] = solver._new_vectors(mm, kk)
            if any(A & v == A and not v & B for v in layer):
                return True
    return False


def _built_layer(solver, m: int, k: int) -> list[int]:
    """Layer (m, k), built as a full scan builds it: each missing layer
    within (m, k), kk-outer and mm-inner, the ceiling layer too."""
    table = solver._table
    for kk in range(k + 1):
        for mm in range(m + 1):
            if (mm, kk) not in table:
                table[mm, kk] = solver._new_vectors(mm, kk)
    return table[m, k]


def _tables_agree(solver, reference) -> int:
    """Assert that the solver built the reference's layers, in the same
    order, but for the ceiling layers m + k = pos.m + pos.k that it decided
    without building them; return how many vectors those hold."""
    ceiling = solver.pos.m + solver.pos.k
    off_ceiling = lambda table: [key for key in table if sum(key) != ceiling]
    assert off_ceiling(solver._table) == off_ceiling(reference._table)
    assert all(reference._table[key] == layer for key, layer in solver._table.items())
    skipped = reference._table.keys() - solver._table.keys()
    assert all(sum(key) == ceiling for key in skipped), skipped
    return sum(len(reference._table[key]) for key in skipped)


def test_scan_record_answers_like_a_full_scan(monkeypatch, vv1, ee1, vv2, ee2):
    # every query of the n=2 frontier, of the n=1 and n=2 family cells and of
    # table-forced corpus solves: the answer of the resumed scan is that of a
    # full scan on a second table, and each ceiling layer decided without
    # being built answers as a scan of that layer built in full.  The second
    # table also builds the layers a table-chosen split builds, so both
    # tables build the same layers in the same order, but for the ceiling.
    solvers = []
    plain = game._Solver

    class CheckedSolver(plain):
        def __init__(self, pos, node_limit, *, table):
            super().__init__(pos, node_limit, table=table)
            self.reference = plain(pos, node_limit, table=table)
            self.queries = []
            self.decided = []  # the answers of the ceiling queries
            solvers.append(self)

        def _separable(self, m, k, A, B):
            answer = super()._separable(m, k, A, B)
            assert answer == _scan_from_scratch(self.reference, m, k, A, B), (m, k, A, B)
            _tables_agree(self, self.reference)
            self.queries.append((A, B))
            return answer

        def _ceiling_holds(self, m, k, A, B):
            answer = super()._ceiling_holds(m, k, A, B)
            layer = _built_layer(self.reference, m, k)
            assert answer == any(A & v == A and not v & B for v in layer), (m, k, A, B)
            self.decided.append(answer)
            return answer

        def _first_winning_part(self, m, k, side, other):
            for kk in range(k):
                for mm in range(m + 1):
                    self.reference._layer(mm, kk)
            return super()._first_winning_part(m, k, side, other)

    monkeypatch.setattr(game, "_Solver", CheckedSolver)
    frontier = minimal_separating(vv2, ee2, 15)
    (solver,) = solvers
    assert frontier == [(12, 3, parse_ml("([][]<>T | []<>[]F) & ([]<><>T | [][][]F)"))]
    # the table picks every split, so the frontier asks about only 13 pairs
    # of sides; the walk over every partition asked 1,526 queries about 118
    assert (len(solver.queries), len(set(solver.queries))) == (116, 13)
    # the root queries m + k = 15 whose sides share no class (m >= 3) are
    # decided without building their layers: only the frontier's (12, 3) holds
    assert solver.decided.count(True) == 1 and len(solver.decided) == 13
    assert _tables_agree(solver, solver.reference) == 194
    assert solver.nodes == 1_130  # 194 search states plus 936 vectors
    # the family cells and table-forced solves of the criterion-1 corpus ask
    # about many more pairs; each root query is at the ceiling
    cells = [(vv1, ee1, m, k) for m in range(6) for k in range(4)]
    cells += [(vv2, ee2, m, k) for m in range(6) for k in range(4)]
    rng = random.Random(5)
    for _ in range(60):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        cells += [(pos.left, pos.right, m, k) for m in range(4) for k in range(3)]
    for left, right, m, k in cells:
        checked = CheckedSolver(GamePosition(m, k, left, right), None, table=True)
        checked.win(m, k, *checked.root(m))
        _tables_agree(checked, checked.reference)
    assert sum(len(set(checked.queries)) for checked in solvers[1:]) >= 100
    # 93 of their root queries are decided at the ceiling: 35 hold, 58 do not
    decided = [answer for checked in solvers[1:] for answer in checked.decided]
    assert (decided.count(True), decided.count(False)) == (35, 58)


def test_scan_record_builds_the_layers_of_a_full_scan():
    # queries in no particular order on a few pairs of sides: a pair that met
    # a separator at a small budget is scanned again at a larger one, and the
    # layers a full scan would build below that separator are built too.  A
    # ceiling layer is built only once a query above the ceiling needs it,
    # and the solver charges only the vectors it built
    rng = random.Random(11)
    for _ in range(30):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2, m=4)
        solver = game._Solver(pos, None, table=True)
        reference = game._Solver(pos, None, table=True)
        size = len(solver.types)
        pairs = [(rng.getrandbits(size), rng.getrandbits(size)) for _ in range(3)]
        pairs = [(A & ~B, B) for A, B in pairs] + [solver.root(m) for m in (1, 4)]
        for _ in range(15):
            m, k = rng.randint(0, 4), rng.randint(0, 2)
            A, B = rng.choice(pairs)
            answer = solver._separable(m, k, A, B)
            assert answer == _scan_from_scratch(reference, m, k, A, B), (pos, m, k, A, B)
            assert solver.nodes == reference.nodes - _tables_agree(solver, reference)


def test_the_literal_layer_is_decided_at_a_zero_ceiling():
    # a solver typed at (0, 0) has the literals' layer as its ceiling: it is
    # decided from the literals' truths, and nothing is built or charged
    rng = random.Random(13)
    answers = []
    for _ in range(30):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2, m=0, k=0)
        solver = game._Solver(pos, None, table=True)
        reference = game._Solver(pos, None, table=True)
        size = len(solver.types)
        pairs = [solver.root(0)] + [(rng.getrandbits(size), rng.getrandbits(size)) for _ in range(5)]
        for A, B in pairs:
            answers.append(solver._separable(0, 0, A & ~B, B))
            assert answers[-1] == _scan_from_scratch(reference, 0, 0, A & ~B, B), (pos, A, B)
        assert solver._table == {} and solver.nodes == 0
    assert True in answers and False in answers


def test_n3_table_counts_and_stops_are_pinned(monkeypatch, vv2, ee2, vv3, ee3):
    # a node count or a stop that moves without a reason is a regression of
    # the table; the limit is checked after each vector kept with its
    # complement, so each run stops one or two nodes past it (the stops
    # were 231, 3,032, 203, 157, 1,012 and 17 with a check per operand row)
    solvers = []

    class RecordingSolver(game._Solver):
        def __init__(self, pos, node_limit, *, table):
            super().__init__(pos, node_limit, table=table)
            solvers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(game, "_Solver", RecordingSolver)
        assert minimal_separating(vv3, ee3, 16) == []
    # 153 search states plus 58,996 vectors; the 54,812 vectors of the
    # ceiling layers m + k = 16 are decided without being built (113,961
    # nodes when they were)
    assert solvers.pop().nodes == 59_149
    stops = [
        (201, lambda: minimal_separating(vv3, ee3, 16, node_limit=200)),
        (3_002, lambda: minimal_separating(vv3, ee3, 16, node_limit=3_000)),
        (201, lambda: solve(GamePosition(8, 4, vv3, ee3), node_limit=200)),
        (145, lambda: minimal_separating(vv2, ee2, 15, node_limit=144)),
        (1_001, lambda: minimal_separating(vv2, ee2, 15, node_limit=1_000)),
        (11, lambda: solve(GamePosition(6, 3, vv2, ee2), node_limit=10)),
    ]
    for nodes, run in stops:
        with pytest.raises(SearchBudgetExceeded) as exc:
            run()
        assert exc.value.nodes == nodes


def test_table_budgets_are_flat_tuples_shared_per_layer(monkeypatch, vv2, ee2):
    # a kept vector costs its key, its place in its layer and one reference
    # to the budget tuple its layer shares: the 16-chain against a loop keeps
    # 65,536 vectors at about 81 traced bytes each (225 with a list of
    # budget tuples per vector)
    solvers = []

    class RecordingSolver(game._Solver):
        def __init__(self, pos, node_limit, *, table):
            super().__init__(pos, node_limit, table=table)
            solvers.append(self)

    monkeypatch.setattr(game, "_Solver", RecordingSolver)
    left, right = _chain_against_loop(16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert [(m, k) for m, k, _ in minimal_separating(left, right, 16)] == [(16, 0)]
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    reached = solvers.pop()._reached
    assert len(reached) == 1 << 16
    assert traced / len(reached) <= 120, traced / len(reached)
    # on the n=2 frontier each vector lists (m1, k1, m2, k2, ...), exactly the
    # budgets of the layers that hold it, in the order they were built; a
    # vector in one layer holds that layer's own tuple, and 16 of the 920
    # vectors reach a second, incomparable budget
    minimal_separating(vv2, ee2, 15)
    solver = solvers.pop()
    holding: dict[int, list[tuple[int, int]]] = {}
    for budget, layer in solver._table.items():
        for v in layer:
            holding.setdefault(v, []).append(budget)
    assert holding.keys() == solver._reached.keys()
    shared: dict[tuple[int, ...], set[int]] = {}
    for v, budgets in solver._reached.items():
        assert list(zip(budgets[::2], budgets[1::2])) == holding[v], v
        if len(budgets) == 2:
            shared.setdefault(budgets, set()).add(id(budgets))
    assert all(len(ids) == 1 for ids in shared.values())
    assert sum(len(budgets) > 2 for budgets in solver._reached.values()) == 16


def _first_split_by_search(solver, m: int, k: int, side: int, other: int, split_left: bool):
    """Part 1 of the first partition of a side, in ``_anchored_partitions``
    order, whose two parts S wins at some split of (m, k), each part asked
    about at its cut with ``_separable``; None when no partition wins."""
    others = solver._cut(other, m)
    for part1, part2 in game._anchored_partitions(side):
        parts1, parts2 = solver._cut(part1, m), solver._cut(part2, m)
        for k1 in range(k):
            for m1 in range(m + 1):
                m2, k2 = m - m1, k - 1 - k1
                if split_left:
                    wins = solver._separable(m1, k1, parts1[m1], others[m1]) and solver._separable(
                        m2, k2, parts2[m2], others[m2]
                    )
                else:
                    wins = solver._separable(m1, k1, others[m1], parts1[m1]) and solver._separable(
                        m2, k2, others[m2], parts2[m2]
                    )
                if wins:
                    return part1
    return None


def test_table_picks_the_split_the_walk_finds(vv1, ee1, vv2, ee2):
    # a solver with the table reads the first winning partition off its
    # vectors, where a solver without one walks every partition: the
    # formulas are the same, and the pick is the first partition S wins.
    # The layers are closed under complement, so S wins the same parts of
    # an or-split of side against other as of an and-split: one pick serves
    # both kinds
    picks = []

    class RecordingSolver(game._Solver):
        def _first_winning_part(self, m, k, side, other):
            part1 = super()._first_winning_part(m, k, side, other)
            picks.append((self, m, k, side, other, part1))
            return part1

    rng = random.Random(20240521)
    cells = []
    for _ in range(200):
        pos = random_position(rng, max_worlds=4, max_side=3, max_props=2)
        cells += [(pos.left, pos.right, m, k) for m in range(4) for k in range(3)]
    for left, right in ((vv1, ee1), (vv2, ee2)):
        cells += [(left, right, m, k) for m in range(6) for k in range(4)]
    for left, right, m, k in cells:
        pos = GamePosition(m, k, left, right)
        table = RecordingSolver(pos, None, table=True)
        walk = game._Solver(pos, None, table=False)
        assert table.win(m, k, *table.root(m)) == walk.win(m, k, *walk.root(m)), pos
    assert sum(part1 is not None for *_, part1 in picks) >= 100, len(picks)
    for solver, m, k, side, other, part1 in picks:
        for split_left in (True, False):
            assert part1 == _first_split_by_search(solver, m, k, side, other, split_left)


def _wide_split(n: int) -> GamePosition:
    """The 2^n single-world models over p0..p(n-1): left holds those where
    (p0 & p1) | (p2 & p3) holds, right the others, at budget (0, 3)."""
    props = [f"p{i}" for i in range(n)]
    left, right = [], []
    for bits in range(1 << n):
        model = KripkeModel(["w"], [], {p: ["w"] if bits >> i & 1 else [] for i, p in enumerate(props)})
        holds = bits & 3 == 3 or bits & 12 == 12
        (left if holds else right).append(PointedModel(model, "w"))
    return GamePosition(0, 3, left, right)


_CAPPED_SOLVE_SCRIPT = """
import json, resource, sys, time
from fsgame import game
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
with open(sys.argv[1], encoding="utf-8") as fh:
    pos = game.position_from_dict(json.load(fh))
limit = int(sys.argv[2]) if len(sys.argv) > 2 else None
start = time.perf_counter()
try:
    out = game.verdict_to_dict(game.solve(pos, node_limit=limit))
except game.SearchBudgetExceeded as exc:
    out = {"error": "budget-exceeded", "nodes": exc.nodes}
out["seconds"] = time.perf_counter() - start
print(json.dumps(out))
"""


def _solve_capped(tmp_path, pos: GamePosition, node_limit: int | None = None) -> dict:
    """``solve`` in a child under a 2 GB address-space cap and a time limit,
    so a regression fails the test and does not exhaust the machine's memory:
    the verdict as ``verdict_to_dict`` gives it, or the budget error, with the
    seconds the call took."""
    path = tmp_path / "position.json"
    path.write_text(json.dumps(position_to_dict(pos)))
    args = [] if node_limit is None else [str(node_limit)]
    src = str(Path(game.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_SOLVE_SCRIPT, str(path), *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_wide_split_is_read_off_the_table(tmp_path):
    # each model is its own class, so the root splits 2^(a-1) + 2^(b-1) ways
    # over 2^n classes and solve keeps the table; the walk over every
    # partition of the left side took 35,775 nodes at n=5 and ran out of
    # memory at n=6, where the left side has 2^27 partitions
    # 8 search states plus 732 vectors: the 4,420 vectors of the root's own
    # layer (0, 3), the ceiling, are decided without being built (5,160
    # nodes when they were)
    verdict = solve(_wide_split(5))
    assert isinstance(verdict, SpoilerWins) and verdict.nodes == 740
    assert verdict.formula == parse_ml("p1 & p0 | p3 & p2")
    # n=6 runs in a capped child
    verdict = _solve_capped(tmp_path, _wide_split(6))
    assert (verdict["winner"], verdict["formula"]) == ("S", "p1 & p0 | p3 & p2")


def _star(n: int) -> GamePosition:
    """A root with one child where p0..p(n-1) all hold, against a root whose
    2^n - 1 children carry the other valuations, at budget (1, 4).  Each root
    is one class, so solve keeps no table, and ``<>`` opens a right side of
    2^n - 1 classes."""
    props = [f"p{i}" for i in range(n)]
    one = KripkeModel(["r", "c"], [("r", "c")], {p: ["c"] for p in props})
    children = [f"c{bits}" for bits in range((1 << n) - 1)]
    valuation = {p: [f"c{bits}" for bits in range((1 << n) - 1) if bits >> i & 1] for i, p in enumerate(props)}
    many = KripkeModel(["r", *children], [("r", c) for c in children], valuation)
    return GamePosition(1, 4, [PointedModel(one, "r")], [PointedModel(many, "r")])


def test_star_input_stops_at_its_node_budget(tmp_path):
    # the split walk makes each partition only when it gets to it, so the
    # node budget stops it; listing all of them first, 2^30 partitions at
    # n=5, ran out of a 2 GB cap after about 5 s
    with pytest.raises(SearchBudgetExceeded) as exc:
        solve(_star(4), node_limit=100)
    assert exc.value.nodes == 101
    out = _solve_capped(tmp_path, _star(5), node_limit=100)
    assert (out["error"], out["nodes"]) == ("budget-exceeded", 101)
    assert out["seconds"] < 5, out


def _ladder(m: int) -> GamePosition:
    """Levels 0..m of worlds a_i, where p holds, and b_i, each with edges to
    a_(i+1) and b_(i+1), pointed at a_0, against a one-world p-loop at budget
    (m, 0).  A depth-m class unfolds to 2^m leaves."""
    worlds = [f"{x}{i}" for i in range(m + 1) for x in "ab"]
    edges = [(f"{x}{i}", f"{y}{i + 1}") for i in range(m) for x in "ab" for y in "ab"]
    ladder = KripkeModel(worlds, edges, {"p": [f"a{i}" for i in range(m + 1)]})
    loop = KripkeModel(["l"], [("l", "l")], {"p": ["l"]})
    return GamePosition(m, 0, [PointedModel(ladder, "a0")], [PointedModel(loop, "l")])


def test_class_keys_stay_small_on_deep_branching_models(tmp_path):
    # a class's sort key shares its children's keys; pasting them into one
    # string made a key as long as the unfolding: a 193 MB peak at m=22,
    # four times more per +2 in m
    out = _solve_capped(tmp_path, _ladder(40), node_limit=100)
    assert (out["winner"], out["formula"], out["nodes"]) == ("S", "<>~p", 2)
    assert out["seconds"] < 5, out


def test_keys_that_agree_down_long_chains_order_quickly():
    # a root with two chains of 400 worlds, p only at the end of one, against
    # a loop without p: the universe holds 1,200 classes whose keys agree
    # down hundreds of levels.  A child key is equal to another only when it
    # is the same object; with structural equality, ordering them took 6 s
    worlds = ["r"] + [f"{x}{i}" for x in "uv" for i in range(400)]
    edges = [("r", "u0"), ("r", "v0")]
    edges += [(f"{x}{i}", f"{x}{i + 1}") for x in "uv" for i in range(399)]
    fork = KripkeModel(worlds, edges, {"p": ["u399"]})
    loop = KripkeModel(["l"], [("l", "l")], {"p": []})
    start = time.perf_counter()
    verdict = solve(GamePosition(401, 0, [PointedModel(fork, "r")], [PointedModel(loop, "l")]))
    assert isinstance(verdict, SpoilerWins)
    assert time.perf_counter() - start < 2


def test_a_wide_universe_stops_at_its_node_budget_within_its_memory(monkeypatch):
    # a kept vector's key is an int as wide as the universe, so a vector costs
    # more on wide universes: the 100-chain against a loop has 101 classes and
    # keeps about 105 traced bytes per vector when the budget stops it (81 on
    # the 16-chain)
    solvers = []

    class RecordingSolver(game._Solver):
        def __init__(self, pos, node_limit, *, table):
            super().__init__(pos, node_limit, table=table)
            solvers.append(self)

    monkeypatch.setattr(game, "_Solver", RecordingSolver)
    left, right = _chain_against_loop(100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(SearchBudgetExceeded) as exc:
            minimal_separating(left, right, 100, node_limit=200_000)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    solver = solvers.pop()
    assert len(solver.types) == 101 and exc.value.nodes == solver.nodes > 200_000
    reached = solver._reached
    assert len(reached) > 190_000
    assert traced / len(reached) <= 150, traced / len(reached)


def _chain_against_loop(n: int) -> tuple[frozenset, frozenset]:
    """A chain of n worlds against a one-world loop: only a formula with n
    modal operators separates them."""
    worlds = [f"w{i}" for i in range(n)]
    chain = KripkeModel(worlds, list(zip(worlds, worlds[1:])), {})
    loop = KripkeModel(["a"], [("a", "a")], {})
    return frozenset([PointedModel(chain, "w0")]), frozenset([PointedModel(loop, "a")])


def _frames() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_searches_past_the_recursion_limit_raise_a_clear_error():
    # the search takes two frames per modal step: a 1,000-world chain passes
    # the default limit, and the error names the modal budget
    left, right = _chain_against_loop(1_000)
    with pytest.raises(SearchTooDeep, match="recursion limit .* at modal budget 1005$") as exc:
        solve(GamePosition(1_005, 0, left, right))
    assert isinstance(exc.value, RecursionError) and exc.value.m == 1_005
    # minimal_separating names the budget of the query that nested too deep;
    # a small chain under a lowered limit keeps its table small
    left, right = _chain_against_loop(10)
    assert minimal_separating(left, right, 10) == [(10, 0, parse_ml("<>" * 9 + "[]F"))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 12)
    try:
        with pytest.raises(SearchTooDeep) as exc:
            minimal_separating(left, right, 10)
    finally:
        sys.setrecursionlimit(limit)
    assert 0 < exc.value.m <= 10 and str(exc.value).endswith(f"at modal budget {exc.value.m}")


def test_strategies_leave_no_cyclic_garbage():
    # the strategy builder is a plain recursion: with the collector paused, a
    # batch of first-player wins frees everything by reference counting
    rng = random.Random(41)
    positions = [random_position(rng, max_worlds=4, max_side=3, max_props=2) for _ in range(40)]
    gc.collect()
    gc.disable()
    try:
        wins = 0
        for pos in positions:
            for m in range(3):
                verdict = solve(GamePosition(m, 2, pos.left, pos.right))
                wins += isinstance(verdict, SpoilerWins)
                verdict = None
        garbage = gc.collect()
    finally:
        gc.enable()
    assert wins >= 20 and garbage == 0, (wins, garbage)


def test_solver_memo_keys_are_depth_m_classes(vv2, ee2):
    # _Solver.win takes masks of depth-m classes and does not cut them itself;
    # every class of every memo key must therefore be a fixed point of the cut
    rng = random.Random(37)
    positions = [GamePosition(3, 1, vv2, ee2)] + [random_position(rng) for _ in range(25)]
    for pos in positions:
        solver = game._Solver(pos, None)
        solver.win(pos.m, pos.k, *solver.root(pos.m))
        assert solver.memo
        for m, _, left, right in solver.memo:
            classes = [solver.types[i] for i in game._bits(left | right)]
            assert all(bisim.truncate_type(t, m) == t for t in classes), (pos, m)


def _reference_cut(solver, mask: int, m: int) -> list[int]:
    # the cut as computed before the solver kept cut bits per class
    types = [solver.types[i] for i in game._bits(mask)]
    cuts = [solver.encode(bisim.truncate_type(t, d) for t in types) for d in range(m)]
    cuts.append(mask)
    return cuts


def test_cut_matches_the_truncation_reference(vv2, ee2):
    rng = random.Random(53)
    positions = [GamePosition(5, 1, vv2, ee2)] + [random_position(rng, m=3) for _ in range(60)]
    for pos in positions:
        solver = game._Solver(pos, None, table=False)
        full = (1 << len(solver.types)) - 1
        masks = {0, full, *solver.root(pos.m)} | {1 << i for i in range(len(solver.types))}
        masks |= {rng.randint(0, full) for _ in range(10)}
        for mask in sorted(masks):
            for m in range(pos.m + 1):
                assert solver._cut(mask, m) == _reference_cut(solver, mask, m), (pos, mask, m)


def test_literal_separates_matches_separates():
    rng = random.Random(59)
    positions = [random_position(rng, max_props=2) for _ in range(300)]
    positions += [
        GamePosition(0, 0, side, frozenset()) for side in (positions[0].left, frozenset())
    ] + [GamePosition(0, 0, frozenset(), positions[1].right)]
    seen = set()
    for pos in positions:
        signature = game.position_signature(pos)
        for lit in game._literals(signature):
            found = game._literal_separates(lit, pos)
            assert found == separates(lit, pos.left, pos.right), (pos, lit)
            seen.add((len(signature), type(lit).__name__, found))
    # every kind of literal both separates and fails, and the empty signature occurs
    assert {(kind, found) for _, kind, found in seen} == {
        (kind, found) for kind in ("Bot", "Top", "Prop", "NegProp") for found in (True, False)
    }
    assert {size for size, _, _ in seen} == {0, 1, 2}


def test_solve_makes_the_literal_list_once(monkeypatch, vv1, ee1):
    # the root decision and the solver share the position's literal list
    made = []
    literals = game._literals
    monkeypatch.setattr(game, "_literals", lambda signature: made.append(1) or literals(signature))
    for m, k in ((0, 0), (1, 0), (2, 1), (3, 2)):
        pos = GamePosition(m, k, vv1, ee1)
        solve(pos)
        solve(pos)
        assert len(made) == 1
        made.clear()


def _oracle_frontier(oracle: VectorOracle, max_total: int) -> list[tuple[int, int]]:
    found: list[tuple[int, int]] = []
    for total in range(max_total + 1):
        for m in range(total + 1):
            k = total - m
            if not any(fm <= m and fk <= k for fm, fk in found) and oracle.exists(m, k):
                found.append((m, k))
    return sorted(found)


def test_sides_that_repeat_a_class_match_the_oracle():
    # members of one class set one bit of a side, also where only the cut of
    # a split makes two classes equal; the oracle sees every member as a point
    rng = random.Random(89)
    for _ in range(10):
        props = random_signature(rng, 1)
        p, q = random_pointed(rng, 3, props), random_pointed(rng, 3, props)
        twins = frozenset([p, unfold(p, 1), unfold(p, 2)])
        cases = [
            (twins, frozenset([q])),  # equivalent members on one side
            (frozenset([q]), twins),
            (twins | {q}, frozenset([unfold(q, 2)])),  # a class on both sides
            (twins, frozenset()),  # an empty side
            (frozenset(), frozenset([q, unfold(q, 1)])),
        ]
        for left, right in cases:
            oracle = VectorOracle(left, right, props)
            for m in range(4):
                for k in range(3):
                    verdict = solve(GamePosition(m, k, left, right))
                    assert isinstance(verdict, SpoilerWins) == oracle.exists(m, k), (m, k)
            frontier = minimal_separating(left, right, 4)
            assert [(m, k) for m, k, _ in frontier] == _oracle_frontier(oracle, 4)


def test_duplicator_bisim_strategy_validation(m_empty, m_single, vv1, ee1):
    pos = GamePosition(2, 1, {m_empty}, {m_empty})
    witness = bisim.n_bisimilar(m_empty, m_empty, 1)
    with pytest.raises(ValueError, match="depth"):
        duplicator_bisim_strategy(pos, witness)
    with pytest.raises(ValueError, match="left"):
        duplicator_bisim_strategy(GamePosition(1, 0, {m_single}, {m_empty}), witness)


def test_duplicator_bisim_strategy_split_and_succ(m_empty, m_single):
    left_extra = PointedModel(KripkeModel(["z"], [("z", "z")]), "z")
    pin = m_single
    twin = unfold(m_single, 2)
    pos = GamePosition(2, 1, frozenset([pin, left_extra]), frozenset([twin]))
    responder = duplicator_bisim_strategy(pos, bisim.n_bisimilar(pin, twin, 2))
    # split that isolates the pinned model forces the matching branch
    move = LeftSplit(2, 0, frozenset([pin]), 0, 0, frozenset([left_extra]))
    choice, nxt = responder.respond(move)
    assert choice == "left"
    assert nxt.position == apply_move(pos, move, "left")
    # successor move re-pins through the equivalence
    succ_move = LeftSucc({pin: next(iter(successors(pin)))})
    choice, after = nxt.respond(succ_move)
    assert choice is None
    assert after.pin_left in after.position.left
    assert after.pin_right in after.position.right
    assert bisim.n_bisimilar(after.pin_left, after.pin_right, after.position.m) is not None
    with pytest.raises(IllegalMoveError, match="not a move"):
        responder.respond("pass")


def test_duplicator_bisim_strategy_survives_exhaustive_play():
    rng = random.Random(53)
    for _ in range(12):
        props = random_signature(rng, 1)
        p = random_pointed(rng, 3, props)
        q = unfold(p, 2)
        extra_l = random_pointed(rng, 3, props)
        extra_r = random_pointed(rng, 3, props)
        pos = GamePosition(2, 1, frozenset([p, extra_l]), frozenset([q, extra_r]))
        responder = duplicator_bisim_strategy(pos, bisim.n_bisimilar(p, q, 2))
        assert exhaustive_playout(responder)


@dataclass
class _SecondBranch:
    """A responder that always takes the second branch of a split."""

    position: GamePosition

    def respond(self, move):
        choice = "right" if isinstance(move, (LeftSplit, RightSplit)) else None
        return choice, _SecondBranch(apply_move(self.position, move, choice))


def test_playout_reads_terminals_with_the_root_literals(monkeypatch):
    # a playout makes the literal list once; every position it reaches gets
    # the status that ``terminal_status`` gives it, from its own list
    seen = []
    terminal = game._terminal

    def checked(pos, literals):
        status = terminal(pos, literals)
        assert status == terminal(pos, game._literals(game.position_signature(pos))), pos
        seen.append(status)
        return status

    monkeypatch.setattr(game, "_terminal", checked)
    rng = random.Random(53)
    for _ in range(6):
        props = random_signature(rng, 2)
        p = random_pointed(rng, 3, props)
        q = unfold(p, 2)
        pos = GamePosition(2, 1, frozenset([p, random_pointed(rng, 3, props)]), frozenset([q]))
        assert exhaustive_playout(duplicator_bisim_strategy(pos, bisim.n_bisimilar(p, q, 2)))
    for _ in range(40):
        pos = random_position(rng, m=2, k=1)
        exhaustive_playout(_SecondBranch(pos))
    assert len(seen) > 100
    # past the root too, where the literals of the propositions decide
    decided = [s.literal for s in seen if isinstance(s, SWin)]
    assert sum(isinstance(lit, ml.Prop | ml.NegProp) for lit in decided) > 10
    # a side emptied by a split leaves the literals of the other side or none
    for _ in range(200):
        pos = random_position(rng)
        literals = game._literals(game.position_signature(pos))
        empty = frozenset()
        for left, right in ((empty, pos.right), (pos.left, empty), (empty, empty)):
            part = GamePosition(pos.m, pos.k, left, right)
            assert terminal(part, literals) == terminal_status(part)


class _Recording:
    """A responder that logs every answer of the one it wraps: the move, the
    branch chosen and the position reached."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    @property
    def position(self):
        return self.inner.position

    def respond(self, move):
        choice, nxt = self.inner.respond(move)
        self.log.append((move, choice, nxt.position))
        return choice, _Recording(nxt, self.log)


def _reference_playout(responder, literals):
    # the recursive playout over ``legal_moves``: each call checks its own
    # position, then plays every move of the listed moves in order
    status = game._terminal(responder.position, literals)
    if isinstance(status, SWin):
        return False
    if isinstance(status, DWin):
        return True
    for move in legal_moves(responder.position):
        _, nxt = responder.respond(move)
        if not _reference_playout(nxt, literals):
            return False
    return True


def _playout_traces(make_responder, monkeypatch):
    """The result, answers and terminal checks of ``exhaustive_playout`` and of
    the reference playout, each against a fresh responder; the reference is
    given the root's literal list, which the playout makes itself."""
    terminal = game._terminal
    traces = []

    def reference(responder):
        return _reference_playout(responder, game._position_literals(responder.position))

    for play in (exhaustive_playout, reference):
        answers, checked = [], []

        def counting(pos, literals):
            checked.append(pos)
            return terminal(pos, literals)

        monkeypatch.setattr(game, "_terminal", counting)
        result = play(_Recording(make_responder(), answers))
        traces.append((result, answers, checked))
    monkeypatch.setattr(game, "_terminal", terminal)
    return traces


def test_playout_trace_matches_the_move_list_recursion(monkeypatch, vv1, ee1, vv2, ee2):
    # the same answers in the same order, the same positions checked, and a
    # losing responder stopped at the same move
    from fsgame.graphs import duplicator_coloring_strategy

    cells = [(vv1, ee1, m, 0) for m in range(4)]
    cells += [(vv2, ee2, 0, 1), (vv2, ee2, 3, 0), (vv2, ee2, 1, 1)]
    for left, right, m, k in cells:
        pos = GamePosition(m, k, left, right)
        new, old = _playout_traces(lambda: duplicator_coloring_strategy(pos), monkeypatch)
        assert new == old
        assert new[0] is True and (new[1] or m == k == 0), (m, k)
    rng = random.Random(67)
    stops = []
    for _ in range(40):
        pos = random_position(rng, m=rng.randint(1, 2), k=1)
        new, old = _playout_traces(lambda: _SecondBranch(pos), monkeypatch)
        assert new == old
        if new[0] is False:
            stops.append(len(new[1]))
    assert len(stops) > 20 and max(stops) > 10


def test_minimal_separating_examples(m_empty, m_single, vv1, ee1):
    frontier = minimal_separating({m_empty}, {m_single}, 3)
    assert frontier == [(1, 0, Box(BOT))]
    assert minimal_separating({m_empty}, {m_empty}, 4) == []
    frontier = minimal_separating(vv1, ee1, 5)
    assert frontier == [(4, 1, parse_ml("[]<>T | [][]F"))]
    for m, k, formula in frontier:
        assert k >= 1
        assert separates(formula, vv1, ee1)
        sizes = ml.ml_sizes(formula)
        assert sizes.ms <= m and sizes.cs <= k


def test_solver_matches_enumeration_oracle_small():
    rng = random.Random(61)
    for _ in range(40):
        pos = random_position(rng, max_worlds=3, max_side=2, max_props=1, m=rng.randint(0, 2), k=rng.randint(0, 1))
        signature = game.position_signature(pos)
        expected = separator_exists_enum(pos.left, pos.right, pos.m, pos.k, signature)
        verdict = solve(pos)
        assert isinstance(verdict, SpoilerWins) == expected


def test_vector_oracle_matches_enumeration_oracle():
    rng = random.Random(67)
    for _ in range(30):
        pos = random_position(rng, max_worlds=3, max_side=2, max_props=1)
        signature = game.position_signature(pos)
        oracle = VectorOracle(pos.left, pos.right, signature)
        for m in range(3):
            for k in range(2):
                assert oracle.exists(m, k) == separator_exists_enum(
                    pos.left, pos.right, m, k, signature
                )


def test_budget_monotonicity():
    rng = random.Random(71)
    wins = 0
    while wins < 15:
        pos = random_position(rng, max_worlds=3, max_side=2, m=rng.randint(0, 2), k=rng.randint(0, 1))
        verdict = solve(pos)
        if not isinstance(verdict, SpoilerWins):
            continue
        wins += 1
        up_m = solve(GamePosition(pos.m + 1, pos.k, pos.left, pos.right))
        up_k = solve(GamePosition(pos.m, pos.k + 1, pos.left, pos.right))
        assert isinstance(up_m, SpoilerWins) and isinstance(up_k, SpoilerWins)


def test_strategy_round_trip_shrinks_sizes():
    rng = random.Random(73)
    done = 0
    while done < 15:
        pos = random_position(rng)
        verdict = solve(pos)
        if not isinstance(verdict, SpoilerWins):
            continue
        done += 1
        formula = extract_formula(verdict.strategy)
        assert verdict.formula == formula
        rebuilt = extract_formula(strategy_from_formula(formula, pos.left, pos.right))
        first, second = ml.ml_sizes(formula), ml.ml_sizes(rebuilt)
        assert second.ms <= first.ms and second.cs <= first.cs
        assert separates(rebuilt, pos.left, pos.right)


def test_solve_is_deterministic(vv1, ee1):
    pos = GamePosition(4, 1, vv1, ee1)
    one = solve(pos)
    two = solve(pos)
    assert extract_formula(one.strategy) == extract_formula(two.strategy)
    assert one.nodes == two.nodes


def test_planted_pair_forces_duplicator_win():
    rng = random.Random(79)
    for _ in range(10):
        props = random_signature(rng, 1)
        p = random_pointed(rng, 4, props)
        m = rng.randint(0, 3)
        pos = GamePosition(
            m,
            rng.randint(0, 2),
            frozenset([p, random_pointed(rng, 4, props)]),
            frozenset([unfold(p, m), random_pointed(rng, 4, props)]),
        )
        assert isinstance(solve(pos), DuplicatorWins)


def test_position_json_round_trip(vv1, ee1, tmp_path):
    pos = GamePosition(2, 1, vv1, ee1)
    obj = position_to_dict(pos)
    assert position_from_dict(obj) == pos
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(position_to_dict(position_from_dict(json.loads(text))), sort_keys=True) == text
    with pytest.raises(ValueError):
        position_from_dict({"m": 1, "left": [], "right": []})
    for budgets in ({"m": True, "k": False}, {"m": 1, "k": True}):
        with pytest.raises(ValueError, match="must be integers"):
            position_from_dict({**budgets, "left": [], "right": []})


def test_verdict_to_dict(m_empty, m_single):
    verdict = solve(GamePosition(1, 0, {m_empty}, {m_single}))
    data = verdict_to_dict(verdict)
    assert data == {"winner": "S", "formula": "[]F", "ms": 1, "cs": 0, "nodes": data["nodes"]}
    loss = solve(GamePosition(0, 2, {m_empty}, {m_single}))
    data = verdict_to_dict(loss)
    assert data["winner"] == "D" and data["formula"] is None
