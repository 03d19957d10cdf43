import random

import pytest
from hypothesis import given, strategies as st

from fsgame import bisim
from fsgame.kripke import KripkeModel, PointedModel
from fsgame.logic import ml
from fsgame.logic.ml import (
    BOT,
    TOP,
    And,
    Box,
    Diamond,
    NegProp,
    Or,
    ParseError,
    Prop,
    enumerate_ml,
    eval_ml,
    ml_sizes,
    modal_depth,
    parse_ml,
    print_ml,
    separates,
)
from randgen import random_pointed


def test_ml_sizes_examples():
    assert ml_sizes(Prop("p")) == ml.SizeReport(0, 0)
    report = ml_sizes(Diamond(Or(Prop("p"), Box(Prop("q")))))
    assert (report.ms, report.cs, report.s) == (2, 1, 3)
    report = ml_sizes(Or(Box(Box(BOT)), Box(Diamond(TOP))))
    assert (report.ms, report.cs, report.s) == (4, 1, 5)


def test_modal_depth_examples():
    assert modal_depth(TOP) == 0
    assert modal_depth(Box(Diamond(TOP))) == 2
    assert modal_depth(And(Diamond(TOP), Box(Box(BOT)))) == 2


def test_eval_examples(m_empty, m_single, e1):
    assert eval_ml(m_empty, Box(BOT)) is True
    assert eval_ml(m_single, Diamond(TOP)) is True
    assert eval_ml(e1, parse_ml("[][]F | []<>T")) is False


def test_eval_on_propositions(prop_model):
    assert eval_ml(prop_model, Prop("p"))
    assert not eval_ml(prop_model, Prop("q"))
    assert eval_ml(prop_model, Box(Or(Prop("p"), Prop("q"))))
    assert eval_ml(prop_model, Diamond(And(Prop("p"), Diamond(Prop("q")))))


def test_eval_rejects_unknown_proposition(m_empty):
    with pytest.raises(ValueError, match="unknown proposition"):
        eval_ml(m_empty, Prop("p"))


def test_separates_examples(m_empty, m_single):
    assert separates(BOT, frozenset(), {m_single})
    assert separates(Box(BOT), {m_empty}, {m_single})
    assert not separates(TOP, {m_empty}, {m_empty})


def test_separates_checks_symbols_per_member(m_empty, prop_model):
    with pytest.raises(ValueError, match="unknown proposition"):
        separates(Prop("p"), {prop_model}, {m_empty})
    # a left member where the formula fails settles it before the right is read
    only_q = PointedModel(prop_model.model, "c")
    assert not separates(Prop("p"), {only_q}, {m_empty})
    assert separates(Diamond(Prop("q")), {prop_model}, {only_q})


def test_eval_matches_the_pointwise_semantics():
    # the extent of every subformula, read at each world, against a direct
    # recursion over the worlds
    def holds(model, f, w):
        if isinstance(f, (And, Or)):
            parts = (holds(model, f.left, w), holds(model, f.right, w))
            return all(parts) if isinstance(f, And) else any(parts)
        if isinstance(f, (Diamond, Box)):
            values = [holds(model, f.child, v) for v in model.succ(w)]
            return any(values) if isinstance(f, Diamond) else all(values)
        if isinstance(f, (Prop, NegProp)):
            return (w in model.valuation[f.name]) == isinstance(f, Prop)
        return f == TOP

    rng = random.Random(41)
    formulas = list(enumerate_ml(2, 1, ("p",)))
    for _ in range(10):
        p = random_pointed(rng, 4, ("p",))
        for f in formulas[::7]:
            for w in sorted(p.model.worlds):
                point = PointedModel(p.model, w)
                assert eval_ml(point, f) == holds(p.model, f, w), (f, w)


def test_modal_extents_match_the_per_world_reference():
    # the extent of <> and [] as computed before it read the successor table:
    # one successor lookup per world
    def reference(f, model, memo):
        child = ml.extent(f.child, model, memo)
        if isinstance(f, Diamond):
            return frozenset(w for w in model.worlds if not child.isdisjoint(model.succ(w)))
        return frozenset(w for w in model.worlds if child.issuperset(model.succ(w)))

    # self-loops (a, c), a dead end (d), and a world whose only successor is a dead end (b)
    loops = KripkeModel(["a", "b", "c", "d"], [("a", "a"), ("a", "b"), ("b", "d"), ("c", "c")],
                        {"p": ["a", "d"]})
    rng = random.Random(43)
    models = [loops] + [random_pointed(rng, 5, ("p",)).model for _ in range(40)]
    children = list(enumerate_ml(1, 1, ("p",)))
    for model in models:
        memo: dict = {}
        for g in children:
            for f in (Diamond(g), Box(g)):
                assert ml.extent(f, model, {}) == reference(f, model, memo), (f, model)
    assert ml.extent(Diamond(TOP), loops, {}) == {"a", "b", "c"}
    assert ml.extent(Box(BOT), loops, {}) == {"d"}
    assert ml.extent(Box(Prop("p")), loops, {}) == {"b", "d"}


def test_parse_examples():
    assert parse_ml("[]F") == Box(BOT)
    assert parse_ml("<> (p & ~q)") == Diamond(And(Prop("p"), NegProp("q")))
    assert parse_ml("[][]F | []<>T") == Or(Box(Box(BOT)), Box(Diamond(TOP)))


def test_parse_precedence_and_associativity():
    assert parse_ml("a | b & c") == Or(Prop("a"), And(Prop("b"), Prop("c")))
    assert parse_ml("a & b & c") == And(And(Prop("a"), Prop("b")), Prop("c"))
    assert parse_ml("a | b | c") == Or(Or(Prop("a"), Prop("b")), Prop("c"))
    assert parse_ml("<>a & b") == And(Diamond(Prop("a")), Prop("b"))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_ml("p & ")
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_ml("(p | q")
    with pytest.raises(ParseError):
        parse_ml("~(p)")
    with pytest.raises(ParseError):
        parse_ml("p ? q")
    with pytest.raises(ParseError):
        parse_ml("p q")


def test_round_trip_on_enumerated_sample():
    rng = random.Random(99)
    pool = list(enumerate_ml(2, 2, ("p", "q")))
    sample = rng.sample(pool, 1000)
    for f in sample:
        assert parse_ml(print_ml(f)) == f


def test_enumerate_small_cases():
    assert set(enumerate_ml(0, 0, ())) == {TOP, BOT}
    assert set(enumerate_ml(1, 0, ())) == {
        TOP,
        BOT,
        Diamond(TOP),
        Diamond(BOT),
        Box(TOP),
        Box(BOT),
    }


def test_enumerate_two_leaf_counts():
    # four leaf choices over {p}; of the 2 * 4**2 ordered two-leaf formulas
    # the canonical order keeps 2 * (4 choose 2 + 4)
    canon = [f for f in enumerate_ml(0, 1, ("p",)) if ml_sizes(f).cs == 1]
    assert len(canon) == 20


def test_enumerate_respects_bounds():
    for f in enumerate_ml(2, 1, ("p",)):
        report = ml_sizes(f)
        assert report.ms <= 2 and report.cs <= 1


def test_enumerate_yields_no_duplicates():
    pool = list(enumerate_ml(2, 1, ("p",)))
    assert len(pool) == len(set(pool))


@st.composite
def formulas(draw):
    leaves = st.sampled_from([TOP, BOT, Prop("p"), NegProp("p"), Prop("q")])
    return draw(
        st.recursive(
            leaves,
            lambda sub: st.one_of(
                st.builds(And, sub, sub),
                st.builds(Or, sub, sub),
                st.builds(Diamond, sub),
                st.builds(Box, sub),
            ),
            max_leaves=12,
        )
    )


@given(formulas())
def test_size_total_is_sum(f):
    report = ml_sizes(f)
    assert report.s == report.ms + report.cs


@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_ml(print_ml(f)) == f


def test_eval_invariant_under_quotient():
    rng = random.Random(5)
    pool = [f for f in enumerate_ml(2, 1, ("p",))]
    for _ in range(25):
        p = random_pointed(rng, 4, ("p",))
        f = rng.choice(pool)
        d = modal_depth(f)
        assert eval_ml(p, f) == eval_ml(bisim.quotient(p, d), f)
