import itertools
import random

import pytest

from fsgame import hierarchy
from fsgame.bisim import (
    TYPES,
    _layers,
    bounded_type,
    in_class_A,
    n_bisimilar,
    prop_equivalent,
    quotient,
)
from fsgame.kripke import KripkeModel, PointedModel
from fsgame.logic import ml
from randgen import random_pointed, unfold


def test_prop_equivalent(m_empty, m_single, prop_model):
    assert prop_equivalent(m_empty, m_single)
    assert prop_equivalent(prop_model, prop_model)
    other = PointedModel(prop_model.model, "c")
    assert not prop_equivalent(prop_model, other)


def test_prop_equivalent_rejects_signature_mismatch(m_empty, prop_model):
    with pytest.raises(ValueError, match="signature"):
        prop_equivalent(m_empty, prop_model)


def test_n_bisimilar_examples(m_empty, m_single):
    assert n_bisimilar(m_empty, m_single, 0) is not None
    assert n_bisimilar(m_empty, m_single, 1) is None
    witness = n_bisimilar(m_single, m_single, 3)
    assert witness is not None
    assert all((w, w) in witness.layer(i) for i in range(4) for w in m_single.model.worlds)


def test_class_maps_grow_in_place_on_the_model():
    rng = random.Random(71)
    for _ in range(20):
        p = random_pointed(rng, 4, ("p", "q"))
        model = p.model
        assert model._layers is None
        deep = bounded_type(p, 3)
        layers = model._layers
        assert len(layers) == 4
        # a shallower query reads the same list and builds nothing
        assert bounded_type(p, 1) == layers[1][p.point] and model._layers is layers
        assert _layers(model, 2) is layers
        assert len(layers) == 4 and layers[3][p.point] == deep
        # every depth keeps the propositions of the world
        for w in model.worlds:
            for d in range(4):
                assert TYPES.props(layers[d][w]) == model.props_at(w)


def test_an_intern_that_fails_leaves_the_type_table_whole():
    # an error while interning (a RecursionError deep in a search, here an
    # unknown child id) adds nothing, so later classes still get their keys
    lists = (TYPES._descs, TYPES._keys, TYPES._child_keys, TYPES._ids)
    sizes = tuple(map(len, lists))
    with pytest.raises(IndexError):
        TYPES.intern(frozenset(), frozenset([sizes[0] + 10]))
    assert tuple(map(len, lists)) == sizes
    leaf = TYPES.intern(frozenset(["unseen"]), frozenset())
    parent = TYPES.intern(frozenset(), frozenset([leaf]))
    assert (leaf, parent) == (sizes[0], sizes[0] + 1)
    assert TYPES._keys[parent] == ("(;(unseen;))", ("(unseen;)",))


def test_each_class_keeps_one_record_the_key_it_is_interned_by():
    # _descs[t] is the very tuple _ids maps to t, so a class's propositions
    # and children are held once
    rng = random.Random(29)
    for _ in range(100):
        bounded_type(random_pointed(rng, 4, ("p", "q")), 4)
    assert len(TYPES._descs) == len(TYPES._ids) > 100
    for key, tid in TYPES._ids.items():
        assert TYPES._descs[tid] is key
        assert (TYPES.props(tid), TYPES.children(tid)) == key


def _string_key(tid: int, memo: dict[int, str]) -> str:
    # the class as a nested-parenthesis string: its propositions, then its
    # children's strings in order; as long as the class's unfolding
    key = memo.get(tid)
    if key is None:
        ckeys = sorted(_string_key(c, memo) for c in TYPES.children(tid))
        key = memo[tid] = "(" + ",".join(sorted(TYPES.props(tid))) + ";" + "|".join(ckeys) + ")"
    return key


def test_sort_keys_order_classes_as_their_strings(vv1, ee1, vv2, ee2, vv3, ee3):
    rng = random.Random(71)
    models = [random_pointed(rng, max_worlds=5, props=("p", "q")).model for _ in range(600)]
    models += [random_pointed(rng, props=("a", "a_", "ab", "b")).model for _ in range(600)]
    depths = [5] * len(models)
    for family in (vv1, ee1, vv2, ee2, vv3, ee3):
        models += [p.model for p in family]
        depths += [6] * len(family)
    ids = set()
    for model, depth in zip(models, depths):
        for layer in _layers(model, depth)[: depth + 1]:
            ids.update(layer.values())
    memo: dict[int, str] = {}
    by_tuple = sorted(ids, key=TYPES._keys.__getitem__)
    assert by_tuple == sorted(ids, key=lambda t: _string_key(t, memo))
    assert len(set(memo.values())) == len(ids) > 5_000


def test_witness_layers_are_nested_and_valid(m_empty, m_single):
    witness = n_bisimilar(m_empty, m_single, 0)
    assert witness.verify()
    rng = random.Random(17)
    found = 0
    while found < 20:
        p = random_pointed(rng, 4, ("p",))
        q = random_pointed(rng, 4, ("p",))
        n = rng.randint(0, 3)
        witness = n_bisimilar(p, q, n)
        if witness is None:
            continue
        found += 1
        assert witness.verify()
        for i in range(n):
            assert witness.layer(i + 1) <= witness.layer(i)


def test_monotonicity():
    rng = random.Random(23)
    for _ in range(60):
        p = random_pointed(rng, 4)
        q = random_pointed(rng, 4)
        n = rng.randint(1, 3)
        if n_bisimilar(p, q, n) is not None:
            assert n_bisimilar(p, q, n - 1) is not None


def test_planted_unfoldings_are_equivalent_at_depth():
    rng = random.Random(29)
    for _ in range(40):
        p = random_pointed(rng, 4, ("p",))
        depth = rng.randint(0, 3)
        assert n_bisimilar(p, unfold(p, depth), depth) is not None


def test_quotient_trivial(m_empty):
    q = quotient(m_empty)
    assert len(q.model.worlds) == 1
    assert not q.model.edges


def test_quotient_merges_indistinguishable_sinks():
    model = KripkeModel(["a", "b"], [], {})
    assert len(quotient(PointedModel(model, "a")).model.worlds) == 1
    pointed = PointedModel(KripkeModel(["r", "a", "b"], [("r", "a"), ("r", "b")]), "r")
    collapsed = quotient(pointed)
    assert len(collapsed.model.worlds) == 2


def test_quotient_distinguishes_one_step(e1, vv1):
    # the pair-join root keeps its two depth-1-distinct children in separate
    # classes, so its quotient differs from that of the dead-end singleton
    # join; the other singleton join is genuinely depth-1 equivalent to the
    # pair join, hence shares its quotient
    q_e = quotient(e1, 1)
    succ_classes = q_e.model.succ(q_e.point)
    assert len(succ_classes) == 2
    by_size = {len(v.model.worlds): v for v in vv1}
    assert quotient(by_size[2], 1) != q_e  # join over the empty set
    assert quotient(by_size[3], 1) == q_e  # depth-1 equivalent to the pair join
    assert n_bisimilar(e1, by_size[3], 1) is not None
    # one level deeper the pair join parts ways with both singleton joins
    assert all(n_bisimilar(e1, v, 2) is None for v in vv1)
    assert all(quotient(v, 2) != quotient(e1, 2) for v in vv1)


def test_quotient_preserves_bounded_equivalence():
    rng = random.Random(31)
    for _ in range(40):
        p = random_pointed(rng, 5, ("p",))
        n = rng.randint(0, 3)
        assert n_bisimilar(p, quotient(p, n), n) is not None
    for _ in range(20):
        p = random_pointed(rng, 5, ("p",))
        q = quotient(p)
        assert n_bisimilar(p, q, len(p.model.worlds) + len(q.model.worlds)) is not None


def test_quotient_drops_unreachable():
    model = KripkeModel(["a", "b", "lost"], [("a", "b"), ("lost", "a")])
    q = quotient(PointedModel(model, "a"), 2)
    assert len(q.model.worlds) == 2


def test_in_class_A(m_empty, vv1, ee1, vv2, ee2):
    assert in_class_A(m_empty, 3)
    for n, vv, ee in ((1, vv1, ee1), (2, vv2, ee2)):
        assert all(in_class_A(p, n) for p in vv)
        assert all(not in_class_A(q, n) for q in ee)


def test_v3_elements_pairwise_distinct_at_depth_two():
    models = [hierarchy.model_of(a) for a in sorted(hierarchy.v_level(3))]
    for p, q in itertools.combinations(models, 2):
        assert n_bisimilar(p, q, 2) is None


def test_bounded_type_identifies_equivalence():
    rng = random.Random(37)
    for _ in range(60):
        p = random_pointed(rng, 4, ("p",))
        q = random_pointed(rng, 4, ("p",))
        n = rng.randint(0, 3)
        assert (bounded_type(p, n) == bounded_type(q, n)) == (
            n_bisimilar(p, q, n) is not None
        )


def _capped_family(props, n):
    """Every formula of modal depth <= n with at most two connectives, once,
    in ``enumerate_ml``'s canonical form (key(g) <= key(h) under & and |).

    Built by depth: ◇/□ over the formulas of depth d-1, then & and | over
    pairs.  Depth <= n with c connectives already bounds the modal operators
    by n * (c + 1), so no modal cap is needed."""
    leaves = [(ml.BOT, "F"), (ml.TOP, "T")]
    for p in sorted(props):
        leaves += [(ml.Prop(p), p), (ml.NegProp(p), "~" + p)]
    by_cs: list[list] = []
    for _ in range(n + 1):
        prev, by_cs = by_cs, [list(leaves), [], []]  # (formula, key) by connective count
        for c, fs in enumerate(prev):
            for g, kg in fs:
                by_cs[c] += [(ml.Diamond(g), f"D({kg})"), (ml.Box(g), f"B({kg})")]
        for c in (1, 2):
            for c1 in range(c):
                for (g, kg), (h, kh) in itertools.product(by_cs[c1], by_cs[c - 1 - c1]):
                    if kg <= kh:
                        by_cs[c] += [
                            (ml.And(g, h), f"A({kg},{kh})"),
                            (ml.Or(g, h), f"O({kg},{kh})"),
                        ]
    return [f for fs in by_cs for f, _ in fs]


def test_correspondence_with_formula_agreement():
    # depth-n equivalence coincides with agreement on all small formulas of
    # modal depth at most n (connective budget capped at 2 for the scan)
    from oracles import CachedEvaluator

    rng = random.Random(41)
    families = {props: {n: _capped_family(props, n) for n in (0, 1, 2)} for props in ((), ("p",))}
    for _ in range(40):
        props = ("p",)[: rng.randint(0, 1)]
        p = random_pointed(rng, 5, props)
        q = random_pointed(rng, 5, props)
        ev_p, ev_q = CachedEvaluator(p), CachedEvaluator(q)
        for n in (0, 1, 2):
            family = families[props][n]
            equivalent = n_bisimilar(p, q, n) is not None
            agree = all(ev_p.truth(f) == ev_q.truth(f) for f in family)
            assert agree == equivalent


def _height(model: KripkeModel) -> int | None:
    """The length of the longest path of a model, None when it has a cycle:
    worlds are peeled off once all their successors are."""
    height: dict[str, int] = {}
    while len(height) < len(model.worlds):
        ready = {
            w: 1 + max((height[v] for v in model.succ(w)), default=-1)
            for w in model.worlds
            if w not in height and all(v in height for v in model.succ(w))
        }
        if not ready:
            return None
        height.update(ready)
    return max(height.values(), default=0)


def test_layers_past_the_fixpoint_are_one_shared_dict():
    # each model of V_3 and the frame of level 3 is well-founded: its layer
    # one depth past its height equals the one before, and every deeper
    # entry is that dict, also when a later call extends the list
    models = [hierarchy.model_of(a).model for a in hierarchy.v_level(3)] + [hierarchy.frame(3)]
    for model in models:
        _layers(model, 1)
        layers = _layers(model, 12)
        height = _height(model)
        fixed = next(d for d in range(1, 13) if layers[d] == layers[d - 1])
        assert fixed == height + 1, model.worlds
        assert all(layers[d] is layers[fixed - 1] for d in range(fixed, 13))
    assert {_height(model) for model in models} == {0, 1, 2}


def test_a_loop_never_shares_a_layer():
    model = KripkeModel(["l"], [("l", "l")], {})
    layers = _layers(model, 10)
    assert all(layers[d] is not layers[d - 1] and layers[d] != layers[d - 1] for d in range(1, 11))


def _plain_refinement(models: list[KripkeModel], depth: int) -> list[dict[tuple[int, str], int]]:
    """Per depth, a color for each (model index, world), shared by all the
    models: first the propositions, then each round the propositions and the
    set of successor colors, numbered as they first appear."""
    colors: list[dict[tuple[int, str], int]] = []
    prev: dict[tuple[int, str], int] = {}
    for d in range(depth + 1):
        numbering: dict[object, int] = {}
        current = {}
        for i, model in enumerate(models):
            for w in model.worlds:
                succ = frozenset(prev[i, v] for v in model.succ(w)) if d else None
                signature = (frozenset(model.props_at(w)), succ)
                current[i, w] = numbering.setdefault(signature, len(numbering))
        colors.append(current)
        prev = current
    return colors


def test_bounded_types_match_a_plain_refinement():
    # two worlds of any two models share a depth-d class iff the plain
    # refinement gives them one color at round d
    rng = random.Random(83)
    models = [random_pointed(rng, 5, ("p", "q")).model for _ in range(120)]
    cyclic = sum(_height(model) is None for model in models)
    assert 60 < cyclic < len(models)
    colors = _plain_refinement(models, 10)
    for d in range(11):
        ids = {
            (i, w): bounded_type(PointedModel(model, w), d)
            for i, model in enumerate(models)
            for w in model.worlds
        }
        pairs = {(ids[key], colors[d][key]) for key in ids}
        assert len(pairs) == len(set(ids.values())) == len(set(colors[d].values())), d
