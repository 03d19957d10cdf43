import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fsgame
from fsgame import kripke
from fsgame.kripke import (
    KripkeModel,
    PointedModel,
    canonical_key,
    diamond_all,
    diamond_choice,
    generated,
    join,
    modelset_from_list,
    modelset_to_list,
    ordered_successors,
    pointed_from_dict,
    pointed_to_dict,
    successors,
)
from fsgame.logic.ml import NegProp, Prop, parse_ml, print_ml
from randgen import random_pointed


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        KripkeModel(["a"], [], {"p": ["b"]})
    with pytest.raises(TypeError):
        KripkeModel([1, 2])
    with pytest.raises(ValueError):
        PointedModel(KripkeModel(["a"]), "b")


@pytest.mark.parametrize("name", ["T", "F", "p q", "<>", "", "1p", "p-q", "é", 3])
def test_model_rejects_proposition_names_that_do_not_print_back(name):
    # "T" would print as the constant true, "p q" as two tokens
    with pytest.raises(ValueError, match="proposition name"):
        KripkeModel(["a"], [], {name: ["a"]})


@pytest.mark.parametrize("name", ["p", "q", "_", "p_1", "Tx", "FF", "t", "f"])
def test_accepted_proposition_names_round_trip(name):
    assert KripkeModel(["a"], [], {name: ["a"]}).prop_set == {name}
    assert parse_ml(print_ml(Prop(name))) == Prop(name)
    assert parse_ml(print_ml(NegProp(name))) == NegProp(name)


def test_prop_set_is_valuation_keys():
    model = KripkeModel(["a"], [], {"p": [], "q": ["a"]})
    assert model.prop_set == {"p", "q"}
    assert model.props_at("a") == {"q"}


def test_successors_of_singleton(m_single, m_empty):
    assert successors(m_single) == {PointedModel(m_single.model, "{}")}
    assert successors(m_empty) == frozenset()


def test_successors_of_join_root(m_empty, m_single):
    joined = join([m_empty, m_single])
    assert len(successors(joined)) == 2


def test_successor_set_is_built_once_per_world():
    model = KripkeModel(["a", "b", "c"], [("a", "b"), ("a", "c")], {"p": ["b"]})
    p = PointedModel(model, "a")
    assert successors(p) is successors(PointedModel(p.model, p.point))
    assert successors(p) == {PointedModel(model, "b"), PointedModel(model, "c")}
    assert diamond_all({p}) == successors(p)


def test_caches_are_allocated_on_first_use():
    model = KripkeModel(["a", "b"], [("a", "b")], {"p": ["b"]})
    assert model._successors is None and model._canon is None and model._layers is None
    assert model._ordered is None
    a, b = PointedModel(model, "a"), PointedModel(model, "b")
    key = canonical_key(a)
    assert model._canon == {"a": key} and canonical_key(PointedModel(model, "a")) is key
    assert canonical_key(b) != key and model._successors is None and model._layers is None
    assert model._ordered is None
    ordered = ordered_successors(a)
    assert model._ordered == {"a": ordered} and ordered_successors(PointedModel(model, "a")) is ordered
    # ordering successors encodes their points only, no canonical key
    fresh = KripkeModel(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert len(ordered_successors(PointedModel(fresh, "a"))) == 2 and fresh._canon is None


def _reference_order(p: PointedModel) -> list[PointedModel]:
    # the order moves and strategies listed successors in before the cache
    return sorted(successors(p), key=canonical_key)


def test_ordered_successors_are_in_canonical_key_order():
    # JSON escapes these names, so their canonical order is not the raw one
    names = ["z", "\u00e9", 'a"b', "a\x01", "a\\b", "b"]
    model = KripkeModel(["r", *names], [("r", w) for w in names] + [("b", "b"), ("z", "r")])
    root = PointedModel(model, "r")
    ordered = ordered_successors(root)
    assert list(ordered) == _reference_order(root)
    assert [p.point for p in ordered] != sorted(model.succ("r"))
    assert [p.point for p in ordered][:4] == ["\u00e9", 'a"b', "a\\b", "a\x01"]
    for w in model.worlds:
        p = PointedModel(model, w)
        assert list(ordered_successors(p)) == _reference_order(p)
        assert frozenset(ordered_successors(p)) == successors(p)
    rng = random.Random(23)
    for _ in range(200):
        p = random_pointed(rng, 5, ("p", "q"))
        for w in p.model.worlds:
            q = PointedModel(p.model, w)
            assert list(ordered_successors(q)) == _reference_order(q)


def test_pointed_models_over_equal_models_agree():
    def build():
        return KripkeModel(["a", "b", "c"], [("a", "b"), ("a", "c"), ("c", "c")], {"p": ["b"]})

    first, second = build(), build()
    assert first is not second
    for w in ("a", "b", "c"):
        p, q = PointedModel(first, w), PointedModel(second, w)
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash((p.model, p.point))
        assert repr(p) == repr(q)
        assert successors(p) == successors(q)
    assert PointedModel(first, "a") != PointedModel(first, "b")


_PICKLE_SCRIPT = """
import pickle, sys
from fsgame import bisim
from fsgame.kripke import KripkeModel, PointedModel, canonical_key, successors

def build():
    return KripkeModel(["a", "b", "c"], [("a", "b"), ("b", "c")], {"p": ["c"]})

if sys.argv[1] == "dump":
    # type another model first, so that class ids here differ from a fresh process
    other = KripkeModel(["x", "y", "z"], [("x", "y"), ("x", "z")], {"p": ["x", "y"]})
    bisim.bounded_type(PointedModel(other, "x"), 3)
    p = PointedModel(build(), "a")
    hash(p), canonical_key(p), successors(p), bisim.bounded_type(p, 3)
    with open(sys.argv[2], "wb") as fh:
        pickle.dump([p, p.model], fh)
else:
    with open(sys.argv[2], "rb") as fh:
        p, model = pickle.load(fh)
    fresh = PointedModel(build(), "a")
    assert model is p.model
    assert p in {fresh} and p.model in {fresh.model}, "stale hash"
    assert bisim.bounded_type(p, 3) == bisim.bounded_type(fresh, 3), "stale class ids"
    assert successors(p) == successors(fresh)
    assert canonical_key(p) == canonical_key(fresh)
"""


def test_pickled_models_rebuild_their_caches_where_loaded(tmp_path):
    # hash values and class ids are only valid in the process that made them
    src = str(Path(fsgame.__file__).resolve().parent.parent)
    path = tmp_path / "models.pickle"
    for mode, seed in (("dump", "1"), ("load", "2")):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, mode, str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


def test_pickling_keeps_content_only():
    model = KripkeModel(["a", "b"], [("a", "b")], {"p": ["b"]})
    p = PointedModel(model, "a")
    hash(p), successors(p), canonical_key(p), ordered_successors(p)
    loaded = pickle.loads(pickle.dumps(p))
    assert loaded == p and hash(loaded) == hash(p)
    assert loaded.model is not model
    assert loaded.model._successors is None and loaded.model._canon is None
    assert loaded.model._ordered is None


def test_diamond_all(m_empty, vv1):
    assert diamond_all(frozenset()) == frozenset()
    assert diamond_all({m_empty}) == frozenset()
    children = diamond_all(vv1)
    assert len(children) == 2


def test_diamond_choice(m_single, e1):
    assert diamond_choice(frozenset(), {}) == frozenset()
    (only,) = successors(m_single)
    assert diamond_choice({m_single}, {m_single: only}) == {only}
    empty_child = PointedModel(e1.model, "{}")
    assert diamond_choice({e1}, {e1: empty_child}) == {empty_child}


def test_diamond_choice_rejects_partial_and_stray(m_single, m_empty):
    with pytest.raises(ValueError):
        diamond_choice({m_single}, {})
    with pytest.raises(ValueError):
        diamond_choice({m_single}, {m_single: m_empty})


def test_join_single(m_empty):
    joined = join([m_empty])
    assert len(joined.model.worlds) == 2
    assert len(joined.model.edges) == 1
    assert joined.point == "_root"


def test_join_merges_shared_worlds(m_empty, m_single):
    joined = join([m_empty, m_single])
    assert joined.model.worlds == {"_root", "{}", "{{}}"}
    assert joined.model.edges == {
        ("_root", "{}"),
        ("_root", "{{}}"),
        ("{{}}", "{}"),
    }


def test_join_disjoint_singletons():
    a = PointedModel(KripkeModel(["x"]), "x")
    b = PointedModel(KripkeModel(["y"]), "y")
    joined = join([a, b])
    assert len(joined.model.worlds) == 3
    assert len(joined.model.edges) == 2


def test_join_rejects_edge_conflict():
    a = KripkeModel(["w", "x"], [("w", "x")])
    b = KripkeModel(["w"], [])
    with pytest.raises(ValueError):
        join([PointedModel(a, "w"), PointedModel(b, "w")])


def test_join_rejects_valuation_conflict():
    a = KripkeModel(["w"], [], {"p": ["w"]})
    b = KripkeModel(["w"], [], {"p": []})
    with pytest.raises(ValueError):
        join([PointedModel(a, "w"), PointedModel(b, "w")])


def test_join_root_avoids_collisions():
    clash = PointedModel(KripkeModel(["_root"]), "_root")
    joined = join([clash])
    assert joined.point == "_root1"


def _rename(p: PointedModel, prefix: str) -> PointedModel:
    m = p.model
    return PointedModel(
        KripkeModel(
            (prefix + w for w in m.worlds),
            ((prefix + u, prefix + v) for u, v in m.edges),
            {q: [prefix + w for w in e] for q, e in m.valuation.items()},
        ),
        prefix + p.point,
    )


def test_join_is_order_insensitive():
    rng = random.Random(7)
    members = [_rename(random_pointed(rng, 3, ("p",)), f"m{i}.") for i in range(3)]
    reference = join(members)
    for perm in itertools.permutations(members):
        assert join(list(perm)) == reference


def test_join_successors_recover_members():
    # for point-generated members over pairwise disjoint worlds, the reachable
    # parts of the root's successors are exactly the members
    a = PointedModel(KripkeModel(["x1", "x2"], [("x1", "x2")]), "x1")
    b = PointedModel(KripkeModel(["y1"]), "y1")
    joined = join([a, b])
    recovered = {generated(s) for s in successors(joined)}
    assert recovered == {a, b}


def test_diamond_choice_subset_of_diamond_all():
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        members = sorted(
            {random_pointed(rng, 3) for _ in range(rng.randint(1, 2))}, key=canonical_key
        )
        if not all(successors(p) for p in members):
            continue
        checked += 1
        options = [sorted(successors(p), key=canonical_key) for p in members]
        for combo in itertools.product(*options):
            choice = dict(zip(members, combo))
            assert diamond_choice(members, choice) <= diamond_all(members)


def test_json_round_trip(prop_model):
    obj = pointed_to_dict(prop_model)
    assert pointed_from_dict(obj) == prop_model
    # byte-reproducible: sorted keys and arrays
    assert obj["worlds"] == sorted(obj["worlds"])
    assert obj["edges"] == sorted(obj["edges"])
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(pointed_to_dict(pointed_from_dict(json.loads(text))), sort_keys=True) == text


def test_modelset_round_trip(vv1):
    listed = modelset_to_list(vv1)
    assert modelset_from_list(listed) == vv1
    assert listed == sorted(listed, key=lambda d: json.dumps(d, sort_keys=True))


def test_from_dict_rejects_bad_schema():
    with pytest.raises(ValueError):
        pointed_from_dict({"worlds": ["a"], "edges": [], "point": "a"})
    with pytest.raises(ValueError):
        pointed_from_dict({"worlds": ["a"], "edges": [["a"]], "valuation": {}, "point": "a"})
    with pytest.raises(ValueError):
        pointed_from_dict({"worlds": ["a"], "edges": [], "valuation": {}, "point": "b"})


def test_file_io(tmp_path, prop_model, vv1):
    path = tmp_path / "model.json"
    kripke.write_pointed(path, prop_model)
    assert kripke.read_pointed(path) == prop_model
    set_path = tmp_path / "set.json"
    kripke.write_modelset(set_path, vv1)
    assert kripke.read_modelset(set_path) == vv1
