import itertools

import pytest

from fsgame import hierarchy
from fsgame.hierarchy import (
    EMPTY_SET,
    HFSet,
    ee_set,
    frame,
    model_of,
    parse_hf,
    tower,
    v_level,
    vv_set,
)
from fsgame.kripke import canonical_key, join


def test_tower():
    assert tower(0) == 1
    assert tower(1) == 2
    assert tower(3) == 16
    assert tower(4) == 65536
    assert tower(5).bit_length() == 65537
    with pytest.raises(ValueError):
        tower(-1)


def test_encodings_are_canonical():
    two = HFSet([EMPTY_SET, HFSet([EMPTY_SET])])
    assert str(two) == "{{},{{}}}"
    # duplicates collapse, order of construction is irrelevant
    assert HFSet([EMPTY_SET, EMPTY_SET]) == HFSet([EMPTY_SET])
    assert HFSet([HFSet([EMPTY_SET]), EMPTY_SET]) == two


def test_parse_round_trip():
    for text in ("{}", "{{}}", "{{},{{}}}", "{{},{{}},{{},{{}}}}"):
        assert str(parse_hf(text)) == text
    with pytest.raises(ValueError):
        parse_hf("{")
    with pytest.raises(ValueError):
        parse_hf("{}{}")
    with pytest.raises(ValueError):
        parse_hf("{,}")


def test_levels():
    assert v_level(0) == frozenset()
    assert v_level(2) == {EMPTY_SET, HFSet([EMPTY_SET])}
    assert [len(v_level(n)) for n in range(1, 5)] == [1, 2, 4, 16]
    assert len(v_level(5)) == 65536


def test_levels_are_iterated_powersets_and_not_cached():
    level: frozenset = frozenset()
    for n in range(5):
        assert v_level(n) == level
        subsets = itertools.chain.from_iterable(
            itertools.combinations(level, r) for r in range(len(level) + 1)
        )
        level = frozenset(HFSet(s) for s in subsets)
    # each call builds its level afresh, so nothing keeps level 5 alive
    assert v_level(4) is not v_level(4)
    assert not any(hasattr(value, "cache_info") for value in vars(hierarchy).values())


def test_level_guards():
    # one cap: level 5 is listed, level 6 is refused
    assert hierarchy.LEVEL_CAP == 5 and not hasattr(hierarchy, "LEVEL_MAX")
    with pytest.raises(hierarchy.LevelTooLarge, match=r"^refusing to enumerate level 6$"):
        v_level(6)
    with pytest.raises(ValueError, match=r"^n must be non-negative$"):
        v_level(-1)
    with pytest.raises(ValueError, match=r"^--level must be non-negative$"):
        v_level(-1, name="--level")


def test_levels_are_transitive():
    for n in range(5):
        level = v_level(n)
        for a in level:
            assert a.elements <= level


def test_model_of():
    assert len(model_of(EMPTY_SET).model.worlds) == 1
    single = model_of(parse_hf("{{}}"))
    assert len(single.model.worlds) == 2
    assert len(single.model.edges) == 1
    two = model_of(parse_hf("{{},{{}}}"))
    assert len(two.model.worlds) == 3
    assert two.model.edges == {
        ("{{},{{}}}", "{}"),
        ("{{},{{}}}", "{{}}"),
        ("{{}}", "{}"),
    }
    assert two.model.prop_set == frozenset()


def test_frame():
    f2 = frame(2)
    assert f2.worlds == {"{}", "{{}}"}
    assert f2.edges == {("{{}}", "{}")}


def test_families(vv1, ee1, vv2, ee2):
    assert len(vv1) == 2 and len(ee1) == 1
    assert len(vv2) == 4 and len(ee2) == 6
    (member,) = ee1
    assert len(member.model.worlds) == 3
    assert len(member.model.edges) == 3


def test_family_guards():
    # the families stop at n = 3, where level 4 has 16 sets
    for n in (4, 5):
        with pytest.raises(ValueError):
            vv_set(n)
    with pytest.raises(ValueError):
        ee_set(4)


def test_refusals_are_worded_after_the_callers_name():
    # a family past the cap gets its own refusal type, and a negative n is
    # worded after the caller's name for it, as a command-line flag passes
    with pytest.raises(hierarchy.FamilyTooLarge, match=r"^refusing to build the singleton family at n=4$"):
        vv_set(4, name="--vv")
    with pytest.raises(hierarchy.FamilyTooLarge, match=r"^refusing to build the pair family at n=5$"):
        ee_set(5)
    for build in (vv_set, ee_set, v_level):
        with pytest.raises(ValueError, match=r"^n must be non-negative$"):
            build(-1)
        with pytest.raises(ValueError, match=r"^--flag must be non-negative$"):
            build(-1, name="--flag")


def test_family_members_are_root_joins(vv2, ee2):
    for member in vv2:
        assert member.point == "_root"
        assert len(member.model.succ(member.point)) == 1
    for member in ee2:
        assert len(member.model.succ(member.point)) == 2


def test_ee_set_matches_pairwise_joins():
    for n in range(4):
        pairs = itertools.combinations(sorted(v_level(n + 1)), 2)
        expected = sorted(canonical_key(join([model_of(a), model_of(b)])) for a, b in pairs)
        assert sorted(map(canonical_key, ee_set(n))) == expected
