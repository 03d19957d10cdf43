import pytest

from fsgame import hierarchy
from fsgame.hierarchy import parse_hf
from fsgame.kripke import KripkeModel, PointedModel


@pytest.fixture(scope="session")
def m_empty() -> PointedModel:
    """The one-world membership frame of the empty set."""
    return hierarchy.model_of(parse_hf("{}"))


@pytest.fixture(scope="session")
def m_single() -> PointedModel:
    """The two-world membership frame of the singleton of the empty set."""
    return hierarchy.model_of(parse_hf("{{}}"))


@pytest.fixture(scope="session")
def vv1():
    return hierarchy.vv_set(1)


@pytest.fixture(scope="session")
def ee1():
    return hierarchy.ee_set(1)


@pytest.fixture(scope="session")
def e1(ee1) -> PointedModel:
    (member,) = ee1
    return member


@pytest.fixture(scope="session")
def vv2():
    return hierarchy.vv_set(2)


@pytest.fixture(scope="session")
def ee2():
    return hierarchy.ee_set(2)


@pytest.fixture(scope="session")
def vv3():
    return hierarchy.vv_set(3)


@pytest.fixture(scope="session")
def ee3():
    return hierarchy.ee_set(3)


@pytest.fixture
def prop_model() -> PointedModel:
    model = KripkeModel(
        ["a", "b", "c"],
        [("a", "b"), ("a", "c"), ("b", "c")],
        {"p": ["a", "b"], "q": ["c"]},
    )
    return PointedModel(model, "a")
