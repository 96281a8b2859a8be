import pytest
from hypothesis import given
from hypothesis import strategies as st

from connjoin.errors import StructuralInputError
from connjoin.graph_core import Graph, connected_components, is_stable_dominating


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=16))
    return Graph(n, [(u, v) for u, v in edges if u != v])


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (1, 2), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.endpoints(2) == (1, 2)
    # incidence lists are sorted for deterministic traversal
    assert g.incident(1) == ((0, 0), (2, 1), (2, 2))


def test_is_stable_dominating_golden():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_stable_dominating(star, frozenset({1, 2, 3}))
    assert is_stable_dominating(star, frozenset({0}))
    assert not is_stable_dominating(star, frozenset({0, 1}))  # edge 0-1
    assert not is_stable_dominating(star, frozenset({1, 2}))  # 3 unseen
    assert not is_stable_dominating(star, frozenset())
    assert is_stable_dominating(Graph(0, []), frozenset())
    multi = Graph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    assert is_stable_dominating(multi, frozenset({0, 2}))
    assert not is_stable_dominating(multi, frozenset({0}))  # 2 unseen
    assert not is_stable_dominating(multi, frozenset({0, 1}))


def test_loops_are_stripped_and_counted():
    g = Graph(2, [(0, 0), (0, 1), (1, 1)])
    assert g.m == 1
    assert g.loops_stripped == 2


def test_out_of_range_edge_rejected():
    with pytest.raises(StructuralInputError):
        Graph(2, [(0, 2)])
    with pytest.raises(StructuralInputError):
        Graph(-1, [])


def test_components_with_restrictions():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == (
        frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5}))


@given(graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = [v for c in comps for v in c]
    assert sorted(seen) == list(range(g.n))
    # ordered by smallest member
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
