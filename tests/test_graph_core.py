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
    assert g.nbrs[1] == (0, 2, 2) and g.eids[1] == (0, 1, 2)
    assert g.nbrs[3] == (0,) and g.eids[3] == (3,)


@st.composite
def raw_multigraphs(draw):
    """A vertex count and an edge list with loops and parallel edges likely,
    isolated vertices too: few endpoints are drawn for many edges."""
    n = draw(st.integers(min_value=0, max_value=9))
    if n == 0:
        return 0, []
    ends = st.integers(0, min(n - 1, draw(st.integers(0, n - 1))))
    return n, draw(st.lists(st.tuples(ends, ends), max_size=20))


@given(raw_multigraphs())
def test_flat_adjacency_matches_brute_force_incidence(drawn):
    n, raw = drawn
    kept = [(u, v) for u, v in raw if u != v]
    if kept != raw:
        with pytest.raises(StructuralInputError, match="is a loop"):
            Graph(n, raw)
    g = Graph(n, kept)
    assert g.edges == tuple(kept)
    for v in range(n):
        pairs = [(b if a == v else a, e)
                 for e, (a, b) in enumerate(kept) if v in (a, b)]
        assert g.nbrs[v] == tuple(u for u, _ in pairs)
        assert g.eids[v] == tuple(e for _, e in pairs)
        assert g.incident(v) == tuple(sorted(pairs))


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


def test_loops_are_rejected_not_renumbered_away():
    # Stripping the loop would make edge 1 of the caller's list the graph's
    # edge (1, 2), so a join's ids would name the wrong edges.
    with pytest.raises(StructuralInputError, match=r"edge 1 \(1, 1\) is a loop"):
        Graph(3, [(0, 1), (1, 1), (1, 2)])


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


def test_edges_given_as_lists_are_stored_as_int_pairs():
    g = Graph(3, [[0, 1], [1, 2]])
    twin = Graph(3, [(0, 1), (1, 2)])
    assert g.edges == twin.edges and type(g.endpoints(0)) is tuple
    assert g == twin and hash(g) == hash(twin)
    assert {g, twin} == {twin}
    with pytest.raises(AttributeError):
        g.endpoints(0).append(2)  # the immutable graph stays unchanged
    assert Graph(3, iter([(0, 1), [1, 2]])) == twin


@pytest.mark.parametrize("edges, bad", [
    ([(0, 1), (0, 1, 2)], r"edge 1 \(0, 1, 2\)"),
    ([(0, 1), (1,)], r"edge 1 \(1,\)"),
    ([(0, 1), (1, 2.0)], r"edge 1 \(1, 2.0\)"),
    ([(0.5, 1), (1, 2)], r"edge 0 \(0.5, 1\)"),
    ([[0, 1], 5, (0, 1, 2)], "edge 1 5"),
    ([(0, 1), "12"], "edge 1 '12'"),
    ([(0, 1), (1, None)], r"edge 1 \(1, None\)"),
])
def test_an_edge_that_is_no_int_pair_is_named(edges, bad):
    with pytest.raises(StructuralInputError,
                       match=bad + " is not a pair of int vertices"):
        Graph(3, edges)
    with pytest.raises(StructuralInputError, match=bad):
        Graph(3, iter(edges))  # a one-shot iterable names it too


def test_range_and_loop_errors_name_the_first_bad_edge():
    with pytest.raises(StructuralInputError, match=r"edge \(0, 3\) out of range"):
        Graph(3, [(0, 1), (0, 3), (0, 1.5)])
    with pytest.raises(StructuralInputError, match=r"edge 1 \(2, 2\) is a loop"):
        Graph(3, [[0, 1], [2, 2], (0, 1, 2)])
