import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connjoin import tjoin
from connjoin.cli import format_graft, main
from connjoin.connected_join import decide
from connjoin.constructive import gen_primal, is_primal
from connjoin.decomposition import is_strong_comb
from connjoin.errors import NoJoinError, StructuralInputError
from connjoin.graph_core import Graph
from connjoin.oracle import all_joins
from connjoin.tjoin import (Graft, contract_graft, induced_graft, is_join,
                            minimum_join, nu, optimum_join, validate_graft)

from conftest import count_work, random_connected_graft


@st.composite
def grafts(draw):
    n = draw(st.integers(2, 7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]),
        max_size=6))
    g = Graph(n, tree + extra)
    k = 2 * draw(st.integers(0, n // 2))
    terminals = draw(st.permutations(range(n)))[:k]
    return validate_graft(g, terminals)


def test_validate_rejects_odd_component():
    with pytest.raises(NoJoinError):
        validate_graft(Graph(3, [(0, 1)]), {0, 1, 2})
    g = validate_graft(Graph(3, [(0, 1)]), {0, 1})
    assert g.terminals == frozenset({0, 1})


def test_terminal_out_of_range():
    with pytest.raises(StructuralInputError):
        Graft(Graph(2, [(0, 1)]), {5})


def test_is_join_goldens():
    p3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    assert is_join(p3, {0, 1})
    assert not is_join(p3, {0})
    assert not is_join(p3, set())
    empty = validate_graft(Graph(3, [(0, 1), (1, 2)]), set())
    assert is_join(empty, set())
    assert not is_join(empty, {0})


def test_minimum_join_goldens():
    p3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    assert minimum_join(p3) == frozenset({0, 1})
    c4 = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2})
    assert minimum_join(c4) == frozenset({0, 1})  # deterministic tie-break
    assert nu(c4) == 2
    star = validate_graft(Graph(4, [(0, 1), (0, 2), (0, 3)]), {0, 1, 2, 3})
    assert minimum_join(star) == frozenset({0, 1, 2})


def test_minimum_join_empty_terminals():
    g = validate_graft(Graph(3, [(0, 1), (1, 2), (0, 2)]), set())
    assert minimum_join(g) == frozenset()


@given(grafts())
@settings(max_examples=120)
def test_minimum_join_is_minimum(graft):
    sizes = [len(f) for f in all_joins(graft)]
    for j in (minimum_join(graft), optimum_join(graft)):
        assert is_join(graft, j)
        assert len(j) == (min(sizes) if sizes else 0)


@given(grafts())
def test_minimum_join_deterministic(graft):
    assert minimum_join(graft) == minimum_join(graft)
    assert optimum_join(graft) == optimum_join(graft)


class TieBreakReached(Exception):
    pass


def stable_dominating_teeth(graft, root):
    """A stable set dominating every other vertex, the root included:
    greedy over V - root, starting at the root's smallest neighbour."""
    graph = graft.graph
    teeth: set[int] = set()
    first = min(u for u, _ in graph.incident(root))
    for v in [first] + [v for v in range(graph.n) if v not in (root, first)]:
        if not any(u in teeth for u, _ in graph.incident(v)):
            teeth.add(v)
    return teeth


@pytest.mark.parametrize("make", [
    lambda: random_connected_graft(74),  # n = 8, k = 6, YES
    lambda: gen_primal(3, 3, seed=1)[0].graft,  # n = 35, k = 16, YES
], ids=["corpus", "primal"])
def test_tie_break_runs_only_where_a_join_is_printed(
        make, monkeypatch, tmp_path, capsys):
    # Nothing check, distances, verify, the comb test or the primal test
    # report depends on which minimum join they hold, so they realize the
    # stored optimum's own pairing; only the printed joins pay the
    # tie-break solve.
    def reached(*args):
        raise TieBreakReached

    monkeypatch.setattr(tjoin, "tight_pairing", reached)
    graft = make()
    path = tmp_path / "g.graft"
    path.write_text(format_graft(graft))
    root = min(graft.terminals)

    assert decide(graft).answer
    for command in ("check", "distances", "verify"):
        for fmt in ("text", "json"):
            assert main([command, str(path), "--format", fmt]) == 0
            assert capsys.readouterr().err == ""
    assert is_primal(graft, root) in (True, False)
    fresh = validate_graft(graft.graph, graft.terminals)
    calls = count_work(monkeypatch)
    assert is_strong_comb(fresh, root, stable_dominating_teeth(fresh, root)) \
        in (True, False)
    assert calls["solves"] == 2  # got past the shape screens: base + search

    with pytest.raises(TieBreakReached):
        minimum_join(graft)
    for command in ("solve", "decompose"):
        with pytest.raises(TieBreakReached):
            main([command, str(path)])


def test_induced_graft_maps_round_trip():
    g = validate_graft(
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]), {1, 3})
    sub = induced_graft(g, {1, 2, 3})
    assert sub.graft.graph.n == 3
    assert sub.map_vertices({1, 3}) == sub.graft.terminals
    inner = sub.map_edges({1, 2, 4})
    assert sub.unmap_edges(inner) == frozenset({1, 2, 4})
    # edge 0 leaves the set and has no image
    assert sub.map_edges({0}) == frozenset()


def test_contract_graft_parity():
    # collapsing {1,2} with one terminal inside keeps the image terminal
    g = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3)]), {1, 3})
    contracted, c = contract_graft(g, [{1, 2}])
    assert contracted.graph.n == 3
    assert contracted.terminals == {c.vertex_map[1], c.vertex_map[3]}
    # collapsing both terminals cancels the pair
    both, _ = contract_graft(g, [{1, 3}])
    assert both.terminals == frozenset()
