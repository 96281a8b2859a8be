import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connjoin import tjoin
from connjoin.cli import format_graft, main, parse_graft
from connjoin.connected_join import decide
from connjoin.constructive import gen_primal, is_primal
from connjoin.decomposition import is_strong_comb
from connjoin.errors import NoJoinError, StructuralInputError
from connjoin.graph_core import Graph
from connjoin.oracle import all_joins
from connjoin.matching import tight_pairing
from connjoin.tjoin import (Graft, _hop_distances, _shortest_path_edges,
                            is_join, minimum_join, nu, optimum_join,
                            validate_graft)

from conftest import (count_work, random_connected_graft, random_multigraft,
                      sparse_graft)


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


@pytest.mark.parametrize("terminals", [
    {0.5, 1.5}, {0.0, 2.0}, {"a", 1}, {None, 1}, {True, 2}])
def test_terminals_must_be_int_vertices(terminals):
    g = Graph(3, [(0, 1), (1, 2)])
    bad = [t for t in terminals if type(t) not in (int, bool)]
    if bad:
        with pytest.raises(StructuralInputError) as err:
            validate_graft(g, terminals)
        assert str(err.value) in [f"terminal {t!r} is not a vertex" for t in bad]
        return
    # a bool is an int vertex: True becomes 1, and the graft round-trips
    graft = validate_graft(g, terminals)
    assert graft.terminals == {1, 2}
    assert {type(t) for t in graft.terminals} == {int}
    assert parse_graft(format_graft(graft)) == graft


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


@pytest.mark.parametrize("join,bad", [([-1, 0], -1), ([0, 7, 5], 5),
                                      ([4, -3, -1, 2], -3)])
def test_is_join_rejects_ids_that_are_not_edges(join, bad):
    # -1 would index the last edge: [-1, 0] reads as {1, 0}, a join of P3
    p3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    with pytest.raises(StructuralInputError, match=f"edge id {bad} is out of range"):
        is_join(p3, join)


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
    assert calls["solves"] == 1  # got past the shape screens: rooted solve

    with pytest.raises(TieBreakReached):
        minimum_join(graft)
    for command in ("solve", "decompose"):
        with pytest.raises(TieBreakReached):
            main([command, str(path)])


def test_stopped_searches_match_full_rows():
    # The k x k table and each realized path come from searches that stop
    # early; full rows must give the same table and the same joins.
    for seed in range(300):
        graft = random_multigraft(seed)
        graph = graft.graph
        full = [_hop_distances(graph, v) for v in range(graph.n)]
        optimum, canonical = set(), set()
        for s in graft.solved:
            pts = s.terminals
            assert s.cost == [[full[a][b] for b in pts] for a in pts]
            for join, pairs in (
                    (optimum, [(i, j) for i, j in enumerate(s.optimum.mate)
                               if i < j]),
                    (canonical, tight_pairing(s.cost, s.optimum))):
                for i, j in pairs:
                    a, b = pts[i], pts[j]
                    join ^= _shortest_path_edges(graph, full[a], a, b)
        assert optimum_join(graft) == optimum
        assert minimum_join(graft) == canonical


def test_stopped_search_labels_its_stop_set_and_all_nearer_vertices():
    for seed in range(40):
        graft = random_multigraft(seed)
        graph = graft.graph
        for source in range(graph.n):
            full = _hop_distances(graph, source)
            stop = [v for v in range(graph.n) if (v * 7 + seed) % 3 == 0]
            row = _hop_distances(graph, source, stop)
            far = max((full[v] for v in stop if full[v] is not None),
                      default=0)
            for v, d in enumerate(row):
                assert d is None or d == full[v]
                if full[v] is not None and (full[v] < far or v in stop):
                    assert d == full[v]
            if all(full[v] is None for v in stop):
                assert row == full  # nothing to stop at: a full row


def test_stored_solve_keeps_no_row_of_length_n():
    # Memory per component is k^2, not k * n: the searches' rows of length
    # n are dropped once the table is filled.
    graft = sparse_graft(500, 48, 1)
    nu(graft)
    (s,) = graft.solved
    k = len(s.terminals)
    assert k == 48
    assert len(s.cost) == k and all(len(row) == k for row in s.cost)
    assert len(s.optimum.mate) == len(s.optimum.dual) == k

    def lengths(x):
        if isinstance(x, (list, tuple, dict)):
            yield len(x)
            for y in (x.values() if isinstance(x, dict) else x):
                yield from lengths(y)
    fields = [getattr(s, f) for f in vars(s)]
    fields += [s.optimum.mate, s.optimum.dual, s.optimum.blossoms]
    assert max(n for x in fields for n in lengths(x)) <= k
