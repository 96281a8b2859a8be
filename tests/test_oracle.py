import pytest

from connjoin.errors import OracleScaleError
from connjoin.graph_core import Graph
from connjoin.oracle import MAX_ORACLE_EDGES, all_joins, oracle_report
from connjoin.tjoin import is_join, validate_graft

from path_oracle import enumerate_circuits, enumerate_paths

P3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
C4 = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2})


def test_all_joins_p3():
    assert all_joins(P3) == [frozenset({0, 1})]


def test_all_joins_c4():
    assert sorted(sorted(j) for j in all_joins(C4)) == [[0, 1], [2, 3]]


def test_all_joins_empty_terminals():
    g = validate_graft(Graph(3, [(0, 1), (1, 2), (0, 2)]), set())
    # even subgraphs: the empty set and the triangle
    assert sorted(sorted(j) for j in all_joins(g)) == [[], [0, 1, 2]]


def test_report_c4():
    rep = oracle_report(C4)
    assert rep.nu == 2
    assert set(rep.min_joins) == {frozenset({0, 1}), frozenset({2, 3})}
    assert rep.has_connected
    assert rep.coverable == frozenset({0, 1, 2, 3})


def test_report_no_connected_join():
    # two needed join edges on opposite sides of a 4-path
    g = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3)]), {0, 1, 2, 3})
    rep = oracle_report(g)
    assert rep.nu == 2
    assert not rep.has_connected and rep.coverable == frozenset()


def test_scale_guard():
    wide = validate_graft(
        Graph(2, [(0, 1)] * (MAX_ORACLE_EDGES + 1)), {0, 1})
    with pytest.raises(OracleScaleError):
        all_joins(wide)
    tall = Graph(13, [(v, (v + 1) % 13) for v in range(13)])
    with pytest.raises(OracleScaleError):
        enumerate_circuits(tall)


def test_enumerate_circuits():
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)])
    assert [sorted(c) for c in enumerate_circuits(theta)] == [
        [0, 1], [0, 2], [1, 2]]
    assert enumerate_circuits(Graph(3, [(0, 1), (1, 2)])) == []


def test_enumerate_paths():
    assert [sorted(p) for p in enumerate_paths(C4.graph, 0, 2)] == [
        [0, 1], [2, 3]]
    assert enumerate_paths(C4.graph, 1, 1) == [frozenset()]
    assert enumerate_paths(Graph(2, []), 0, 1) == []


def test_all_joins_really_are_all(corpus):
    # cross-check the cycle-space route against raw subset filtering
    for case in corpus[:40]:
        graft = case.graft
        if graft.graph.m > 12:
            continue
        fast = set(all_joins(graft))
        slow = {frozenset(e for e in range(graft.graph.m) if mask >> e & 1)
                for mask in range(1 << graft.graph.m)}
        slow = {s for s in slow if is_join(graft, s)}
        assert fast == slow, f"seed {case.seed}"


def test_coverable_nonempty_iff_connected(corpus):
    for case in corpus:
        assert case.oracle.has_connected == bool(case.oracle.coverable)
        for j in case.oracle.min_joins:
            assert len(j) == case.oracle.nu
