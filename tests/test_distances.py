"""Signed distances under a minimum join.

The reference route is exhaustive simple-path enumeration; the production
route recomputes join sizes under terminal toggles.  Canonicity (the map
does not depend on which minimum join is supplied) gets its own check on
corpus instances with several minimum joins.
"""

import pytest

from connjoin.connected_join import decide
from connjoin.constructive import gen_primal, gen_tailed
from connjoin.distances import (UNREACHABLE, _toggled_sizes, f_distances,
                                f_weight)
from connjoin.errors import NotMinimumJoinError, StructuralInputError
from connjoin.graph_core import Graph, connected_components
from connjoin.matching import min_weight_perfect_matching_value
from connjoin.oracle import shortest_path_weight_oracle
from connjoin.tjoin import (TerminalSolve, _hop_distances, minimum_join, nu,
                           validate_graft)

from conftest import count_work, sparse_graft

P3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
C4 = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2})


def toggled(graft, a, b):
    return validate_graft(graft.graph, graft.terminals ^ {a, b})


def test_f_weight():
    assert f_weight({1, 2}, [0, 1, 2, 3]) == 0
    assert f_weight(set(), [0, 1]) == 2
    assert f_weight({0}, [0, 0, 0]) == -1  # duplicates collapse


def test_goldens():
    dm = f_distances(P3, minimum_join(P3), 0)
    assert dm.dist == (0, -1, -2)
    assert dm.level_sets() == {0: frozenset({0}), -1: frozenset({1}),
                               -2: frozenset({2})}
    assert f_distances(C4, minimum_join(C4), 2).dist == (-2, -1, 0, -1)


def test_unreachable_marks_other_components():
    g = validate_graft(Graph(4, [(0, 1), (2, 3)]), {0, 1})
    dm = f_distances(g, minimum_join(g), 0)
    assert dm[2] is UNREACHABLE and dm[3] is UNREACHABLE
    assert dm.reachable() == frozenset({0, 1})


def test_rejects_non_minimum_join():
    tri = validate_graft(Graph(3, [(0, 1), (1, 2), (0, 2)]), {0, 1})
    with pytest.raises(NotMinimumJoinError):
        f_distances(tri, {1, 2}, 0)  # a join, but twice the minimum
    with pytest.raises(NotMinimumJoinError):
        f_distances(C4, {0, 1, 2, 3}, 0)  # not a join at all
    with pytest.raises(StructuralInputError):
        f_distances(C4, minimum_join(C4), 9)


def test_matches_path_enumeration(corpus):
    for case in corpus[:120]:
        graft = case.graft
        join = minimum_join(graft)
        dm = f_distances(graft, join, 0)
        for v in range(graft.graph.n):
            assert dm[v] == shortest_path_weight_oracle(graft, join, 0, v)


def test_canonicity_across_minimum_joins(corpus):
    seen = 0
    for case in corpus:
        if len(case.oracle.min_joins) < 2:
            continue
        maps = {f_distances(case.graft, j, 0).dist
                for j in case.oracle.min_joins}
        assert len(maps) == 1, f"seed {case.seed}"
        seen += 1
    assert seen > 50  # the corpus must actually exercise this


def test_toggle_identity(corpus):
    # dist(r, x) is the join-size change when terminals toggle at {r, x}
    for case in corpus[:100]:
        graft = case.graft
        join = minimum_join(graft)
        base = nu(graft)
        dm = f_distances(graft, join, 0)
        assert dm[0] == 0
        for x in range(1, graft.graph.n):
            if dm[x] is None:
                continue
            assert dm[x] == nu(toggled(graft, 0, x)) - base, f"seed {case.seed}"


def test_symmetry_and_edge_lipschitz(corpus):
    for case in corpus[:80]:
        graft = case.graft
        join = minimum_join(graft)
        n = graft.graph.n
        maps = {r: f_distances(graft, join, r) for r in range(n)}
        for x in range(n):
            for y in range(n):
                assert maps[x][y] == maps[y][x]
        for e in range(graft.graph.m):
            u, v = graft.graph.endpoints(e)
            du, dv = maps[0][u], maps[0][v]
            if du is not None and dv is not None:
                assert abs(du - dv) <= 1
        for e in join:  # a join edge is itself a shortest path
            u, v = graft.graph.endpoints(e)
            assert maps[u][v] == -1


def test_symmetric_query_helper():
    assert f_distances(C4, minimum_join(C4), 1)[3] == \
        f_distances(C4, minimum_join(C4), 3)[1] == 0


def cold_distances(graft, root):
    """The root component's terminals and hop tables, its toggled sizes and
    the distance map from `root`, with one cold matching solve per toggle."""
    comp = next(c for c in connected_components(graft.graph) if root in c)
    pts = graft.terminals & comp
    toggled = pts ^ {root}
    hop = {s: _hop_distances(graft.graph, s) for s in pts | {root}}

    def weight(a, b):
        return hop[a][b]

    base = min_weight_perfect_matching_value(sorted(pts), weight)
    sizes = {t: min_weight_perfect_matching_value(sorted(toggled - {t}), weight)
             for t in toggled}
    dist = [None] * graft.graph.n
    for x in comp:
        size = sizes[x] if x in toggled else min(
            hop[t][x] + s for t, s in sizes.items())
        dist[x] = 0 if x == root else size - base
    return sorted(pts), hop, base, sizes, tuple(dist)


def test_warm_toggles_match_cold_solves_above_oracle_reach():
    # n = 500, k = 48 is the top terminal-count bench rung's shape: deeper
    # blossom nests than the oracle's k <= 12 ever builds.
    grafts = [sparse_graft(300, 20, seed) for seed in (1, 2, 3)]
    grafts += [sparse_graft(500, 48, 1)]
    grafts += [gen_primal(3, 3, seed)[0].graft for seed in (1, 7)]
    grafts += [gen_tailed(2, 4, seed)[0] for seed in (1, 6)]
    for graft in grafts:
        join = minimum_join(graft)
        outside = min(set(range(graft.graph.n)) - graft.terminals)
        for root in (min(graft.terminals), outside):
            pts, hop, base, sizes, dist = cold_distances(graft, root)
            solve = TerminalSolve.of(pts, hop)
            assert (solve.nu, _toggled_sizes(solve, root, hop)) == (base, sizes)
            assert f_distances(graft, join, root).dist == dist


def test_decide_bfs_count_is_linear_in_terminals(monkeypatch):
    # The graft builds each terminal's hop table once, and the join and the
    # distances from a terminal root both read them.  The join realizes the
    # base optimum's own pairing, so the decision solves only the base
    # matching and the near-perfect distance search: no tie-break solve.
    graft = sparse_graft(300, 20, 5)
    calls = count_work(monkeypatch)
    decide(graft)
    assert calls == {"bfs": 20, "solves": 2}


def test_graft_solves_its_matching_once(monkeypatch):
    graft = sparse_graft(300, 20, 5)
    calls = count_work(monkeypatch)
    join = minimum_join(graft)  # k hop tables; the base and tie-break solves
    assert calls == {"bfs": 20, "solves": 2}
    assert nu(graft) == len(join)
    assert calls == {"bfs": 20, "solves": 2}
    f_distances(graft, join, min(graft.terminals))  # one near-perfect solve
    assert calls == {"bfs": 20, "solves": 2 + 1}
    outside = min(set(range(graft.graph.n)) - graft.terminals)
    f_distances(graft, join, outside)  # the root's hop table, one solve
    assert calls == {"bfs": 20 + 1, "solves": 2 + 1 + 1}


TRIANGLE_COUNTEREXAMPLE = validate_graft(
    Graph(6, [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (2, 3), (1, 4), (1, 4),
              (1, 2)]),
    {2, 4})


@pytest.mark.xfail(reason="signed path distances do not satisfy the triangle "
                   "inequality; dist(0,2)=0 > dist(0,1)+dist(1,2)=-1 here",
                   strict=True)
def test_triangle_inequality_literal():
    g = TRIANGLE_COUNTEREXAMPLE
    join = minimum_join(g)
    maps = {r: f_distances(g, join, r) for r in range(6)}
    for x in range(6):
        for y in range(6):
            for z in range(6):
                assert maps[x][z] <= maps[x][y] + maps[y][z]
