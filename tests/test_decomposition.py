"""Layered decomposition: frozen small goldens plus the self-check route."""

import dataclasses
import json
import random
from collections import Counter

import pytest

from connjoin import decomposition
from connjoin.connected_join import head_set, is_eligible
from connjoin.constructive import gen_primal, gen_tailed
from connjoin.decomposition import (distance_decomposition, is_factor_critical,
                                    is_strong_comb, verify_decomposition)
from connjoin.distances import DistanceMap
from connjoin.errors import (InternalError, StructuralInputError,
                             TheoremViolationError)
from connjoin.graph_core import Graph, connected_components
from connjoin.tjoin import Graft, minimum_join, optimum_join, validate_graft

from conftest import (count_work, mixed_level_grafts, random_connected_graft,
                      random_multigraft)
from decomposition_oracle import matchable_deletions, oracle_components
from path_oracle import enumerate_circuits, shortest_path_weight_oracle

P3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
C4 = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2})


def test_p3_structure_golden():
    dd = distance_decomposition(P3, minimum_join(P3), 0)
    assert dd.to_json() == {
        "root": 0,
        "interval": [-2, -1, 0],
        "components": [
            {"id": 0, "level": -2, "kind": "layer", "vertices": [2],
             "a_set": [2], "d_set": [], "is_cap": False, "beam": 1,
             "f_root": 2, "q_children": [1], "d_children": []},
            {"id": 1, "level": -2, "kind": "q", "vertices": [2],
             "a_set": [2], "d_set": [], "is_cap": False, "beam": 1,
             "f_root": 2, "q_children": [], "d_children": []},
            {"id": 2, "level": -1, "kind": "layer", "vertices": [1, 2],
             "a_set": [1], "d_set": [2], "is_cap": False, "beam": 0,
             "f_root": 1, "q_children": [3], "d_children": [0]},
            {"id": 3, "level": -1, "kind": "q", "vertices": [1, 2],
             "a_set": [1], "d_set": [2], "is_cap": False, "beam": 0,
             "f_root": 1, "q_children": [], "d_children": [0]},
            {"id": 4, "level": 0, "kind": "layer", "vertices": [0, 1, 2],
             "a_set": [0], "d_set": [1, 2], "is_cap": True, "beam": None,
             "f_root": None, "q_children": [5], "d_children": [2]},
            {"id": 5, "level": 0, "kind": "q", "vertices": [0, 1, 2],
             "a_set": [0], "d_set": [1, 2], "is_cap": True, "beam": None,
             "f_root": None, "q_children": [], "d_children": [2]},
        ],
    }
    assert dd.components[dd.initial_id].vertices == frozenset({0, 1, 2})


def test_layers_are_cumulative():
    dd = distance_decomposition(C4, minimum_join(C4), 0)
    by_level = {i: c for c, (i, layer) in enumerate(zip(dd.level, dd.is_layer))
                if layer}
    vertices = [c.vertices for c in dd.components]
    assert vertices[by_level[-2]] == frozenset({2})
    assert vertices[by_level[-1]] == frozenset({1, 2, 3})
    assert vertices[by_level[0]] == frozenset({0, 1, 2, 3})
    assert dd.initial_id == by_level[0]


def test_root_validation():
    with pytest.raises(StructuralInputError):
        distance_decomposition(P3, minimum_join(P3), 7)


def test_build_rejects_join_ids_that_are_not_edges():
    for join, bad in (([-1, 0], -1), ([1, 3], 3)):
        with pytest.raises(StructuralInputError, match=f"edge id {bad} "):
            distance_decomposition(P3, join, 0)


def test_verify_rejects_join_ids_that_are_not_edges():
    dd = distance_decomposition(P3, minimum_join(P3), 0)
    for join, bad in (([-1, 0], -1), ([0, 1, 2, 9], 2)):
        with pytest.raises(StructuralInputError, match=f"edge id {bad} "):
            verify_decomposition(P3, join, dd)


def test_verify_clean_on_corpus_slice(corpus):
    for case in corpus[:60]:
        join = minimum_join(case.graft)
        dd = distance_decomposition(case.graft, join, 0)
        rep = verify_decomposition(case.graft, join, dd)
        assert rep.ok, (case.seed, rep.to_json())
        assert rep.components_checked > 0


def test_verify_reports_on_wrong_join():
    # the decomposition of one minimum join, checked against the other one:
    # beams sit on the wrong side, so violations are reported, not raised
    join = minimum_join(C4)
    dd = distance_decomposition(C4, join, 0)
    other = frozenset(range(4)) - join
    rep = verify_decomposition(C4, other, dd)
    assert not rep.ok
    assert {v.check for v in rep.violations} == {
        "distance-projection", "strong-comb"}
    assert rep.to_json()["ok"] is False


def test_verify_reports_non_minimum_restriction():
    # A join with one edge too many (the minimum join 1-0-2-4 XOR the
    # triangle 0-2-3): the layer component around it has a join root, so
    # the distances' own minimality assertion reports it.
    g = validate_graft(
        Graph(5, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 3)]), {1, 4})
    assert minimum_join(g) == {0, 1, 3}
    dd = distance_decomposition(g, minimum_join(g), 1)
    rep = verify_decomposition(g, {0, 2, 3, 4}, dd)
    found = [v for v in rep.violations if v.check == "induced-join-minimality"]
    assert [(v.component_id, v.message) for v in found] == [
        (4, "restriction has 3 edges, minimum is 2")]
    assert dd.f_root[4] is not None


def test_verify_reports_a_level_contraction_that_is_not_factor_critical():
    # Rooted at 0, level 0 of graft A splits into the Q components {0, 1},
    # {2} and {4}; edges 1 = 1-2, 3 and 6 = 2-4 and 7 = 1-4 contract them to
    # a triangle.  Graft B moves edge 1's end 2 into {0, 1}, keeping every
    # edge id, so the contraction is the path {0, 1} - {4} - {2}.  The level
    # contraction reads only the join and A's decomposition, not B's own.
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (0, 1), (0, 3), (2, 4), (1, 4)]
    a = validate_graft(Graph(5, edges), {0, 2, 3, 4})
    join = minimum_join(a)
    dd = distance_decomposition(a, join, 0)
    assert [sorted(dd.a_set[q]) for q in dd.q_children[2]] \
        == [[0, 1], [2], [4]]
    assert verify_decomposition(a, join, dd).ok
    edges[1] = (1, 0)
    b = validate_graft(Graph(5, edges), a.terminals)
    assert verify_decomposition(b, join, dd).to_json() == {
        "ok": False, "components_checked": 6, "violations": [{
            "component_id": 2, "check": "factor-critical-contraction",
            "message": "level contraction is not factor-critical"}]}


def test_verify_reports_child_beams_that_are_not_a_minimum_join():
    # Rooted at 3, the Q component 3 has the top {0, 2} and the one child
    # {1}.  The join 1-2, 0-3, 0-2 is the minimum join 1-0-3 XOR the
    # triangle 0-1-2; it leaves {1} by the beam 1-2 alone.  Contracting {1}
    # to a tooth t gives the triangle 0, 2, t with terminals {0, t}, a
    # strong comb rooted at 0, whose joins all meet 0: the beam t-2 is none.
    graft = validate_graft(Graph(4, [(0, 1), (1, 2), (0, 3), (0, 2)]), {1, 3})
    join = minimum_join(graft)
    assert join == {0, 2}
    dd = distance_decomposition(graft, join, 3)
    assert (dd.a_set[3], dd.d_children[3]) == ({0, 2}, (0,))
    assert dd.a_set[0] == {1}
    assert verify_decomposition(graft, {1, 2, 3}, dd).to_json() == {
        "ok": False, "components_checked": 6, "violations": [
            {"component_id": 2, "check": "induced-join-minimality",
             "message": "restriction has 2 edges, minimum is 1"},
            {"component_id": 2, "check": "near-perfect-matching",
             "message": "top-level join edges do not match all non-root "
                        "blobs exactly once"},
            {"component_id": 3, "check": "comb-join",
             "message": "child beams are not a minimum join of the depth "
                        "contraction"}]}


def test_verify_golden_on_corrupted_joins(corpus):
    # Each corpus graft at its default root, checked against its minimum
    # join and against that join XOR each circuit (a join again, mostly not
    # minimum): the totals are pinned, so a verifier rewrite that drops or
    # adds a violation anywhere shows here.
    reports, found = 0, Counter()
    for case in corpus:
        graft = case.graft
        join = minimum_join(graft)
        dd = distance_decomposition(graft, join, min(graft.terminals, default=0))
        for circuit in [frozenset()] + enumerate_circuits(graft.graph):
            report = verify_decomposition(graft, join ^ circuit, dd)
            found.update(v.check for v in report.violations)
            reports += 1
    assert reports == 7576
    assert found == {
        "beam-count": 10860, "near-perfect-matching": 3314,
        "induced-join-minimality": 853, "factor-critical-contraction": 729,
        "distance-projection": 407, "strong-comb": 276, "comb-join": 108}


def test_verify_does_not_depend_on_the_edge_order(corpus, monkeypatch):
    # The incidence lists follow the edge order, and so does the route
    # search of ``_restriction_closes``.  Renumbering the edges, the join
    # with them, must leave each report and the number of contractions the
    # verifier builds as they were.
    calls = Counter()
    contraction = decomposition._contraction

    def counted(*args):
        calls["contractions"] += 1
        return contraction(*args)

    monkeypatch.setattr(decomposition, "_contraction", counted)

    def verified(graft, join, root):
        calls.clear()
        dd = distance_decomposition(graft, join, root)
        return verify_decomposition(graft, join, dd).to_json(), calls.copy()

    total = 0
    for case in corpus:
        graft = case.graft
        root, join = min(graft.terminals, default=0), minimum_join(graft)
        want = verified(graft, join, root)
        total += want[1]["contractions"]
        rng = random.Random(case.seed)
        for _ in range(2):
            order = list(range(graft.m))
            rng.shuffle(order)  # new edge i is old edge order[i]
            new_id = {e: i for i, e in enumerate(order)}
            shuffled = validate_graft(
                Graph(graft.n, [graft.graph.edges[e] for e in order]),
                graft.terminals)
            assert verified(shuffled, {new_id[e] for e in join}, root) == want
    assert total > 0


def path_or_primal(family):
    """A 300-vertex path with its ends as terminals, or ``gen_primal(3, 3)``;
    with the root and the decomposition under the optimum's own join."""
    if family == "path":
        graft = validate_graft(
            Graph(300, [(v, v + 1) for v in range(299)]), {0, 299})
        root = 0
    else:
        witness, _ = gen_primal(3, 3)
        graft, root = witness.graft, witness.root
    join = optimum_join(graft)
    return graft, join, distance_decomposition(graft, join, root)


@pytest.mark.parametrize("family", ["path", "primal"])
def test_verify_builds_only_the_cap_level_contraction(monkeypatch, family):
    # Every non-cap layer component closes by its certificate here, which
    # also proves its level contraction and its Q component's depth
    # contraction; so the one graft built is the level-0 cap's level
    # contraction, one blob and no solve.
    graft, join, dd = path_or_primal(family)
    calls = []
    contract = decomposition._contraction
    monkeypatch.setattr(decomposition, "_contraction",
                        lambda *args: calls.append(args) or contract(*args))
    work = count_work(monkeypatch)
    assert verify_decomposition(graft, join, dd).ok
    assert [args[2] for args in calls] == [dd.a_set[dd.initial_id]]
    assert all(len(qs) == 1
               for qs, layer in zip(dd.q_children, dd.is_layer) if layer)
    assert work["solves"] == 0


@pytest.fixture
def certified(monkeypatch):
    """``certified(graft, join, dd)`` verifies ``join`` against ``dd`` and
    lists the ids of the non-cap layer components whose restriction check
    closed by its certificate (``_check_restriction`` did not run on them),
    each with
    what the checks the certificate discharges report when run directly:
    the restriction and level contraction checks on the component, and the
    depth contraction check on its one Q component if that has children."""
    ran, check = set(), decomposition._check_restriction
    monkeypatch.setattr(decomposition, "_check_restriction",
                        lambda *args: ran.add(args[3]) or check(*args))

    def certified(graft, join, dd):
        ran.clear()
        verify_decomposition(graft, join, dd)
        graph, join = graft.graph, frozenset(join)
        home, leaving = climb(graph, join, dd)
        out = []
        for cid in non_cap_layers(dd):
            if cid not in ran:
                found = []
                report = lambda *v: found.append(v)
                check(graph, join, dd, cid, report)
                decomposition._check_level_contraction(
                    graph, join, dd, cid, report)
                q, = dd.q_children[cid]
                if dd.d_children[q]:  # non-cap, as cid is
                    decomposition._check_depth_contraction(
                        graph, join, dd, q, home, leaving, report)
                out.append((cid, found))
        return out
    return certified


def climb(graph, join, dd):
    """``home`` and the leaving-edge columns by id, as the verifier builds
    them."""
    home = [None] * graph.n
    for q, top in enumerate(dd.a_set):
        if not dd.is_layer[q]:
            for v in top:
                home[v] = q
    return home, decomposition._leaving(
        graph, join, home, dd.parent,
        [2 * i + layer for i, layer in zip(dd.level, dd.is_layer)])


def test_leaving_columns_match_a_crossing_count(corpus):
    # Under a minimum join XOR each circuit, a component may be left by any
    # number of join edges.  Per component, the count, the first edge with
    # its inner end and the rest, in join order, equal a direct count of
    # the join edges with one end inside the component's vertex set.
    overflowing_children = 0
    for case in corpus[:100]:
        graft = case.graft
        graph, join = graft.graph, minimum_join(graft)
        dd = distance_decomposition(graft, join, min(graft.terminals, default=0))
        vertex_sets = [c.vertices for c in dd.components]
        for circuit in [frozenset()] + enumerate_circuits(graph):
            other = join ^ circuit
            _, leaving = climb(graph, other, dd)
            for cid, inside in enumerate(vertex_sets):
                crossing = [(e, u if u in inside else v) for e in other
                            for u, v in [graph.endpoints(e)]
                            if (u in inside) != (v in inside)]
                assert leaving.count[cid] == len(crossing)
                assert (leaving.edge[cid], leaving.end[cid]) == (
                    crossing[0] if crossing else (None, None))
                assert leaving.more.get(cid) == (crossing[1:] or None)
                assert leaving.edges(cid) == [e for e, _ in crossing]
            # a depth child of a non-cap Q component left by two or more
            # edges: its depth contraction reads the overflow list
            overflowing_children += sum(
                leaving.count[d] >= 2 for q, kids in enumerate(dd.d_children)
                if not (dd.is_layer[q] or dd.is_cap[q]) for d in kids)
    assert overflowing_children > 15  # 22


def test_depth_contraction_reads_every_edge_leaving_a_child():
    # Under the join {0, 1, 2, 6}, the child {2} of Q component 3 is left
    # by edges 1, 2 and 6 (the parallel edges 2 and 6 both run 2-3).  The
    # child beams of the depth contraction are all three, which are no
    # minimum join of it; its first edge alone would be one.
    graft = validate_graft(Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (3, 4),
                                     (3, 4), (2, 3), (0, 1), (3, 4), (1, 2),
                                     (3, 4)]), {0, 2})
    join = minimum_join(graft)
    assert join == {0, 1}
    dd = distance_decomposition(graft, join, 0)
    other = join | {2, 6}
    assert dd.d_children[3] == (0,)
    _, leaving = climb(graft.graph, frozenset(other), dd)
    assert sorted(leaving.edges(0)) == [1, 2, 6]
    assert verify_decomposition(graft, other, dd).to_json()["violations"] == [
        {"component_id": 0, "check": "beam-count",
         "message": "3 join edges leave the component, expected 1"},
        {"component_id": 1, "check": "beam-count",
         "message": "3 join edges leave the component, expected 1"},
        {"component_id": 2, "check": "induced-join-minimality",
         "message": "restriction has 3 edges, minimum is 1"},
        {"component_id": 3, "check": "comb-join",
         "message": "child beams are not a minimum join of the depth "
                    "contraction"}]


def non_cap_layers(dd):
    """The ids of the non-cap layer components, in id order."""
    return [cid for cid, (layer, cap) in enumerate(zip(dd.is_layer, dd.is_cap))
            if layer and not cap]


def family_members(family, count):
    """``count`` seeded members of a generator family, or the 300-vertex
    path, each with its root."""
    if family == "path":
        graft, _, dd = path_or_primal("path")
        return [(graft, dd.root)]
    out = []
    for seed in range(count):
        if family == "primal":
            witness, _ = gen_primal(seed % 4, 2 + seed % 3, seed=seed)
            out.append((witness.graft, witness.root))
        else:
            graft, root, _ = gen_tailed(1 + seed % 3, 2 + seed % 3, seed=seed)
            out.append((graft, root))
    return out


@pytest.mark.parametrize("family", ["path", "primal", "tailed"])
def test_certificate_closes_every_restriction_check_of_a_valid_join(
        certified, family):
    # Under a minimum join every premise holds and the search finds every
    # route, so no restriction check falls back to a sub-graft solve.
    for graft, root in family_members(family, 24):
        join = optimum_join(graft)
        dd = distance_decomposition(graft, join, root)
        closed = certified(graft, join, dd)
        assert [cid for cid, _ in closed] == non_cap_layers(dd)
        assert all(found == [] for _, found in closed)


def test_certificate_closes_only_clean_restriction_checks(corpus, certified):
    # The solved check, run directly, reports nothing on a component the
    # certificate closes: under every corrupted join of the golden run, and
    # under generator members' own joins with two edges flipped.
    closes = 0
    for case in corpus:
        graft = case.graft
        join = minimum_join(graft)
        dd = distance_decomposition(graft, join, min(graft.terminals, default=0))
        for circuit in [frozenset()] + enumerate_circuits(graft.graph):
            for cid, found in certified(graft, join ^ circuit, dd):
                assert found == [], (case.seed, sorted(circuit), cid)
                closes += 1
    assert closes > 8000  # 8,875 of the 10,344 checks
    for family in ("primal", "tailed"):
        for graft, root in family_members(family, 24):
            join = optimum_join(graft)
            dd = distance_decomposition(graft, join, root)
            rng = random.Random(graft.n)
            for _ in range(8):
                flips = frozenset(rng.sample(range(graft.m), 2))
                for cid, found in certified(graft, join ^ flips, dd):
                    assert found == [], (family, graft.n, sorted(flips), cid)


def test_certificate_needs_a_route_around_each_child_to_its_beam():
    # Rooted at 1, the layer component 4 has the top {0, 3, 4} over the
    # children {2} (beam 0-2) and {5} (beam 5-4).  Graft B moves edge 3 from
    # 2-4 to 2-0, keeping its id: every top vertex is still reached, but 4
    # only through {5} itself, so nothing proves 5's distance, and the
    # solved check finds it wrong.
    edges = [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (3, 5), (0, 5)]
    a = validate_graft(Graph(6, edges), {1, 2, 4, 5})
    join = minimum_join(a)
    dd = distance_decomposition(a, join, 1)
    assert (sorted(dd.a_set[4]), dd.f_root[4], dd.d_children[4]) == (
        [0, 3, 4], 0, (0, 2))
    assert verify_decomposition(a, join, dd).ok
    edges[3] = (2, 0)
    b = validate_graft(Graph(6, edges), a.terminals)
    assert verify_decomposition(b, join, dd).to_json()["violations"] == [
        {"component_id": 4, "check": "distance-projection",
         "message": "vertex 5: outer -2 != -1 + inner 1"},
        {"component_id": 5, "check": "strong-comb",
         "message": "depth contraction is not a strong comb"}]


def test_certificate_routes_never_revisit_a_top_vertex():
    # Rooted at 0, under the join 0-1, 5-2, 6-2, 7-3, the layer component 6
    # has the top {1, 2, 3, 4} over the children {5}, {6} and {7}, beams to
    # 2, 2 and 3.  Graft B moves edge 7 from 1-7 to 2-7: then 4 is reached
    # only from 2 through {5}, and 2 only through {5} itself (the loop
    # through 3 comes back to 2), so every route to 4 passes {5} twice; the
    # solved check finds 4 two above its level.
    edges = [(0, 1), (5, 2), (6, 2), (7, 3), (1, 5), (4, 5), (3, 6), (1, 7)]
    a = validate_graft(Graph(8, edges), {0, 1, 3, 5, 6, 7})
    join = frozenset({0, 1, 2, 3})
    dd = distance_decomposition(a, join, 0)
    assert (sorted(dd.a_set[6]), dd.f_root[6], dd.d_children[6]) == (
        [1, 2, 3, 4], 1, (0, 2, 4))
    assert verify_decomposition(a, join, dd).ok
    edges[7] = (2, 7)
    b = validate_graft(Graph(8, edges), a.terminals)
    assert verify_decomposition(b, join, dd).to_json()["violations"] == [
        {"component_id": 6, "check": "distance-projection",
         "message": "vertex 4: outer -1 != -1 + inner 2"},
        {"component_id": 7, "check": "strong-comb",
         "message": "depth contraction is not a strong comb"}]


def test_certificate_needs_one_q_component():
    # Rooted at 2, the layer component 4 has the top {0, 4, 5, 6, 7} over
    # the Q components 5 ({0, 4, 5}), 6 ({6}) and 7 ({7}).  With edges 5 and
    # 8 rewired to 6-1 and 7-1, into the child {1}, and under the join
    # {0, 1, 2}, the certificate's search passes that child from Q
    # component 5 into 6 and 7.  Its restriction proof would close, but the
    # level contraction on three blobs is not factor-critical, so the
    # one-Q premise keeps 4 from closing.
    graft = random_connected_graft(2)
    join = optimum_join(graft)
    assert join == {0, 1, 2, 6}
    dd = distance_decomposition(graft, join, 2)
    assert (sorted(dd.a_set[4]), dd.q_children[4]) == (
        [0, 4, 5, 6, 7], (5, 6, 7))
    edges = list(graft.graph.edges)
    edges[5], edges[8] = (6, 1), (7, 1)
    other = Graft(Graph(graft.n, edges), graft.terminals)
    assert verify_decomposition(other, {0, 1, 2}, dd).to_json() == {
        "ok": False, "components_checked": 10, "violations": [
            {"component_id": 6, "check": "beam-count",
             "message": "0 join edges leave the component, expected 1"},
            {"component_id": 7, "check": "beam-count",
             "message": "0 join edges leave the component, expected 1"},
            {"component_id": 4, "check": "factor-critical-contraction",
             "message": "level contraction is not factor-critical"}]}


def rewired(graft, rng):
    """``graft`` with one to three edges given a random new end, keeping
    every edge id and the terminals."""
    edges = list(graft.graph.edges)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(edges))
        u = edges[i][rng.randrange(2)]
        v = rng.randrange(graft.n)
        if v != u:
            edges[i] = (u, v)
    return Graft(Graph(graft.n, edges), graft.terminals)


def test_certificate_checks_its_premises(corpus, certified):
    # A decomposition checked against a graft with some edges rewired: levels
    # may jump, layer components may touch or hold a join edge inside a
    # level, and routes may vanish, so the certificate must check each
    # premise itself; what it closes the solved check still finds clean.
    rng = random.Random(18)
    closes = 0
    sources = [(case.graft, min(case.graft.terminals, default=0))
               for case in corpus if case.graft.m]
    sources += family_members("primal", 24)
    for graft, root in sources:
        join = optimum_join(graft)
        dd = distance_decomposition(graft, join, root)
        for _ in range(6):
            other = rewired(graft, rng)
            flips = frozenset(rng.sample(range(graft.m), min(2, graft.m)))
            for cid, found in certified(other, join ^ flips, dd):
                assert found == [], (other.graph.edges, sorted(flips), cid)
                closes += 1
    assert closes > 4000  # 5,078


def test_verify_reports_on_grafts_rewired_past_its_component():
    # Rewired edges may leave the decomposition's component: a join edge
    # with one end outside, or a top vertex with a neighbour outside.  The
    # verifier reports on such grafts instead of raising.
    rng = random.Random(19)
    crossing = 0
    for graft, root in family_members("tailed", 150):
        join = optimum_join(graft)
        dd = distance_decomposition(graft, join, root)
        dist = dd.distance_map.dist
        for _ in range(30):
            other = rewired(graft, rng)
            flips = frozenset(rng.sample(range(graft.m), min(2, graft.m)))
            verify_decomposition(other, join ^ flips, dd)
            crossing += any((dist[u] is None) != (dist[v] is None)
                            for u, v in other.graph.edges)
    assert crossing > 60  # 93


def test_verify_reports_a_join_edge_leaving_the_root_component():
    # Edge 3 of the decomposed graft joined 3 and 4, outside the root's
    # component; rewired to 1-4 it leaves every component holding 1.
    graft = validate_graft(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
                           {0, 1, 3, 4})
    join = optimum_join(graft)
    assert join == {0, 3}
    dd = distance_decomposition(graft, join, 0)
    other = Graft(Graph(5, [(0, 1), (1, 2), (2, 0), (1, 4)]), graft.terminals)
    assert verify_decomposition(other, join, dd).to_json() == {
        "ok": False, "components_checked": 4, "violations": [
            {"component_id": 0, "check": "beam-count",
             "message": "2 join edges leave the component, expected 1"},
            {"component_id": 1, "check": "beam-count",
             "message": "2 join edges leave the component, expected 1"},
            {"component_id": 2, "check": "beam-count",
             "message": "1 join edges leave the component, expected 0"},
            {"component_id": 3, "check": "beam-count",
             "message": "1 join edges leave the component, expected 0"}]}


@pytest.mark.parametrize("family", ["path", "primal"])
def test_vertex_sets_are_never_stored(family):
    # Only the top levels are held (at most 2n references), also after the
    # verifier, the JSON dump and every view have read every vertex set: a
    # view holds its id and the decomposition's own columns, no vertex set.
    graft, join, dd = path_or_primal(family)
    assert verify_decomposition(graft, join, dd).ok
    dd.to_json()
    for cid, c in enumerate(dd.components):
        assert c.vertices
        cid_held, (a_set, d_children) = [
            getattr(c, f.name) for f in dataclasses.fields(c)]
        assert cid_held == cid
        assert a_set is dd.a_set and d_children is dd.d_children
    assert sum(map(len, dd.a_set)) <= 2 * graft.n


def induced(graph, join, verts):
    """Brute force: the sub-graft induced on sorted ``verts`` (terminals where
    the restricted join has odd degree), the kept parent edges in order, the
    restricted join and the rank map."""
    image = {v: i for i, v in enumerate(verts)}
    inside = [e for e, (u, v) in enumerate(graph.edges)
              if u in image and v in image]
    degree = Counter(x for e in inside if e in join
                     for x in graph.endpoints(e))
    sub = Graph(len(verts),
                [(image[u], image[v]) for u, v in map(graph.endpoints, inside)])
    terminals = {image[v] for v in verts if degree[v] % 2}
    inner_join = {i for i, e in enumerate(inside) if e in join}
    return validate_graft(sub, terminals), inside, inner_join, image


def test_contraction_under_rank_image_is_the_induced_sub_graft(corpus):
    # The verifier's restriction check builds its sub-graft with the same
    # routine as its contractions.
    rng = random.Random(9)
    for case in corpus[:150]:
        graph, join = case.graft.graph, minimum_join(case.graft)
        for _ in range(3):
            verts = sorted(rng.sample(range(graph.n), rng.randint(1, graph.n)))
            want, inside, _, image = induced(graph, join, verts)
            sub, new_id = decomposition._contraction(graph, join, verts,
                                                     image, len(verts))
            assert sub == want
            assert new_id == {e: i for i, e in enumerate(inside)}


@pytest.mark.parametrize("seed,circuit,comp_id,named", [
    (3, {7, 8, 9, 10, 13, 14}, 30, "vertex 7: outer -3 != -2 + inner 1"),
    (0, {1, 4, 34, 37, 40, 42, 81, 82}, 44,
     "vertex 23: outer -3 != -2 + inner 1"),
], ids=["tailed-3", "tailed-0"])
def test_distance_projection_names_the_smallest_offending_vertex(
        seed, circuit, comp_id, named):
    # Two vertices of the component break the projection under the optimum's
    # own join XOR a circuit; the report names the smaller one, not the first
    # in some set's iteration order.
    graft, root, _ = gen_tailed(2, 4, seed=seed)
    join = optimum_join(graft) ^ circuit
    dd = distance_decomposition(graft, optimum_join(graft), root)
    verts = sorted(dd.components[comp_id].vertices)
    sub, _, inner_join, image = induced(graft.graph, join, verts)
    f_root = dd.f_root[comp_id]
    offset = dd.distance_map[f_root]
    offenders = [v for v in verts if dd.distance_map[v] != offset
                 + shortest_path_weight_oracle(sub, inner_join,
                                               image[f_root], image[v])]
    assert len(offenders) >= 2
    found = [v for v in verify_decomposition(graft, join, dd).violations
             if v.check == "distance-projection"]
    assert [(v.component_id, v.message) for v in found] == [(comp_id, named)]
    assert named.startswith(f"vertex {offenders[0]}:")


def test_beam_counts(corpus):
    for case in corpus[:60]:
        join = minimum_join(case.graft)
        dd = distance_decomposition(case.graft, join, 0)
        for cap, beam, f_root, top in zip(dd.is_cap, dd.beam, dd.f_root,
                                          dd.a_set):
            if cap:
                assert beam is None and f_root is None
            else:
                assert beam in join
                assert f_root in case.graft.graph.endpoints(beam)
                assert f_root in top


def test_factor_critical():
    assert is_factor_critical(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_factor_critical(Graph(5, [(v, (v + 1) % 5) for v in range(5)]))
    assert is_factor_critical(Graph(1, []))
    assert not is_factor_critical(Graph(3, [(0, 1), (1, 2)]))  # leaf-deletion
    assert not is_factor_critical(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_factor_critical_matches_definition(monkeypatch):
    # Seeded multigraphs with n <= 9, checked against deleting each vertex
    # and searching for a perfect matching; odd n >= 3 costs one search,
    # every other n none.
    rng = random.Random(6)
    calls = count_work(monkeypatch)
    kinds = set()
    for _ in range(2000):
        n = rng.randint(0, 9)
        edges = [tuple(rng.sample(range(n), 2))
                 for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)]
        graph = Graph(n, edges)
        before = calls["solves"]
        answer = is_factor_critical(graph)
        assert calls["solves"] - before == (n % 2 and n >= 3)
        deletions = matchable_deletions(graph)
        assert answer == all(deletions)
        if n % 2 == 0:
            kinds.add("n=0" if n == 0 else "even")
        elif n == 1:
            kinds.add("n=1")
        elif answer:
            kinds.add("factor-critical")
        elif len(connected_components(graph)) > 1:
            kinds.add("disconnected")
        elif not any(deletions):
            kinds.add("no near-perfect matching")
        else:
            kinds.add("connected, near-perfect, not factor-critical")
    assert kinds == {"n=0", "n=1", "even", "factor-critical", "disconnected",
                     "no near-perfect matching",
                     "connected, near-perfect, not factor-critical"}


def test_is_strong_comb():
    star = validate_graft(Graph(4, [(0, 1), (0, 2), (0, 3)]), {0, 1, 2, 3})
    assert is_strong_comb(star, 0, {1, 2, 3})
    assert not is_strong_comb(star, 0, {1, 2})  # 3 not dominated by the teeth
    assert not is_strong_comb(C4, 0, {1, 3})  # dist(0,2) = -2, not 0
    assert not is_strong_comb(star, 1, {1, 2, 3})  # root inside the teeth
    odd = Graft(Graph(3, [(0, 1), (1, 2)]), frozenset({0}))
    assert not is_strong_comb(odd, 0, {1})  # no join: one terminal
    with pytest.raises(StructuralInputError, match="^tooth 4 is not a vertex$"):
        is_strong_comb(star, 0, {1, 2, 4})
    for root in (-1, star.n):
        with pytest.raises(StructuralInputError,
                           match=f"^root {root} is not a vertex$"):
            is_strong_comb(star, root, {1, 2, 3})


def without_join_fields(dd):
    """The decomposition's JSON without beams and join roots."""
    doc = dd.to_json()
    for comp in doc["components"]:
        del comp["beam"], comp["f_root"]
    return doc


def test_outputs_are_the_same_for_every_minimum_join(corpus):
    # Beams and join roots are the only fields that depend on the join held,
    # so the decision and the verifier may hold the optimum's own join: the
    # report, every other field, the verdict and the head sets agree.
    pairs = 0
    for case in corpus:
        graft, own = case.graft, optimum_join(case.graft)
        for root in sorted(graft.terminals):
            ref = distance_decomposition(graft, own, root)
            report = verify_decomposition(graft, own, ref)
            assert report.ok, f"seed {case.seed} root {root}"
            verdict = is_eligible(graft, own, root, ref)
            heads = head_set(graft, ref, verdict) if verdict.eligible else None
            for join in case.oracle.min_joins:
                dd = distance_decomposition(graft, join, root)
                assert verify_decomposition(graft, join, dd) == report
                assert without_join_fields(dd) == without_join_fields(ref)
                assert is_eligible(graft, join, root, dd) == verdict
                if verdict.eligible:
                    assert head_set(graft, dd, verdict) == heads
                pairs += 1
    assert pairs > 4000  # 4,338 join-root pairs


def assert_matches_oracle(graft, root, dist=None):
    """Every component and its parent equal the BFS oracle's, and every
    view's vertex set the dumped one; ``dist`` defaults to the
    decomposition's own distance map."""
    join = minimum_join(graft)
    dd = distance_decomposition(graft, join, root)
    if dist is None:
        dist = dd.distance_map.dist
    assert list(dd.distance_map.dist) == list(dist)
    got = [dict(doc, parent=up)
           for doc, up in zip(dd.to_json()["components"], dd.parent)]
    assert got == oracle_components(graft, join, root, dist)
    assert [sorted(c.vertices) for c in dd.components] \
        == [doc["vertices"] for doc in got]


def test_matches_bfs_oracle_on_corpus(corpus):
    # distances by brute-force path enumeration, components by plain BFS
    for case in corpus:
        graft = case.graft
        root = min(graft.terminals, default=0)
        join = minimum_join(graft)
        dist = [shortest_path_weight_oracle(graft, join, root, v)
                for v in range(graft.graph.n)]
        assert_matches_oracle(graft, root, dist)


def shuffled(graft, root, seed):
    """An isomorphic copy under random vertex labels, and its root."""
    label = list(range(graft.graph.n))
    random.Random(seed).shuffle(label)
    edges = [(label[u], label[v]) for u, v in graft.graph.edges]
    return (validate_graft(Graph(graft.graph.n, edges),
                           {label[t] for t in graft.terminals}), label[root])


@pytest.mark.parametrize("family", ["primal", "tailed"])
def test_matches_bfs_oracle_on_generator_families(family):
    for seed in range(8):
        if family == "primal":
            witness, _ = gen_primal(seed % 4, width=2 + seed % 3, seed=seed)
            graft, root = witness.graft, witness.root
        else:
            graft, root, _ = gen_tailed(1 + seed % 2, width=2 + seed % 3,
                                        seed=seed)
        # the generators number vertices top-down; a shuffled copy also
        # orders same-level components whose smallest vertex lies deeper
        for g, r in ((graft, root), shuffled(graft, root, seed)):
            assert_matches_oracle(g, r)


def test_matches_bfs_oracle_on_multigrafts():
    # parallel edges, several components, None distances off the root's one
    for seed in range(300):
        graft = random_multigraft(seed)
        assert_matches_oracle(graft, min(graft.terminals, default=0))


def test_matches_bfs_oracle_on_mixed_levels():
    # odd cycles hung on paths, bipartite grids and a grid with an odd
    # chord: the sweep groups the levels with an edge inside, and takes
    # every other level's Q components as its layer components
    for seed, (graft, root) in enumerate(mixed_level_grafts()):
        for g, r in ((graft, root), shuffled(graft, root, seed)):
            assert_matches_oracle(g, r)


def test_numbering_freezes_each_shared_top_list_once():
    # On a level without an inner edge the sweep gives a layer component and
    # its only Q component one top list; the numbered columns share one
    # frozenset there too, and read as one frozenset per id would.
    for graft, root in mixed_level_grafts():
        join = minimum_join(graft)
        forest = decomposition._sweep(graft, join,
                                      decomposition.f_distances(graft, join, root))
        dd = decomposition._number(forest)
        frozen = set(map(id, dd.a_set))
        assert len(frozen) == len(set(map(id, forest.a_set))) < len(dd.a_set)
        apart = dataclasses.replace(
            dd, a_set=tuple(frozenset(list(top)) for top in dd.a_set))
        assert json.dumps(dd.to_json()) == json.dumps(apart.to_json())


def test_ids_follow_the_smallest_vertex_not_the_level_set_order():
    # Level -2 splits into {3, 8} and {5}, and ids follow the smallest
    # vertex, so {3, 8} comes first.  The build reads each level as an
    # ascending list; CPython iterates the set {3, 5, 8} as 8, 3, 5, so a
    # build that took a smallest vertex from the first one seen in that
    # order would give {5} the lower id.
    graft = validate_graft(Graph(9, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5),
                                     (3, 6), (1, 7), (6, 8)]), {1, 2, 5, 6})
    dd = distance_decomposition(graft, minimum_join(graft), 1)
    assert [sorted(top) for top, i, layer in zip(dd.a_set, dd.level, dd.is_layer)
            if (i, layer) == (-2, True)] == [[3, 8], [5]]
    assert_matches_oracle(graft, 1)


@pytest.mark.parametrize("depth", [150, 240])
def test_matches_bfs_oracle_on_deep_caterpillars(depth):
    # a spine of ``depth`` edges with terminals at its ends and depth / 2
    # pendant legs: one level per spine vertex, a leg one level above its foot
    rng = random.Random(depth)
    legs = depth // 2
    edges = [(i, i + 1) for i in range(depth)]
    edges += [(rng.randrange(depth + 1), depth + 1 + j) for j in range(legs)]
    graft = validate_graft(Graph(depth + 1 + legs, edges), {0, depth})
    for g, r in ((graft, 0), shuffled(graft, 0, depth)):
        assert_matches_oracle(g, r)


@pytest.mark.parametrize("n,edges,terminals,dist,error,fragment", [
    # vertex 2 at -2 between 1 and 3 at -1: {2} is left by two join edges
    (4, [(0, 1), (1, 2), (2, 3)], {0, 3}, (0, -1, -2, -1),
     TheoremViolationError, "left by 2 join edges"),
    # at level -2, {1, 2} is left by 2 join edges and its Q component {1}
    # by 3: the layer component has the lower id, so it is named, although
    # the sweep builds the Q component first
    (4, [(0, 1), (1, 2), (1, 3)], {0, 1, 2, 3}, (0, -2, -2, -1),
     TheoremViolationError, "left by 2 join edges"),
    # the only join edge leaving {1, 2} ends at 1, below its level -1
    (3, [(0, 1), (1, 2)], {0, 1}, (0, -2, -1),
     TheoremViolationError, "below the top level"),
    # {2} at level -2 has no neighbour at level -1
    (3, [(0, 1), (0, 2)], {1, 2}, (0, -1, -2),
     InternalError, "meets its own level"),
    # level -2 is skipped between -1 and -3
    (3, [(0, 1), (1, 2)], {0, 2}, (0, -1, -3),
     InternalError, "contiguous range around 0"),
    # the values are contiguous but do not reach 0
    (3, [(0, 1), (1, 2)], {0, 2}, (-1, -2, -3),
     InternalError, "contiguous range around 0"),
])
def test_build_guards_raise_on_inconsistent_distances(
        monkeypatch, n, edges, terminals, dist, error, fragment):
    graft = validate_graft(Graph(n, edges), terminals)
    monkeypatch.setattr(decomposition, "f_distances",
                        lambda *args: DistanceMap(0, dist))
    with pytest.raises(error, match=fragment):
        distance_decomposition(graft, minimum_join(graft), 0)
