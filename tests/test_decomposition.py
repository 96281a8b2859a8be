"""Layered decomposition: frozen small goldens plus the self-check route."""

import random

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
from connjoin.oracle import shortest_path_weight_oracle
from connjoin.tjoin import minimum_join, optimum_join, validate_graft

from conftest import count_work
from decomposition_oracle import matchable_deletions, oracle_components

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
    assert dd.initial.vertices == frozenset({0, 1, 2})


def test_layers_are_cumulative():
    dd = distance_decomposition(C4, minimum_join(C4), 0)
    by_level = {c.level: c for c in dd.layer_components()}
    assert by_level[-2].vertices == frozenset({2})
    assert by_level[-1].vertices == frozenset({1, 2, 3})
    assert by_level[0].vertices == frozenset({0, 1, 2, 3})
    assert dd.initial_id == by_level[0].id


def test_root_validation():
    with pytest.raises(StructuralInputError):
        distance_decomposition(P3, minimum_join(P3), 7)


def test_detached_components_recorded():
    g = validate_graft(Graph(5, [(0, 1), (2, 3), (3, 4)]), {0, 1})
    dd = distance_decomposition(g, minimum_join(g), 0)
    assert dd.detached == (frozenset({2, 3, 4}),)


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
    assert dd.component(4).f_root is not None


def test_beam_counts(corpus):
    for case in corpus[:60]:
        join = minimum_join(case.graft)
        dd = distance_decomposition(case.graft, join, 0)
        for comp in dd.components:
            if comp.is_cap:
                assert comp.beam is None and comp.f_root is None
            else:
                assert comp.beam in join
                u, v = case.graft.graph.endpoints(comp.beam)
                assert comp.f_root in (u, v)
                assert comp.f_root in comp.a_set


def test_factor_critical():
    assert is_factor_critical(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_factor_critical(Graph(5, [(v, (v + 1) % 5) for v in range(5)]))
    assert is_factor_critical(Graph(1, []))
    assert not is_factor_critical(Graph(3, [(0, 1), (1, 2)]))  # leaf-deletion
    assert not is_factor_critical(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_factor_critical_matches_definition(monkeypatch):
    # Seeded multigraphs with n <= 9, checked against deleting each vertex
    # and searching for a perfect matching; odd n costs one search.
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
        assert calls["solves"] - before == n % 2
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
    """Every component and its parent equal the BFS oracle's; ``dist``
    defaults to the decomposition's own distance map."""
    join = minimum_join(graft)
    dd = distance_decomposition(graft, join, root)
    if dist is None:
        dist = dd.distance_map.dist
    assert list(dd.distance_map.dist) == list(dist)
    got = [dict(c.to_json(), parent=c.parent) for c in dd.components]
    assert got == oracle_components(graft, join, root, dist)


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


@pytest.mark.parametrize("n,edges,terminals,dist,error,fragment", [
    # vertex 2 at -2 between 1 and 3 at -1: {2} is left by two join edges
    (4, [(0, 1), (1, 2), (2, 3)], {0, 3}, (0, -1, -2, -1),
     TheoremViolationError, "left by 2 join edges"),
    # the only join edge leaving {1, 2} ends at 1, below its level -1
    (3, [(0, 1), (1, 2)], {0, 1}, (0, -2, -1),
     TheoremViolationError, "below the top level"),
    # {2} at level -2 has no neighbour at level -1
    (3, [(0, 1), (0, 2)], {1, 2}, (0, -1, -2),
     InternalError, "meets its own level"),
])
def test_build_guards_raise_on_inconsistent_distances(
        monkeypatch, n, edges, terminals, dist, error, fragment):
    graft = validate_graft(Graph(n, edges), terminals)
    monkeypatch.setattr(decomposition, "f_distances",
                        lambda *args: DistanceMap(0, dist))
    with pytest.raises(error, match=fragment):
        distance_decomposition(graft, minimum_join(graft), 0)
