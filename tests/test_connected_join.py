import json
import random
import sys
import time

import pytest

from connjoin.cli import format_graft, main
from connjoin.connected_join import (EMPTY_T, INITIAL_DISCONNECTED,
                                     MULTIPLE_Q_COMPONENTS, T_OUTSIDE_INITIAL,
                                     EligibilityVerdict, connected_minimum_join,
                                     decide, head_set, is_eligible)
from connjoin.constructive import gen_primal, gen_tailed
from connjoin.decomposition import distance_decomposition
from connjoin.errors import StructuralInputError
from connjoin.graph_core import Graph, connected_components
from connjoin.oracle import oracle_report
from connjoin.tjoin import is_join, minimum_join, nu, validate_graft

from conftest import sparse_graft


def spans_connected(graft, join):
    """The induced subgraph of the join is connected and covers T."""
    touched = {v for e in join for v in graft.graph.endpoints(e)}
    if not join or not graft.terminals <= touched:
        return False
    comps = connected_components(graft.graph, vertex_set=touched,
                                 removed_edges=set(range(graft.graph.m)) - set(join))
    return len(comps) == 1


def test_p3_yes():
    g = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    d = decide(g)
    assert d.answer and d.join == frozenset({0, 1})
    assert d.coverable == frozenset({0})
    assert d.to_json() == {"answer": "yes", "root": 0, "join": [0, 1],
                           "coverable": [0]}


def test_star_yes():
    g = validate_graft(Graph(4, [(0, 1), (0, 2), (0, 3)]), {0, 1, 2, 3})
    d = decide(g)
    assert d.answer and len(d.join) == 3


def test_c4_yes():
    g = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2})
    d = decide(g)
    assert d.answer and spans_connected(g, d.join)


def test_p5_no():
    g = validate_graft(Graph(5, [(v, v + 1) for v in range(4)]), {0, 1, 3, 4})
    d = decide(g)
    assert not d.answer
    assert d.stage == f"not-eligible:{T_OUTSIDE_INITIAL}"
    assert d.to_json() == {"answer": "no",
                           "stage": "not-eligible:T_OUTSIDE_INITIAL"}


def test_empty_terminals_no():
    g = validate_graft(Graph(2, [(0, 1)]), set())
    assert decide(g).stage == "empty-T"


def test_split_terminals_no():
    g = validate_graft(Graph(4, [(0, 1), (2, 3)]), {0, 1, 2, 3})
    assert decide(g).stage == "split-T"


def test_root_must_be_terminal():
    g = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    with pytest.raises(StructuralInputError):
        decide(g, root=1)


def test_head_set_gap_regression():
    # two terminals at the top level besides the hub candidate: the star
    # construction from any single top vertex cannot absorb them, so the
    # head set must come out empty even though adjacency and parity hold
    g = validate_graft(
        Graph(8, [(1, 6), (0, 7), (7, 3), (3, 2), (2, 5), (5, 6), (6, 2),
                  (0, 7), (1, 6), (0, 5), (3, 6), (4, 7), (6, 7)]),
        {0, 3, 5, 6})
    d = decide(g)
    assert not d.answer and d.stage == "empty-head-set"
    rep = oracle_report(g)
    assert not rep.has_connected
    assert [sorted(j) for j in rep.min_joins] == [[9, 10]]


def test_verdict_consistency_guard():
    with pytest.raises(Exception):
        EligibilityVerdict(True, EMPTY_T)
    with pytest.raises(Exception):
        EligibilityVerdict(False)


def test_eligibility_stage_order():
    g = validate_graft(Graph(2, [(0, 1)]), set())
    join = minimum_join(g)
    dd = distance_decomposition(g, join, 0)
    v = is_eligible(g, join, 0, dd)
    assert not v.eligible and v.failure_reason == EMPTY_T


def test_initial_disconnected_stage():
    # two terminal pairs joined through a strictly-positive middle vertex:
    # level 0 falls apart into two pieces
    g = validate_graft(
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), {0, 1, 3, 4})
    join = minimum_join(g)
    dd = distance_decomposition(g, join, 0)
    verdict = is_eligible(g, join, 0, dd)
    assert verdict.failure_reason == T_OUTSIDE_INITIAL  # screened earlier


def test_multiple_q_components_stage_reachable(corpus):
    stages = {c.decision.stage for c in corpus}
    assert f"not-eligible:{MULTIPLE_Q_COMPONENTS}" in stages
    assert f"not-eligible:{INITIAL_DISCONNECTED}" in stages


def test_matches_oracle_and_root_independent(corpus):
    for case in corpus[:150]:
        d = case.decision
        assert d.answer == case.oracle.has_connected, f"seed {case.seed}"
        if d.answer:
            assert d.join in set(case.oracle.min_joins)
            assert spans_connected(case.graft, d.join)
        for r in sorted(case.graft.terminals)[1:]:
            assert decide(case.graft, root=r).answer == d.answer, \
                f"seed {case.seed} root {r}"


def test_heads_equal_coverable_top_slice(corpus):
    for case in corpus[:150]:
        d = case.decision
        if d.answer:
            dm = distance_decomposition(
                case.graft, minimum_join(case.graft), d.root)
            top = dm.initial.a_set
            assert d.coverable == case.oracle.coverable & top, f"seed {case.seed}"


def test_connected_minimum_join_wrapper():
    g = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    join, coverable = connected_minimum_join(g)
    assert is_join(g, join) and coverable == frozenset({0})
    bad = validate_graft(Graph(4, [(v, v + 1) for v in range(3)]),
                         {0, 1, 2, 3})
    assert connected_minimum_join(bad) is None


def test_head_set_requires_matching_decomposition():
    g = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    join = minimum_join(g)
    dd = distance_decomposition(g, join, 0)
    verdict = is_eligible(g, join, 0, dd)
    heads = head_set(g, dd, verdict)
    assert heads[dd.initial_id] == frozenset({0})


def spine(length, legs=0, seed=0):
    """A path of ``length`` edges with terminals at both ends, plus ``legs``
    pendant vertices hung off random spine vertices (a caterpillar)."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(length)]
    edges += [(rng.randrange(length + 1), length + 1 + j) for j in range(legs)]
    return validate_graft(Graph(length + 1 + legs, edges), {0, length})


@pytest.fixture
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


@pytest.mark.parametrize("legs", [0, 1000], ids=["path", "caterpillar"])
def test_deep_spine_decides_without_recursion(
        legs, default_recursion_limit, tmp_path, capsys):
    # 2000 levels: the spine is the only join, and it is connected
    g = spine(2000, legs)
    d = decide(g)
    assert d.answer and d.join == frozenset(range(2000))
    path = tmp_path / "spine.graft"
    path.write_text(format_graft(g))
    assert main(["check", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "yes"


def test_long_path_scale():
    g = spine(10_000)
    start = time.perf_counter()
    d = decide(g)
    elapsed = time.perf_counter() - start
    assert d.answer and len(d.join) == 10_000
    assert elapsed < 5.0, f"n = 10^4 path took {elapsed:.2f} s"


def relabeled(graft, rng):
    """An isomorphic copy under random vertex labels and a shuffled edge
    list, and the vertex map."""
    label = list(range(graft.graph.n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for u, v in graft.graph.edges]
    rng.shuffle(edges)
    return (validate_graft(Graph(graft.graph.n, edges),
                           {label[t] for t in graft.terminals}), label)


@pytest.mark.parametrize("family,seed", [
    (family, seed) for family in ("primal", "tailed", "sparse")
    for seed in (0, 1, 2)])
def test_answer_survives_relabeling_and_root_change(family, seed):
    # Above the oracle's reach.  The join decide holds realizes the base
    # optimum's own pairing, which follows the input order, so the relabeled
    # copy usually holds another minimum join: the answer, the stage and the
    # coverable set must not notice, and no terminal root may change the
    # answer.
    if family == "primal":
        graft = gen_primal(3, 3, seed=seed)[0].graft
    elif family == "tailed":
        graft = gen_tailed(2, 4, seed=seed)[0]
    else:
        graft = sparse_graft(300, 30, seed)
    copy, label = relabeled(graft, random.Random(seed))
    answers = set()
    for root in sorted(graft.terminals):
        d, c = decide(graft, root), decide(copy, label[root])
        assert (c.answer, c.stage) == (d.answer, d.stage), f"root {root}"
        if d.answer:
            assert c.coverable == {label[v] for v in d.coverable}
            assert len(c.join) == nu(copy) and is_join(copy, c.join)
            assert spans_connected(copy, c.join)
        answers.add(d.answer)
    assert len(answers) == 1
