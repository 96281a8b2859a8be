import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connjoin import connected_join, decomposition, distances, tjoin
from connjoin.cli import format_graft, main
from connjoin.connected_join import (EMPTY_T, INITIAL_DISCONNECTED,
                                     MULTIPLE_Q_COMPONENTS, STAGE_EMPTY_HEAD_SET,
                                     STAGE_EMPTY_T, STAGE_NOT_ELIGIBLE,
                                     STAGE_SPLIT_T, T_OUTSIDE_INITIAL,
                                     EligibilityVerdict, connected_minimum_join,
                                     construct_join, decide, head_set,
                                     is_eligible)
from connjoin.constructive import gen_primal, gen_tailed
from connjoin.decomposition import distance_decomposition, verify_decomposition
from connjoin.errors import (NoJoinError, NotMinimumJoinError,
                             StructuralInputError)
from connjoin.graph_core import Graph, connected_components
from connjoin.oracle import oracle_report
from connjoin.tjoin import (Graft, _hop_distances, _shortest_path_edges,
                            is_join, minimum_join, nu, optimum_join,
                            validate_graft)

from conftest import mixed_level_grafts, sparse_graft


def spans_connected(graft, join):
    """The induced subgraph of the join is connected and covers T."""
    touched = sorted({v for e in join for v in graft.graph.endpoints(e)})
    if not join or not graft.terminals <= set(touched):
        return False
    rank = {v: i for i, v in enumerate(touched)}
    on_join = Graph(len(touched), [(rank[u], rank[v]) for u, v in
                                   map(graft.graph.endpoints, join)])
    return len(connected_components(on_join)) == 1


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


def test_odd_components_raise_before_split_t():
    # unvalidated: the split-T test reads the same component pass that
    # validation runs, so two odd components are not a split-T answer
    g = Graft(Graph(4, [(0, 1), (2, 3)]), {0, 2})
    with pytest.raises(NoJoinError, match="vertex 0 has an odd number"):
        decide(g)


def test_root_must_be_terminal():
    g = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    with pytest.raises(StructuralInputError):
        decide(g, root=1)


def test_explicit_root_is_checked_before_empty_and_split_t():
    split = validate_graft(Graph(4, [(0, 1), (2, 3)]), {0, 1, 2, 3})
    empty = validate_graft(Graph(2, [(0, 1)]), set())
    for graft, stage in ((split, "split-T"), (empty, "empty-T")):
        assert decide(graft).stage == stage
        with pytest.raises(StructuralInputError, match="must be a terminal"):
            decide(graft, root=99)
    assert decide(split, root=2).stage == "split-T"


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


def test_multiple_q_components_names_the_smallest_offender(corpus):
    # From every terminal root: the offender is the smallest-id layer
    # component, initial or non-cap, with more than one Q child.
    verdicts = several = 0
    for case in corpus:
        graft = case.graft
        if not graft.terminals or len(graft.parts) > 1:
            continue
        join = optimum_join(graft)
        for root in sorted(graft.terminals):
            dd = distance_decomposition(graft, join, root)
            verdict = is_eligible(graft, join, root, dd)
            if verdict.failure_reason != MULTIPLE_Q_COMPONENTS:
                assert verdict.component_id is None
                continue
            offenders = [cid for cid, qs in enumerate(dd.q_children)
                         if (cid == dd.initial_id or not dd.is_cap[cid])
                         and len(qs) > 1]
            assert verdict.component_id == offenders[0], f"seed {case.seed}"
            verdicts += 1
            several += len(offenders) > 1
    assert (verdicts, several) == (333, 1)


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


def test_decision_does_not_depend_on_the_join(corpus, monkeypatch):
    # decide starts from optimum_join's join, but a YES prints the join that
    # construct_join stitches from the head sets: handed each minimum join
    # in turn, decide must answer the same, printed join included.  The
    # verifier's reports are pinned the same way, from every root, by
    # test_outputs_are_the_same_for_every_minimum_join.
    several = 0
    for case in corpus:
        if len(case.oracle.min_joins) < 2:
            continue
        several += 1
        for join in case.oracle.min_joins:
            monkeypatch.setattr(connected_join, "optimum_join",
                                lambda graft, join=join: join)
            assert decide(case.graft) == case.decision, f"seed {case.seed}"
    assert several == 280


def test_heads_equal_coverable_top_slice(corpus):
    for case in corpus[:150]:
        d = case.decision
        if d.answer:
            dm = distance_decomposition(
                case.graft, minimum_join(case.graft), d.root)
            top = dm.a_set[dm.initial_id]
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


P3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})


@pytest.mark.parametrize("call,message", [
    (lambda join, dd, heads: is_eligible(P3, join, 2, dd),
     "decomposition is rooted at 0, not 2"),
    (lambda join, dd, heads: is_eligible(
        P3, join, 1, distance_decomposition(P3, join, 1)),
     "root 1 must be a terminal"),
    (lambda join, dd, heads: head_set(
        P3, dd, EligibilityVerdict(False, T_OUTSIDE_INITIAL)),
     "head sets are defined for eligible systems"),
    (lambda join, dd, heads: construct_join(P3, dd, heads, 1),
     "vertex 1 is not a head of the initial component"),
], ids=["root-elsewhere", "non-terminal-root", "ineligible", "not-a-head"])
def test_public_guards_name_the_fault(call, message):
    # the guards of the readers' public entries, which decide never trips
    join = minimum_join(P3)
    dd = distance_decomposition(P3, join, 0)
    heads = head_set(P3, dd, is_eligible(P3, join, 0, dd))
    with pytest.raises(StructuralInputError, match=f"^{message}$"):
        call(join, dd, heads)


def spine(length, legs=0, seed=0):
    """A path of ``length`` edges with terminals at both ends, plus ``legs``
    pendant vertices hung off random spine vertices (a caterpillar)."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(length)]
    edges += [(rng.randrange(length + 1), length + 1 + j) for j in range(legs)]
    return validate_graft(Graph(length + 1 + legs, edges), {0, length})


def test_the_decision_builds_no_component_record():
    # is_eligible, head_set and construct_join read the columns by id, and
    # so do the verifier, under a valid join or one with an edge flipped, and
    # the JSON dump
    witness, _ = gen_primal(3, 3, seed=1)
    for graft, root in ((spine(300, 150, seed=7), 0),
                        (witness.graft, witness.root)):
        join = optimum_join(graft)
        dd = distance_decomposition(graft, join, root)
        verdict = is_eligible(graft, join, root, dd)
        heads = head_set(graft, dd, verdict)
        built = construct_join(graft, dd, heads, min(heads[dd.initial_id]))
        assert len(built) == len(join)
        assert "components" not in vars(dd)
        assert verify_decomposition(graft, join, dd).ok
        assert "components" not in vars(dd)
        assert not verify_decomposition(graft, join ^ {min(join)}, dd).ok
        assert "components" not in vars(dd)
        dd.to_json()
        assert "components" not in vars(dd)
        assert len(dd.components) == len(dd.level)  # built on first read
        assert "components" in vars(dd)


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


def test_decide_runs_the_sweep_stage_on_the_join_it_proved(corpus, monkeypatch):
    # decide reads the merge forest as the sweep builds it, so the numbering
    # stage never runs, and the distances stage takes the join optimum_join
    # has just proved: is_join runs once per join built, the optimum's and,
    # on a YES, the constructed one
    def number(forest):
        raise AssertionError("decide numbered the merge forest")

    monkeypatch.setattr(decomposition, "_number", number)
    calls = []
    real = tjoin.is_join
    for module in (tjoin, connected_join, decomposition, distances):
        monkeypatch.setattr(module, "is_join",
                            lambda *args: calls.append(1) or real(*args))
    stages = set()
    for case in corpus:
        calls.clear()
        d = decide(case.graft)
        assert d == case.decision, f"seed {case.seed}"
        want = (0 if d.stage in (STAGE_EMPTY_T, STAGE_SPLIT_T) else
                2 if d.answer else 1)
        assert len(calls) == want, f"seed {case.seed}"
        stages.add(STAGE_NOT_ELIGIBLE if d.stage and d.stage.startswith(
            STAGE_NOT_ELIGIBLE) else d.stage)
    assert stages == {None, STAGE_EMPTY_T, STAGE_NOT_ELIGIBLE,
                      STAGE_EMPTY_HEAD_SET}
    # the public entries keep their checks
    tri = validate_graft(Graph(3, [(0, 1), (1, 2), (0, 2)]), {0, 1})
    with pytest.raises(NotMinimumJoinError):
        distance_decomposition(tri, {1, 2}, 0)


def relabel_cases(corpus):
    """(graft, root) pairs: every terminal root of the corpus grafts that
    reach the sweep, the bench's generator members, its deep shapes and
    grafts whose levels mix those with and without an inner edge."""
    for case in corpus:
        graft = case.graft
        if graft.terminals and len(graft.parts) == 1:
            for root in sorted(graft.terminals):
                yield graft, root
    for graft in ([gen_primal(3, 3, seed=s)[0].graft for s in (44, 1, 7, 13, 6, 92)]
                  + [gen_tailed(2, 4, seed=s)[0] for s in (6, 1, 0, 36)]):
        yield graft, min(graft.terminals)
    for i, length in enumerate((100, 180, 260, 340, 400, 440, 600)):
        yield spine(length, length // 2 if i % 2 else 0, seed=length), 0
    yield from mixed_level_grafts()


def test_numbering_only_relabels(corpus):
    # The numbering stage turns the sweep's forest into the decomposition
    # and changes nothing but the ids.  A component is found in both by its
    # level, kind and smallest top-level vertex; under that map every column
    # agrees, and the readers give the decision on the forest what they give
    # on the numbered decomposition, head sets included.
    answers = set()
    for graft, root in relabel_cases(corpus):
        join = optimum_join(graft)
        forest = decomposition._sweep(graft, join,
                                      distances._distances(graft, root))
        dd = distance_decomposition(graft, join, root)
        by_key = {(i, layer, min(top)): cid for cid, (i, layer, top)
                  in enumerate(zip(dd.level, dd.is_layer, dd.a_set))}
        pos = [by_key[key] for key in zip(forest.level, forest.is_layer,
                                          map(min, forest.a_set))]
        assert sorted(pos) == list(range(len(dd.level)))
        assert pos[forest.initial_id] == dd.initial_id
        for x, cid in enumerate(pos):
            assert forest.a_set[x] == sorted(dd.a_set[cid])
            assert (forest.is_cap[x], forest.beam[x], forest.f_root[x]) == (
                dd.is_cap[cid], dd.beam[cid], dd.f_root[cid])
            assert sorted(pos[c] for c in forest.q_children[x]) == list(
                dd.q_children[cid])
            assert sorted(pos[c] for c in forest.d_children[x]) == list(
                dd.d_children[cid])
            up = forest.parent[x]
            assert (None if up is None else pos[up]) == dd.parent[cid]

        verdict = is_eligible(graft, join, root, dd)
        seen = is_eligible(graft, join, root, forest)
        assert (seen.eligible, seen.failure_reason) == (
            verdict.eligible, verdict.failure_reason)
        decision = decide(graft, root)
        answers.add(decision.stage)
        if not verdict.eligible:
            assert decision.stage == STAGE_NOT_ELIGIBLE + verdict.failure_reason
            continue
        heads = head_set(graft, dd, verdict)
        assert {pos[x]: h for x, h in head_set(graft, forest, seen).items()} \
            == heads
        initial = heads[dd.initial_id]
        if not initial:
            assert decision.stage == STAGE_EMPTY_HEAD_SET
            continue
        assert decision.join == construct_join(graft, dd, heads, min(initial))
        assert decision.coverable == initial
    assert answers == {None, STAGE_EMPTY_HEAD_SET,
                       *(STAGE_NOT_ELIGIBLE + reason for reason in
                         (T_OUTSIDE_INITIAL, INITIAL_DISCONNECTED,
                          MULTIPLE_Q_COMPONENTS))}


@st.composite
def shuffled_multigrafts(draw):
    """A connected multigraph on up to 9 vertices, a spanning tree plus
    random edges and parallel copies, its edges in a drawn order, and an
    even terminal set."""
    n = draw(st.integers(2, 9))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(
        lambda e: e[0] != e[1]), max_size=6))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    edges = draw(st.permutations(edges))
    k = draw(st.integers(1, n // 2))
    terminals = draw(st.lists(vertex, min_size=2 * k, max_size=2 * k,
                              unique=True))
    return validate_graft(Graph(n, edges), terminals)


def first_hit_path(graph, dist, a, b):
    """The a-b path walked back from b by the first pair one layer closer in
    the (neighbour, edge id) sorted incidence list."""
    path, v = set(), b
    while v != a:
        v, e = next((u, e) for u, e in graph.incident(v)
                    if dist[u] == dist[v] - 1)
        path.add(e)
    return frozenset(path)


def first_hit_join(graft, dd, heads, v):
    """``construct_join`` by the first head of each child in the (neighbour,
    edge id) sorted incidence list of the anchor."""
    out, stack = set(), [(dd.initial_id, v)]
    while stack:
        cid, anchor = stack.pop()
        for child in dd.d_children[cid]:
            u, e = next((u, e) for u, e in graft.graph.incident(anchor)
                        if u in heads[child])
            out.add(e)
            stack.append((child, u))
    return frozenset(out)


@settings(max_examples=300, deadline=None)
@given(shuffled_multigrafts())
def test_least_steps_match_the_sorted_first_hit(graft):
    # The incidence lists are in edge id order; the path walk and the
    # construction take the least neighbour and the first edge to it, which
    # is the first hit of the list sorted by (neighbour, edge id).
    graph = graft.graph
    for a in range(graph.n):
        dist = _hop_distances(graph, a)
        for b in range(graph.n):
            assert _shortest_path_edges(graph, dist, a, b) == \
                first_hit_path(graph, dist, a, b)
    decision = decide(graft)
    if not decision.answer:
        return
    dd = distance_decomposition(graft, optimum_join(graft), decision.root)
    heads = head_set(graft, dd, is_eligible(graft, optimum_join(graft),
                                            decision.root, dd))
    assert decision.join == first_hit_join(
        graft, dd, heads, min(heads[dd.initial_id]))
    for v in heads[dd.initial_id]:
        assert construct_join(graft, dd, heads, v) == \
            first_hit_join(graft, dd, heads, v)
