"""Acceptance gate: one test per shipping criterion, one printed line each.

Every criterion line goes straight to the terminal (bypassing capture) in
the form ``acceptance <n> <name>: PASS/FAIL — detail``, computed before the
assertions so a red run still reports every line.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from connjoin import (PrimalWitness, attach_tail, decide, gen_primal,
                      gen_rake, gen_tailed, minimum_join, nu, oracle_report,
                      replay)
from connjoin.cli import format_graft, main
from connjoin.decomposition import distance_decomposition, verify_decomposition
from connjoin.distances import f_distances, f_weight
from connjoin.graph_core import Graph, connected_components
from connjoin.tjoin import is_join, validate_graft

from conftest import CORPUS_SIZE
from path_oracle import enumerate_circuits


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_decision_equals_oracle(corpus, capsys):
    mismatches = [c.seed for c in corpus
                  if c.decision.answer != c.oracle.has_connected]
    ok = not mismatches and len(corpus) >= 500
    report(capsys, "1 oracle-equivalence-decision", ok,
           f"{len(corpus)} connected grafts (n<=8, m<=14), "
           f"{len(mismatches)} mismatches")
    assert len(corpus) >= CORPUS_SIZE >= 500
    assert mismatches == []


def test_criterion_2_heads_equal_coverable(corpus, capsys):
    # hub semantics: the certified heads are the coverable vertices of the
    # decomposition's top level
    bad = []
    yes = 0
    for c in corpus:
        if not c.decision.answer:
            continue
        yes += 1
        dd = distance_decomposition(c.graft, minimum_join(c.graft),
                                    c.decision.root)
        if c.decision.coverable != c.oracle.coverable & dd.a_set[dd.initial_id]:
            bad.append(c.seed)
    report(capsys, "2 oracle-equivalence-coverable", not bad,
           f"{yes} yes-instances, {len(bad)} head-set mismatches "
           "(coverable restricted to the top level)")
    assert bad == []


def test_criterion_3_minimum_join_correctness(corpus, capsys):
    bad_nu = [c.seed for c in corpus if nu(c.graft) != c.oracle.nu]
    bad_join = [c.seed for c in corpus
                if not is_join(c.graft, minimum_join(c.graft))]
    bad_circuit = []
    for c in corpus:
        join = minimum_join(c.graft)
        if any(f_weight(join, circ) < 0
               for circ in enumerate_circuits(c.graft.graph)):
            bad_circuit.append(c.seed)
    ok = not (bad_nu or bad_join or bad_circuit)
    report(capsys, "3 minimum-join-correctness", ok,
           f"nu mismatches {len(bad_nu)}, non-joins {len(bad_join)}, "
           f"negative circuits {len(bad_circuit)}")
    assert bad_nu == [] and bad_join == [] and bad_circuit == []


def test_criterion_4_distance_canonicity_and_identities(corpus, capsys):
    multi = 0
    bad = []
    for c in corpus[:250]:
        join = minimum_join(c.graft)
        n = c.graft.graph.n
        if len(c.oracle.min_joins) >= 2:
            multi += 1
            if len({f_distances(c.graft, j, 0).dist
                    for j in c.oracle.min_joins}) != 1:
                bad.append((c.seed, "canonicity"))
        dm = {r: f_distances(c.graft, join, r) for r in range(n)}
        base = nu(c.graft)
        for x in range(n):
            toggled = base if x == 0 else nu(validate_graft(
                c.graft.graph, c.graft.terminals ^ {0, x}))
            if dm[0][x] != toggled - base:
                bad.append((c.seed, "toggle-identity"))
            for y in range(n):
                if dm[x][y] != dm[y][x]:
                    bad.append((c.seed, "symmetry"))
    ok = not bad and multi >= 50
    report(capsys, "4 distance-canonicity-and-identities", ok,
           f"250 instances, {multi} with several minimum joins, "
           f"{len(bad)} violations (canonicity, toggle identity, symmetry)")
    assert bad == [] and multi >= 50


@pytest.mark.xfail(strict=True,
                   reason="the literal triangle inequality is false for "
                   "signed path distances; frozen counterexample")
def test_criterion_4_triangle_inequality_literal(capsys):
    g = validate_graft(
        Graph(6, [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (2, 3), (1, 4),
                  (1, 4), (1, 2)]), {2, 4})
    join = minimum_join(g)
    dm = {r: f_distances(g, join, r) for r in range(6)}
    holds = all(dm[x][z] <= dm[x][y] + dm[y][z]
                for x in range(6) for y in range(6) for z in range(6))
    report(capsys, "4 triangle-inequality-literal", False,
           "expected failure — dist(0,2)=0 > dist(0,1)+dist(1,2)=-1; "
           "the per-edge Lipschitz bound is the true substitute")
    assert holds


def test_criterion_5_structural_invariants(corpus, capsys):
    violating = []
    checked = 0
    for c in corpus:
        root = min(c.graft.terminals) if c.graft.terminals else 0
        join = minimum_join(c.graft)
        dd = distance_decomposition(c.graft, join, root)
        rep = verify_decomposition(c.graft, join, dd)
        checked += rep.components_checked
        if not rep.ok:
            violating.append(c.seed)
    report(capsys, "5 decomposition-invariants", not violating,
           f"{checked} components verified across {len(corpus)} grafts, "
           f"{len(violating)} with violations")
    assert violating == []


def test_criterion_6_constructive_soundness(capsys):
    from connjoin.constructive import is_rake
    from connjoin.decomposition import is_strong_comb

    rng = random.Random(2026)
    primal_bad = []
    primal_count = 0
    seed = 0
    while primal_count < 200:
        seed += 1
        depth = rng.choice((0, 1, 1, 2))
        witness, _ = gen_primal(depth, width=rng.randint(1, 3), seed=seed)
        graft, r = witness.graft, witness.root
        if rng.random() < 0.3:
            tail = Graph(1, [])
            graft = attach_tail(witness, tail, [(r, 0)])
        if graft.graph.m > 20:
            continue
        primal_count += 1
        rep = oracle_report(graft)
        d = decide(graft)
        if not (d.answer and rep.has_connected and r in rep.coverable):
            primal_bad.append(seed)
        if r in graft.terminals and r not in decide(graft, root=r).coverable:
            primal_bad.append(seed)

    rake_bad = []
    for s in range(200):
        k = 1 + s % 4
        teeth = frozenset(range(1, k + 1))
        graft, _ = gen_rake(0, teeth, s % 3, (s % 2) if s % 3 else 0, seed=s)
        join = minimum_join(graft)
        star = frozenset(e for e in range(graft.graph.m)
                         if 0 in graft.graph.endpoints(e)
                         and set(graft.graph.endpoints(e)) & teeth)
        if not (is_rake(graft, 0, teeth) and is_strong_comb(graft, 0, teeth)
                and nu(graft) == k == len(star) and is_join(graft, star)):
            rake_bad.append(s)
    ok = not (primal_bad or rake_bad)
    report(capsys, "6 constructive-soundness", ok,
           f"{primal_count} primal/tail instances with root covered, "
           f"200 rakes with head star minimum; "
           f"failures {len(primal_bad)}+{len(rake_bad)}")
    assert primal_bad == [] and rake_bad == []


def test_criterion_7_hand_goldens(capsys):
    p3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    d_p3 = decide(p3)
    p5 = validate_graft(Graph(5, [(v, v + 1) for v in range(4)]),
                        {0, 1, 3, 4})
    d_p5 = decide(p5)
    rep_p5 = oracle_report(p5)
    star = validate_graft(Graph(4, [(0, 1), (0, 2), (0, 3)]), {0, 1, 2, 3})
    d_star = decide(star)
    c4 = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), {0, 2})
    d_c4 = decide(c4)
    checks = [
        d_p3.answer and d_p3.join == frozenset({0, 1}),
        (not d_p5.answer) and rep_p5.min_joins == (frozenset({0, 3}),)
        and len(connected_components(
            Graph(5, [p5.graph.endpoints(e) for e in (0, 3)]))) > 1,
        d_star.answer and len(d_star.join) == 3,
        d_c4.answer,
    ]
    report(capsys, "7 hand-derived-goldens", all(checks),
           "P3 yes {01,12}; P5 T={0,1,3,4} no, unique minimum join "
           "disconnected; K13 yes 3 edges; C4 T={0,2} yes — "
           f"{sum(checks)}/4 exact")
    assert all(checks)


def test_criterion_8_determinism(corpus, capsys):
    stable = True
    for c in corpus[:40]:
        if minimum_join(c.graft) != minimum_join(c.graft):
            stable = False
        d1, d2 = decide(c.graft), decide(c.graft)
        if (d1.answer, d1.stage, d1.join, d1.coverable) != \
           (d2.answer, d2.stage, d2.join, d2.coverable):
            stable = False
    gens = []
    for _ in range(2):
        graft, _, recipe = gen_tailed(2, seed=11)
        gens.append((graft.graph.edges, graft.terminals,
                     json.dumps(recipe.to_json(), sort_keys=True)))
        replayed = replay(recipe)
        if replayed.graph.edges != graft.graph.edges:
            stable = False
    if gens[0] != gens[1]:
        stable = False
    out = []
    for _ in range(2):
        main(["generate", "primal", "--seed", "3", "--depth", "2"])
        out.append(capsys.readouterr().out)
    if out[0] != out[1] or not out[0]:
        stable = False
    report(capsys, "8 determinism", stable,
           "repeated solves, decisions, generator runs and recipe replays "
           "are byte-identical")
    assert stable


def test_criterion_9_smoke_performance(capsys, tmp_path):
    rake, _ = gen_rake(0, range(1, 40), 0, 0, seed=9)
    witness = PrimalWitness(rake, 0, frozenset({0}))
    rng = random.Random(9)
    nt = 460
    tail_edges = [(rng.randrange(v), v) for v in range(1, nt)]
    tail_edges += [tuple(sorted(rng.sample(range(nt), 2)))
                   for _ in range(1500)]
    big = attach_tail(witness, Graph(nt, tail_edges),
                      [(0, rng.randrange(nt)) for _ in range(6)])
    assert (big.graph.n, big.graph.m) == (500, 2004)
    assert len(big.terminals) == 40
    path = tmp_path / "big.graft"
    path.write_text(format_graft(big))
    start = time.perf_counter()
    code = main(["check", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # swallow the yes/edges listing
    ok = code == 0 and elapsed < 10.0
    report(capsys, "9 smoke-performance", ok,
           f"n=500 m=2004 |T|=40 answered in {elapsed:.2f}s "
           "(asymptotic bound intentionally not validated)")
    assert ok
