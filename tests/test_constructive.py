"""Generators and recognizers for the guaranteed-YES construction classes.

The reconstruction test is the important one: any small graft the rake
recognizer accepts must be expressible as a replayable recipe, so the
recognizer and the generator define the same class.
"""

import random

import pytest

from connjoin.constructive import (PRIMAL, RAKE, TAILED, ConstructionRecipe,
                                   PrimalWitness, attach_tail, gen_primal,
                                   gen_rake, gen_tailed, gluing_sum, is_primal,
                                   is_rake, replay, replay_witness)
from connjoin.connected_join import decide
from connjoin.decomposition import distance_decomposition, is_strong_comb
from connjoin.distances import f_distances
from connjoin.errors import StructuralInputError
from connjoin.graph_core import Graph
from connjoin.oracle import oracle_report
from connjoin.tjoin import Graft, minimum_join, nu, validate_graft


def edge_multiset(graft):
    return sorted(tuple(sorted(graft.graph.endpoints(e)))
                  for e in range(graft.graph.m))


def same_graft(a, b):
    return (a.graph.n == b.graph.n and a.terminals == b.terminals
            and edge_multiset(a) == edge_multiset(b))


def contract_blobs(graft, blobs):
    """Collapse each of the disjoint vertex sets ``blobs`` to one vertex,
    numbered after the untouched vertices; edges inside a blob vanish, and a
    blob is a terminal iff it swallowed an odd number of terminals."""
    untouched = [v for v in range(graft.graph.n)
                 if not any(v in b for b in blobs)]
    label = {v: i for i, v in enumerate(untouched)}
    for i, b in enumerate(sorted(blobs, key=min), start=len(untouched)):
        label.update(dict.fromkeys(b, i))
    edges = [(label[u], label[v]) for u, v in graft.graph.edges
             if label[u] != label[v]]
    terminals: set[int] = set()
    for t in graft.terminals:
        terminals ^= {label[t]}
    return Graft(Graph(len(untouched) + len(blobs), edges),
                 frozenset(terminals)), label


def rake_recipe_steps(graft, r, teeth):
    """Express a recognized rake as construction steps, label-for-label."""
    g = graft.graph
    teeth = sorted(teeth)
    tooth_set = set(teeth)
    steps = [{"op": "star", "root": r, "teeth": teeth}]
    for x in sorted(set(range(g.n)) - tooth_set - {r}):
        targets = sorted(u for u, _ in g.incident(x) if u in tooth_set)
        steps.append({"op": "add_vertex", "vertex": x, "teeth": targets})
    side = [[u, v] for u, v in (g.endpoints(e) for e in range(g.m))
            if u not in tooth_set and v not in tooth_set]
    if side:
        steps.append({"op": "add_edges", "edges": side})
    return steps


def test_is_rake_spec_examples():
    star = validate_graft(Graph(4, [(0, 1), (0, 2), (0, 3)]), {0, 1, 2, 3})
    assert is_rake(star, 0, {1, 2, 3})
    p3 = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    assert is_rake(p3, 1, {0, 2})
    p4 = validate_graft(Graph(4, [(0, 1), (1, 2), (2, 3)]), {0, 3})
    assert not is_rake(p4, 1, {0, 3})  # head does not see tooth 3
    assert not is_rake(star, 1, {1, 2, 3})  # the head is a tooth
    assert not is_rake(star, 4, {1, 2, 3})  # the head is no vertex


def test_is_rake_multiplicity_rules():
    # a doubled head-tooth edge kills the head star as a join
    bad = Graft(Graph(3, [(0, 1), (0, 1), (0, 2), (2, 1)]), {1})
    assert not is_rake(bad, 0, {1})
    # parallel tooth edges elsewhere are fine
    ok = Graft(Graph(3, [(0, 1), (2, 1), (2, 1)]), {0, 1})
    assert is_rake(ok, 0, {1})
    assert same_graft(replay(ConstructionRecipe(
        RAKE, 0, tuple(rake_recipe_steps(ok, 0, {1})))), ok)


def test_is_rake_rejects_wrong_terminals():
    # odd tooth count forces the head into T; {1, 3} leaves it out
    star = validate_graft(Graph(4, [(0, 1), (0, 2), (0, 3)]), {1, 3})
    assert not is_rake(star, 0, {1, 2, 3})
    # even tooth count forbids the head in T
    path = validate_graft(Graph(3, [(1, 0), (1, 2)]), {0, 1})
    assert not is_rake(path, 1, {0, 2})


def test_gen_rake_roundtrip_and_invariants():
    rng = random.Random(7)
    for seed in range(60):
        k = rng.randint(1, 4)
        extra_v = rng.randint(0, 3)
        extra_e = rng.randint(0, 2) if extra_v else 0
        teeth = frozenset(range(1, k + 1))
        graft, recipe = gen_rake(0, teeth, extra_v, extra_e, seed=seed)
        assert is_rake(graft, 0, teeth)
        replayed = replay(recipe)
        assert replayed.graph.edges == graft.graph.edges  # bit-identical
        assert replayed.terminals == graft.terminals
        assert nu(graft) == k
        star = frozenset(e for e in range(graft.graph.m)
                         if 0 in graft.graph.endpoints(e)
                         and (set(graft.graph.endpoints(e)) & teeth))
        assert len(star) == k and len(minimum_join(graft)) == len(star)
        assert is_strong_comb(graft, 0, teeth)
        recipe2 = ConstructionRecipe.from_json(recipe.to_json())
        assert replay(recipe2).graph.edges == graft.graph.edges


def test_gen_rake_validates_input():
    with pytest.raises(StructuralInputError):
        gen_rake(0, [], 0, 0)
    with pytest.raises(StructuralInputError):
        gen_rake(0, [1], -1, 0)
    with pytest.raises(StructuralInputError):
        gen_rake(0, [1], 0, 2)  # side edges need a second non-tooth vertex


def test_recognized_rakes_are_reconstructible():
    # scrambled generated rakes + random small grafts; every recognizer hit
    # must round-trip through a recipe with the original labels
    rng = random.Random(3)
    hits = 0
    candidates = []
    for seed in range(40):
        k = rng.randint(1, 4)
        extra_v = rng.randint(0, 2)
        g, _ = gen_rake(0, range(1, k + 1), extra_v,
                        rng.randint(0, 1) if extra_v else 0, seed=seed)
        perm = list(range(g.graph.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.graph.edges]
        candidates.append(Graft(Graph(g.graph.n, edges),
                                {perm[t] for t in g.terminals}))
    for seed in range(200):
        n = rng.randint(2, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        t = rng.sample(range(n), rng.randint(0, n))
        candidates.append(Graft(Graph(n, [e for e in edges if e[0] != e[1]]), t))
    for graft in candidates:
        for r in range(graft.graph.n):
            teeth = (graft.terminals - {r} if r in graft.terminals
                     else graft.terminals)
            if not is_rake(graft, r, teeth):
                continue
            hits += 1
            steps = rake_recipe_steps(graft, r, teeth)
            assert same_graft(
                replay(ConstructionRecipe(RAKE, 0, tuple(steps))), graft)
    assert hits >= 45


def test_gluing_sum_golden():
    base = validate_graft(Graph(2, [(0, 1)]), {0, 1})
    part = validate_graft(Graph(3, [(0, 1), (1, 2)]), {0, 2})
    glued, maps = gluing_sum(base, [1], {1: 0}, {1: (part, {1}, 1)},
                             {1: {0: 1}})
    assert glued.graph.n == 4
    assert edge_multiset(glued) == [(0, 2), (1, 2), (2, 3)]
    assert glued.terminals == frozenset({0, 1, 2, 3})  # part root toggled in
    assert maps.base[0] == 0 and maps.parts[1][1] == 2
    assert is_rake(glued, 2, {0, 1, 3})


def test_gluing_sum_single_vertex_part():
    base = validate_graft(Graph(2, [(0, 1)]), {0, 1})
    point = validate_graft(Graph(1, []), set())
    glued, _ = gluing_sum(base, [1], {1: 0}, {1: (point, {0}, 0)},
                          {1: {0: 0}})
    # relabels the site and toggles the part root into T
    assert glued.graph.n == 2
    assert edge_multiset(glued) == [(0, 1)]
    assert glued.terminals == frozenset({0, 1})


def test_gluing_sum_validation():
    base = validate_graft(Graph(3, [(0, 1), (1, 2), (0, 2)]), {0, 1})
    part = validate_graft(Graph(1, []), set())
    rec = {0: (part, {0}, 0)}
    with pytest.raises(StructuralInputError):
        gluing_sum(base, [], {}, {}, {})  # no sites
    with pytest.raises(StructuralInputError):
        gluing_sum(base, [2], {2: 1}, {2: (part, {0}, 0)},
                   {2: {1: 0, 2: 0}})  # site 2 is not a terminal
    with pytest.raises(StructuralInputError):
        gluing_sum(base, [0, 1], {0: 0, 1: 0},
                   {0: rec[0], 1: (part, {0}, 0)},
                   {0: {0: 0, 1: 0}, 1: {0: 0, 2: 0}})  # sites adjacent


def test_gen_primal_witnesses():
    for seed in range(30):
        depth = seed % 3
        witness, recipe = gen_primal(depth, seed=seed)
        graft = witness.graft
        assert replay(recipe).graph.edges == graft.graph.edges
        w2 = replay_witness(recipe)
        assert w2.root == witness.root and w2.a_set == witness.a_set
        assert is_primal(graft, witness.root)
        join = minimum_join(graft)
        dm = f_distances(graft, join, witness.root)
        assert witness.a_set == frozenset(
            v for v in range(graft.graph.n) if dm[v] == 0)
        decision = decide(graft, root=min(graft.terminals))
        assert decision.answer
        if graft.graph.m <= 20:
            assert oracle_report(graft).has_connected


def test_gen_primal_a_pairs_nonnegative():
    # no top-level pair may see a negative path between them
    for seed in range(12):
        witness, _ = gen_primal(1 + seed % 2, seed=seed)
        join = minimum_join(witness.graft)
        tops = sorted(witness.a_set)
        for i, x in enumerate(tops):
            for y in tops[i:]:
                assert f_distances(witness.graft, join, x)[y] >= 0


def test_gen_primal_decomposition_echo():
    # the initial component has a single top piece, and contracting each
    # depth child collapses the witness back to a rake around the root
    for seed in range(12):
        witness, _ = gen_primal(1 + seed % 3, seed=seed)
        graft = witness.graft
        join = minimum_join(graft)
        dd = distance_decomposition(graft, join, witness.root)
        initial = dd.initial_id
        assert dd.components[initial].vertices == frozenset(range(graft.graph.n))
        assert len(dd.q_children[initial]) == 1
        if not dd.d_children[initial]:
            continue
        blobs = [dd.components[c].vertices for c in dd.d_children[initial]]
        contracted, label = contract_blobs(graft, blobs)
        head = label[witness.root]
        teeth = {label[min(b)] for b in blobs}
        assert is_rake(contracted, head, teeth)


def test_gen_primal_bounds():
    with pytest.raises(StructuralInputError):
        gen_primal(5)
    with pytest.raises(StructuralInputError):
        gen_primal(1, width=0)


def test_attach_tail_cases():
    witness, _ = gen_primal(1, seed=4)
    base = witness.graft
    # empty tail: graft unchanged
    empty = attach_tail(witness, Graph(0, []), [])
    assert same_graft(empty, base)
    # one extra vertex bridged to the root: still YES
    one = attach_tail(witness, Graph(1, []), [(witness.root, 0)])
    assert one.graph.n == base.graph.n + 1
    assert decide(one).answer
    # a triangle hung by two bridges
    tri = attach_tail(witness, Graph(3, [(0, 1), (1, 2), (0, 2)]),
                      [(witness.root, 0), (witness.root, 2)])
    assert decide(tri).answer
    assert tri.terminals == base.terminals
    with pytest.raises(StructuralInputError):
        bad_end = max(base.graph.n - 1, 0)
        while bad_end in witness.a_set:
            bad_end -= 1
        attach_tail(witness, Graph(1, []), [(bad_end, 0)])
    with pytest.raises(StructuralInputError):
        attach_tail(witness, Graph(1, []), [(witness.root, 3)])


def test_gen_tailed_roundtrip():
    for seed in range(20):
        graft, root, recipe = gen_tailed(seed % 3, seed=seed)
        assert replay(recipe).graph.edges == graft.graph.edges
        assert replay(recipe).terminals == graft.terminals
        assert decide(graft).answer
        assert 0 <= root < graft.graph.n


def test_gen_tailed_rejects_negative_counts():
    for knob in ("tail_vertices", "tail_edges", "bridges"):
        with pytest.raises(StructuralInputError, match="nonnegative"):
            gen_tailed(1, seed=3, **{knob: -1})


def test_gen_tailed_rejects_counts_it_cannot_honour():
    with pytest.raises(StructuralInputError, match="two tail vertices"):
        gen_tailed(1, seed=3, tail_vertices=1, tail_edges=3)
    with pytest.raises(StructuralInputError, match="one tail vertex"):
        gen_tailed(1, seed=3, tail_vertices=0, bridges=2)
    # zero counts ask for nothing, so a bare tail vertex or none still draws
    _, _, recipe = gen_tailed(1, seed=3, tail_vertices=1, tail_edges=0)
    assert recipe.steps[-1]["edges"] == [] and len(recipe.steps[-1]["bridges"])
    _, _, recipe = gen_tailed(1, seed=3, tail_vertices=0)
    assert recipe.steps[-1]["bridges"] == []


def test_gen_tailed_honours_explicit_tail_edges_on_every_seed():
    # a drawn single tail vertex is raised to two, so no seed refuses
    for seed in range(20):
        graft, _, recipe = gen_tailed(1, seed=seed, tail_edges=3)
        tail = recipe.steps[-1]
        assert tail["vertices"] >= 2 and len(tail["edges"]) == 3
        assert replay(recipe).graph.edges == graft.graph.edges
        assert replay(recipe).terminals == graft.terminals
        assert gen_tailed(1, seed=seed, tail_edges=3)[2] == recipe


def test_strong_comb_needs_rake_for_covered_root():
    # a strong comb whose root misses two teeth: no connected minimum join
    # can cover the root, exactly because it is not a rake
    c6 = validate_graft(Graph(6, [(v, (v + 1) % 6) for v in range(6)]),
                        {0, 1, 3, 5})
    assert is_strong_comb(c6, 0, {1, 3, 5})
    assert not is_rake(c6, 0, {1, 3, 5})
    assert 0 not in oracle_report(c6).coverable
    # while every generated rake covers its head
    for seed in range(10):
        graft, _ = gen_rake(0, range(1, 2 + seed % 3), seed % 3, 0, seed=seed)
        assert 0 in oracle_report(graft).coverable
        if 0 in graft.terminals:
            assert 0 in decide(graft, root=0).coverable


def test_replay_kind_guards():
    _, recipe = gen_rake(0, [1], 0, 0)
    with pytest.raises(StructuralInputError):
        replay_witness(recipe)
    with pytest.raises(StructuralInputError):
        ConstructionRecipe("SPANNER", 0, ())


@pytest.mark.parametrize("doc", [
    {"kind": RAKE, "seed": 0, "steps": [{"op": "star", "teeth": [1]}]},
    {"kind": RAKE, "seed": 0, "steps": [1]},
    {"kind": PRIMAL, "seed": 0, "steps": [{"op": "primal", "parts": [], "rake": [
        {"op": "star", "root": "x", "teeth": [1]}]}]},
    {"kind": PRIMAL, "seed": 0, "steps": []},
    {"kind": TAILED, "seed": 0, "steps": [{"op": "tail"}]},
    {"kind": RAKE, "seed": 0, "steps": [{"op": "star", "root": 0, "teeth": [1]},
                                        {"op": "add_edges", "edges": [[0]]}]},
], ids=["star-without-root", "step-not-a-mapping", "root-not-a-number",
        "primal-without-steps", "tailed-without-primal", "side-edge-of-one-end"])
def test_replay_reports_malformed_steps(doc):
    recipe = ConstructionRecipe.from_json(doc)
    with pytest.raises(StructuralInputError, match="malformed recipe step"):
        replay(recipe)
    if recipe.kind == PRIMAL:
        with pytest.raises(StructuralInputError, match="malformed recipe step"):
            replay_witness(recipe)


def test_primal_witness_guard():
    g = validate_graft(Graph(2, [(0, 1)]), {0, 1})
    with pytest.raises(StructuralInputError):
        PrimalWitness(g, 0, frozenset({1}))


def _set(*path_and_value):
    """A mutation of the recipe document setting one field by its path."""
    *path, key, value = path_and_value

    def mutate(doc):
        for p in path:
            doc = doc[p]
        doc[key] = value
    return mutate


def _add_part_vertex(doc):
    # the glued part gets top set {0, 2}, so edge 0 can land off its root
    part = doc["steps"][0]["parts"][0]
    part["part"]["rake"].append({"op": "add_vertex", "vertex": 2, "teeth": [1]})
    part["f"][0] = [0, 2]


RAKE_STEPS = ("steps", 0, "rake")
PART = ("steps", 0, "parts", 0)


# Each case mutates one field of the seed-3 depth-1 primal recipe, whose base
# rake is the star 0-1 (edge 0), vertices 2 and 3 on tooth 1 (edges 1 and
# 2) and the side edges 0-3 and 2-3; the part glued at tooth 1 is a bare
# star with top set {0}.
@pytest.mark.parametrize("mutate, message", [
    (_set(*RAKE_STEPS, 0, "op", "ring"), "rake steps must start with a star"),
    (_set(*RAKE_STEPS, 0, "teeth", [0]),
     "star labels must be distinct and nonnegative"),
    (_set(*RAKE_STEPS, 1, "vertex", 1), "added vertex 1 must be new"),
    (_set(*RAKE_STEPS, 1, "teeth", []), "added vertex needs edges into the teeth"),
    (_set(*RAKE_STEPS, 3, "edges", [[0, 1]]),
     "side edges must join two distinct non-tooth vertices"),
    (_set(*RAKE_STEPS, 3, "edges", [[0, 7]]), "side edge (0, 7) out of range"),
    (_set(*RAKE_STEPS, 3, "op", "grow"), "unknown rake step 'grow'"),
    (_set(*RAKE_STEPS, 3, {"op": "add_vertex", "vertex": 5, "teeth": [1]}),
     "labels must form a contiguous block 0..n-1"),
    (_set("steps", 0, "op", "rake"), "primal steps must carry op=primal"),
    (_set(*PART, "tooth", 2), "every tooth needs a glued part"),
    (_set(*PART, "f", [[0, 0], [1, 0]]),
     "redirect map at site 1 misses its incident edge 2"),
    (_set(*PART, "f", [[0, 0], [1, 1], [2, 0]]),
     "edge 1 redirected outside the top set of site 1"),
    (_add_part_vertex, "the chosen edge at site 1 must land on the part root"),
    (_set(*PART, "chosen", 7), "chosen edge 7 is not incident to site 1"),
], ids=["no-star", "star-label-repeated", "added-vertex-old",
        "added-vertex-no-teeth", "side-edge-at-tooth", "side-edge-out-of-range",
        "unknown-rake-step", "labels-not-contiguous", "primal-op",
        "part-at-no-tooth", "redirect-missing", "redirect-off-top-set",
        "chosen-off-root", "chosen-not-incident"])
def test_replay_names_each_invalid_recipe_step(mutate, message):
    doc = gen_primal(1, 2, seed=3)[1].to_json()
    replay(ConstructionRecipe.from_json(doc))  # the unmutated recipe replays
    mutate(doc)
    recipe = ConstructionRecipe.from_json(doc)
    for replayer in (replay, replay_witness):
        with pytest.raises(StructuralInputError) as err:
            replayer(recipe)
        assert str(err.value) == message


def test_replay_names_an_invalid_tail_step():
    doc = gen_primal(1, 2, seed=3)[1].to_json()
    doc["kind"] = TAILED
    doc["steps"].append({"op": "tail", "vertices": 2, "edges": [[1, 1]],
                         "bridges": [[0, 0]]})
    with pytest.raises(StructuralInputError) as err:
        replay(ConstructionRecipe.from_json(doc))
    assert str(err.value) == "edge 0 (1, 1) is a loop"
    doc["steps"][-1]["op"] = "head"
    with pytest.raises(StructuralInputError) as err:
        replay(ConstructionRecipe.from_json(doc))
    assert str(err.value) == "tailed recipe must end with a tail step"


def test_from_json_names_a_missing_field():
    with pytest.raises(StructuralInputError) as err:
        ConstructionRecipe.from_json({"kind": RAKE, "steps": []})
    assert str(err.value) == "malformed recipe document: 'seed'"


def test_gluing_sum_names_each_invalid_part():
    base = validate_graft(Graph(2, [(0, 1)]), {0, 1})
    part = validate_graft(Graph(2, [(0, 1)]), {0, 1})
    for parts, message in [
        ({}, "site 1 lacks a part, redirect map, or choice"),
        ({1: (part, {0, 2}, 0)}, "top set of the part at 1 is out of range"),
        ({1: (part, {1}, 0)}, "part root at 1 must lie in its top set"),
    ]:
        with pytest.raises(StructuralInputError) as err:
            gluing_sum(base, [1], {1: 0}, parts, {1: {0: 0}})
        assert str(err.value) == message
